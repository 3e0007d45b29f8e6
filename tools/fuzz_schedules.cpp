// Schedule fuzzer driver. Two modes:
//
//   fuzz_schedules --seed 1 --cases 500
//     Draw random shapes, enumerate every candidate strategy, check the
//     cost model's lower bound against each one's estimate, execute each
//     functionally with the simulator sanitizers armed, diff against the
//     naive reference. Exit 0 iff no check of any kind failed.
//
//   fuzz_schedules --op matmul:72,40,24 --strategy 'f:Tm=8 ...'
//     Replay one (operator, strategy) pair -- the repro one-liner printed
//     for every failure.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "check/fuzz.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: fuzz_schedules [--seed N] [--cases N] [--max-dim N]\n"
         "                      [--tol X] [--no-sanitize] [--matmul-only]\n"
         "                      [--conv-only] [--fused] [--quiet]\n"
         "       fuzz_schedules --op KIND:D1,D2,... [--strategy TEXT]\n"
         "                      [--tol X] [--no-sanitize]\n"
         "operator kinds: matmul:M,N,K | implicit_conv | explicit_conv |\n"
         "  bwd_data | bwd_filter (b,ni,no,ri,ci,kr,kc,stride) |\n"
         "  winograd (...,m)\n"
         "--fused stamps random epilogues onto implicit-conv draws; a fused\n"
         "  op spec carries the epilogue as a kind suffix, e.g.\n"
         "  implicit_conv+bar,p1:1,32,32,6,6,3,3,1\n";
}

}  // namespace

int main(int argc, char** argv) {
  swatop::check::FuzzOptions opts;
  opts.cases = 200;
  std::string op_spec;
  std::string strategy;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << a << "\n";
        usage();
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--seed") {
      opts.seed = std::strtoull(next(), nullptr, 10);
    } else if (a == "--cases") {
      opts.cases = std::strtoll(next(), nullptr, 10);
    } else if (a == "--max-dim") {
      opts.max_dim = std::strtoll(next(), nullptr, 10);
    } else if (a == "--tol") {
      opts.tolerance = std::strtod(next(), nullptr);
    } else if (a == "--no-sanitize") {
      opts.sanitize = false;
    } else if (a == "--matmul-only") {
      opts.conv = false;
    } else if (a == "--conv-only") {
      opts.matmul = false;
    } else if (a == "--fused") {
      opts.fused = true;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--op") {
      op_spec = next();
    } else if (a == "--strategy") {
      strategy = next();
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      std::cerr << "unknown argument: " << a << "\n";
      usage();
      return 2;
    }
  }

  if (!quiet)
    opts.log = [](const std::string& line) { std::cout << line << "\n"; };

  swatop::check::FuzzReport rep;
  if (!op_spec.empty()) {
    if (strategy.empty()) {
      std::cerr << "--op requires --strategy\n";
      usage();
      return 2;
    }
    rep = swatop::check::replay(op_spec, strategy, opts);
  } else {
    rep = swatop::check::fuzz_schedules(opts);
  }

  std::cout << "fuzz: " << rep.cases_run << " cases ("
            << rep.cached_cases << " with a cached operand) over "
            << rep.shapes << " shapes, " << rep.failures.size() << " failure"
            << (rep.failures.size() == 1 ? "" : "s") << "\n";
  for (const auto& f : rep.failures) {
    std::cout << "---\n[" << f.kind << "] " << f.op << "\n  strategy: "
              << f.strategy << "\n  " << f.detail << "\n  repro: " << f.repro
              << "\n";
  }
  return rep.ok() ? 0 : 1;
}
