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
//
// Exit status: 0 when every check passed, 1 on any failure, 2 on a usage
// error (flags are parsed strictly, see cli.hpp).
#include <cstdint>
#include <iostream>
#include <string>

#include "check/fuzz.hpp"
#include "cli.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: fuzz_schedules [--seed N] [--cases N] [--max-dim N]\n"
         "                      [--tol X] [--no-sanitize] [--matmul-only]\n"
         "                      [--conv-only] [--fused] [--quiet]\n"
         "       fuzz_schedules --op KIND:D1,D2,... [--strategy TEXT]\n"
         "                      [--tol X] [--no-sanitize]\n"
         "operator kinds: matmul:M,N,K | implicit_conv | explicit_conv |\n"
         "  winograd (b,ni,no,ri,ci,kr,kc,stride)\n"
         "--cases and --max-dim are at least 1, --tol is positive, and\n"
         "  --matmul-only and --conv-only exclude each other\n"
         "--fused stamps random epilogues onto implicit-conv draws; a fused\n"
         "  op spec carries the epilogue as a kind suffix, e.g.\n"
         "  implicit_conv+bar,p1:1,32,32,6,6,3,3,1\n";
}

}  // namespace

int main(int argc, char** argv) {
  swatop::check::FuzzOptions opts;
  std::string op_spec;
  std::string strategy;
  bool quiet = false;

  swatop::cli::Args args(argc, argv, usage);
  while (args.more()) {
    const std::string a = args.pop("option");
    if (a == "--seed") {
      opts.seed = static_cast<std::uint64_t>(args.int64(a, args.value(a), 0));
    } else if (a == "--cases") {
      opts.cases = args.int64(a, args.value(a), 1);
    } else if (a == "--max-dim") {
      opts.max_dim = args.int64(a, args.value(a), 1);
    } else if (a == "--tol") {
      opts.tolerance = args.real(a, args.value(a), /*require_positive=*/true);
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
      op_spec = args.value(a);
    } else if (a == "--strategy") {
      strategy = args.value(a);
    } else if (a == "--help" || a == "-h") {
      usage();
      return 0;
    } else {
      args.fail("unknown argument '" + a + "'");
    }
  }
  if (!opts.matmul && !opts.conv)
    args.fail("--matmul-only and --conv-only exclude each other");

  if (!quiet)
    opts.log = [](const std::string& line) { std::cout << line << "\n"; };

  swatop::check::FuzzReport rep;
  if (!op_spec.empty()) {
    if (strategy.empty()) args.fail("--op requires --strategy");
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
