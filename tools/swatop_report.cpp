// swatop_report: one command that explains where the cycles went and what
// the tuner did. Runs a whole network (graph engine) or a single operator
// (optimizer + interpreter) with observability and the tuning journal on,
// then renders:
//   - the per-layer network breakdown with cycle-attribution shares,
//   - the exact whole-run cycle attribution (categories sum to elapsed),
//   - the roofline table (every span's roof and the share achieved),
//   - the tuning-journal summary (model error, rank correlation, regret),
//   - (op mode) the observability profile report,
// as text (default) or one JSON object (--json).
//
//   swatop_report net vgg16 4 --groups 2
//   swatop_report net resnet 8 --json
//   swatop_report op matmul 512 512 512 --top-k 4
//   swatop_report op conv 56 56 128 128 3 8
//
// Exit status: 0 on success, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cli.hpp"
#include "common/check.hpp"
#include "graph/build.hpp"
#include "graph/compile.hpp"
#include "obs/attribution.hpp"
#include "obs/roofline.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/matmul.hpp"
#include "tune/journal.hpp"

namespace {

void usage() {
  std::cerr
      << "usage: swatop_report net <vgg16|resnet|yolo> <batch>\n"
         "         [--groups N]     core groups (1-4, default 1)\n"
         "         [--method M]     auto|implicit|explicit|winograd\n"
         "       swatop_report op matmul <M> <N> <K>\n"
         "       swatop_report op conv <ri> <ci> <ni> <no> <k> <batch>\n"
         "         [--top-k K]      measure the K model-ranked best\n"
         "       swatop_report serve-timeline <timeline.jsonl>\n"
         "         render a serve_sim --timeline file as a table\n"
         "       common options:\n"
         "         [--json]         one JSON object instead of text\n"
         "         [--journal FILE] also write the journal JSONL\n";
}

/// The options every mode shares; true when `a` was one of them.
struct CommonArgs {
  bool json = false;
  std::string journal_path;

  bool parse(swatop::cli::Args& args, const std::string& a) {
    if (a == "--json") {
      json = true;
    } else if (a == "--journal") {
      journal_path = args.value(a);
    } else {
      return false;
    }
    return true;
  }
};

int report_net(swatop::cli::Args& args) {
  const std::string net = args.pop("network name");
  const std::int64_t batch = args.int64("batch", args.pop("batch size"), 1);
  swatop::SwatopConfig cfg;
  swatop::graph::NetOptions opts;
  opts.mode = swatop::sim::ExecMode::TimingOnly;
  opts.check = false;
  CommonArgs c;
  while (args.more()) {
    const std::string a = args.pop("option");
    if (a == "--groups") {
      opts.groups = static_cast<int>(args.int64(a, args.value(a), 1, 4));
    } else if (a == "--method") {
      const std::string v = args.value(a);
      const auto m = swatop::graph::parse_conv_method(v);
      if (!m)
        args.fail("unknown method '" + v +
                  "' (expected auto, implicit, explicit or winograd)");
      opts.method = *m;
    } else if (!c.parse(args, a)) {
      args.fail("unknown option '" + a + "'");
    }
  }

  swatop::CompiledNet compiled =
      swatop::compile(swatop::graph::build_net(net), cfg);
  compiled.run(batch, opts);

  if (c.json)
    std::printf("%s\n", compiled.report_json().c_str());
  else
    std::printf("%s", compiled.report().c_str());
  if (!c.journal_path.empty())
    compiled.journal().write_jsonl(c.journal_path);
  return 0;
}

int report_op(swatop::cli::Args& args) {
  const std::string kind = args.pop("operator kind");
  auto dim = [&](const char* what) {
    return args.int64(what, args.pop(what), 1);
  };
  std::unique_ptr<swatop::dsl::OperatorDef> op;
  if (kind == "matmul") {
    const std::int64_t M = dim("M"), N = dim("N"), K = dim("K");
    op = std::make_unique<swatop::ops::MatmulOp>(M, N, K);
  } else if (kind == "conv") {
    swatop::ops::ConvShape s;
    s.ri = dim("ri");
    s.ci = dim("ci");
    s.ni = dim("ni");
    s.no = dim("no");
    s.kr = s.kc = dim("k");
    s.batch = dim("batch");
    op = std::make_unique<swatop::ops::ImplicitConvOp>(s);
  } else {
    args.fail("unknown operator '" + kind + "'");
  }

  swatop::SwatopConfig cfg;
  cfg.observability.enabled = true;
  cfg.tune_top_k = 1;  // measure the model's pick
  CommonArgs c;
  while (args.more()) {
    const std::string a = args.pop("option");
    if (a == "--top-k") {
      cfg.tune_top_k = static_cast<int>(
          args.int64(a, args.value(a), 1, std::numeric_limits<int>::max()));
    } else if (!c.parse(args, a)) {
      args.fail("unknown option '" + a + "'");
    }
  }

  swatop::CompiledOp compiled = swatop::compile(*op, cfg);
  const swatop::rt::RunResult r =
      compiled.run(swatop::sim::ExecMode::TimingOnly);
  const swatop::obs::Counters& cnt = r.profile.counters;
  const swatop::obs::Attribution attr = swatop::obs::attribute(cnt);
  const swatop::obs::RooflineMachine m =
      swatop::graph::roofline_machine(cfg.machine);
  const std::vector<swatop::obs::RooflinePoint> pts = {
      swatop::obs::roofline_place(op->name(), cnt, m)};

  if (c.json) {
    std::printf(
        "{\"op\": \"%s\", \"strategy\": \"%s\", \"cycles\": %.0f, "
        "\"predicted_cycles\": %.0f, \"events_dropped\": %lld, "
        "\"attribution\": %s, \"roofline\": %s, "
        "\"journal\": %s}\n",
        op->name().c_str(), compiled.candidate.strategy.to_string().c_str(),
        r.cycles, compiled.predicted_cycles,
        static_cast<long long>(r.profile.events_dropped),
        swatop::obs::attribution_json(attr).c_str(),
        swatop::obs::roofline_json(pts, m).c_str(),
        swatop::tune::journal_summary_json(compiled.journal()).c_str());
  } else {
    std::printf("%s: picked %s, %.0f cycles (model predicted %.0f)\n\n",
                op->name().c_str(),
                compiled.candidate.strategy.to_string().c_str(), r.cycles,
                compiled.predicted_cycles);
    std::fputs(swatop::obs::attribution_report(attr).c_str(), stdout);
    std::printf("\n%s", swatop::obs::roofline_report(pts, m).c_str());
    std::printf("\n%s", swatop::tune::journal_summary(compiled.journal()).c_str());
    std::printf("\n%s", r.profile.report().c_str());
  }
  if (!c.journal_path.empty())
    compiled.journal().write_jsonl(c.journal_path);
  return 0;
}

/// Numeric value of a top-level `"key":` in one JSONL line (0 when
/// absent). The caller slices off nested arrays first so the scan cannot
/// land on a per-net field of the same name.
double num_field(const std::string& s, const char* key) {
  const std::string pat = std::string("\"") + key + "\":";
  const std::size_t pos = s.find(pat);
  if (pos == std::string::npos) return 0.0;
  return std::strtod(s.c_str() + pos + pat.size(), nullptr);
}

/// Render a serve_sim --timeline JSONL as a table, one row per window.
/// Deliberately a key scanner, not a JSON parser: the emitter's field
/// order and spelling are part of its determinism contract, so scanning
/// for `"key":` is reliable here (and keeps the tool dependency-free).
int report_serve_timeline(swatop::cli::Args& args) {
  const std::string path = args.pop("timeline file");
  std::ifstream is(path);
  if (!is) {
    std::cerr << "error: cannot open " << path << "\n";
    return 2;
  }
  std::printf("== serving timeline ==\n");
  std::printf(
      "%6s %9s %7s %6s %4s %5s %5s %6s %5s %9s %9s  %s\n", "window", "t0[ms]",
      "arrive", "admit", "rej", "shed", "done", "queue", "busy", "p50[ms]",
      "p99[ms]", "alerts");
  std::string line;
  std::int64_t windows = 0, alerts_total = 0;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    // Top-level fields live before the nested "nets" array.
    const std::size_t nets = line.find(",\"nets\":");
    const std::string head =
        nets == std::string::npos ? line : line.substr(0, nets);
    // Burn alerts are embedded in the window line that raised them.
    std::string alerts;
    const std::size_t ap = line.find("\"alerts\":[");
    if (ap != std::string::npos) {
      std::size_t p = ap;
      while ((p = line.find("{\"net\":\"", p)) != std::string::npos) {
        p += 8;
        const std::size_t e = line.find('"', p);
        if (e == std::string::npos) break;
        if (!alerts.empty()) alerts += ",";
        alerts += line.substr(p, e - p);
        ++alerts_total;
      }
      if (!alerts.empty()) alerts = "! " + alerts;
    }
    std::printf(
        "%6lld %9.1f %7lld %6lld %4lld %5lld %5lld %6lld %5lld %9.2f %9.2f"
        "  %s\n",
        static_cast<long long>(num_field(head, "window")),
        num_field(head, "start_us") / 1e3,
        static_cast<long long>(num_field(head, "arrivals")),
        static_cast<long long>(num_field(head, "admitted")),
        static_cast<long long>(num_field(head, "rejected")),
        static_cast<long long>(num_field(head, "shed")),
        static_cast<long long>(num_field(head, "completed")),
        static_cast<long long>(num_field(head, "queue_images")),
        static_cast<long long>(num_field(head, "busy_chips")),
        num_field(head, "p50_ms"), num_field(head, "p99_ms"),
        alerts.c_str());
    ++windows;
  }
  std::printf("%lld windows, %lld burn alerts\n",
              static_cast<long long>(windows),
              static_cast<long long>(alerts_total));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  swatop::cli::Args args(argc, argv, usage);
  const std::string mode = args.pop("mode");
  try {
    if (mode == "net") return report_net(args);
    if (mode == "op") return report_op(args);
    if (mode == "serve-timeline") return report_serve_timeline(args);
    args.fail("unknown mode '" + mode + "'");
  } catch (const swatop::CheckError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
}
