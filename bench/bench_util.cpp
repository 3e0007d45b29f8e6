#include "bench_util.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "baseline/manual_explicit.hpp"
#include "baseline/manual_winograd.hpp"
#include "baseline/swdnn_conv.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/winograd.hpp"

namespace swatop::bench {

bool full_scale() {
  const char* v = std::getenv("SWATOP_FULL");
  return v != nullptr && v[0] == '1';
}

std::vector<ops::ConvShape> listing1_shapes(std::int64_t batch) {
  const std::vector<std::int64_t> chans_full = {64, 128, 256, 384, 512};
  const std::vector<std::int64_t> ro_full = {32, 64, 128, 256};
  const std::vector<std::int64_t> chans_quick = {64, 256, 512};
  const std::vector<std::int64_t> ro_quick = {32, 128};
  const auto& chans = full_scale() ? chans_full : chans_quick;
  const auto& ros = full_scale() ? ro_full : ro_quick;

  std::vector<ops::ConvShape> out;
  for (std::int64_t ni : chans) {
    for (std::int64_t no : chans) {
      if (ni < no) continue;  // Listing 1's `if [$Ni >= $No]`
      for (std::int64_t ro : ros) {
        ops::ConvShape s;
        s.batch = batch;
        s.ni = ni;
        s.no = no;
        s.ri = ro + 2;
        s.ci = ro + 2;
        s.kr = 3;
        s.kc = 3;
        out.push_back(s);
      }
    }
  }
  return out;
}

std::vector<GemmShape> listing2_unaligned() {
  const std::vector<std::int64_t> full = {200, 500, 1000, 2000, 4000, 8000};
  const std::vector<std::int64_t> quick = {200, 1000, 8000};
  const auto& dims = full_scale() ? full : quick;
  std::vector<GemmShape> out;
  for (std::int64_t m : dims)
    for (std::int64_t n : dims)
      for (std::int64_t k : dims) out.push_back({m, n, k});
  return out;
}

std::vector<GemmShape> listing2_aligned() {
  const std::vector<std::int64_t> full = {256,  512,  768, 1024,
                                          2048, 4096, 8192};
  const std::vector<std::int64_t> quick = {256, 1024, 8192};
  const auto& dims = full_scale() ? full : quick;
  std::vector<GemmShape> out;
  for (std::int64_t m : dims)
    for (std::int64_t n : dims)
      for (std::int64_t k : dims) out.push_back({m, n, k});
  return out;
}

double tuned_cycles(const dsl::OperatorDef& op, const sim::SimConfig& cfg,
                    tune::TunerStats* stats) {
  const tune::ModelTuner tuner(cfg);
  const tune::Tuned t = tuner.tune(op);
  if (stats != nullptr) *stats = t.stats;
  return tune::measure_candidate(op, t.candidate, cfg);
}

MethodResult run_implicit(const ops::ConvShape& s,
                          const sim::SimConfig& cfg) {
  MethodResult r;
  const ops::ImplicitConvOp op(s);
  r.swatop_cycles = tuned_cycles(op, cfg);
  if (baseline::SwDnnConv::applicable(s))
    r.manual_cycles = baseline::SwDnnConv(cfg).cycles(s);
  r.gflops = static_cast<double>(s.flops()) / r.swatop_cycles * cfg.clock_ghz;
  r.efficiency = r.gflops / cfg.peak_gflops();
  return r;
}

MethodResult run_winograd(const ops::ConvShape& s,
                          const sim::SimConfig& cfg) {
  MethodResult r;
  const ops::WinogradGemmOp op(s);
  r.swatop_cycles = tuned_cycles(op, cfg) + op.pass_cycles(cfg);
  r.manual_cycles = baseline::ManualWinogradConv(cfg).cycles(s);
  r.gflops = static_cast<double>(s.flops()) / r.swatop_cycles * cfg.clock_ghz;
  r.efficiency = r.gflops / cfg.peak_gflops();
  return r;
}

MethodResult run_explicit(const ops::ConvShape& s,
                          const sim::SimConfig& cfg) {
  MethodResult r;
  const ops::ExplicitConvOp op(s);
  r.swatop_cycles = tuned_cycles(op, cfg) + op.pass_cycles(cfg);
  r.manual_cycles = baseline::ManualExplicitConv(cfg).cycles(s);
  r.gflops = static_cast<double>(s.flops()) / r.swatop_cycles * cfg.clock_ghz;
  r.efficiency = r.gflops / cfg.peak_gflops();
  return r;
}

namespace {

std::string js_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

BenchJson::BenchJson(std::string name) : name_(std::move(name)) {}

BenchJson::~BenchJson() {
  if (!written_) write();
}

void BenchJson::add(const std::string& case_name, const Config& config,
                    const Metrics& metrics, double cycles) {
  cases_.push_back({case_name, config, metrics, cycles});
}

std::string BenchJson::json() const {
  std::ostringstream os;
  os << "{\"name\": \"" << js_escape(name_) << "\", \"full_scale\": "
     << (full_scale() ? "true" : "false") << ", \"cases\": [";
  bool first = true;
  for (const Case& c : cases_) {
    if (!first) os << ",";
    first = false;
    os << "\n  {\"name\": \"" << js_escape(c.name) << "\", \"config\": {";
    bool f2 = true;
    for (const auto& [k, v] : c.config) {
      if (!f2) os << ", ";
      f2 = false;
      os << '"' << js_escape(k) << "\": \"" << js_escape(v) << '"';
    }
    os << "}, \"metrics\": {";
    f2 = true;
    for (const auto& [k, v] : c.metrics) {
      if (!f2) os << ", ";
      f2 = false;
      os << '"' << js_escape(k) << "\": ";
      // Counts print exactly (the stream's 6 significant digits would
      // round a count past a million, and CI gates some counts exactly).
      if (v == std::floor(v) && std::abs(v) < 1e15)
        os << static_cast<long long>(v);
      else
        os << v;
    }
    os << "}, \"cycles\": " << c.cycles << "}";
  }
  os << "\n]}\n";
  return os.str();
}

std::string BenchJson::write() {
  written_ = true;
  std::string dir;
  if (const char* d = std::getenv("SWATOP_BENCH_DIR")) dir = d;
  const std::string path =
      (dir.empty() ? std::string() : dir + "/") + "BENCH_" + name_ + ".json";
  std::ofstream f(path);
  if (!f) return "";
  f << json();
  if (!f) return "";
  std::printf("bench json: %s\n", path.c_str());
  return path;
}

void add_conv_case(BenchJson& bj, const std::string& net, std::int64_t batch,
                   const std::string& layer, const ops::ConvShape& s,
                   const MethodResult& r) {
  BenchJson::Metrics m = {{"gflops", r.gflops},
                          {"efficiency", r.efficiency}};
  if (r.manual_cycles > 0.0) {
    m.push_back({"manual_cycles", r.manual_cycles});
    m.push_back({"speedup", r.speedup()});
  }
  bj.add(net + "/" + layer + "/b" + std::to_string(batch),
         {{"net", net},
          {"layer", layer},
          {"batch", std::to_string(batch)},
          {"shape", s.to_string()}},
         m, r.swatop_cycles);
}

double geomean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += std::log(x);
  return std::exp(acc / static_cast<double>(xs.size()));
}

void print_title(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
  if (!full_scale())
    std::printf("(reduced sweep; set SWATOP_FULL=1 for paper scale)\n");
}

void print_row(const std::vector<std::string>& cells, int width) {
  for (const std::string& c : cells) std::printf("%-*s", width, c.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

std::string fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", prec, v);
  return buf;
}

}  // namespace swatop::bench
