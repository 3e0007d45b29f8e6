#include "graph/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <unordered_map>
#include <utility>

#include "common/check.hpp"
#include "graph/reference.hpp"
#include "obs/recorder.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/reference.hpp"
#include "ops/winograd.hpp"
#include "sim/chip.hpp"

namespace swatop::graph {

namespace {

constexpr std::pair<ConvMethod, const char*> kMethodNames[] = {
    {ConvMethod::Auto, "auto"},
    {ConvMethod::Implicit, "implicit"},
    {ConvMethod::Explicit, "explicit"},
    {ConvMethod::Winograd, "winograd"},
};

}  // namespace

const char* conv_method_name(ConvMethod m) {
  for (const auto& [method, name] : kMethodNames)
    if (method == m) return name;
  SWATOP_UNREACHABLE("bad conv method");
}

std::optional<ConvMethod> parse_conv_method(const std::string& name) {
  for (const auto& [method, method_name] : kMethodNames)
    if (name == method_name) return method;
  return std::nullopt;
}

namespace {

/// The MPE (management core) runs the elementwise passes: one core with
/// 256-bit vectors, so a handful of flops per cycle -- these passes are
/// bandwidth-bound anyway.
constexpr double kMpeFlopsPerCycle = 4.0;

/// Resolve the per-layer convolution design. Winograd is opt-in and falls
/// back to the Auto rule on layers it cannot run (non-3x3 kernels, input
/// channels not a multiple of the vector width granularity).
ConvMethod resolve_method(ConvMethod req, const ops::ConvShape& s) {
  if (req == ConvMethod::Winograd && ops::WinogradPlan::applicable(s) &&
      s.ni % 8 == 0)
    return ConvMethod::Winograd;
  if (req == ConvMethod::Implicit) {
    SWATOP_CHECK(ops::ImplicitConvOp::applicable(s))
        << "implicit CONV forced but not applicable to " << s.to_string()
        << " (needs stride 1 or ni >= 32)";
    return ConvMethod::Implicit;
  }
  if (req == ConvMethod::Explicit) return ConvMethod::Explicit;
  return ops::ImplicitConvOp::applicable(s) ? ConvMethod::Implicit
                                            : ConvMethod::Explicit;
}

std::unique_ptr<ops::ConvOp> make_conv_op(ConvMethod m,
                                          const ops::ConvShape& s,
                                          const dsl::EpilogueSpec& epi) {
  switch (m) {
    case ConvMethod::Implicit:
      return std::make_unique<ops::ImplicitConvOp>(s, epi);
    case ConvMethod::Explicit: return std::make_unique<ops::ExplicitConvOp>(s);
    case ConvMethod::Winograd: return std::make_unique<ops::WinogradGemmOp>(s);
    case ConvMethod::Auto: break;
  }
  SWATOP_UNREACHABLE("unresolved method");
}

/// One tuned convolution kernel, shared by every node/group with the same
/// (method, shape, sub-batch). The operator definition is kept alive with
/// the handle.
struct TunedConv {
  ConvMethod method = ConvMethod::Implicit;
  std::unique_ptr<ops::ConvOp> op;
  CompiledOp handle;
};

std::string shape_key(ConvMethod m, const ops::ConvShape& s,
                      const dsl::EpilogueSpec& epi = {}) {
  std::string key = std::string(conv_method_name(m)) + "|" + s.to_string();
  if (epi.any()) key += "|epi[" + epi.tag() + "]";
  return key;
}

/// Per-core-group run state: its sub-batch, its arena plan, and its
/// long-lived parameter allocations (outside the activation arena -- a
/// deployment keeps them resident for the network's lifetime).
struct GroupState {
  std::int64_t batch = 0;
  std::int64_t batch0 = 0;  ///< first logical batch index of this group
  MemoryPlan plan;
  sim::MainMemory::Addr arena = 0;
  /// Per conv node: its operator's parameters plus a fused "bias".
  std::unordered_map<std::string, dsl::BoundTensors> params;
  sim::CgStats agg;
};

/// A conv step one core group ran in timing-only mode, kept so a group
/// with the same sub-batch, tensor addresses and resident set -- the
/// same program on the same layout, so the same cycles -- can reuse it.
struct ConvRun {
  std::int64_t batch = 0;
  dsl::BoundTensors bt;
  rt::ResidentSet rs;
  double cycles = 0.0;
  sim::CgStats stats;
  std::int64_t bytes_elided = 0;
};

}  // namespace

GraphEngine::GraphEngine(SwatopConfig cfg) : cfg_(std::move(cfg)) {
  cfg_.cache.enabled = true;
  optimizer_ = std::make_unique<Optimizer>(cfg_);
}

NetRunResult GraphEngine::run(const Graph& g, std::int64_t batch,
                              const NetOptions& opts) {
  SWATOP_CHECK(batch >= 1) << "GraphEngine::run batch " << batch;
  SWATOP_CHECK(opts.groups >= 1 && opts.groups <= 4)
      << "SW26010 has 4 core groups; asked for " << opts.groups;
  g.validate_or_throw();
  const bool functional = opts.mode == sim::ExecMode::Functional;

  NetRunResult res;

  // Epilogue fusion: rewrite the graph before tuning. Only layers the
  // implicit-GEMM design applies to are fused (the in-kernel epilogue is a
  // store-path feature of that lowering); the reference check below always
  // runs on the *original* graph, so fusion is verified end-to-end.
  Graph fused_graph("");
  const Graph* gp = &g;
  if (opts.fusion) {
    fused_graph = fuse_epilogues(g, &res.fusion, [&](const Node& n) {
      return resolve_method(opts.method, g.conv_shape(n, batch)) ==
             ConvMethod::Implicit;
    });
    gp = &fused_graph;
  }
  const Graph& fg = *gp;

  const std::vector<int> order = fg.topo_order();
  const auto shapes = fg.shapes();
  const int steps = static_cast<int>(order.size());

  res.batch = batch;
  const int G = static_cast<int>(
      std::min<std::int64_t>(opts.groups, batch));
  res.groups_used = G;

  std::vector<GroupState> gs(static_cast<std::size_t>(G));
  {
    std::int64_t done = 0;
    for (int gi = 0; gi < G; ++gi) {
      gs[gi].batch = batch / G + (gi < batch % G ? 1 : 0);
      gs[gi].batch0 = done;
      done += gs[gi].batch;
    }
  }

  // Inter-layer SPM residency: pin qualifying tensors on-chip between
  // adjacent steps. Conv-adjacent tensors must fit the core group's
  // aggregate SPM outside the kernels' share (SimConfig::kernel_spm_floats)
  // at the largest sub-batch, and only implicit-GEMM layers qualify --
  // their get/put paths are what the elision models.
  ResidencyPlan rplan;
  if (opts.residency) {
    const sim::SimConfig& m = cfg_.machine;
    ResidencyOptions ro;
    ro.batch = gs[0].batch;
    ro.conv_budget_floats =
        (m.spm_floats() - m.kernel_spm_floats()) * m.num_cpes();
    ro.conv_ok = [&](const Node& n) {
      return resolve_method(opts.method, fg.conv_shape(n, gs[0].batch)) ==
             ConvMethod::Implicit;
    };
    rplan = plan_residency(fg, ro);
  }
  res.resident_tensors = static_cast<std::int64_t>(rplan.resident.size());

  // --- Tune every distinct (method, shape, sub-batch) exactly once, warm
  // through the schedule cache. The Optimizer persists across run() calls,
  // so shapes this engine tuned for *any* earlier graph or batch are cache
  // hits here. ---
  Optimizer& optimizer = *optimizer_;
  std::unordered_map<std::string, TunedConv> tuned;
  const auto tune_t0 = std::chrono::steady_clock::now();
  for (int idx : order) {
    const Node& n = fg.nodes()[static_cast<std::size_t>(idx)];
    if (n.kind != NodeKind::Conv) continue;
    for (const GroupState& st : gs) {
      const ops::ConvShape s = fg.conv_shape(n, st.batch);
      const ConvMethod m = resolve_method(opts.method, s);
      SWATOP_CHECK(!n.epilogue.any() || m == ConvMethod::Implicit)
          << "fused conv '" << n.name << "' resolved to "
          << conv_method_name(m);
      const std::string key = shape_key(m, s, n.epilogue);
      if (tuned.count(key)) continue;
      TunedConv tc;
      tc.method = m;
      tc.op = make_conv_op(m, s, n.epilogue);
      tc.handle = optimizer.optimize(*tc.op);
      if (tc.handle.from_cache) ++res.cache_hits;
      ++res.shapes_tuned;
      res.tune_enumerated += tc.handle.stats.enumerated;
      if (!tc.handle.from_cache)
        res.tune_bounded += tc.handle.stats.valid_candidates;
      res.tune_lowered += tc.handle.stats.lowered;
      res.tune_ranked += tc.handle.stats.ranked;
      res.tune_measured += tc.handle.stats.measured;
      res.tune_ir_nodes += tc.handle.stats.ir_nodes;
      tuned.emplace(key, std::move(tc));
    }
  }
  res.tune_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    tune_t0)
          .count();
  if (const tune::ReplayExecutor* rx = optimizer.replay_executor()) {
    // The memo is shared across run() calls; report this run's share.
    const tune::ReplayStats rs = rx->stats();
    res.replay_hits = rs.hits - replay_hits_seen_;
    res.replay_misses = rs.misses - replay_misses_seen_;
    replay_hits_seen_ = rs.hits;
    replay_misses_seen_ = rs.misses;
  }

  // --- Memory plan + per-group setup (arena, parameters, input fill). ---
  auto conv_of = [&](const Node& n, std::int64_t b) -> const TunedConv& {
    const ops::ConvShape s = fg.conv_shape(n, b);
    return tuned.at(shape_key(resolve_method(opts.method, s), s, n.epilogue));
  };
  sim::Chip chip(cfg_.machine, G);
  for (int gi = 0; gi < G; ++gi) {
    GroupState& st = gs[static_cast<std::size_t>(gi)];
    std::vector<Transient> tr;
    for (int stp = 0; stp < steps; ++stp) {
      const Node& n = fg.nodes()[static_cast<std::size_t>(order[stp])];
      if (n.kind != NodeKind::Conv) continue;
      for (const dsl::TensorSpec& t : conv_of(n, st.batch).op->scratch())
        tr.push_back({n.name + ":" + t.name, t.floats, stp});
    }
    st.plan = plan_memory(fg, st.batch, tr);
    res.planned_peak_floats += st.plan.peak_floats;
    res.naive_floats += st.plan.naive_floats;

    sim::CoreGroup& cg = chip.cg(gi);
    if (!functional) cg.mem().set_materialize(false);
    st.arena = cg.mem().alloc(st.plan.peak_floats, "net:arena");

    for (int idx : order) {
      const Node& n = fg.nodes()[static_cast<std::size_t>(idx)];
      if (n.kind != NodeKind::Conv) continue;
      const TunedConv& tc = conv_of(n, st.batch);
      dsl::BoundTensors& p = st.params[n.name];
      for (const dsl::TensorSpec& t : tc.op->params())
        p[t.name] = cg.mem().alloc(t.floats, n.name + ":" + t.name);
      if (n.epilogue.bias) {
        const std::int64_t No = tc.op->shape().no;
        p["bias"] = cg.mem().alloc(No, n.name + ":bias");
        // Seeded by the *folded Bias node's* name: identical to the bias
        // vector the unfused graph (and the host reference) applies.
        if (functional)
          cg.mem().copy_in(p.at("bias"), make_bias(n.bias_name, No));
      }
      if (functional)
        tc.op->load_weights(cg, p, tc.handle.candidate.strategy,
                            make_weights(n.name, tc.op->shape()));
    }

    if (functional) {
      for (const auto& [t, shape] : fg.inputs()) {
        auto v = cg.mem().view(st.arena + st.plan.entries.at(t).offset,
                               shape.floats(st.batch));
        fill_input(t, shape, st.batch, st.batch0, v.data());
      }
    }
  }

  std::unique_ptr<obs::Recorder> rec;
  if (cfg_.observability.enabled)
    rec = std::make_unique<obs::Recorder>(cfg_.observability);

  // --- Execute the schedule: tensors flow through the arena, the chip
  // timeline advances by the slowest group per step plus the NoC barrier
  // per multi-group convolution launch. ---
  double net_time = 0.0;
  const bool multi = G > 1;
  for (int stp = 0; stp < steps; ++stp) {
    const Node& n = fg.nodes()[static_cast<std::size_t>(order[stp])];
    double step_max = 0.0;
    std::int64_t step_flops = 0;
    LayerReport lr;
    lr.name = n.name;
    lr.kind = node_kind_name(n.kind);
    lr.groups = G;
    std::vector<ConvRun> conv_runs;  // this step's, timing-only mode
    for (int gi = 0; gi < G; ++gi) {
      sim::CoreGroup& cg = chip.cg(gi);
      GroupState& st = gs[static_cast<std::size_t>(gi)];
      auto addr = [&](const std::string& t) {
        return st.arena + st.plan.entries.at(t).offset;
      };
      double cycles = 0.0;
      sim::CgStats stats;
      if (n.kind == NodeKind::Conv) {
        const TunedConv& tc = conv_of(n, st.batch);
        const ops::ConvOp& op = *tc.op;
        if (gi == 0) {
          lr.conv = true;
          lr.fused = n.epilogue.any();
          lr.kind = conv_method_name(tc.method);
          lr.from_cache = tc.handle.from_cache;
          lr.shape = op.shape();
          lr.predicted_cycles = tc.handle.predicted_cycles;
          lr.measured_cycles = tc.handle.measured_cycles;
          dsl::Strategy pick = tc.handle.candidate.strategy;
          pick.set_epilogue({});
          lr.pick = pick.to_string();
        }
        step_flops += op.flops();
        // The layer tensors in the arena, the resident parameters and this
        // step's scratch, by the operator's tensor names.
        dsl::BoundTensors bt = st.params.at(n.name);
        bt["in"] = addr(n.inputs[0]);
        bt["out"] = addr(n.output);
        if (n.epilogue.residual) bt["res"] = addr(n.inputs[1]);
        for (const dsl::TensorSpec& t : op.scratch())
          bt[t.name] = addr(n.name + ":" + t.name);
        if (functional) op.pre_pass(cg, bt);
        // Inter-layer residency: the layer tensors the plan pinned on-chip
        // (implicit GEMM only -- the planner gates conv edges on the
        // method).
        rt::ResidentSet rs;
        if (rplan.resident.count(n.inputs[0])) rs.tensors.insert("in");
        if (rplan.resident.count(n.output)) rs.tensors.insert("out");
        if (n.epilogue.residual && rplan.resident.count(n.inputs[1]))
          rs.tensors.insert("res");
        // A timing-only run is a function of the program, the sub-batch,
        // the tensor addresses and the resident set: a group matching an
        // earlier group of this step reuses its numbers.
        const auto same =
            functional ? conv_runs.end()
                       : std::find_if(conv_runs.begin(), conv_runs.end(),
                                      [&](const ConvRun& r) {
                                        return r.batch == st.batch &&
                                               r.bt == bt &&
                                               r.rs.tensors == rs.tensors;
                                      });
        if (same != conv_runs.end()) {
          cycles = same->cycles;
          stats = same->stats;
          lr.dma_bytes_elided += same->bytes_elided;
        } else {
          // Interpreter::run resets the CG clock and statistics, so the
          // node's cycles are cg.now() afterwards and the pass charges
          // must come after the run.
          const rt::RunResult rr =
              tc.handle.run(cg, bt, opts.mode, rs.empty() ? nullptr : &rs);
          lr.dma_bytes_elided += rr.bytes_elided;
          if (functional) op.post_pass(cg, bt);
          op.charge_passes(cg);
          cycles = cg.now();
          stats = cg.stats();
          if (!functional)
            conv_runs.push_back(
                {st.batch, bt, rs, cycles, stats, rr.bytes_elided});
        }
      } else {
        const double t0 = cg.now();
        const TensorShape& is = shapes.at(n.inputs[0]);
        const TensorShape& os = shapes.at(n.output);
        const std::int64_t b = st.batch;
        const std::int64_t nin = is.floats(b), nout = os.floats(b);
        // SPM residency: a resident operand's reload and a resident
        // output's store never touch DRAM -- the tiles stay on-chip
        // between this pass and its neighbour.
        std::int64_t elide_read = 0, elide_write = 0;
        for (const std::string& t : n.inputs)
          if (rplan.resident.count(t)) elide_read += shapes.at(t).floats(b);
        if (rplan.resident.count(n.output)) elide_write = nout;
        lr.dma_bytes_elided += (elide_read + elide_write) * 4;
        auto charge = [&](std::int64_t read_f, std::int64_t write_f,
                          double mops) {
          cg.charge_dma_cost_sync(ops::pass_cost(
              cg.config(), read_f - elide_read, write_f - elide_write));
          cg.advance_compute(mops / kMpeFlopsPerCycle);
        };
        switch (n.kind) {
          case NodeKind::Bias: {
            if (functional) {
              auto src = cg.mem().view(addr(n.inputs[0]), nin);
              auto dst = cg.mem().view(addr(n.output), nout);
              std::copy(src.begin(), src.end(), dst.begin());
              const std::vector<float> bias = make_bias(n.name, os.channels);
              ops::reference_bias_add(dst.data(), bias.data(), os.hw,
                                      os.channels, os.hw, b);
            }
            charge(nin, nout, static_cast<double>(nout));
            break;
          }
          case NodeKind::Relu: {
            if (functional) {
              auto src = cg.mem().view(addr(n.inputs[0]), nin);
              auto dst = cg.mem().view(addr(n.output), nout);
              std::copy(src.begin(), src.end(), dst.begin());
              ops::reference_relu(dst.data(), nout);
            }
            charge(nin, nout, static_cast<double>(nout));
            break;
          }
          case NodeKind::MaxPool2x2: {
            if (functional) {
              auto src = cg.mem().view(addr(n.inputs[0]), nin);
              auto dst = cg.mem().view(addr(n.output), nout);
              ops::reference_maxpool2x2(src.data(), dst.data(), is.hw,
                                        is.channels, is.hw, b);
            }
            charge(nin, nout, 3.0 * static_cast<double>(nout));
            break;
          }
          case NodeKind::Pad: {
            if (functional) {
              auto src = cg.mem().view(addr(n.inputs[0]), nin);
              auto dst = cg.mem().view(addr(n.output), nout);
              ops::reference_pad(src.data(), dst.data(), is.hw, is.channels,
                                 is.hw, b, n.pad);
            }
            charge(nin, nout, 0.0);
            break;
          }
          case NodeKind::Add: {
            if (functional) {
              auto a = cg.mem().view(addr(n.inputs[0]), nin);
              auto b2 = cg.mem().view(addr(n.inputs[1]), nin);
              auto dst = cg.mem().view(addr(n.output), nout);
              ops::reference_eltwise_add(a.data(), b2.data(), dst.data(),
                                         nout);
            }
            charge(2 * nin, nout, static_cast<double>(nout));
            break;
          }
          case NodeKind::Conv: SWATOP_UNREACHABLE("handled above");
        }
        cycles = cg.now() - t0;
        stats = cg.stats();
      }
      lr.stats.add(stats);
      lr.group_cycles += cycles;
      st.agg.add(stats);
      cg.stats() = sim::CgStats{};
      if (rec && rec->tracing()) {
        obs::TraceEvent ev;
        ev.name = n.name;
        ev.cat = n.kind == NodeKind::Conv ? obs::Category::Compute
                                          : obs::Category::Run;
        ev.tid = obs::Track::kNetCg0 + gi;
        ev.ts = net_time;
        ev.dur = cycles;
        ev.arg_name[0] = "sub_batch";
        ev.arg[0] = st.batch;
        rec->trace_event(std::move(ev));
      }
      step_max = std::max(step_max, cycles);
    }
    const double sync =
        (multi && n.kind == NodeKind::Conv) ? chip.sync_cycles() : 0.0;
    res.sync_cycles += sync;
    net_time += step_max + sync;
    res.flops += step_flops;
    lr.cycles = step_max + sync;
    lr.sync_cycles = sync;
    lr.flops = step_flops;
    if (lr.cycles > 0.0 && step_flops > 0)
      lr.gflops = static_cast<double>(step_flops) / lr.cycles *
                  cfg_.machine.clock_ghz;
    res.dma_bytes_elided += lr.dma_bytes_elided;
    res.layers.push_back(std::move(lr));
  }
  res.cycles = net_time;
  for (const GroupState& st : gs) res.chip_stats.add(st.agg);

  if (res.cycles > 0.0)
    res.gflops = static_cast<double>(res.flops) / res.cycles *
                 cfg_.machine.clock_ghz;
  res.ms_per_batch = res.cycles / (cfg_.machine.clock_ghz * 1e6);
  res.ms_per_image = res.ms_per_batch / static_cast<double>(batch);
  const double peak = cfg_.machine.peak_gflops() * static_cast<double>(G);
  if (peak > 0.0) res.efficiency = res.gflops / peak;

  // --- Functional check against the naive whole-net reference. ---
  if (functional && opts.check) {
    res.checked = true;
    const auto ref = reference_forward(g, batch);
    double max_rel = 0.0;
    for (const std::string& t : g.outputs()) {
      const TensorShape& shp = shapes.at(t);
      const std::vector<float>& rv = ref.at(t);
      double ref_max = 0.0;
      for (float x : rv) ref_max = std::max(ref_max, std::fabs(double(x)));
      double diff = 0.0;
      for (int gi = 0; gi < G; ++gi) {
        const GroupState& st = gs[static_cast<std::size_t>(gi)];
        auto v = chip.cg(gi).mem().view(
            st.arena + st.plan.entries.at(t).offset, shp.floats(st.batch));
        const std::int64_t pos_count = shp.hw * shp.hw * shp.channels;
        for (std::int64_t pos = 0; pos < pos_count; ++pos)
          for (std::int64_t b = 0; b < st.batch; ++b)
            diff = std::max(
                diff, std::fabs(double(
                          v[static_cast<std::size_t>(pos * st.batch + b)] -
                          rv[static_cast<std::size_t>(pos * batch +
                                                      st.batch0 + b)])));
      }
      max_rel = std::max(max_rel, diff / (ref_max + 1e-30));
    }
    res.max_rel_err = max_rel;
  }

  if (rec) {
    obs::Counters& c = rec->counters();
    c.total_cycles = res.cycles;
    c.compute_cycles = res.chip_stats.compute_cycles;
    c.gemm_cycles = res.chip_stats.gemm_cycles;
    c.gemm_comm_cycles = res.chip_stats.gemm_comm_cycles;
    c.pipe = res.chip_stats.pipe;
    c.flops = res.chip_stats.flops;
    c.gemm_calls = res.chip_stats.gemm_calls;
    c.dma.stall_cycles = res.chip_stats.dma_stall_cycles;
    c.dma.queue_wait_cycles = res.chip_stats.dma_queue_wait_cycles;
    c.dma.bytes_requested = res.chip_stats.dma_bytes_requested;
    c.dma.bytes_wasted = res.chip_stats.dma_bytes_wasted;
    c.dma.bytes_elided = res.dma_bytes_elided;
    c.dma.transactions = res.chip_stats.dma_transactions;
    c.dma.transfers = res.chip_stats.dma_transfers;
    c.arena_planned_bytes = res.planned_peak_floats * 4;
    c.arena_naive_bytes = res.naive_floats * 4;
    rec->tune().seconds = res.tune_seconds;
    rec->tune().cache_hits = res.cache_hits;
    rec->tune().cache_misses = res.shapes_tuned - res.cache_hits;
    rec->tune().replay_hits = res.replay_hits;
    rec->tune().replay_misses = res.replay_misses;
    res.profile = obs::Profile::snapshot(*rec);
  }
  return res;
}

}  // namespace swatop::graph
