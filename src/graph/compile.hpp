// swatop::compile -- the front door of the library. One call turns a
// thing-to-run (a single dsl::OperatorDef, or a whole graph::Graph) plus
// one SwatopConfig into a compiled handle:
//
//   auto net = swatop::compile(swatop::graph::build_net("vgg16"), cfg);
//   auto r = net.run(/*batch=*/4, opts);   // tune + plan + execute
//   std::cout << net.report();             // attribution, roofline, fusion
//   net.journal().write_jsonl("tune.jsonl");
//
//   auto op = swatop::compile(conv, cfg);  // single-operator flavour
//   auto rr = op.run();                    // CompiledOp (core/swatop.hpp)
//
// compile(graph) is where the graph-level optimizations live: epilogue
// fusion (graph/fuse.hpp) and inter-layer SPM residency
// (graph/memory_plan.hpp) run inside CompiledNet::run under
// NetOptions::fusion / NetOptions::residency, and NetOptions::groups
// splits the batch over core groups -- the one multi-core-group path.
// Both handles own the tuning journal when the caller provides none.
// graph::GraphEngine, which CompiledNet wraps, stays public for callers
// that run many graphs through one schedule cache (the serving layer).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/swatop.hpp"
#include "graph/engine.hpp"
#include "graph/net_report.hpp"
#include "tune/journal.hpp"

namespace swatop {

/// A compiled network: the graph, the engine that tunes/plans/executes it,
/// and the journal + last result that report() renders. Obtained from
/// compile(graph, cfg). Copyable graphs make the handle self-contained;
/// the handle itself is move-only.
class CompiledNet {
 public:
  CompiledNet(CompiledNet&&) = default;
  CompiledNet& operator=(CompiledNet&&) = default;

  /// Tune every distinct layer (through the schedule cache), run the
  /// fusion + residency passes per `opts`, plan the activation arena and
  /// execute the whole graph at `batch`. The result is returned and kept
  /// for report(). Throws swatop::CheckError on an invalid graph/options.
  graph::NetRunResult run(std::int64_t batch,
                          const graph::NetOptions& opts = {});

  /// The last run's result. Throws swatop::CheckError before the first
  /// run().
  const graph::NetRunResult& result() const;

  /// The full per-layer attribution / roofline / fusion report of the
  /// last run, with this net's journal attached (text or JSON). Throws
  /// before the first run().
  std::string report(graph::NetReportOptions o = {}) const;
  std::string report_json(graph::NetReportOptions o = {}) const;

  /// Every candidate the engine's tuners considered across all runs.
  const tune::Journal& journal() const { return *journal_; }

  const graph::Graph& graph() const { return graph_; }
  const SwatopConfig& config() const { return engine_->config(); }

 private:
  friend CompiledNet compile(graph::Graph g, SwatopConfig cfg);
  CompiledNet(graph::Graph g, SwatopConfig cfg);

  graph::Graph graph_;
  std::unique_ptr<tune::Journal> owned_journal_;  ///< null if caller's
  tune::Journal* journal_ = nullptr;
  std::unique_ptr<graph::GraphEngine> engine_;
  graph::NetRunResult last_{};
  bool ran_ = false;
};

/// Compile a whole network. The graph is copied into the handle. When
/// cfg.journal is unset the handle owns a journal (journal() returns it);
/// when set, tuning appends to the caller's journal and journal() views
/// it.
CompiledNet compile(graph::Graph g, SwatopConfig cfg = {});

/// Compile a single operator: tune + codegen now, execute via run().
/// `op` must outlive the returned handle. When cfg.journal is unset the
/// handle owns a journal (journal() returns it).
CompiledOp compile(const dsl::OperatorDef& op, SwatopConfig cfg = {});

}  // namespace swatop
