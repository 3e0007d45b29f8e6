#include "graph/compile.hpp"

#include <memory>
#include <utility>

#include "common/check.hpp"

namespace swatop {

CompiledOp compile(const dsl::OperatorDef& op, SwatopConfig cfg) {
  std::unique_ptr<tune::Journal> owned;
  if (!cfg.journal) {
    owned = std::make_unique<tune::Journal>();
    cfg.journal = owned.get();
  }
  CompiledOp c = Optimizer(std::move(cfg)).optimize(op);
  c.owned_journal_ = std::move(owned);
  return c;
}

// --------------------------------------------------------------- CompiledNet

CompiledNet::CompiledNet(graph::Graph g, SwatopConfig cfg)
    : graph_(std::move(g)) {
  if (!cfg.journal) {
    owned_journal_ = std::make_unique<tune::Journal>();
    cfg.journal = owned_journal_.get();
  }
  journal_ = cfg.journal;
  engine_ = std::make_unique<graph::GraphEngine>(std::move(cfg));
}

graph::NetRunResult CompiledNet::run(std::int64_t batch,
                                     const graph::NetOptions& opts) {
  last_ = engine_->run(graph_, batch, opts);
  ran_ = true;
  return last_;
}

const graph::NetRunResult& CompiledNet::result() const {
  SWATOP_CHECK(ran_) << "CompiledNet::result() before the first run()";
  return last_;
}

std::string CompiledNet::report(graph::NetReportOptions o) const {
  SWATOP_CHECK(ran_) << "CompiledNet::report() before the first run()";
  if (!o.journal) o.journal = journal_;
  return graph::net_report(last_, config().machine, o);
}

std::string CompiledNet::report_json(graph::NetReportOptions o) const {
  SWATOP_CHECK(ran_) << "CompiledNet::report_json() before the first run()";
  if (!o.journal) o.journal = journal_;
  return graph::net_report_json(last_, config().machine, o);
}

CompiledNet compile(graph::Graph g, SwatopConfig cfg) {
  return CompiledNet(std::move(g), std::move(cfg));
}

}  // namespace swatop
