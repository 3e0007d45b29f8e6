#include "serve/cost.hpp"

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "graph/build.hpp"

namespace swatop::serve {

EngineCostProvider::EngineCostProvider(SwatopConfig cfg)
    : EngineCostProvider(std::move(cfg), Options{}) {}

EngineCostProvider::EngineCostProvider(SwatopConfig cfg, Options opts)
    : opts_(opts), engine_(std::move(cfg)) {
  SWATOP_CHECK(opts_.groups_per_chip >= 1 && opts_.groups_per_chip <= 4)
      << "SW26010 has 4 core groups per chip; asked for "
      << opts_.groups_per_chip;
}

ChipCost EngineCostProvider::cost(const std::string& net,
                                  std::int64_t images) {
  SWATOP_CHECK(images >= 1) << "cost for " << images << " images";
  const std::lock_guard<std::mutex> lock(mu_);
  const auto key = std::make_pair(net, images);
  if (const auto it = memo_.find(key); it != memo_.end()) {
    ++stats_.memo_hits;
    return it->second;
  }
  auto git = graphs_.find(net);
  if (git == graphs_.end())
    git = graphs_.emplace(net, graph::build_net(net)).first;

  graph::NetOptions opts;
  opts.groups = static_cast<int>(
      std::min<std::int64_t>(opts_.groups_per_chip, images));
  opts.method = opts_.method;
  opts.fusion = opts_.fusion;
  opts.residency = opts_.residency;
  opts.mode = sim::ExecMode::TimingOnly;
  const graph::NetRunResult r = engine_.run(git->second, images, opts);

  ChipCost c;
  c.cycles = r.cycles;
  c.us = r.cycles / (engine_.config().machine.clock_ghz * 1e3);
  c.groups = r.groups_used;
  ++stats_.profiles;
  stats_.shapes_tuned += r.shapes_tuned;
  stats_.cache_hits += r.cache_hits;
  memo_.emplace(key, c);  // memoized entries report profiled_fresh = false
  ChipCost out = c;
  out.profiled_fresh = true;
  return out;
}

CostProviderStats EngineCostProvider::stats() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

ChipCost SyntheticCostProvider::cost(const std::string& /*net*/,
                                     std::int64_t images) {
  SWATOP_CHECK(images >= 1) << "cost for " << images << " images";
  const int groups = static_cast<int>(
      std::min<std::int64_t>(groups_per_chip_, images));
  ChipCost c;
  c.groups = groups;
  // Contiguous batch slices over the groups: the slowest group carries
  // ceil(images / groups) of them, same as the engine's split.
  c.us = kLaunchUs + kImageUs * static_cast<double>(ceil_div(images, groups));
  c.cycles = c.us * 1.45e3;  // nominal SW26010 clock, for symmetry only
  return c;
}

}  // namespace swatop::serve
