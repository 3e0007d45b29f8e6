#include "serve/batcher.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"

namespace swatop::serve {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

DynamicBatcher::DynamicBatcher(BatcherConfig cfg) : cfg_(std::move(cfg)) {
  SWATOP_CHECK(cfg_.max_batch >= 1) << "max_batch " << cfg_.max_batch;
  SWATOP_CHECK(cfg_.max_wait_us >= 0.0) << "max_wait " << cfg_.max_wait_us;
  if (!cfg_.coalesce) {
    cfg_.max_batch = 1;
    cfg_.ladder = {1};
  }
  if (cfg_.ladder.empty())
    for (std::int64_t s = 1; s <= cfg_.max_batch; s *= 2)
      cfg_.ladder.push_back(s);
  SWATOP_CHECK(cfg_.ladder.front() == 1)
      << "ladder must start at 1 so any queue can dispatch";
  for (std::size_t i = 0; i < cfg_.ladder.size(); ++i) {
    SWATOP_CHECK(i == 0 || cfg_.ladder[i] > cfg_.ladder[i - 1])
        << "ladder must be strictly ascending";
    SWATOP_CHECK(cfg_.ladder[i] <= cfg_.max_batch)
        << "ladder size " << cfg_.ladder[i] << " > max_batch "
        << cfg_.max_batch;
  }
}

void DynamicBatcher::enqueue(const Request& r, std::size_t index) {
  SWATOP_CHECK(r.images >= 1) << "request " << r.id << " with " << r.images
                              << " images";
  NetQueue& nq = queues_[r.net];
  nq.q.push_back({r.id, index, r.images, r.arrival_us, next_seq_++});
  nq.images += r.images;
  queued_images_ += r.images;
  ++queued_requests_;
}

std::int64_t DynamicBatcher::drop(std::int64_t request_id) {
  for (auto& [net, nq] : queues_) {
    for (auto it = nq.q.begin(); it != nq.q.end(); ++it) {
      if (it->request_id != request_id) continue;
      const std::int64_t images = it->images_left;
      nq.images -= images;
      queued_images_ -= images;
      --queued_requests_;
      nq.q.erase(it);
      return images;
    }
  }
  return 0;
}

bool DynamicBatcher::net_ready(const NetQueue& nq, double now_us,
                               bool drain) const {
  if (nq.q.empty()) return false;
  if (drain || !cfg_.coalesce) return true;
  if (nq.images >= cfg_.max_batch) return true;
  // Same expression next_deadline_us() hands the event loop, so when the
  // loop advances to that instant this comparison is true bit-for-bit
  // (computing `now - arrival >= wait` instead can round the other way and
  // wedge the loop at t == now).
  return now_us >= nq.q.front().arrival_us + cfg_.max_wait_us;
}

double DynamicBatcher::next_deadline_us(double now_us) const {
  // Earliest *future* instant a currently-not-ready network becomes ready
  // by its head timing out. Already-ready networks are dispatchable now
  // (gated only on chip availability) and empty queues have no deadline --
  // both contribute +inf, so an idle server never busy-waits here.
  double t = kInf;
  for (const auto& [net, nq] : queues_) {
    if (nq.q.empty() || net_ready(nq, now_us, /*drain=*/false)) continue;
    t = std::min(t, nq.q.front().arrival_us + cfg_.max_wait_us);
  }
  return t;
}

bool DynamicBatcher::ready(double now_us, bool drain) const {
  for (const auto& [net, nq] : queues_)
    if (net_ready(nq, now_us, drain)) return true;
  return false;
}

const std::string* DynamicBatcher::pick_net(double now_us,
                                            bool drain) const {
  const std::string* best = nullptr;
  std::int64_t best_seq = 0;
  for (const auto& [net, nq] : queues_) {
    if (!net_ready(nq, now_us, drain)) continue;
    if (best == nullptr || nq.q.front().seq < best_seq) {
      best = &net;
      best_seq = nq.q.front().seq;
    }
  }
  return best;
}

SubBatch DynamicBatcher::plan(const NetQueue& nq,
                              const std::string& net) const {
  // Largest cached ladder size the queued images can fill.
  std::int64_t size = cfg_.ladder.front();
  for (std::int64_t s : cfg_.ladder)
    if (s <= std::min(nq.images, cfg_.max_batch)) size = s;

  SubBatch sb;
  sb.net = net;
  sb.images = size;
  sb.oldest_arrival_us = nq.q.front().arrival_us;
  std::int64_t taken = 0;
  for (auto it = nq.q.begin(); taken < size; ++it) {
    SWATOP_CHECK(it != nq.q.end()) << "batcher accounting out of sync";
    const std::int64_t take = std::min(it->images_left, size - taken);
    sb.slices.push_back(
        {it->request_id, it->index, take, take == it->images_left});
    sb.oldest_arrival_us = std::min(sb.oldest_arrival_us, it->arrival_us);
    taken += take;
  }
  return sb;
}

void DynamicBatcher::consume(const std::string& net, const SubBatch& sb) {
  NetQueue& nq = queues_.at(net);
  for (const SubBatch::Slice& s : sb.slices) {
    SWATOP_CHECK(!nq.q.empty() && nq.q.front().request_id == s.request_id)
        << "sub-batch does not match the queue head";
    nq.q.front().images_left -= s.images;
    if (nq.q.front().images_left == 0) {
      nq.q.pop_front();
      --queued_requests_;
    }
  }
  nq.images -= sb.images;
  queued_images_ -= sb.images;
}

std::optional<SubBatch> DynamicBatcher::pop(double now_us, bool drain) {
  const std::string* net = pick_net(now_us, drain);
  if (net == nullptr) return std::nullopt;
  SubBatch sb = plan(queues_.at(*net), *net);
  consume(*net, sb);
  return sb;
}

std::optional<SubBatch> DynamicBatcher::peek(double now_us,
                                             bool drain) const {
  const std::string* net = pick_net(now_us, drain);
  if (net == nullptr) return std::nullopt;
  return plan(queues_.at(*net), *net);
}

std::int64_t DynamicBatcher::queued_images(const std::string& net) const {
  const auto it = queues_.find(net);
  return it == queues_.end() ? 0 : it->second.images;
}

}  // namespace swatop::serve
