// Request queue + dynamic batcher: coalesce compatible requests into
// sub-batches matched to the schedule-cache ladder.
//
// Requests queue per network (a sub-batch never mixes networks -- one
// tuned whole-net schedule runs one graph). A network's queue becomes
// *ready* to dispatch when it can fill `max_batch` images, or when its
// oldest request has waited `max_wait_us` (the latency knob: a lonely
// request never waits longer than that for company). Sub-batch sizes are
// quantized to a ladder of cached sizes (default powers of two up to
// max_batch) so a serving run prices each (net, size) once through the
// schedule cache instead of tuning every arithmetic batch size it happens
// to see. Requests larger than max_batch are split across sub-batches and
// complete when their last slice does.
//
// With `coalesce = false` the batcher degrades to the batch-1 FIFO
// baseline: strict arrival order across all networks, one image per
// sub-batch -- the "no serving front-end" strawman bench_serving compares
// against.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "serve/request.hpp"

namespace swatop::serve {

struct BatcherConfig {
  std::int64_t max_batch = 8;   ///< max images per sub-batch
  double max_wait_us = 2000.0;  ///< oldest-request coalescing deadline
  /// Sub-batch sizes to dispatch at (sorted ascending, must start at 1);
  /// empty = powers of two up to max_batch. These are the sizes the cost
  /// provider prices -- i.e. the cached-schedule ladder.
  std::vector<std::int64_t> ladder;
  /// false: batch-1 FIFO baseline (no coalescing, strict arrival order).
  bool coalesce = true;
};

/// A dispatchable unit: one network, one ladder size, slices of one or
/// more queued requests.
struct SubBatch {
  std::string net;
  std::int64_t images = 0;
  struct Slice {
    std::int64_t request_id = 0;
    std::size_t index = 0;    ///< the caller's index, as enqueued
    std::int64_t images = 0;  ///< this slice's share of the request
    bool final_slice = false; ///< completes the request
  };
  std::vector<Slice> slices;
  double oldest_arrival_us = 0.0;  ///< of the requests in the batch
};

class DynamicBatcher {
 public:
  explicit DynamicBatcher(BatcherConfig cfg);

  const BatcherConfig& config() const { return cfg_; }

  /// Enqueue an admitted request (arrival order = call order). `index` is
  /// the caller's handle for it (the server's trace index), carried by
  /// every slice of the request.
  void enqueue(const Request& r, std::size_t index);

  /// Remove a queued request entirely (admission shed); returns the number
  /// of images dropped (0 if the id is not queued).
  std::int64_t drop(std::int64_t request_id);

  /// Earliest future time a currently-not-ready network becomes ready by
  /// its head timing out; +inf when the queue is empty (an empty queue has
  /// no deadline to fire -- the event loop must not busy-wait on it) or
  /// when every queued network is already ready.
  double next_deadline_us(double now_us) const;

  /// True when some network is ready to dispatch at `now` (full batch or
  /// expired head). `drain` treats any non-empty queue as ready (end of
  /// trace: nothing else is coming, waiting longer buys nothing).
  bool ready(double now_us, bool drain) const;

  /// Form the next sub-batch at `now`: among ready networks pick the one
  /// whose head request arrived first, take the largest ladder size that
  /// fits the queued images, consume queue head slices in FIFO order.
  /// Returns nullopt when nothing is ready.
  std::optional<SubBatch> pop(double now_us, bool drain);

  /// Peek at the net/images the next pop() would dispatch (admission
  /// control prices it before committing). Same nullopt contract as pop().
  std::optional<SubBatch> peek(double now_us, bool drain) const;

  std::int64_t queued_images() const { return queued_images_; }
  std::int64_t queued_requests() const { return queued_requests_; }
  bool empty() const { return queued_requests_ == 0; }

  /// Queued images of one network (tests / reports).
  std::int64_t queued_images(const std::string& net) const;

 private:
  struct Pending {
    std::int64_t request_id = 0;
    std::size_t index = 0;
    std::int64_t images_left = 0;
    double arrival_us = 0.0;
    std::int64_t seq = 0;  ///< global FIFO order across networks
  };
  struct NetQueue {
    std::deque<Pending> q;
    std::int64_t images = 0;
  };

  bool net_ready(const NetQueue& nq, double now_us, bool drain) const;
  /// The ready network with the earliest head (by global sequence), or
  /// nullptr.
  const std::string* pick_net(double now_us, bool drain) const;
  /// The sub-batch the given queue would dispatch (no state change).
  SubBatch plan(const NetQueue& nq, const std::string& net) const;
  /// Apply a planned sub-batch to its queue (must match the queue head).
  void consume(const std::string& net, const SubBatch& sb);

  BatcherConfig cfg_;
  /// Ordered: deterministic scan. A queue that empties keeps its entry
  /// (and its storage) for the next request of that network.
  std::map<std::string, NetQueue> queues_;
  std::int64_t queued_images_ = 0;
  std::int64_t queued_requests_ = 0;
  std::int64_t next_seq_ = 0;
};

}  // namespace swatop::serve
