// The worker pool every tuning sweep shares: the scheduler's candidate
// sweep, the model tuner's bounding pass and the black-box tuner's
// measurement fan-out.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace swatop::sched {

/// Worker threads for `work` independent items: `requested` threads
/// (0 = hardware concurrency), never more than there are items, at least 1.
inline std::size_t resolve_threads(int requested, std::size_t work) {
  if (work < 2) return 1;
  std::size_t n = requested > 0
                      ? static_cast<std::size_t>(requested)
                      : static_cast<std::size_t>(
                            std::thread::hardware_concurrency());
  if (n == 0) n = 1;
  return n < work ? n : work;
}

/// Run every index of [0, n) on `threads` workers. Each worker calls
/// `make_worker()` once, on its own thread, and feeds the callable it
/// returns the indices it takes, in increasing order -- so per-worker state
/// (a cost-model memo, a scratch core group) lives in that callable. With
/// one thread everything runs on the calling thread. An exception stops
/// the hand-out of further indices and the first one is rethrown on the
/// calling thread once every worker has joined.
template <class MakeWorker>
void parallel_for(std::size_t n, std::size_t threads,
                  const MakeWorker& make_worker) {
  if (threads <= 1) {
    auto work = make_worker();
    for (std::size_t i = 0; i < n; ++i) work(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
  auto body = [&] {
    try {
      auto work = make_worker();
      for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
        work(i);
    } catch (...) {
      next.store(n);
      const std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(threads);
  try {
    for (std::size_t w = 0; w < threads; ++w) workers.emplace_back(body);
  } catch (...) {
    // Thread creation failed: drain the workers already running.
    next.store(n);
    for (std::thread& t : workers) t.join();
    throw;
  }
  for (std::thread& t : workers) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace swatop::sched
