// Host-side helpers for seeded test inputs and output checks.
#pragma once

#include <cstdint>

namespace swatop::ops {

/// Deterministic pseudo-random floats in [-1, 1) (xorshift-based; keeps
/// functional tests reproducible without <random> engine differences).
class Prng {
 public:
  explicit Prng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : s_(seed) {}
  float next();

 private:
  std::uint64_t s_;
};

/// max |a - b| over two equally sized buffers.
double max_abs_diff(const float* a, const float* b, std::int64_t n);

}  // namespace swatop::ops
