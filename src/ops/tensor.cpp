#include "ops/tensor.hpp"

#include <cmath>

namespace swatop::ops {

float Prng::next() {
  // xorshift64*
  s_ ^= s_ >> 12;
  s_ ^= s_ << 25;
  s_ ^= s_ >> 27;
  const std::uint64_t r = s_ * 0x2545F4914F6CDD1Dull;
  // Map the top 24 bits to [-1, 1).
  const double u =
      static_cast<double>(r >> 40) / static_cast<double>(1ull << 24);
  return static_cast<float>(2.0 * u - 1.0);
}

double max_abs_diff(const float* a, const float* b, std::int64_t n) {
  double m = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    const double d = std::fabs(static_cast<double>(a[i]) -
                               static_cast<double>(b[i]));
    if (d > m) m = d;
  }
  return m;
}

}  // namespace swatop::ops
