// Shared convolution shape descriptor. Convolutions are 'valid' (stride 1,
// no implicit padding): callers pass input dims already padded, so
// Ro = Ri - Kr + 1 and Co = Ci - Kc + 1.
#pragma once

#include <cstdint>
#include <string>

namespace swatop::ops {

struct ConvShape {
  std::int64_t batch = 1;   ///< B
  std::int64_t ni = 0;      ///< input channels
  std::int64_t no = 0;      ///< output channels
  std::int64_t ri = 0;      ///< input rows (already padded)
  std::int64_t ci = 0;      ///< input cols (already padded)
  std::int64_t kr = 3;      ///< kernel rows
  std::int64_t kc = 3;      ///< kernel cols
  std::int64_t stride = 1;  ///< spatial stride (both dims)

  std::int64_t ro() const { return (ri - kr) / stride + 1; }
  std::int64_t co() const { return (ci - kc) / stride + 1; }

  /// Floats of the canonical layer tensors (layouts in ops/conv_op.hpp).
  std::int64_t in_floats() const { return ri * ni * ci * batch; }
  std::int64_t w_floats() const { return kr * kc * ni * no; }
  std::int64_t out_floats() const { return ro() * no * co() * batch; }

  /// Direct-convolution MACs * 2 (the flop count every method's efficiency
  /// is normalized to, hence Winograd's > 100% efficiencies).
  std::int64_t flops() const {
    return 2 * batch * ni * no * ro() * co() * kr * kc;
  }

  std::string to_string() const;
};

}  // namespace swatop::ops
