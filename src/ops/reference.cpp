#include "ops/reference.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace swatop::ops {

std::string ConvShape::to_string() const {
  std::ostringstream os;
  os << "B=" << batch << " Ni=" << ni << " No=" << no << " " << ri << "x"
     << ci << " k" << kr << "x" << kc;
  if (stride != 1) os << " s" << stride;
  return os.str();
}

void reference_gemm(const float* A, const float* B, float* C, std::int64_t M,
                    std::int64_t N, std::int64_t K) {
  for (std::int64_t j = 0; j < N; ++j) {
    for (std::int64_t i = 0; i < M; ++i) {
      float acc = 0.0f;
      for (std::int64_t k = 0; k < K; ++k)
        acc += A[i + k * M] * B[k + j * K];
      C[i + j * M] = acc;
    }
  }
}

void reference_conv(const float* in, const float* w, float* out,
                    const ConvShape& s) {
  const std::int64_t B = s.batch, Ni = s.ni, No = s.no, Ci = s.ci;
  const std::int64_t Ro = s.ro(), Co = s.co();
  // Output row ro is a matrix product: out[no][p] (p = co * B + b) sums
  // w[q][no] * x[q][p] in q order, q = (kr * s.kc + kc) * Ni + ni, where
  // w is already that Q x No matrix and x gathers the input rows the
  // window reads. Each output keeps the direct definition's summation
  // order (kr, kc, ni from 0.0f); the blocking only changes which outputs
  // are computed side by side.
  const std::int64_t Q = s.kr * s.kc * Ni, P = Co * B;
  std::vector<float> patch(static_cast<std::size_t>(Q * P));
  float* const x = patch.data();
  // acc[l] += x * w[l] over 8 lanes: a fixed-length loop the vectorizer
  // turns into SIMD, each lane still its own in-order sum.
  auto lanes8 = [](float* acc, float xv, const float* w8) {
    for (int l = 0; l < 8; ++l) acc[l] += xv * w8[l];
  };
  for (std::int64_t ro = 0; ro < Ro; ++ro) {
    for (std::int64_t kr = 0; kr < s.kr; ++kr)
      for (std::int64_t kc = 0; kc < s.kc; ++kc)
        for (std::int64_t ni = 0; ni < Ni; ++ni) {
          const float* src =
              in + ((ro * s.stride + kr) * Ni + ni) * Ci * B + kc * B;
          float* dst = x + ((kr * s.kc + kc) * Ni + ni) * P;
          for (std::int64_t co = 0; co < Co; ++co)
            std::copy_n(src + co * s.stride * B, B, dst + co * B);
        }
    float* o = out + ro * No * P;
    // 8 output channels x 4 positions at a time, then the position and
    // channel tails.
    std::int64_t no = 0;
    for (; no + 8 <= No; no += 8) {
      std::int64_t p = 0;
      for (; p + 4 <= P; p += 4) {
        float acc[4][8] = {};
        for (std::int64_t q = 0; q < Q; ++q) {
          const float* xq = x + q * P + p;
          const float* wq = w + q * No + no;
          // Four calls, not a loop over them, so all 32 sums stay in
          // registers across the q loop.
          lanes8(acc[0], xq[0], wq);
          lanes8(acc[1], xq[1], wq);
          lanes8(acc[2], xq[2], wq);
          lanes8(acc[3], xq[3], wq);
        }
        for (int u = 0; u < 4; ++u)
          for (int l = 0; l < 8; ++l) o[(no + l) * P + p + u] = acc[u][l];
      }
      for (; p < P; ++p) {
        float acc[8] = {};
        for (std::int64_t q = 0; q < Q; ++q)
          lanes8(acc, x[q * P + p], w + q * No + no);
        for (int l = 0; l < 8; ++l) o[(no + l) * P + p] = acc[l];
      }
    }
    for (; no < No; ++no) {
      for (std::int64_t p = 0; p < P; ++p) {
        float acc = 0.0f;
        for (std::int64_t q = 0; q < Q; ++q)
          acc += x[q * P + p] * w[q * No + no];
        o[no * P + p] = acc;
      }
    }
  }
}

void reference_bias_add(float* t, const float* bias, std::int64_t rows,
                        std::int64_t channels, std::int64_t cols,
                        std::int64_t batch) {
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < channels; ++c) {
      float* row = t + (r * channels + c) * cols * batch;
      const float b = bias[c];
      for (std::int64_t i = 0; i < cols * batch; ++i) row[i] += b;
    }
}

void reference_relu(float* t, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i)
    if (t[i] < 0.0f) t[i] = 0.0f;
}

void reference_maxpool2x2(const float* in, float* out, std::int64_t rows,
                          std::int64_t channels, std::int64_t cols,
                          std::int64_t batch) {
  const std::int64_t ro = rows / 2, co = cols / 2;
  auto in_at = [&](std::int64_t r, std::int64_t c, std::int64_t col,
                   std::int64_t b) {
    return in[((r * channels + c) * cols + col) * batch + b];
  };
  for (std::int64_t r = 0; r < ro; ++r)
    for (std::int64_t c = 0; c < channels; ++c)
      for (std::int64_t col = 0; col < co; ++col)
        for (std::int64_t b = 0; b < batch; ++b) {
          const float m0 = in_at(2 * r, c, 2 * col, b);
          const float m1 = in_at(2 * r, c, 2 * col + 1, b);
          const float m2 = in_at(2 * r + 1, c, 2 * col, b);
          const float m3 = in_at(2 * r + 1, c, 2 * col + 1, b);
          float m = m0 > m1 ? m0 : m1;
          if (m2 > m) m = m2;
          if (m3 > m) m = m3;
          out[((r * channels + c) * co + col) * batch + b] = m;
        }
}

void reference_eltwise_add(const float* a, const float* b, float* out,
                           std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = a[i] + b[i];
}

void reference_pad(const float* in, float* out, std::int64_t rows,
                   std::int64_t channels, std::int64_t cols,
                   std::int64_t batch, std::int64_t pad) {
  const std::int64_t rp = rows + 2 * pad, cp = cols + 2 * pad;
  for (std::int64_t i = 0; i < rp * channels * cp * batch; ++i) out[i] = 0.0f;
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < channels; ++c)
      for (std::int64_t col = 0; col < cols; ++col)
        for (std::int64_t b = 0; b < batch; ++b)
          out[(((r + pad) * channels + c) * cp + (col + pad)) * batch + b] =
              in[((r * channels + c) * cols + col) * batch + b];
}

}  // namespace swatop::ops
