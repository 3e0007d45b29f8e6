#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "ops/reference.hpp"
#include "ops/tensor.hpp"
#include "prim/gemm_primitive.hpp"
#include "prim/pack.hpp"

namespace swatop::prim {
namespace {

/// Scatter a host column-major matrix into the cluster SPMs at `spm_at`
/// with the distribution spm_gemm expects for a col-major operand: CPE
/// (r, c) holds row-block r x col-block c, stored col-major. When
/// `transposed`, store the tile row-major and swap the block mapping (what
/// DMA inference does for row-major kernel operands).
void scatter_host(sim::CoreGroup& cg, const std::vector<float>& m,
                  std::int64_t rows, std::int64_t cols, std::int64_t spm_at,
                  bool transposed) {
  const auto& cfg = cg.config();
  const std::int64_t tr = rows / cfg.mesh_rows;
  const std::int64_t tc = cols / cfg.mesh_cols;
  for (int r = 0; r < cfg.mesh_rows; ++r) {
    for (int c = 0; c < cfg.mesh_cols; ++c) {
      sim::Spm& spm = cg.cluster().at(r, c).spm();
      for (std::int64_t i = 0; i < tr; ++i) {
        for (std::int64_t j = 0; j < tc; ++j) {
          const float v = m[static_cast<std::size_t>(
              (r * tr + i) + (c * tc + j) * rows)];
          const std::int64_t at =
              transposed ? spm_at + j + i * tc : spm_at + i + j * tr;
          spm.write(at, v);
        }
      }
    }
  }
}

/// Gather the C tile grid back into a host column-major matrix.
std::vector<float> gather_c(sim::CoreGroup& cg, std::int64_t rows,
                            std::int64_t cols, std::int64_t spm_at,
                            bool row_major_tiles) {
  const auto& cfg = cg.config();
  const std::int64_t tr = rows / cfg.mesh_rows;
  const std::int64_t tc = cols / cfg.mesh_cols;
  std::vector<float> out(static_cast<std::size_t>(rows * cols));
  for (int r = 0; r < cfg.mesh_rows; ++r) {
    for (int c = 0; c < cfg.mesh_cols; ++c) {
      sim::Spm& spm = cg.cluster().at(r, c).spm();
      for (std::int64_t i = 0; i < tr; ++i) {
        for (std::int64_t j = 0; j < tc; ++j) {
          const std::int64_t at = row_major_tiles ? spm_at + j + i * tc
                                                  : spm_at + i + j * tr;
          out[static_cast<std::size_t>((r * tr + i) + (c * tc + j) * rows)] =
              spm.read(at);
        }
      }
    }
  }
  return out;
}

class SpmGemmVariants : public ::testing::TestWithParam<int> {};

TEST_P(SpmGemmVariants, MatchesReference) {
  const auto variant = isa::KernelVariant::from_index(GetParam());
  const std::int64_t M = 32, N = 32, K = 16;
  sim::CoreGroup cg;
  ops::Prng rng(GetParam() + 1);
  std::vector<float> A(static_cast<std::size_t>(M * K));
  std::vector<float> B(static_cast<std::size_t>(K * N));
  for (float& v : A) v = rng.next();
  for (float& v : B) v = rng.next();

  const auto fp = spm_gemm_footprint(M, N, K, cg.config());
  const std::int64_t a_spm = cg.cluster().spm_alloc(fp.a_floats, "A");
  const std::int64_t b_spm = cg.cluster().spm_alloc(fp.b_floats, "B");
  const std::int64_t c_spm = cg.cluster().spm_alloc(fp.c_floats, "C");

  scatter_host(cg, A, M, K, a_spm, !variant.a_col_major);
  scatter_host(cg, B, K, N, b_spm, !variant.b_col_major);

  SpmGemmArgs args;
  args.M = M;
  args.N = N;
  args.K = K;
  args.beta = 0.0f;
  args.a_spm = a_spm;
  args.b_spm = b_spm;
  args.c_spm = c_spm;
  args.variant = variant;
  spm_gemm(cg, args, sim::ExecMode::Functional);

  std::vector<float> ref(static_cast<std::size_t>(M * N));
  ops::reference_gemm(A.data(), B.data(), ref.data(), M, N, K);
  const auto got =
      gather_c(cg, M, N, c_spm, variant.vec == isa::VecDim::N);
  EXPECT_LE(ops::max_abs_diff(got.data(), ref.data(), M * N), 1e-4);
  EXPECT_GT(cg.now(), 0.0);
  EXPECT_EQ(cg.stats().flops, 2 * M * N * K);
}

INSTANTIATE_TEST_SUITE_P(AllEightVariants, SpmGemmVariants,
                         ::testing::Range(0, 8));

// Functional spm_gemm computes on gathered operands for speed; it must stay
// bit-identical to the per-tile SUMMA loop the mesh runs, kept here as the
// oracle: beta pre-scale, then in panel kb CPE (r, c) sums the products of
// the A tile of CPE (r, kb) and the B tile of CPE (kb, c) from 0.0f in k
// order and adds alpha times the sum to its C tile.
void summa_per_tile(sim::CoreGroup& cg, const SpmGemmArgs& args) {
  const int R = cg.config().mesh_rows;
  const int C = cg.config().mesh_cols;
  const std::int64_t m = args.M / R;
  const std::int64_t n = args.N / C;
  const std::int64_t k = args.K / R;
  auto tile_at = [](std::int64_t i, std::int64_t j, std::int64_t rows,
                    std::int64_t cols, bool col_major) {
    return static_cast<std::size_t>(col_major ? i + j * rows : j + i * cols);
  };
  const bool c_col_major = args.variant.vec == isa::VecDim::M;
  sim::CpeCluster& cl = cg.cluster();
  if (args.beta != 1.0f) {
    for (int r = 0; r < R; ++r)
      for (int c = 0; c < C; ++c)
        for (float& x : cl.at(r, c).spm().view(args.c_spm, m * n))
          x *= args.beta;
  }
  for (int kb = 0; kb < R; ++kb) {
    cl.bus().record_row_broadcast(m * k * R);
    cl.bus().record_col_broadcast(k * n * C);
    for (int r = 0; r < R; ++r) {
      for (int c = 0; c < C; ++c) {
        const auto a = cl.at(r, kb).spm().view(args.a_spm, m * k);
        const auto b = cl.at(kb, c).spm().view(args.b_spm, k * n);
        auto cc = cl.at(r, c).spm().view(args.c_spm, m * n);
        for (std::int64_t i = 0; i < m; ++i) {
          for (std::int64_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::int64_t kk = 0; kk < k; ++kk)
              acc += a[tile_at(i, kk, m, k, args.variant.a_col_major)] *
                     b[tile_at(kk, j, k, n, args.variant.b_col_major)];
            cc[tile_at(i, j, m, n, c_col_major)] += args.alpha * acc;
          }
        }
      }
    }
  }
}

class SpmGemmBitExact : public ::testing::TestWithParam<int> {};

TEST_P(SpmGemmBitExact, MatchesPerTileSummaLoop) {
  const auto variant = isa::KernelVariant::from_index(GetParam());
  const sim::SimConfig cfg;
  const float scales[][2] = {{1.0f, 1.0f}, {0.37f, -1.25f}, {-2.5f, 0.0f}};
  ops::Prng rng(static_cast<std::uint64_t>(GetParam()) + 17);
  sim::CoreGroup got(cfg), want(cfg);
  int checked = 0;
  // Per-CPE tiles m x n x k over the ResNet run's range (m 8-32, n 1-4,
  // k 8-16), with (alpha, beta) cycling through the three pairs.
  for (const std::int64_t m : {8, 16, 32}) {
    for (const std::int64_t n : {1, 2, 3, 4}) {
      for (const std::int64_t k : {8, 16}) {
        const std::int64_t M = 8 * m, N = 8 * n, K = 8 * k;
        if (!spm_gemm_valid(M, N, K, variant, cfg)) continue;
        const SpmGemmFootprint fp = spm_gemm_footprint(M, N, K, cfg);
        SpmGemmArgs args;
        args.M = M;
        args.N = N;
        args.K = K;
        args.alpha = scales[checked % 3][0];
        args.beta = scales[checked % 3][1];
        args.a_spm = 0;
        args.b_spm = fp.a_floats;
        args.c_spm = fp.a_floats + fp.b_floats;
        args.variant = variant;
        // The same random A, B and C tiles on both core groups.
        for (int r = 0; r < 8; ++r) {
          for (int c = 0; c < 8; ++c) {
            auto g = got.cluster().at(r, c).spm().view(0, fp.total());
            auto w = want.cluster().at(r, c).spm().view(0, fp.total());
            for (std::size_t i = 0; i < g.size(); ++i) g[i] = w[i] = rng.next();
          }
        }
        got.cluster().bus().reset();
        want.cluster().bus().reset();

        spm_gemm(got, args, sim::ExecMode::Functional);
        summa_per_tile(want, args);

        const std::string where =
            variant.name() + " M=" + std::to_string(M) +
            " N=" + std::to_string(N) + " K=" + std::to_string(K);
        for (int r = 0; r < 8; ++r) {
          for (int c = 0; c < 8; ++c) {
            const auto g = got.cluster().at(r, c).spm().view(0, fp.total());
            const auto w = want.cluster().at(r, c).spm().view(0, fp.total());
            EXPECT_EQ(std::memcmp(g.data(), w.data(), g.size_bytes()), 0)
                << where << " CPE (" << r << "," << c << ")";
          }
        }
        const sim::RegCommBus& gb = got.cluster().bus();
        const sim::RegCommBus& wb = want.cluster().bus();
        EXPECT_EQ(gb.row_bytes(), wb.row_bytes()) << where;
        EXPECT_EQ(gb.col_bytes(), wb.col_bytes()) << where;
        EXPECT_EQ(gb.row_messages(), wb.row_messages()) << where;
        EXPECT_EQ(gb.col_messages(), wb.col_messages()) << where;
        ++checked;
      }
    }
  }
  // Vec-M variants take every shape, vec-N ones only n = 4.
  EXPECT_EQ(checked, variant.vec == isa::VecDim::M ? 24 : 6);
}

INSTANTIATE_TEST_SUITE_P(AllEightVariants, SpmGemmBitExact,
                         ::testing::Range(0, 8));

TEST(SpmGemm, AlphaBetaSemantics) {
  const std::int64_t M = 32, N = 32, K = 8;
  sim::CoreGroup cg;
  const auto fp = spm_gemm_footprint(M, N, K, cg.config());
  const auto a = cg.cluster().spm_alloc(fp.a_floats);
  const auto b = cg.cluster().spm_alloc(fp.b_floats);
  const auto c = cg.cluster().spm_alloc(fp.c_floats);
  std::vector<float> A(static_cast<std::size_t>(M * K), 1.0f);
  std::vector<float> B(static_cast<std::size_t>(K * N), 1.0f);
  scatter_host(cg, A, M, K, a, false);
  scatter_host(cg, B, K, N, b, false);
  // Pre-load C with 2.0 everywhere.
  for (int r = 0; r < 8; ++r)
    for (int cc = 0; cc < 8; ++cc)
      cg.cluster().at(r, cc).spm().fill(c, fp.c_floats, 2.0f);

  SpmGemmArgs args;
  args.M = M;
  args.N = N;
  args.K = K;
  args.alpha = 0.5f;
  args.beta = 3.0f;
  args.a_spm = a;
  args.b_spm = b;
  args.c_spm = c;
  args.variant = isa::KernelVariant::from_index(0);
  spm_gemm(cg, args, sim::ExecMode::Functional);
  // C = beta * 2 + alpha * K = 6 + 4 = 10 everywhere.
  const auto got = gather_c(cg, M, N, c, false);
  for (float v : got) EXPECT_FLOAT_EQ(v, 10.0f);
}

TEST(SpmGemm, RejectsInvalidDims) {
  sim::CoreGroup cg;
  SpmGemmArgs args;
  args.M = 30;  // not divisible by 8
  args.N = 32;
  args.K = 8;
  EXPECT_THROW(spm_gemm(cg, args, sim::ExecMode::TimingOnly), CheckError);
  args.M = 8;  // vec-M local dim 1, not a multiple of 4
  EXPECT_THROW(spm_gemm(cg, args, sim::ExecMode::TimingOnly), CheckError);
}

TEST(SpmGemm, ValidityPredicate) {
  sim::SimConfig cfg;
  const auto vm = isa::KernelVariant::from_index(0);  // vec-M
  const auto vn = isa::KernelVariant::from_index(4);  // vec-N
  EXPECT_TRUE(spm_gemm_valid(32, 8, 8, vm, cfg));
  EXPECT_FALSE(spm_gemm_valid(8, 32, 8, vm, cfg));
  EXPECT_TRUE(spm_gemm_valid(8, 32, 8, vn, cfg));
  EXPECT_FALSE(spm_gemm_valid(0, 32, 8, vn, cfg));
}

TEST(Pack, PadFullZeroExtends) {
  sim::CoreGroup cg;
  const std::int64_t M = 3, N = 2;
  const auto src = cg.mem().alloc(M * N);
  for (std::int64_t i = 0; i < M * N; ++i)
    cg.mem().write(src + i, static_cast<float>(i + 1));
  const auto dst = pad_full(cg, src, M, N, M, 5, 4, sim::ExecMode::Functional);
  EXPECT_FLOAT_EQ(cg.mem().read(dst + 0), 1.0f);
  EXPECT_FLOAT_EQ(cg.mem().read(dst + 2), 3.0f);
  EXPECT_FLOAT_EQ(cg.mem().read(dst + 3), 0.0f);   // padded row
  EXPECT_FLOAT_EQ(cg.mem().read(dst + 5), 4.0f);   // col 1 starts at ld=5
  EXPECT_FLOAT_EQ(cg.mem().read(dst + 10), 0.0f);  // padded col
  EXPECT_GT(cg.now(), 0.0);
}

TEST(Pack, CopyBlockRespectsLeadingDims) {
  sim::CoreGroup cg;
  const auto src = cg.mem().alloc(8 * 4);
  const auto dst = cg.mem().alloc(16 * 4);
  for (std::int64_t i = 0; i < 32; ++i)
    cg.mem().write(src + i, static_cast<float>(i));
  copy_block(cg, src, 8, dst, 16, 4, 3, sim::ExecMode::Functional);
  EXPECT_FLOAT_EQ(cg.mem().read(dst + 0), 0.0f);
  EXPECT_FLOAT_EQ(cg.mem().read(dst + 16), 8.0f);   // col 1
  EXPECT_FLOAT_EQ(cg.mem().read(dst + 32 + 3), 19.0f);
}

}  // namespace
}  // namespace swatop::prim
