#include "prim/gemm_primitive.hpp"

#include <vector>

#include "common/check.hpp"

namespace swatop::prim {

namespace {

/// Copy a distributed operand between the CPE tiles and one global
/// column-major matrix g. Block (x, y) of g, for x < bx and y < by, is the
/// rows x cols tile at SPM offset `spm` of CPE (x, y): A's tile (r, kb),
/// B's (kb, c) and C's (r, c) each sit on the CPE of that name.
void copy_tiles(sim::CpeCluster& cl, std::int64_t spm, int bx, int by,
                std::int64_t rows, std::int64_t cols, bool col_major,
                float* g, bool to_spm) {
  const std::int64_t rs = col_major ? 1 : cols;  // tile element strides
  const std::int64_t cs = col_major ? rows : 1;
  const std::int64_t ld = bx * rows;
  for (int x = 0; x < bx; ++x) {
    for (int y = 0; y < by; ++y) {
      float* t = cl.at(x, y).spm().view(spm, rows * cols).data();
      float* gb = g + x * rows + y * cols * ld;
      for (std::int64_t j = 0; j < cols; ++j) {
        for (std::int64_t i = 0; i < rows; ++i) {
          if (to_spm)
            t[i * rs + j * cs] = gb[i + j * ld];
          else
            gb[i + j * ld] = t[i * rs + j * cs];
        }
      }
    }
  }
}

}  // namespace

SpmGemmFootprint spm_gemm_footprint(std::int64_t M, std::int64_t N,
                                    std::int64_t K,
                                    const sim::SimConfig& cfg) {
  const std::int64_t m = M / cfg.mesh_rows;
  const std::int64_t n = N / cfg.mesh_cols;
  const std::int64_t k = K / cfg.mesh_rows;
  return {m * k, k * n, m * n};
}

bool spm_gemm_valid(std::int64_t M, std::int64_t N, std::int64_t K,
                    const isa::KernelVariant& v, const sim::SimConfig& cfg) {
  if (M <= 0 || N <= 0 || K <= 0) return false;
  if (M % cfg.mesh_rows != 0 || N % cfg.mesh_cols != 0 ||
      K % cfg.mesh_rows != 0)
    return false;
  const std::int64_t vec_local =
      v.vec == isa::VecDim::M ? M / cfg.mesh_rows : N / cfg.mesh_cols;
  return vec_local % cfg.vector_width == 0;
}

void spm_gemm(sim::CoreGroup& cg, const SpmGemmArgs& args, sim::ExecMode mode,
              const isa::KernelCostDb& db) {
  const sim::SimConfig& cfg = cg.config();
  SWATOP_CHECK(spm_gemm_valid(args.M, args.N, args.K, args.variant, cfg))
      << "invalid spm_gemm dims (" << args.M << "," << args.N << ","
      << args.K << ") for variant " << args.variant.name();

  const int R = cfg.mesh_rows;
  const int C = cfg.mesh_cols;
  const std::int64_t m = args.M / R;
  const std::int64_t n = args.N / C;
  const std::int64_t k = args.K / R;

  // Tiles must fit where the caller placed them; the Spm view() calls below
  // bounds-check every access, but validate the extents up front for a
  // clearer error.
  const SpmGemmFootprint fp = spm_gemm_footprint(args.M, args.N, args.K, cfg);
  for (std::int64_t off : {args.a_spm + fp.a_floats, args.b_spm + fp.b_floats,
                           args.c_spm + fp.c_floats}) {
    SWATOP_CHECK(off <= cfg.spm_floats())
        << "spm_gemm tile exceeds SPM capacity";
  }

  const double cycles =
      db.spm_gemm_cycles(args.variant, args.M, args.N, args.K);
  cg.advance_compute(cycles);
  sim::CgStats& st = cg.stats();
  st.gemm_calls += 1;
  st.flops += 2 * args.M * args.N * args.K;
  st.gemm_cycles += cycles;
  st.gemm_comm_cycles += db.spm_gemm_comm_cycles();
  const obs::PipeCounters pipe =
      db.spm_gemm_pipe(args.variant, args.M, args.N, args.K);
  st.pipe.issued_p0 += pipe.issued_p0;
  st.pipe.issued_p1 += pipe.issued_p1;
  st.pipe.raw_stall_cycles += pipe.raw_stall_cycles;

  if (mode != sim::ExecMode::Functional) return;

  const bool c_col_major = args.variant.vec == isa::VecDim::M;
  sim::CpeCluster& cl = cg.cluster();

  // beta scaling once, before accumulating panels.
  if (args.beta != 1.0f) {
    for (int r = 0; r < R; ++r) {
      for (int c = 0; c < C; ++c) {
        auto cv = cl.at(r, c).spm().view(args.c_spm, m * n);
        for (float& x : cv) x *= args.beta;
      }
    }
  }

  // The mesh's arithmetic on gathered operands. Every element of C gets,
  // panel by panel, alpha times its panel sum, each sum accumulated from
  // 0.0f in k order -- exactly what CPE (r, c) computes from the broadcast
  // tiles -- so the global matrices only change the loop nest, not a
  // single float. A is M x K, B is K x N and C is M x N.
  const std::int64_t M = args.M, N = args.N, K = args.K;
  std::vector<float> a(static_cast<std::size_t>(M * K));
  std::vector<float> b(static_cast<std::size_t>(K * N));
  std::vector<float> cm(static_cast<std::size_t>(M * N));
  copy_tiles(cl, args.a_spm, R, R, m, k, args.variant.a_col_major, a.data(),
             /*to_spm=*/false);
  copy_tiles(cl, args.b_spm, R, C, k, n, args.variant.b_col_major, b.data(),
             /*to_spm=*/false);
  copy_tiles(cl, args.c_spm, R, C, m, n, c_col_major, cm.data(),
             /*to_spm=*/false);

  for (int kb = 0; kb < R; ++kb) {
    // Row broadcast of A tiles in mesh column kb; column broadcast of B
    // tiles in mesh row kb.
    cl.bus().record_row_broadcast(m * k * R);
    cl.bus().record_col_broadcast(k * n * C);
    const float* ap = a.data() + kb * k * M;  // A's panel columns
    for (std::int64_t j = 0; j < N; ++j) {
      const float* bp = b.data() + kb * k + j * K;  // B's panel rows, col j
      float* cp = cm.data() + j * M;
      // Eight rows at a time: a fixed-length lane loop the vectorizer
      // turns into SIMD, each lane still its own in-order sum.
      std::int64_t i = 0;
      for (; i + 8 <= M; i += 8) {
        float acc[8] = {};
        for (std::int64_t kk = 0; kk < k; ++kk) {
          const float* ak = ap + kk * M + i;
          const float bk = bp[kk];
          for (int l = 0; l < 8; ++l) acc[l] += ak[l] * bk;
        }
        for (int l = 0; l < 8; ++l) cp[i + l] += args.alpha * acc[l];
      }
      for (; i < M; ++i) {
        float acc = 0.0f;
        for (std::int64_t kk = 0; kk < k; ++kk) acc += ap[kk * M + i] * bp[kk];
        cp[i] += args.alpha * acc;
      }
    }
  }

  copy_tiles(cl, args.c_spm, R, C, m, n, c_col_major, cm.data(),
             /*to_spm=*/true);
}

void spm_gemm(sim::CoreGroup& cg, const SpmGemmArgs& args,
              sim::ExecMode mode) {
  spm_gemm(cg, args, mode, isa::kernel_cost_db(cg.config()));
}

}  // namespace swatop::prim
