#include "prim/pack.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace swatop::prim {

namespace {

/// Price one strided pass over a column-major (rows x cols) block.
void charge_pass(sim::CoreGroup& cg, sim::MainMemory::Addr base,
                 std::int64_t rows, std::int64_t cols, std::int64_t ld) {
  sim::DmaCpeDesc d;
  d.mem_base = base;
  d.block = rows;
  d.stride = ld - rows;
  d.total = rows * cols;
  cg.charge_dma_sync(std::span<const sim::DmaCpeDesc>(&d, 1));
}

}  // namespace

void copy_block(sim::CoreGroup& cg, sim::MainMemory::Addr src,
                std::int64_t src_ld, sim::MainMemory::Addr dst,
                std::int64_t dst_ld, std::int64_t rows, std::int64_t cols,
                sim::ExecMode mode) {
  SWATOP_CHECK(rows >= 0 && cols >= 0);
  if (rows == 0 || cols == 0) return;
  SWATOP_CHECK(src_ld >= rows && dst_ld >= rows)
      << "copy_block leading dims too small";
  charge_pass(cg, src, rows, cols, src_ld);
  charge_pass(cg, dst, rows, cols, dst_ld);
  if (mode != sim::ExecMode::Functional) return;
  for (std::int64_t j = 0; j < cols; ++j) {
    auto s = cg.mem().view(src + j * src_ld, rows);
    auto d = cg.mem().view(dst + j * dst_ld, rows);
    std::copy(s.begin(), s.end(), d.begin());
  }
}

sim::MainMemory::Addr pad_full(sim::CoreGroup& cg, sim::MainMemory::Addr src,
                               std::int64_t rows, std::int64_t cols,
                               std::int64_t src_ld, std::int64_t new_rows,
                               std::int64_t new_cols, sim::ExecMode mode) {
  SWATOP_CHECK(new_rows >= rows && new_cols >= cols)
      << "pad_full target smaller than source";
  const sim::MainMemory::Addr dst =
      cg.mem().alloc(new_rows * new_cols, "pad_full");
  // The arena zero-initializes; in functional mode the copy fills the rest.
  copy_block(cg, src, src_ld, dst, new_rows, rows, cols, mode);
  // Writing the zero fringe costs a pass over the fringe area as well.
  const std::int64_t fringe =
      new_rows * new_cols - rows * cols;
  if (fringe > 0) {
    sim::DmaCpeDesc d;
    d.mem_base = dst;
    d.block = std::min<std::int64_t>(fringe, new_rows);
    d.stride = 0;
    d.total = fringe;
    cg.charge_dma_sync(std::span<const sim::DmaCpeDesc>(&d, 1));
  }
  return dst;
}

}  // namespace swatop::prim
