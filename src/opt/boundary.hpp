// Boundary processing support (Sec. 4.5.3).
//
// When a split factor does not divide a loop extent, the last tile is
// ragged. swATOP supports two strategies:
//  * parameter switching -- the gemm primitive is called with min()-sized
//    dims at the boundary (legal only when every remainder still satisfies
//    the primitive's divisibility constraints);
//  * lightweight zero padding -- the primitive always runs on full padded
//    tiles; DMA moves only the valid region and the SPM tile is zero-filled
//    at boundary iterations (the guards are injected by DMA inference).
// This header provides the tiled-dimension algebra both the lowering helpers
// and the benches use.
#pragma once

#include <cstdint>

#include "ir/expr.hpp"

namespace swatop::opt {

/// A loop dimension of `extent` split by `tile`: `count` iterations of the
/// loop variable `var`, the last one possibly ragged.
struct TiledDim {
  ir::VarId var;
  std::int64_t extent = 0;
  std::int64_t tile = 0;
  std::int64_t count = 0;
  bool ragged = false;

  /// Element base of the current tile: var * tile.
  ir::Expr base() const;

  /// Valid elements of the current tile: min(tile, extent - base), folded
  /// to the constant tile when the split divides evenly.
  ir::Expr valid() const;

  /// Size of the ragged last tile (0 when the split divides evenly).
  std::int64_t remainder() const { return extent % tile; }
};

TiledDim make_tiled(ir::VarId var, std::int64_t extent, std::int64_t tile);

/// True if parameter switching is legal for this dim: the ragged remainder
/// itself satisfies "divisible by `mesh`" and, when this dim is vectorized,
/// "remainder/mesh divisible by `vec`" (pass vec = 1 otherwise).
bool switch_legal(const TiledDim& d, std::int64_t mesh, std::int64_t vec);

}  // namespace swatop::opt
