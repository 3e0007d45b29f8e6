#include "opt/boundary.hpp"

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace swatop::opt {

namespace ir = swatop::ir;

ir::Expr TiledDim::base() const { return ir::mul(ir::var(var), ir::cst(tile)); }

ir::Expr TiledDim::valid() const {
  if (!ragged) return ir::cst(tile);
  return ir::min2(ir::cst(tile), ir::sub(ir::cst(extent), base()));
}

TiledDim make_tiled(ir::VarId var, std::int64_t extent, std::int64_t tile) {
  SWATOP_CHECK(extent > 0 && tile > 0)
      << "make_tiled(" << extent << ", " << tile << ")";
  TiledDim d;
  d.var = var;
  d.extent = extent;
  d.tile = tile;
  d.count = ceil_div(extent, tile);
  d.ragged = extent % tile != 0;
  return d;
}

bool switch_legal(const TiledDim& d, std::int64_t mesh, std::int64_t vec) {
  if (!d.ragged) return true;
  const std::int64_t r = d.remainder();
  if (r % mesh != 0) return false;
  return (r / mesh) % vec == 0;
}

}  // namespace swatop::opt
