#include "ops/implicit_conv.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string_view>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "isa/kernel_gen.hpp"
#include "ops/matmul.hpp"
#include "sched/lower.hpp"

namespace swatop::ops {

namespace ir = swatop::ir;

namespace {

/// The loops of the nest, in the order lower() declares them, and the
/// loops each operand's address reads: A the weights, B the input, C the
/// output (and a fused residual, read at C's indices).
constexpr std::string_view kLoops = "rcouvi";
struct OperandReads {
  char tag;
  std::string_view reads;
  bool input;
};
constexpr OperandReads kOperands[] = {
    {'A', "ouvi", true}, {'B', "rcuvi", true}, {'C', "rco", false}};

/// multi[i]: loop kLoops[i] has more than one trip.
using Multi = std::array<bool, 6>;

/// What `order` leaves once unit-loop elimination deletes its one-trip
/// loops: its other loops, with each operand where DMA inference puts it
/// among them. DMA inference runs first and places a transfer just inside
/// the innermost loop its address reads, one-trip or not, so the transfers
/// must be part of the nest: with one output-channel tile, rcuvio
/// re-fetches C inside u and v, where rcouvi puts it outside them. Per
/// operand: its transfer ('A', 'B'; C as 'R' when a reduction loop
/// encloses it, so that it is re-fetched), and for an input whose unread
/// loops repeat the fetch, the cache fill ahead of the outermost loop it
/// does not read ('a', 'b') -- noted whether or not the slab will fit the
/// SPM, which the transfer's own place covers.
std::string collapsed_nest(std::string_view order, const Multi& multi) {
  auto repeats = [&](char l) { return multi[kLoops.find(l)]; };
  const std::size_t n = order.size();
  struct Place {
    char tag = 0;
    std::size_t level = 0;  // the transfer runs ahead of loop `level`
    std::size_t fill = std::string_view::npos;
  };
  std::array<Place, 3> places{};
  for (std::size_t k = 0; k < places.size(); ++k) {
    const OperandReads& op = kOperands[k];
    auto read = [&](std::size_t p) {
      return op.reads.find(order[p]) != std::string_view::npos;
    };
    Place& pl = places[k];
    pl.tag = op.tag;
    for (std::size_t p = 0; p < n; ++p)
      if (read(p)) pl.level = p + 1;
    if (!op.input) {
      for (std::size_t p = 0; p < pl.level; ++p)
        if (order[p] == 'u' || order[p] == 'v' || order[p] == 'i')
          pl.tag = 'R';
      continue;
    }
    std::size_t r = 0;
    while (r < pl.level && read(r)) ++r;
    for (std::size_t p = r; p < pl.level; ++p)
      if (!read(p) && repeats(order[p])) pl.fill = r;
  }
  std::string nest;
  for (std::size_t p = 0; p <= n; ++p) {
    for (const Place& pl : places) {
      if (pl.level == p) nest += pl.tag;
      if (pl.fill == p) nest += static_cast<char>(pl.tag - 'A' + 'a');
    }
    if (p < n && repeats(order[p])) nest += order[p];
  }
  return nest;
}

/// True when `order` collapses onto an order listed before it in `orders`
/// (onto any of them, when it is not listed).
bool twin_of_earlier(const std::string& order,
                     const std::vector<std::string>& orders,
                     const Multi& multi) {
  const std::string nest = collapsed_nest(order, multi);
  for (const std::string& earlier : orders) {
    if (earlier == order) return false;
    if (collapsed_nest(earlier, multi) == nest) return true;
  }
  return false;
}

/// The Tco menu: at stride 1 the power-of-two output-column tiles whose
/// padded N (Tco * B) satisfies the mesh constraint, and the whole output
/// row. A strided convolution cannot fuse output columns (consecutive co
/// values are `stride * B` apart in the input, breaking the affine fused
/// view), so Tco = 1.
std::vector<std::int64_t> tco_menu(const ConvShape& shape) {
  if (shape.stride != 1) return {1};
  std::vector<std::int64_t> tco;
  const std::int64_t row = align_up(shape.co(), 8);
  for (std::int64_t f : {1, 2, 4, 8, 16, 32, 64})
    if (f < row && (f * shape.batch) % 8 == 0) tco.push_back(f);
  tco.push_back(row);
  return tco;
}

}  // namespace

ImplicitConvOp::ImplicitConvOp(const ConvShape& shape, dsl::EpilogueSpec epi)
    : ConvOp(shape), epi_(epi) {
  SWATOP_CHECK(epi.out_pad >= 0) << "negative output padding";
  const std::vector<std::string>& listed = orders();
  SWATOP_CHECK(listed.size() <= twins_.size()) << "twin table too small";
  for (std::size_t k = 0; k < listed.size(); ++k)
    for (unsigned m = 0; m < 8; ++m)
      if (twin_of_earlier(listed[k], listed,
                          multi_trip(1 + (m & 1u), 1 + (m >> 1 & 1u),
                                     1 + (m >> 2 & 1u))))
        twins_[k] |= static_cast<std::uint8_t>(1u << m);
}

std::string ImplicitConvOp::name() const {
  std::string n = "implicit_conv[" + shape_.to_string() + "]";
  // The epilogue changes the lowering, the tensor set and the winner, so it
  // must be part of the signature (and hence the schedule-cache key).
  if (epi_.any()) n += "+epi[" + epi_.tag() + "]";
  return n;
}

dsl::ScheduleSpace ImplicitConvOp::space() const {
  dsl::ScheduleSpace sp;
  std::vector<std::int64_t> tno;
  const std::int64_t no_cap =
      std::min<std::int64_t>(align_up(shape_.no, 32), 2048);
  for (std::int64_t f = 32; f <= no_cap; f *= 2) tno.push_back(f);
  sp.add(dsl::FactorVar{"Tno", tno});
  // Fewer than 32 input channels: one K tile of all of them.
  sp.add(dsl::FactorVar{
      "Tni", shape_.ni < 32
                 ? std::vector<std::int64_t>{align_up(shape_.ni, 8)}
                 : MatmulOp::tile_candidates(shape_.ni, 32, {32, 64, 128})});
  // Output-column fusion factor: the GEMM N dim is Tco * B.
  sp.add(dsl::FactorVar{"Tco", tco_menu(shape_)});
  sp.add(dsl::ChoiceVar{"wlayout", {"no_major", "ni_major"}});
  sp.add(dsl::ChoiceVar{"order", orders()});
  sp.add(dsl::ChoiceVar{"variant",
                        {"0", "1", "2", "3", "4", "5", "6", "7"}});
  sp.add(dsl::ChoiceVar{"boundary", {"pad", "switch"}});
  sp.set_epilogue(epi_);
  return sp;
}

const std::vector<std::string>& ImplicitConvOp::orders() const {
  // A computing epilogue must see finished sums, so DMA inference rejects
  // every order with a reduction loop (u, v, i) outside an output loop
  // (r, c, o): rcuvio and rouvci. Offer only the orders it can accept
  // instead of lowering the rest to throw them away.
  static const std::vector<std::string> kxk = {"rcouvi", "rcoiuv"};
  static const std::vector<std::string> kxk_all = {"rcouvi", "rcoiuv",
                                                   "rcuvio", "rouvci"};
  static const std::vector<std::string> pointwise = {"rcouvi", "orcuvi"};
  static const std::vector<std::string> pointwise_all = {"rcouvi", "orcuvi",
                                                         "rcuvio", "rouvci"};
  const bool one_by_one = shape_.kr == 1 && shape_.kc == 1;
  if (epi_.compute()) return one_by_one ? pointwise : kxk;
  return one_by_one ? pointwise_all : kxk_all;
}

std::array<bool, 6> ImplicitConvOp::multi_trip(std::int64_t co_tiles,
                                               std::int64_t no_tiles,
                                               std::int64_t ni_tiles) const {
  return {shape_.ro() > 1, co_tiles > 1, no_tiles > 1,
          shape_.kr > 1,   shape_.kc > 1, ni_tiles > 1};
}

bool ImplicitConvOp::is_twin(const std::string& order, std::int64_t co_tiles,
                             std::int64_t no_tiles,
                             std::int64_t ni_tiles) const {
  const std::vector<std::string>& listed = orders();
  const unsigned m = static_cast<unsigned>(co_tiles > 1) |
                     static_cast<unsigned>(no_tiles > 1) << 1 |
                     static_cast<unsigned>(ni_tiles > 1) << 2;
  for (std::size_t k = 0; k < listed.size(); ++k)
    if (listed[k] == order) return (twins_[k] >> m & 1u) != 0;
  return twin_of_earlier(order, listed,
                         multi_trip(co_tiles, no_tiles, ni_tiles));
}

ir::StmtPtr ImplicitConvOp::lower(const dsl::Strategy& s) const {
  return build(s, /*refuse_twins=*/true);
}

ir::StmtPtr ImplicitConvOp::lower_any_order(const dsl::Strategy& s) const {
  return build(s, /*refuse_twins=*/false);
}

ir::StmtPtr ImplicitConvOp::build(const dsl::Strategy& s,
                                  bool refuse_twins) const {
  const std::int64_t B = shape_.batch, Ni = shape_.ni, No = shape_.no;
  const std::int64_t Ci = shape_.ci, Kr = shape_.kr, Kc = shape_.kc;
  const std::int64_t Ro = shape_.ro(), Co = shape_.co();
  const std::int64_t S = shape_.stride;
  if (S != 1 && s.factor("Tco") != 1) return nullptr;

  const std::int64_t Tno = s.factor("Tno");
  const std::int64_t Tni = s.factor("Tni");
  const std::int64_t Tco = s.factor("Tco");
  const int variant = std::stoi(s.choice("variant"));
  const bool vec_m = isa::KernelVariant::from_index(variant).vec ==
                     isa::VecDim::M;
  const bool switch_mode = s.choice("boundary") == "switch";
  const bool ni_major = s.choice("wlayout") == "ni_major";

  // Padded N must satisfy the primitive constraints up front.
  const std::int64_t Npad = Tco * B;
  if (Npad % 8 != 0) return nullptr;
  if (!vec_m && (Npad / 8) % 4 != 0) return nullptr;

  const opt::TiledDim dno = opt::make_tiled("o_o", No, Tno);
  const opt::TiledDim dni = opt::make_tiled("i_o", Ni, Tni);
  const opt::TiledDim dco = opt::make_tiled("c_o", Co, Tco);

  if (switch_mode) {
    if (!dno.ragged && !dni.ragged && !dco.ragged) return nullptr;
    if (!opt::switch_legal(dno, 8, vec_m ? 4 : 1)) return nullptr;
    if (!opt::switch_legal(dni, 8, 1)) return nullptr;
    if (dco.ragged) {
      const std::int64_t nr = dco.remainder() * B;
      if (nr % 8 != 0) return nullptr;
      if (!vec_m && (nr / 8) % 4 != 0) return nullptr;
      // The whole-row tile switched down to Co columns is the Tco = Co
      // tile, when the menu offers that.
      if (Tco == align_up(Co, 8)) {
        const std::vector<std::int64_t> menu = tco_menu(shape_);
        if (std::find(menu.begin(), menu.end(), Co) != menu.end())
          return nullptr;
      }
    }
  }
  const std::string& order = s.choice("order");
  if (refuse_twins && is_twin(order, dco.count, dno.count, dni.count))
    return nullptr;

  // Strides of the fixed layouts.
  const std::int64_t in_ni = Ci * B, in_ri = Ni * Ci * B;
  const std::int64_t w_no = ni_major ? Ni : 1;
  const std::int64_t w_ni = ni_major ? 1 : No;
  const std::int64_t w_kc = Ni * No, w_kr = Kc * Ni * No;
  // Output strides honour the fused border: with out_pad = p the tile is
  // stored at (r + p, co + p) of the [ro+2p][no][co+2p][b] tensor, which
  // keeps the fused (co, b) columns contiguous (stride 1) and only changes
  // the channel/row strides and a constant base shift.
  const std::int64_t P = epi_.out_pad;
  const std::int64_t out_no = (Co + 2 * P) * B;
  const std::int64_t out_ro = No * out_no;
  const std::int64_t out_shift = P * out_ro + P * B;

  ir::GemmAttrs g;
  g.variant = variant;
  g.M = switch_mode ? dno.valid() : ir::cst(Tno);
  g.K = switch_mode ? dni.valid() : ir::cst(Tni);
  g.N = switch_mode ? ir::mul(dco.valid(), ir::cst(B)) : ir::cst(Npad);

  const ir::Expr u = ir::var("u"), v = ir::var("v"), r = ir::var("r");

  // A: weight slice, rows = no, cols = ni.
  g.a = {"w",
         ir::add(ir::add(ir::mul(u, ir::cst(w_kr)), ir::mul(v, ir::cst(w_kc))),
                 ir::add(ir::mul(dno.base(), ir::cst(w_no)),
                         ir::mul(dni.base(), ir::cst(w_ni)))),
         w_no, w_ni, dno.valid(), dni.valid()};
  // B: input slice, rows = ni (stride Ci*B), cols = fused (co, b), stride 1.
  // The input position is (r*S + u, co*S + v); column fusion is only legal
  // at S = 1 (elsewhere Tco = 1, so the fused range is just the batch).
  g.b = {"in",
         ir::add(ir::add(ir::mul(ir::add(ir::mul(r, ir::cst(S)), u),
                                 ir::cst(in_ri)),
                         ir::mul(dni.base(), ir::cst(in_ni))),
                 ir::mul(ir::add(ir::mul(dco.base(), ir::cst(S)), v),
                         ir::cst(B))),
         in_ni, 1, dni.valid(), ir::mul(dco.valid(), ir::cst(B))};
  // C: output slice, rows = no (stride (Co+2p)*B), cols = fused (co, b).
  g.c = {"out",
         ir::add(ir::add(ir::mul(r, ir::cst(out_ro)),
                         ir::mul(dno.base(), ir::cst(out_no))),
                 ir::add(ir::mul(dco.base(), ir::cst(B)),
                         ir::cst(out_shift))),
         out_no, 1, dno.valid(), ir::mul(dco.valid(), ir::cst(B))};

  if (epi_.compute()) {
    g.epi.bias = epi_.bias;
    g.epi.residual = epi_.residual;
    g.epi.relu = epi_.relu;
    // Natural C orientation: output channels run over the view rows (DMA
    // inference flips this when the kernel variant transposes C).
    g.epi.channels_on_rows = true;
    if (epi_.bias) g.epi.channel0 = dno.base();
    if (epi_.residual) {
      // The residual tensor has the *unpadded* output layout.
      const std::int64_t res_no = Co * B, res_ro = No * Co * B;
      g.epi.res = {"res",
                   ir::add(ir::add(ir::mul(r, ir::cst(res_ro)),
                                   ir::mul(dno.base(), ir::cst(res_no))),
                           ir::mul(dco.base(), ir::cst(B))),
                   res_no, 1, dno.valid(), ir::mul(dco.valid(), ir::cst(B))};
    }
  }

  const std::vector<std::pair<char, sched::LoopSpec>> dims = {
      {'r', {"r", ir::cst(Ro), false}},
      {'c', {"c_o", ir::cst(dco.count), false}},
      {'o', {"o_o", ir::cst(dno.count), false}},
      {'u', {"u", ir::cst(Kr), true}},
      {'v', {"v", ir::cst(Kc), true}},
      {'i', {"i_o", ir::cst(dni.count), true}},
  };
  return sched::build_nest(sched::order_loops(order, dims),
                           ir::make_gemm(g));
}

std::vector<dsl::TensorSpec> ImplicitConvOp::tensors() const {
  std::vector<dsl::TensorSpec> t = {
      {"in", shape_.in_floats(), false},
      {"w", shape_.w_floats(), false},
      {"out", padded_out_floats(), true}};
  if (epi_.bias) t.push_back({"bias", shape_.no, false});
  if (epi_.residual) t.push_back({"res", shape_.out_floats(), false});
  return t;
}

std::vector<dsl::TensorSpec> ImplicitConvOp::params() const {
  return {{"w", shape_.w_floats(), false}};
}

void ImplicitConvOp::load_weights(sim::CoreGroup& cg,
                                  const dsl::BoundTensors& bt,
                                  const dsl::Strategy& s,
                                  const std::vector<float>& w) const {
  const std::int64_t Ni = shape_.ni, No = shape_.no;
  const bool ni_major = s.choice("wlayout") == "ni_major";
  auto v = cg.mem().view(bt.at("w"), shape_.w_floats());
  for (std::int64_t base = 0; base < shape_.w_floats(); base += Ni * No)
    for (std::int64_t ni = 0; ni < Ni; ++ni)
      for (std::int64_t no = 0; no < No; ++no)
        v[static_cast<std::size_t>(ni_major ? base + no * Ni + ni
                                            : base + ni * No + no)] =
            w[static_cast<std::size_t>(base + ni * No + no)];
}

void ImplicitConvOp::pre_pass(sim::CoreGroup& cg,
                              const dsl::BoundTensors& bt) const {
  cg.mem().fill(bt.at("out"), padded_out_floats(), 0.0f);
}

void ImplicitConvOp::charge_passes(sim::CoreGroup& cg) const {
  // The schedule writes only the interior; the zero border is written once
  // per run (an absorbed Pad's remaining cost).
  if (epi_.out_pad == 0) return;
  const std::int64_t border = padded_out_floats() - shape_.out_floats();
  cg.charge_dma_cost_sync(pass_cost(cg.config(), 0, border));
}

void ImplicitConvOp::fill_inputs(sim::CoreGroup& cg,
                                 const dsl::BoundTensors& bt,
                                 const dsl::Strategy& s) const {
  ConvOp::fill_inputs(cg, bt, s);
  if (epi_.bias)
    cg.mem().copy_in(bt.at("bias"), test_tensor(TestTensor::Bias, shape_.no));
  if (epi_.residual)
    cg.mem().copy_in(bt.at("res"),
                     test_tensor(TestTensor::Res, shape_.out_floats()));
}

double ImplicitConvOp::check_output(sim::CoreGroup& cg,
                                    const dsl::BoundTensors& bt,
                                    const dsl::Strategy&) const {
  const std::int64_t No = shape_.no, Co = shape_.co(), B = shape_.batch;
  std::vector<float> ref = reference_output();
  if (epi_.compute()) {
    // Same order as the fused store: bias, residual-add, relu.
    const std::vector<float> bias = test_tensor(TestTensor::Bias, No);
    const std::vector<float> res =
        test_tensor(TestTensor::Res, shape_.out_floats());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      const std::int64_t no =
          (static_cast<std::int64_t>(i) / (Co * B)) % No;
      if (epi_.bias) ref[i] += bias[static_cast<std::size_t>(no)];
      if (epi_.residual) ref[i] += res[i];
      if (epi_.relu) ref[i] = std::max(ref[i], 0.0f);
    }
  }
  // Compare element-wise at the (possibly) padded offsets: the schedule
  // owns only the interior.
  const std::int64_t P = epi_.out_pad, Wp = co_p();
  auto got = cg.mem().view(bt.at("out"), padded_out_floats());
  double worst = 0.0;
  for (std::int64_t r = 0; r < shape_.ro(); ++r) {
    for (std::int64_t no = 0; no < No; ++no) {
      for (std::int64_t c = 0; c < Co; ++c) {
        for (std::int64_t b = 0; b < B; ++b) {
          const std::int64_t raw = ((r * No + no) * Co + c) * B + b;
          const std::int64_t pad =
              (((r + P) * No + no) * Wp + (c + P)) * B + b;
          const double d = std::abs(
              static_cast<double>(got[static_cast<std::size_t>(pad)]) -
              static_cast<double>(ref[static_cast<std::size_t>(raw)]));
          worst = std::max(worst, d);
        }
      }
    }
  }
  return worst;
}

}  // namespace swatop::ops
