#include "baseline/swdnn_conv.hpp"

#include "common/check.hpp"
#include "tune/tuner.hpp"

namespace swatop::baseline {

namespace {

/// The schedule swDNN's authors hand-tuned: the best strategy for a
/// representative big training layer (batch 32, 256 channels, 14x14),
/// found once and frozen. Rigidity -- not bad blocking -- is what the
/// manual library loses by.
const dsl::Strategy& reference_training_strategy(const sim::SimConfig& cfg) {
  static const dsl::Strategy s = [&] {
    ops::ConvShape ref;
    ref.batch = 32;
    ref.ni = 256;
    ref.no = 256;
    ref.ri = 16;
    ref.ci = 16;
    const ops::ImplicitConvOp op(ref);
    const tune::ModelTuner tuner(cfg);
    return tuner.tune(op).candidate.strategy;
  }();
  return s;
}

}  // namespace

dsl::Strategy SwDnnConv::fixed_strategy(const ops::ImplicitConvOp& op) {
  const sim::SimConfig cfg;
  const dsl::Strategy& ref = reference_training_strategy(cfg);
  // The frozen blocking is applied *as is* -- a hand-optimized library does
  // not re-tile per shape. Mismatched layers (small channels, narrow
  // outputs) run on padded tiles and pay the waste; that rigidity is the
  // gap Fig. 5 measures.
  dsl::Strategy s;
  s.set_factor("Tno", ref.factor("Tno"));
  s.set_factor("Tni", ref.factor("Tni"));
  s.set_factor("Tco", ref.factor("Tco"));
  s.set_choice("wlayout", ref.choice("wlayout"));
  s.set_choice("order", ref.choice("order"));
  s.set_choice("variant", ref.choice("variant"));
  s.set_choice("boundary", "pad");
  // On a layer with one input-channel tile (or a 1x1 kernel) a frozen
  // rcoiuv is rcouvi's program, which the space builds under rcouvi only.
  if (s.choice("order") == "rcoiuv" && op.lower(s) == nullptr)
    s.set_choice("order", "rcouvi");
  return s;
}

double SwDnnConv::cycles(const ops::ConvShape& s) const {
  SWATOP_CHECK(applicable(s))
      << "swDNN has no manual implementation for " << s.to_string();
  const ops::ImplicitConvOp op(s);
  return tune::measure_strategy(op, fixed_strategy(op), cfg_);
}

}  // namespace swatop::baseline
