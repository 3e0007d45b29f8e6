// Tensor binding: allocate an operator's main-memory tensors in a core
// group's arena.
#pragma once

#include "dsl/dsl.hpp"
#include "sim/core_group.hpp"

namespace swatop::rt {

/// Allocate every tensor the operator declares; returns name -> address.
dsl::BoundTensors bind_tensors(sim::CoreGroup& cg, const dsl::OperatorDef& op);

/// The same on a bare arena. Allocation is deterministic, so a fresh arena
/// hands out the addresses a fresh core group's would.
dsl::BoundTensors bind_tensors(sim::MainMemory& mem,
                               const dsl::OperatorDef& op);

}  // namespace swatop::rt
