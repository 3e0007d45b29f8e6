#include "rt/bind.hpp"

namespace swatop::rt {

dsl::BoundTensors bind_tensors(sim::CoreGroup& cg,
                               const dsl::OperatorDef& op) {
  return bind_tensors(cg.mem(), op);
}

dsl::BoundTensors bind_tensors(sim::MainMemory& mem,
                               const dsl::OperatorDef& op) {
  dsl::BoundTensors bt;
  for (const dsl::TensorSpec& t : op.tensors())
    bt[t.name] = mem.alloc(t.floats, t.name);
  return bt;
}

}  // namespace swatop::rt
