#include "ops/conv_op.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "ops/reference.hpp"
#include "ops/tensor.hpp"

namespace swatop::ops {

sim::DmaCost pass_cost(const sim::SimConfig& cfg, std::int64_t read_floats,
                       std::int64_t write_floats, std::int64_t read_run,
                       std::int64_t write_run) {
  const std::int64_t txn =
      static_cast<std::int64_t>(cfg.dram_transaction_bytes);
  auto transactions = [&](std::int64_t floats, std::int64_t run) {
    if (run == 0) return ceil_div(floats * 4, txn);
    return floats / run * ceil_div(run * 4 + txn / 2, txn);
  };
  sim::DmaCost c;
  c.latency_cycles = cfg.dma_latency_cycles;
  c.bytes_requested = (read_floats + write_floats) * 4;
  c.transactions = transactions(read_floats, read_run) +
                   transactions(write_floats, write_run);
  c.bytes_wasted =
      std::max<std::int64_t>(0, c.transactions * txn - c.bytes_requested);
  c.transfer_cycles =
      static_cast<double>(c.transactions * txn) / cfg.dma_bytes_per_cycle();
  return c;
}

std::vector<float> test_tensor(TestTensor t, std::int64_t floats) {
  Prng rng(static_cast<std::uint64_t>(t));
  std::vector<float> v(static_cast<std::size_t>(floats));
  for (float& x : v) x = rng.next();
  return v;
}

ConvOp::ConvOp(const ConvShape& shape) : shape_(shape) {
  SWATOP_CHECK(shape.ro() > 0 && shape.co() > 0)
      << "kernel larger than input: " << shape.to_string();
}

std::vector<dsl::TensorSpec> ConvOp::scratch() const {
  const std::vector<dsl::TensorSpec> p = params();
  std::vector<dsl::TensorSpec> out;
  for (dsl::TensorSpec& t : tensors()) {
    const bool layer = t.name == "in" || t.name == "out" ||
                       t.name == "bias" || t.name == "res";
    const bool param =
        std::any_of(p.begin(), p.end(), [&](const dsl::TensorSpec& q) {
          return q.name == t.name;
        });
    if (!layer && !param) out.push_back(std::move(t));
  }
  return out;
}

double ConvOp::pass_cycles(const sim::SimConfig& cfg) const {
  sim::CoreGroup cg(cfg);
  charge_passes(cg);
  return cg.now();
}

std::vector<float> ConvOp::reference_output() const {
  const std::vector<float> in =
      test_tensor(TestTensor::In, shape_.in_floats());
  const std::vector<float> w = test_tensor(TestTensor::W, shape_.w_floats());
  std::vector<float> ref(static_cast<std::size_t>(shape_.out_floats()));
  reference_conv(in.data(), w.data(), ref.data(), shape_);
  return ref;
}

void ConvOp::fill_inputs(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                         const dsl::Strategy& s) const {
  // Explicit GEMM reads "in" only through im2col, Winograd reads "in" and
  // "w" only through its transforms: their cores never bind them.
  dsl::BoundTensors all = bt;
  auto bind = [&](const std::string& name, std::int64_t floats) {
    if (!all.count(name)) all[name] = cg.mem().alloc(floats, name);
  };
  bind("in", shape_.in_floats());
  cg.mem().copy_in(all.at("in"),
                   test_tensor(TestTensor::In, shape_.in_floats()));
  for (const dsl::TensorSpec& t : params()) bind(t.name, t.floats);
  load_weights(cg, all, s, test_tensor(TestTensor::W, shape_.w_floats()));
  pre_pass(cg, all);
}

double ConvOp::check_output(sim::CoreGroup& cg, const dsl::BoundTensors& bt,
                            const dsl::Strategy&) const {
  dsl::BoundTensors all = bt;
  if (!all.count("out")) {
    // The core binds no canonical "out" (explicit GEMM, Winograd): the
    // first check of a core group allocates it and later checks reuse it.
    const auto& allocs = cg.mem().allocations();
    const auto it = std::find_if(allocs.begin(), allocs.end(), [&](auto& a) {
      return a.name == "out" && a.size == shape_.out_floats();
    });
    all["out"] = it != allocs.end()
                     ? it->base
                     : cg.mem().alloc(shape_.out_floats(), "out");
  }
  post_pass(cg, all);
  const std::vector<float> ref = reference_output();
  auto got = cg.mem().view(all.at("out"), shape_.out_floats());
  return max_abs_diff(got.data(), ref.data(), shape_.out_floats());
}

}  // namespace swatop::ops
