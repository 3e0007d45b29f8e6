// Graph subsystem: IR validation, network builders, the memory planner's
// packing invariants, the naive reference kernels, and the engine running
// tiny networks end-to-end (functional check, multi-CG splits, schedule
// dedup / cache reuse, Winograd).
#include <gtest/gtest.h>

#include <cstdio>
#include <vector>

#include "common/check.hpp"
#include "graph/build.hpp"
#include "graph/engine.hpp"
#include "graph/fuse.hpp"
#include "graph/graph.hpp"
#include "graph/memory_plan.hpp"
#include "graph/reference.hpp"
#include "ops/explicit_conv.hpp"
#include "ops/reference.hpp"

namespace swatop::graph {
namespace {

Node node(NodeKind kind, std::string name, std::vector<std::string> inputs,
          std::string output) {
  Node n;
  n.kind = kind;
  n.name = std::move(name);
  n.inputs = std::move(inputs);
  n.output = std::move(output);
  return n;
}

/// pad -> conv(3x3, 8 -> 16) -> bias -> relu -> pool on an 8x8 input, then
/// `extra_convs` identical-shape 3x3 16->16 blocks on the pooled 4x4 map.
/// All extents are tiny so tuning stays fast under max_candidates.
Graph make_tiny(int extra_convs) {
  Graph g("tiny");
  g.add_input("in", {8, 8});

  Node pad1 = node(NodeKind::Pad, "pad1", {"in"}, "t:pad1");
  pad1.pad = 1;
  g.add(pad1);
  Node conv1 = node(NodeKind::Conv, "conv1", {"t:pad1"}, "t:conv1");
  conv1.kernel = 3;
  conv1.channels_out = 16;
  g.add(conv1);
  g.add(node(NodeKind::Bias, "bias1", {"t:conv1"}, "t:bias1"));
  g.add(node(NodeKind::Relu, "relu1", {"t:bias1"}, "t:relu1"));
  g.add(node(NodeKind::MaxPool2x2, "pool1", {"t:relu1"}, "t:pool1"));

  std::string prev = "t:pool1";
  for (int i = 0; i < extra_convs; ++i) {
    const std::string tag = "c" + std::to_string(i + 2);
    Node pad = node(NodeKind::Pad, "pad" + tag, {prev}, "t:pad" + tag);
    pad.pad = 1;
    g.add(pad);
    Node conv = node(NodeKind::Conv, "conv" + tag, {"t:pad" + tag},
                     "t:conv" + tag);
    conv.kernel = 3;
    conv.channels_out = 16;
    g.add(conv);
    g.add(node(NodeKind::Bias, "bias" + tag, {"t:conv" + tag}, "t:bias" + tag));
    g.add(node(NodeKind::Relu, "relu" + tag, {"t:bias" + tag}, "t:out" + tag));
    prev = "t:out" + tag;
  }
  return g;
}

SwatopConfig fast_cfg() {
  SwatopConfig cfg;
  cfg.max_candidates = 24;  // bound the schedule space for test speed
  return cfg;
}

// ---------------------------------------------------------------- IR

TEST(Graph, ValidTinyNetHasNoProblems) {
  const Graph g = make_tiny(1);
  EXPECT_TRUE(g.validate().empty());
  EXPECT_EQ(g.conv_count(), 2);
  EXPECT_EQ(g.topo_order().size(), g.nodes().size());
  const auto outs = g.outputs();
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0], "t:outc2");
  const auto shapes = g.shapes();
  EXPECT_EQ(shapes.at("t:pool1"), (TensorShape{4, 16}));
  EXPECT_EQ(shapes.at("t:outc2"), (TensorShape{4, 16}));
}

TEST(Graph, UnknownInputTensorIsReported) {
  Graph g;
  g.add(node(NodeKind::Relu, "r", {"ghost"}, "out"));
  const auto problems = g.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_THROW(g.topo_order(), CheckError);
  EXPECT_THROW(g.validate_or_throw(), CheckError);
}

TEST(Graph, DoubleProducerIsReported) {
  Graph g;
  g.add_input("in", {4, 4});
  g.add(node(NodeKind::Relu, "a", {"in"}, "t"));
  g.add(node(NodeKind::Relu, "b", {"in"}, "t"));
  EXPECT_FALSE(g.validate().empty());
}

TEST(Graph, CycleIsReported) {
  Graph g;
  g.add(node(NodeKind::Relu, "a", {"y"}, "x"));
  g.add(node(NodeKind::Relu, "b", {"x"}, "y"));
  EXPECT_FALSE(g.validate().empty());
  EXPECT_THROW(g.topo_order(), CheckError);
}

TEST(Graph, AddShapeMismatchIsReported) {
  Graph g;
  g.add_input("a", {4, 8});
  g.add_input("b", {4, 16});
  g.add(node(NodeKind::Add, "sum", {"a", "b"}, "out"));
  EXPECT_FALSE(g.validate().empty());
}

TEST(Graph, OddExtentPoolIsReported) {
  Graph g;
  g.add_input("in", {5, 8});
  g.add(node(NodeKind::MaxPool2x2, "p", {"in"}, "out"));
  EXPECT_FALSE(g.validate().empty());
}

TEST(Graph, KernelLargerThanInputIsReported) {
  Graph g;
  g.add_input("in", {2, 8});
  Node c = node(NodeKind::Conv, "c", {"in"}, "out");
  c.kernel = 3;
  c.channels_out = 8;
  g.add(c);
  EXPECT_FALSE(g.validate().empty());
}

TEST(Graph, ConvShapeAtBatch) {
  const Graph g = make_tiny(0);
  const Node& conv = g.nodes()[1];
  ASSERT_EQ(conv.kind, NodeKind::Conv);
  const ops::ConvShape s = g.conv_shape(conv, 4);
  EXPECT_EQ(s.batch, 4);
  EXPECT_EQ(s.ri, 10);  // 8 + 2*pad
  EXPECT_EQ(s.ci, 10);
  EXPECT_EQ(s.ni, 8);
  EXPECT_EQ(s.no, 16);
  EXPECT_EQ(s.kr, 3);
  EXPECT_EQ(s.kc, 3);
}

// ---------------------------------------------------------------- builders

TEST(Build, EvaluationNetworksValidate) {
  for (const char* net : {"vgg16", "resnet", "yolo"}) {
    const Graph g = build_net(net);
    EXPECT_TRUE(g.validate().empty()) << net;
    EXPECT_GT(g.conv_count(), 0) << net;
    EXPECT_FALSE(g.outputs().empty()) << net;
  }
  EXPECT_EQ(build_net("vgg16").conv_count(), 13);
  EXPECT_THROW(build_net("lenet"), CheckError);
}

TEST(Build, ResnetHasResidualAdds) {
  const Graph g = build_net("resnet");
  int adds = 0;
  for (const Node& n : g.nodes())
    if (n.kind == NodeKind::Add) ++adds;
  EXPECT_GT(adds, 0);
}

// ---------------------------------------------------------------- planner

/// Any two tensors whose lifetimes intersect must not overlap in the arena.
void expect_no_live_overlap(const MemoryPlan& plan) {
  const std::vector<std::pair<std::string, PlanEntry>> v(plan.entries.begin(),
                                                         plan.entries.end());
  for (std::size_t i = 0; i < v.size(); ++i) {
    for (std::size_t j = i + 1; j < v.size(); ++j) {
      const PlanEntry& a = v[i].second;
      const PlanEntry& b = v[j].second;
      const bool live_together = a.first <= b.last && b.first <= a.last;
      if (!live_together) continue;
      const bool disjoint = a.offset + a.floats <= b.offset ||
                            b.offset + b.floats <= a.offset;
      EXPECT_TRUE(disjoint) << v[i].first << " overlaps " << v[j].first;
    }
  }
}

TEST(MemoryPlan, PacksWithoutLiveOverlap) {
  for (const char* net : {"vgg16", "resnet", "yolo"}) {
    const MemoryPlan plan = plan_memory(build_net(net), 2);
    EXPECT_GT(plan.peak_floats, 0) << net;
    EXPECT_LE(plan.peak_floats, plan.naive_floats) << net;
    expect_no_live_overlap(plan);
    for (const auto& [name, e] : plan.entries)
      EXPECT_EQ(e.offset % plan.alignment, 0) << net << " " << name;
  }
}

TEST(MemoryPlan, Vgg16ReusesWellUnderNaive) {
  // The acceptance bar: a 13-conv chain's planned peak must be at most 60%
  // of binding every inter-layer tensor separately.
  const MemoryPlan plan = plan_memory(build_net("vgg16"), 4);
  EXPECT_LE(plan.reuse_ratio(), 0.60);
}

TEST(MemoryPlan, TransientsArePlannedAtTheirStep) {
  const Graph g = make_tiny(0);
  const std::int64_t before = plan_memory(g, 1).naive_floats;
  std::vector<Transient> tr{{"conv1:dcol", 4096, 1}};
  const MemoryPlan plan = plan_memory(g, 1, tr);
  ASSERT_TRUE(plan.entries.count("conv1:dcol"));
  const PlanEntry& e = plan.entries.at("conv1:dcol");
  EXPECT_EQ(e.first, 1);
  EXPECT_EQ(e.last, 1);
  EXPECT_EQ(plan.naive_floats, before + 4096);
  expect_no_live_overlap(plan);
}

TEST(MemoryPlan, InvalidGraphThrows) {
  Graph g;
  g.add(node(NodeKind::Relu, "r", {"ghost"}, "out"));
  EXPECT_THROW(plan_memory(g, 1), CheckError);
}

// ---------------------------------------------------------------- kernels

TEST(RefKernels, BiasAddPerChannel) {
  // [rows=1][ch=2][cols=2][batch=1]
  std::vector<float> t{1.0f, 2.0f, 3.0f, 4.0f};
  const std::vector<float> bias{10.0f, 20.0f};
  ops::reference_bias_add(t.data(), bias.data(), 1, 2, 2, 1);
  EXPECT_FLOAT_EQ(t[0], 11.0f);
  EXPECT_FLOAT_EQ(t[1], 12.0f);
  EXPECT_FLOAT_EQ(t[2], 23.0f);
  EXPECT_FLOAT_EQ(t[3], 24.0f);
}

TEST(RefKernels, ReluClampsNegatives) {
  std::vector<float> t{-1.0f, 0.0f, 2.5f, -0.5f};
  ops::reference_relu(t.data(), 4);
  EXPECT_FLOAT_EQ(t[0], 0.0f);
  EXPECT_FLOAT_EQ(t[1], 0.0f);
  EXPECT_FLOAT_EQ(t[2], 2.5f);
  EXPECT_FLOAT_EQ(t[3], 0.0f);
}

TEST(RefKernels, MaxPool2x2TakesWindowMax) {
  // [rows=2][ch=1][cols=2][batch=1]: one 2x2 window.
  const std::vector<float> in{1.0f, 4.0f, 3.0f, 2.0f};
  std::vector<float> out(1, -1.0f);
  ops::reference_maxpool2x2(in.data(), out.data(), 2, 1, 2, 1);
  EXPECT_FLOAT_EQ(out[0], 4.0f);
}

TEST(RefKernels, EltwiseAdd) {
  const std::vector<float> a{1.0f, 2.0f};
  const std::vector<float> b{10.0f, 20.0f};
  std::vector<float> out(2);
  ops::reference_eltwise_add(a.data(), b.data(), out.data(), 2);
  EXPECT_FLOAT_EQ(out[0], 11.0f);
  EXPECT_FLOAT_EQ(out[1], 22.0f);
}

TEST(RefKernels, PadZeroesTheBorder) {
  // 1x1 spatial, 1 channel, batch 1, pad 1 -> 3x3 with the value centered.
  const std::vector<float> in{7.0f};
  std::vector<float> out(9, -1.0f);
  ops::reference_pad(in.data(), out.data(), 1, 1, 1, 1, 1);
  for (int i = 0; i < 9; ++i)
    EXPECT_FLOAT_EQ(out[i], i == 4 ? 7.0f : 0.0f) << i;
}

TEST(RefData, GroupFillMatchesFullBatchSlice) {
  // A core group filling images [2, 4) must produce bit-identical values
  // to the corresponding slice of a whole-batch fill.
  const TensorShape shape{4, 8};
  const std::int64_t full = 4, sub = 2, batch0 = 2;
  std::vector<float> whole(shape.floats(full));
  std::vector<float> part(shape.floats(sub));
  fill_input("in", shape, full, 0, whole.data());
  fill_input("in", shape, sub, batch0, part.data());
  const std::int64_t positions = shape.hw * shape.hw * shape.channels;
  for (std::int64_t p = 0; p < positions; ++p)
    for (std::int64_t b = 0; b < sub; ++b)
      ASSERT_EQ(part[p * sub + b], whole[p * full + batch0 + b]);
}

// ---------------------------------------------------------------- fusion

/// A fusible block: conv(3x3, 32 -> 32) -> bias -> relu on an 8x8 input
/// (ni = 32, so implicit GEMM applies and the engine fuses it). With
/// `residual`, a same-shape second input rides an Add between bias and
/// relu -- the resnet tail shape. With `tail_pad`, a Pad follows relu.
Graph make_fusible(bool residual, bool tail_pad = false) {
  Graph g("fusible");
  g.add_input("in", {8, 32});
  Node conv = node(NodeKind::Conv, "conv", {"in"}, "t:conv");
  conv.kernel = 3;
  conv.channels_out = 32;
  g.add(conv);
  g.add(node(NodeKind::Bias, "conv.bias", {"t:conv"}, "t:bias"));
  std::string cur = "t:bias";
  if (residual) {
    g.add_input("shortcut", {6, 32});
    g.add(node(NodeKind::Add, "conv.add", {cur, "shortcut"}, "t:sum"));
    cur = "t:sum";
  }
  g.add(node(NodeKind::Relu, "conv.relu", {cur}, "t:relu"));
  if (tail_pad) {
    Node pad = node(NodeKind::Pad, "conv.pad", {"t:relu"}, "t:pad");
    pad.pad = 1;
    g.add(pad);
  }
  return g;
}

TEST(Fuse, ChainCollapsesToSingleNode) {
  const Graph g = make_fusible(false);
  FusionStats st;
  const Graph f = fuse_epilogues(g, &st);
  EXPECT_TRUE(f.validate().empty());
  ASSERT_EQ(f.nodes().size(), 1u);
  const Node& n = f.nodes()[0];
  EXPECT_EQ(n.kind, NodeKind::Conv);
  EXPECT_TRUE(n.epilogue.bias);
  EXPECT_TRUE(n.epilogue.relu);
  EXPECT_FALSE(n.epilogue.residual);
  EXPECT_EQ(n.bias_name, "conv.bias");  // seeds the same bias vector
  EXPECT_EQ(n.output, "t:relu");        // the chain tail's tensor
  EXPECT_EQ(st.convs_fused, 1);
  EXPECT_EQ(st.bias_folded, 1);
  EXPECT_EQ(st.relu_folded, 1);
  EXPECT_EQ(st.nodes_removed(), 2);
}

TEST(Fuse, ResidualAddAndPadAreAbsorbed) {
  const Graph g = make_fusible(true, /*tail_pad=*/true);
  FusionStats st;
  const Graph f = fuse_epilogues(g, &st);
  EXPECT_TRUE(f.validate().empty());
  ASSERT_EQ(f.nodes().size(), 1u);
  const Node& n = f.nodes()[0];
  EXPECT_TRUE(n.epilogue.bias);
  EXPECT_TRUE(n.epilogue.residual);
  EXPECT_TRUE(n.epilogue.relu);
  EXPECT_EQ(n.epilogue.out_pad, 1);
  ASSERT_EQ(n.inputs.size(), 2u);
  EXPECT_EQ(n.inputs[1], "shortcut");  // the residual operand
  EXPECT_EQ(n.output, "t:pad");
  EXPECT_EQ(st.add_folded, 1);
  EXPECT_EQ(st.pad_folded, 1);
  // The padded output shape matches the unfused graph's.
  EXPECT_EQ(f.shapes().at("t:pad"), g.shapes().at("t:pad"));
}

TEST(Fuse, MultiConsumerIntermediateBlocksAbsorption) {
  // The conv output feeds bias AND a pool: absorbing bias would hide a
  // tensor the pool still needs, so nothing fuses.
  Graph g = make_fusible(false);
  g.add(node(NodeKind::MaxPool2x2, "pool", {"t:conv"}, "t:pool"));
  FusionStats st;
  const Graph f = fuse_epilogues(g, &st);
  EXPECT_TRUE(f.validate().empty());
  EXPECT_EQ(st.bias_folded, 0);
  EXPECT_EQ(st.convs_fused, 0);
  EXPECT_EQ(f.nodes().size(), g.nodes().size());
}

TEST(Fuse, PredicateGatesWhichConvsFuse) {
  const Graph g = make_fusible(false);
  FusionStats st;
  const Graph f =
      fuse_epilogues(g, &st, [](const Node&) { return false; });
  EXPECT_EQ(st.convs_fused, 0);
  EXPECT_EQ(f.nodes().size(), g.nodes().size());
}

TEST(Graph, FusedResidualShapeMismatchIsReported) {
  // A fused residual operand must match the conv's *raw* output shape
  // before the planner ever sees the graph (satellite of ISSUE 6).
  Graph g;
  g.add_input("in", {8, 32});
  g.add_input("shortcut", {4, 32});  // wrong: conv raw output is 6x6
  Node conv = node(NodeKind::Conv, "conv", {"in", "shortcut"}, "out");
  conv.kernel = 3;
  conv.channels_out = 32;
  conv.epilogue.bias = true;
  conv.epilogue.residual = true;
  conv.epilogue.relu = true;
  g.add(conv);
  const auto problems = g.validate();
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("residual"), std::string::npos);
  // Fixing the operand shape clears it.
  Graph ok;
  ok.add_input("in", {8, 32});
  ok.add_input("shortcut", {6, 32});
  ok.add(conv);
  EXPECT_TRUE(ok.validate().empty());
}

TEST(Residency, AdjacentMpePassesPinTheHandoverTensor) {
  // pool -> pad back to back: pool's output is consumed only by pad, so
  // the tiles hand over on-chip. Conv-adjacent edges need a budget.
  const Graph g = make_tiny(1);
  const ResidencyPlan rp = plan_residency(g);
  EXPECT_TRUE(rp.resident.count("t:pool1"));
  EXPECT_GT(rp.resident_floats_per_image, 0);
  // Conv operands stay materialized without a conv budget.
  EXPECT_FALSE(rp.resident.count("t:pad1"));
  EXPECT_FALSE(rp.resident.count("t:conv1"));
}

TEST(Residency, ConvEdgesNeedBudgetAndGate) {
  // conv -> bias adjacent edge: resident only when the tensor fits the
  // conv budget and the conv passes the gate.
  const Graph g = make_fusible(false);
  ResidencyOptions o;
  o.batch = 2;
  o.conv_budget_floats = g.shapes().at("t:conv").floats(2);
  const ResidencyPlan rp = plan_residency(g, o);
  EXPECT_TRUE(rp.resident.count("t:conv"));
  // One float short: the whole tensor no longer fits.
  o.conv_budget_floats -= 1;
  EXPECT_FALSE(plan_residency(g, o).resident.count("t:conv"));
  // The engine's gate (e.g. "implicit only") excludes the conv endpoint.
  o.conv_budget_floats += 1;
  o.conv_ok = [](const Node&) { return false; };
  EXPECT_FALSE(plan_residency(g, o).resident.count("t:conv"));
}

TEST(Engine, FusedBlockMatchesReferenceAndElidesTraffic) {
  // Functional equivalence of the fused implicit kernel against the
  // *unfused* host reference (the engine always checks the original
  // graph), plus the ablation: fusion off prices strictly more cycles.
  GraphEngine engine(fast_cfg());
  NetOptions fused;  // fusion + residency default on
  const NetRunResult r = engine.run(make_fusible(true), 2, fused);
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  EXPECT_EQ(r.fusion.convs_fused, 1);
  EXPECT_EQ(r.fusion.add_folded, 1);
  ASSERT_FALSE(r.layers.empty());
  EXPECT_TRUE(r.layers[0].fused);

  NetOptions off;
  off.fusion = false;
  off.residency = false;
  const NetRunResult u = engine.run(make_fusible(true), 2, off);
  EXPECT_TRUE(u.checked);
  EXPECT_LT(u.max_rel_err, 1e-4);
  EXPECT_EQ(u.fusion.convs_fused, 0);
  EXPECT_EQ(u.dma_bytes_elided, 0);
  EXPECT_GT(u.layers.size(), r.layers.size());
  EXPECT_GT(u.cycles, r.cycles);
}

TEST(Engine, ResidencyElidesBytesOnFusibleChain) {
  // Two fusible convs back to back: the inter-conv tensor fits the SPM
  // budget, so its store + reload are elided and counted.
  Graph g("chain");
  g.add_input("in", {10, 32});
  Node c1 = node(NodeKind::Conv, "c1", {"in"}, "t:c1");
  c1.kernel = 3;
  c1.channels_out = 32;
  g.add(c1);
  g.add(node(NodeKind::Relu, "c1.relu", {"t:c1"}, "t:r1"));
  Node c2 = node(NodeKind::Conv, "c2", {"t:r1"}, "t:c2");
  c2.kernel = 3;
  c2.channels_out = 32;
  g.add(c2);

  GraphEngine engine(fast_cfg());
  const NetRunResult r = engine.run(g, 2, NetOptions{});
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  EXPECT_GT(r.resident_tensors, 0);
  EXPECT_GT(r.dma_bytes_elided, 0);
  std::int64_t layer_sum = 0;
  for (const LayerReport& lr : r.layers) layer_sum += lr.dma_bytes_elided;
  EXPECT_EQ(layer_sum, r.dma_bytes_elided);

  NetOptions noresidency;
  noresidency.residency = false;
  const NetRunResult n = engine.run(g, 2, noresidency);
  EXPECT_EQ(n.dma_bytes_elided, 0);
  EXPECT_GT(n.cycles, r.cycles);  // the elided DMA was real priced time
  EXPECT_TRUE(n.checked);
  EXPECT_LT(n.max_rel_err, 1e-4);
}

// Fused-vs-unfused functional equivalence on the evaluation networks'
// real layer geometry. Full-net functional runs take minutes each, so
// tier-1 uses the tail slice of each table (the full nets run checked in
// the CI e2e smoke and bench_net_e2e); both runs are validated against
// the host reference of the *unfused* graph, which is the equivalence
// statement -- the engine never checks against its own fused execution.
void expect_fused_equivalence(const Graph& g, bool expect_elided) {
  GraphEngine engine(fast_cfg());
  const NetRunResult r = engine.run(g, 1, NetOptions{});
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  EXPECT_GT(r.fusion.convs_fused, 0);
  if (expect_elided) {
    EXPECT_GT(r.dma_bytes_elided, 0);
  }

  NetOptions off;
  off.fusion = false;
  off.residency = false;
  const NetRunResult u = engine.run(g, 1, off);
  EXPECT_TRUE(u.checked);
  EXPECT_LT(u.max_rel_err, 1e-4);
  EXPECT_EQ(u.fusion.convs_fused, 0);
  EXPECT_LT(r.cycles, u.cycles);
}

TEST(Engine, Vgg16TailFusedMatchesReference) {
  const auto t = nets::vgg16();
  expect_fused_equivalence(
      build_chain("vgg16-tail", {t[t.size() - 2], t[t.size() - 1]}), true);
}

TEST(Engine, YoloTailFusedMatchesReference) {
  // conv15 (1x1) -> conv16 (3x3): the inter-layer Pad is absorbed as
  // conv15's out_pad, so this slice also covers pad folding end to end.
  const auto t = nets::yolo();
  expect_fused_equivalence(
      build_chain("yolo-tail", {t[t.size() - 2], t[t.size() - 1]}), true);
}

TEST(Engine, ResnetBottleneckTailFusedMatchesReference) {
  // The res5_3x3 tail of a ResNet-50 bottleneck at table geometry:
  // conv(3x3, 512 -> 512 @ 7) -> bias -> residual add -> relu, the
  // Conv+Bias+Add+Relu chain the fusion pass exists for.
  Graph g("res5-tail");
  g.add_input("in", {9, 512});
  g.add_input("shortcut", {7, 512});
  Node conv = node(NodeKind::Conv, "res5_3x3", {"in"}, "t:conv");
  conv.kernel = 3;
  conv.channels_out = 512;
  g.add(conv);
  g.add(node(NodeKind::Bias, "res5_3x3.bias", {"t:conv"}, "t:bias"));
  g.add(node(NodeKind::Add, "res5_add", {"t:bias", "shortcut"}, "t:sum"));
  g.add(node(NodeKind::Relu, "res5_relu", {"t:sum"}, "out"));
  expect_fused_equivalence(g, /*expect_elided=*/false);
}

// ---------------------------------------------------------------- engine

TEST(Engine, TinyNetMatchesReference) {
  GraphEngine engine(fast_cfg());
  NetOptions opts;  // functional, check on
  const NetRunResult r = engine.run(make_tiny(1), 2, opts);
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  EXPECT_GT(r.cycles, 0.0);
  EXPECT_GT(r.flops, 0);
  EXPECT_EQ(r.groups_used, 1);
  EXPECT_DOUBLE_EQ(r.sync_cycles, 0.0);  // single group: no NoC barriers
  EXPECT_GT(r.planned_peak_floats, 0);
  EXPECT_LE(r.planned_peak_floats, r.naive_floats);
}

TEST(Engine, MultiGroupUnevenSplitMatchesReference) {
  // batch 3 over 2 groups: group 0 runs 2 images, group 1 runs 1. The
  // whole-net check covers every image, so a wrong slice offset fails.
  GraphEngine engine(fast_cfg());
  NetOptions opts;
  opts.groups = 2;
  const NetRunResult r = engine.run(make_tiny(1), 3, opts);
  EXPECT_EQ(r.groups_used, 2);
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
  EXPECT_GT(r.sync_cycles, 0.0);  // barriers priced per conv step
  EXPECT_LT(r.sync_cycles, r.cycles);
}

TEST(Engine, GroupsClampToBatch) {
  GraphEngine engine(fast_cfg());
  NetOptions opts;
  opts.groups = 4;
  const NetRunResult r = engine.run(make_tiny(0), 1, opts);
  EXPECT_EQ(r.groups_used, 1);
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
}

TEST(Engine, RepeatedShapesTuneOnce) {
  // Three convs, two distinct (method, shape, sub-batch) keys: the two
  // identical 16->16 blocks share one tuned schedule. Explicit GEMM fuses
  // nothing, so their different epilogues (only the first absorbs a pad)
  // do not split the key.
  GraphEngine engine(fast_cfg());
  NetOptions opts;
  opts.method = ConvMethod::Explicit;
  const NetRunResult r = engine.run(make_tiny(2), 1, opts);
  EXPECT_EQ(r.layers.size(), make_tiny(2).nodes().size());
  EXPECT_EQ(r.shapes_tuned, 2);
  EXPECT_LT(r.shapes_tuned, build_net("vgg16").conv_count());  // vgg dedups too
  EXPECT_TRUE(r.checked);
  EXPECT_LT(r.max_rel_err, 1e-4);
}

TEST(Engine, SecondRunHitsTheScheduleCache) {
  const char* path = "test_graph_engine.cache";
  std::remove(path);
  SwatopConfig cfg = fast_cfg();
  cfg.cache.enabled = true;
  cfg.cache.path = path;
  const Graph g = make_tiny(1);

  GraphEngine cold(cfg);
  const NetRunResult first = cold.run(g, 1, NetOptions{});
  EXPECT_EQ(first.cache_hits, 0);

  GraphEngine warm(cfg);
  const NetRunResult second = warm.run(g, 1, NetOptions{});
  EXPECT_EQ(second.shapes_tuned, first.shapes_tuned);
  EXPECT_EQ(second.cache_hits, second.shapes_tuned);
  // Identical schedules -> identical priced execution.
  EXPECT_DOUBLE_EQ(second.cycles, first.cycles);
  std::remove(path);
}

/// Every convolution design the tiny net admits: Auto runs its stride-1
/// convs (8 and 16 input channels) as implicit GEMM.
const ConvMethod kTinyMethods[] = {ConvMethod::Auto, ConvMethod::Explicit,
                                   ConvMethod::Winograd};

TEST(Engine, TimingOnlyMatchesFunctionalCycles) {
  // With two groups of one image each, a timing-only run reuses group 0's
  // conv runs for group 1, while a functional run simulates both.
  GraphEngine engine(fast_cfg());
  for (const ConvMethod method : kTinyMethods) {
    for (const int groups : {1, 2}) {
      NetOptions fun;
      fun.groups = groups;
      fun.method = method;
      const NetRunResult f = engine.run(make_tiny(1), 2, fun);
      NetOptions tim = fun;
      tim.mode = sim::ExecMode::TimingOnly;
      const NetRunResult t = engine.run(make_tiny(1), 2, tim);
      SCOPED_TRACE(std::string(conv_method_name(method)) + ", " +
                   std::to_string(groups) + " groups");
      EXPECT_FALSE(t.checked);
      EXPECT_DOUBLE_EQ(t.cycles, f.cycles);
      EXPECT_EQ(t.flops, f.flops);
      EXPECT_DOUBLE_EQ(t.chip_stats.compute_cycles,
                       f.chip_stats.compute_cycles);
      EXPECT_EQ(t.chip_stats.dma_bytes_requested,
                f.chip_stats.dma_bytes_requested);
      EXPECT_EQ(t.dma_bytes_elided, f.dma_bytes_elided);
    }
  }
}

TEST(Engine, WinogradRunsFunctionally) {
  // Both convs are 3x3 with 8 and 16 input channels, so Winograd applies
  // to each. Every design's pre and post passes must keep the whole-net
  // check passing end to end.
  GraphEngine engine(fast_cfg());
  for (const ConvMethod method : kTinyMethods) {
    SCOPED_TRACE(conv_method_name(method));
    NetOptions opts;
    opts.method = method;
    const NetRunResult r = engine.run(make_tiny(1), 1, opts);
    for (const LayerReport& l : r.layers) {
      if (!l.conv) continue;
      EXPECT_EQ(l.kind, method == ConvMethod::Auto
                            ? "implicit"
                            : conv_method_name(method))
          << l.name;
    }
    EXPECT_TRUE(r.checked);
    EXPECT_LT(r.max_rel_err, 1e-4);
  }
}

TEST(Engine, AutoRunsTheFirstLayerAsFusedImplicitGemm) {
  // VGG16's conv1_1 has 3 input channels. Auto runs it as implicit GEMM
  // with its bias, relu and conv1_2's pad fused, and the memory plan holds
  // no explicit-GEMM transients (`dcol`, `outmat`) for any layer. Forcing
  // explicit GEMM still runs the explicit design with its transients.
  const Graph g = build_net("vgg16");
  auto first = [](const NetRunResult& r) {
    for (const LayerReport& l : r.layers)
      if (l.name == "conv1_1") return l;
    ADD_FAILURE() << "no conv1_1 row";
    return LayerReport{};
  };
  GraphEngine engine{SwatopConfig{}};
  NetOptions opts;
  opts.mode = sim::ExecMode::TimingOnly;
  const NetRunResult a = engine.run(g, 1, opts);
  EXPECT_EQ(first(a).kind, "implicit");
  EXPECT_TRUE(first(a).fused);
  // Every VGG16 conv is stride 1, so the engine fuses them all.
  EXPECT_EQ(a.naive_floats, plan_memory(fuse_epilogues(g), 1).naive_floats);

  opts.method = ConvMethod::Explicit;
  const NetRunResult e = engine.run(g, 1, opts);
  EXPECT_EQ(first(e).kind, "explicit");
  EXPECT_FALSE(first(e).fused);
  std::int64_t transients = 0;
  for (const Node& n : g.nodes())
    if (n.kind == NodeKind::Conv)
      for (const dsl::TensorSpec& t :
           ops::ExplicitConvOp(g.conv_shape(n, 1)).scratch())
        transients += t.floats;
  EXPECT_GT(transients, 0);
  EXPECT_EQ(e.naive_floats, plan_memory(g, 1).naive_floats + transients);
}

TEST(Engine, RejectsBadOptions) {
  GraphEngine engine(fast_cfg());
  NetOptions opts;
  opts.groups = 5;
  EXPECT_THROW(engine.run(make_tiny(0), 1, opts), CheckError);
  EXPECT_THROW(engine.run(make_tiny(0), 0, NetOptions{}), CheckError);
}

}  // namespace
}  // namespace swatop::graph
