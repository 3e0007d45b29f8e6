#include "graph/build.hpp"

#include <utility>

#include "common/check.hpp"

namespace swatop::graph {

namespace {

/// A node of an unfused graph; fuse_epilogues fills in the epilogue and
/// bias_name later.
Node node(NodeKind kind, std::string name, std::vector<std::string> inputs,
          std::string output, std::int64_t kernel = 0,
          std::int64_t channels_out = 0, std::int64_t pad = 0) {
  Node n;
  n.kind = kind;
  n.name = std::move(name);
  n.inputs = std::move(inputs);
  n.output = std::move(output);
  n.kernel = kernel;
  n.channels_out = channels_out;
  n.pad = pad;
  return n;
}

/// Append pad (when k > 1) + conv + bias + (optionally) relu reading
/// `in`; returns the produced tensor name. `layer` names the conv node;
/// helper node names derive from it.
std::string add_conv_block(Graph& g, const std::string& layer,
                           const std::string& in, std::int64_t k,
                           std::int64_t channels_out, bool relu = true) {
  std::string cur = in;
  if (k > 1) {
    g.add(node(NodeKind::Pad, layer + ".pad", {cur}, layer + ":pad", 0, 0,
               (k - 1) / 2));
    cur = layer + ":pad";
  }
  g.add(node(NodeKind::Conv, layer, {cur}, layer + ":conv", k, channels_out));
  g.add(node(NodeKind::Bias, layer + ".bias", {layer + ":conv"},
             layer + ":bias"));
  cur = layer + ":bias";
  if (relu) {
    g.add(node(NodeKind::Relu, layer + ".relu", {cur}, layer + ":out"));
    cur = layer + ":out";
  }
  return cur;
}

/// Insert a 2x2 pool when the table's next spatial extent is half the
/// current one; returns the (possibly pooled) tensor and updates hw.
std::string maybe_pool(Graph& g, const std::string& in, std::int64_t& hw,
                       std::int64_t next_hw, int* pool_idx) {
  if (hw == next_hw) return in;
  SWATOP_CHECK(hw == 2 * next_hw)
      << "layer table spatial step " << hw << " -> " << next_hw
      << " is not a 2x2 pool";
  const std::string name = "pool" + std::to_string((*pool_idx)++);
  g.add(node(NodeKind::MaxPool2x2, name, {in}, name + ":out"));
  hw = next_hw;
  return name + ":out";
}

}  // namespace

Graph build_chain(const std::string& name,
                  const std::vector<nets::LayerDef>& layers) {
  SWATOP_CHECK(!layers.empty()) << "empty layer table";
  Graph g(name);
  g.add_input("input", {layers[0].out_hw, layers[0].ni});
  std::string cur = "input";
  std::int64_t hw = layers[0].out_hw;
  std::int64_t ch = layers[0].ni;
  int pool_idx = 1;
  for (const nets::LayerDef& l : layers) {
    cur = maybe_pool(g, cur, hw, l.out_hw, &pool_idx);
    SWATOP_CHECK(ch == l.ni)
        << "layer table channel mismatch at " << l.name << ": have " << ch
        << ", table expects " << l.ni;
    cur = add_conv_block(g, l.name, cur, l.k, l.no);
    ch = l.no;
  }
  return g;
}

Graph build_resnet() {
  // nets::resnet() lists, per stage, the 1x1 reduce of the entry block, the
  // 3x3, the 1x1 expand, and the 1x1 reduce ('proj') of the following
  // identity blocks.
  const std::vector<nets::LayerDef> t = nets::resnet();
  SWATOP_CHECK(t.size() % 4 == 0) << "resnet table is not 4 rows per stage";

  Graph g("resnet");
  g.add_input("input", {t[0].out_hw, t[0].ni});
  std::string cur = "input";
  std::int64_t hw = t[0].out_hw;
  int pool_idx = 1;
  for (std::size_t st = 0; st * 4 < t.size(); ++st) {
    const nets::LayerDef& a1 = t[st * 4 + 0];   // entry 1x1 reduce
    const nets::LayerDef& a3 = t[st * 4 + 1];   // 3x3
    const nets::LayerDef& ae = t[st * 4 + 2];   // 1x1 expand
    const nets::LayerDef& proj = t[st * 4 + 3]; // identity-block reduce
    cur = maybe_pool(g, cur, hw, a1.out_hw, &pool_idx);

    // Entry block: reduce, 3x3, expand. Its expanded output is both the
    // identity block's input and its residual shortcut.
    std::string x = add_conv_block(g, a1.name, cur, a1.k, a1.no);
    x = add_conv_block(g, a3.name, x, a3.k, a3.no);
    const std::string shortcut = add_conv_block(g, ae.name, x, ae.k, ae.no);

    // Identity block: reduce (proj), 3x3, expand, then the residual Add
    // and the post-add relu.
    std::string y = add_conv_block(g, proj.name, shortcut, proj.k, proj.no);
    y = add_conv_block(g, a3.name + "b", y, a3.k, a3.no);
    y = add_conv_block(g, ae.name + "b", y, ae.k, ae.no,
                       /*relu=*/false);
    const std::string stage = "stage" + std::to_string(st + 2);
    g.add(node(NodeKind::Add, stage + ".add", {y, shortcut}, stage + ":sum"));
    g.add(node(NodeKind::Relu, stage + ".relu", {stage + ":sum"},
               stage + ":out"));
    cur = stage + ":out";
  }
  return g;
}

Graph build_net(const std::string& net) {
  if (net == "vgg16") return build_chain("vgg16", nets::vgg16());
  if (net == "resnet") return build_resnet();
  if (net == "yolo") return build_chain("yolo", nets::yolo());
  throw CheckError("unknown network '" + net +
                   "' (expected vgg16, resnet or yolo)");
}

}  // namespace swatop::graph
