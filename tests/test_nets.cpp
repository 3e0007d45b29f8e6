#include <gtest/gtest.h>

#include "nets/nets.hpp"
#include "ops/implicit_conv.hpp"
#include "ops/winograd.hpp"

namespace swatop::nets {
namespace {

TEST(Nets, TablesNonEmptyAndSane) {
  for (const auto& layers : {vgg16(), resnet(), yolo()}) {
    ASSERT_FALSE(layers.empty());
    for (const auto& l : layers) {
      EXPECT_GT(l.ni, 0);
      EXPECT_GT(l.no, 0);
      EXPECT_GT(l.out_hw, 0);
      EXPECT_TRUE(l.k == 1 || l.k == 3 || l.k == 7);
      EXPECT_FALSE(l.name.empty());
    }
  }
}

TEST(Nets, Vgg16HasThirteenConvs) { EXPECT_EQ(vgg16().size(), 13u); }

TEST(Nets, ToShapeGeometry) {
  const LayerDef l{"x", 64, 128, 56, 3};
  const auto s = to_shape(l, 32);
  EXPECT_EQ(s.batch, 32);
  EXPECT_EQ(s.ri, 58);
  EXPECT_EQ(s.ro(), 56);
  EXPECT_EQ(s.co(), 56);
}

TEST(Nets, DistinctDeduplicates) {
  const auto d = distinct(vgg16());
  EXPECT_LT(d.size(), vgg16().size());
  for (std::size_t i = 0; i < d.size(); ++i)
    for (std::size_t j = i + 1; j < d.size(); ++j)
      EXPECT_FALSE(d[i].ni == d[j].ni && d[i].no == d[j].no &&
                   d[i].out_hw == d[j].out_hw && d[i].k == d[j].k);
}

TEST(Nets, FirstLayersExcludedFromImplicit) {
  // The paper's implicit-CONV results exclude each network's first layer
  // (Ni = 3, its Fig. 5 footnote). The paper benches keep that set by
  // skipping ni < 32, which in these tables is exactly the first layers.
  for (const auto& layers : {vgg16(), resnet(), yolo()})
    for (std::size_t i = 1; i < layers.size(); ++i)
      EXPECT_GE(layers[i].ni, 32) << layers[i].name;
  EXPECT_LT(vgg16()[0].ni, 32);
  EXPECT_LT(yolo()[0].ni, 32);
  // The library's rule admits them: they are stride 1.
  EXPECT_TRUE(ops::ImplicitConvOp::applicable(to_shape(vgg16()[0], 32)));
  EXPECT_TRUE(ops::ImplicitConvOp::applicable(to_shape(yolo()[0], 32)));
  EXPECT_TRUE(ops::ImplicitConvOp::applicable(to_shape(vgg16()[1], 32)));
}

TEST(Nets, WinogradAppliesToThreeByThreeOnly) {
  int wino = 0, other = 0;
  for (const auto& l : resnet()) {
    if (ops::WinogradPlan::applicable(to_shape(l, 1)))
      ++wino;
    else
      ++other;
  }
  EXPECT_GT(wino, 0);
  EXPECT_GT(other, 0);
}

}  // namespace
}  // namespace swatop::nets
