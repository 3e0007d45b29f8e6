#include <gtest/gtest.h>

#include <vector>

#include "common/check.hpp"
#include "dsl/dsl.hpp"

namespace swatop::dsl {
namespace {

ScheduleSpace sample_space() {
  ScheduleSpace sp;
  sp.add(FactorVar{"T", {16, 32, 64}});
  sp.add(ChoiceVar{"order", {"mnk", "nmk"}});
  sp.add(ChoiceVar{"variant", {"0", "1", "2", "3"}});
  return sp;
}

TEST(ScheduleSpace, SizeIsProduct) {
  EXPECT_EQ(sample_space().size(), 3 * 2 * 4);
}

TEST(ScheduleSpace, EnumerateCoversEverything) {
  const auto all = sample_space().enumerate();
  EXPECT_EQ(static_cast<std::int64_t>(all.size()), sample_space().size());
  // Every strategy is distinct.
  for (std::size_t i = 0; i < all.size(); ++i)
    for (std::size_t j = i + 1; j < all.size(); ++j)
      EXPECT_NE(all[i].to_string(), all[j].to_string());
}

TEST(ScheduleSpace, AtDecodesEnumerationOrder) {
  // Factors outermost, the last-declared variable varying fastest.
  const ScheduleSpace sp = sample_space();
  const Strategy first = sp.at(0);
  EXPECT_EQ(first.factor("T"), 16);
  EXPECT_EQ(first.choice("order"), "mnk");
  EXPECT_EQ(first.choice("variant"), "0");
  EXPECT_EQ(sp.at(1).choice("variant"), "1");
  EXPECT_EQ(sp.at(4).choice("order"), "nmk");
  EXPECT_EQ(sp.at(8).factor("T"), 32);
  const Strategy last = sp.at(sp.size() - 1);
  EXPECT_EQ(last.factor("T"), 64);
  EXPECT_EQ(last.choice("order"), "nmk");
  EXPECT_EQ(last.choice("variant"), "3");
  const std::vector<Strategy> all = sp.enumerate();
  for (std::int64_t i = 0; i < sp.size(); ++i)
    EXPECT_EQ(sp.at(i), all[static_cast<std::size_t>(i)]) << i;
  EXPECT_THROW(sp.at(-1), CheckError);
  EXPECT_THROW(sp.at(sp.size()), CheckError);
}

TEST(StrategyNames, MatchToStringAtEveryIndex) {
  // Names are formatted from the index alone, so they must agree with the
  // strategy at() builds: declaration order is not name order, a fused
  // epilogue is appended, and the first of two same-named variables wins.
  ScheduleSpace sp;
  sp.add(FactorVar{"Tn", {8, 16}});
  sp.add(FactorVar{"Tm", {32, 64, 128}});
  sp.add(ChoiceVar{"variant", {"0", "7"}});
  sp.add(ChoiceVar{"order", {"mnk", "nmk", "kmn"}});
  sp.add(FactorVar{"Tn", {4}});
  EpilogueSpec epi;
  epi.bias = true;
  epi.out_pad = 1;
  for (const bool fused : {false, true}) {
    if (fused) sp.set_epilogue(epi);
    const StrategyNames names(sp);
    for (std::int64_t i = 0; i < sp.size(); ++i)
      EXPECT_EQ(names(i), sp.at(i).to_string()) << i;
  }
  EXPECT_EQ(StrategyNames(ScheduleSpace{})(0), Strategy{}.to_string());
}

TEST(ScheduleSpace, AtCarriesTheEpilogue) {
  ScheduleSpace sp = sample_space();
  EpilogueSpec epi;
  epi.relu = true;
  sp.set_epilogue(epi);
  EXPECT_EQ(sp.at(5).epilogue(), epi);
}

TEST(ScheduleSpace, EnumerateWithPruning) {
  const auto pruned = sample_space().enumerate([](const Strategy& s) {
    return s.factor("T") != 32;
  });
  EXPECT_EQ(pruned.size(), 2u * 2 * 4);
  for (const auto& s : pruned) EXPECT_NE(s.factor("T"), 32);
}

TEST(ScheduleSpace, RejectsEmptyVariables) {
  ScheduleSpace sp;
  EXPECT_THROW(sp.add(FactorVar{"T", {}}), CheckError);
  EXPECT_THROW(sp.add(ChoiceVar{"c", {}}), CheckError);
}

TEST(Strategy, AccessorsAndErrors) {
  Strategy s;
  s.set_factor("T", 64);
  s.set_choice("order", "mnk");
  EXPECT_EQ(s.factor("T"), 64);
  EXPECT_EQ(s.choice("order"), "mnk");
  EXPECT_TRUE(s.has_factor("T"));
  EXPECT_FALSE(s.has_factor("U"));
  EXPECT_TRUE(s.has_choice("order"));
  EXPECT_THROW(s.factor("U"), CheckError);
  EXPECT_THROW(s.choice("layout"), CheckError);
}

TEST(Strategy, ToStringIsDeterministic) {
  Strategy s;
  s.set_factor("Tm", 64);
  s.set_factor("Tk", 32);
  s.set_choice("order", "mnk");
  EXPECT_EQ(s.to_string(), "Tk=32 Tm=64 order=mnk");
}

class PrefetchChoiceOp : public OperatorDef {
 public:
  std::string name() const override { return "stub"; }
  ScheduleSpace space() const override { return {}; }
  ir::StmtPtr lower(const Strategy&) const override { return nullptr; }
  std::vector<TensorSpec> tensors() const override { return {}; }
  std::int64_t flops() const override { return 0; }
};

TEST(OperatorDef, PrefetchDefaultsOnAndHonoursChoice) {
  PrefetchChoiceOp op;
  Strategy none;
  EXPECT_TRUE(op.prefetch_enabled(none));
  Strategy off;
  off.set_choice("prefetch", "off");
  EXPECT_FALSE(op.prefetch_enabled(off));
  Strategy on;
  on.set_choice("prefetch", "on");
  EXPECT_TRUE(op.prefetch_enabled(on));
}

}  // namespace
}  // namespace swatop::dsl

#include "dsl/builder.hpp"
#include "ir/node.hpp"

namespace swatop::dsl {
namespace {

TEST(GemmOpBuilder, BuildsAWorkingOperator) {
  auto op = GemmOpBuilder("built")
                .tensor("X", 128)
                .tensor("Y", 128, true)
                .factor({"T", {16, 32}})
                .flops(42)
                .lower_with([](const Strategy&) {
                  return ir::make_seq();
                })
                .build();
  EXPECT_EQ(op->name(), "built");
  EXPECT_EQ(op->flops(), 42);
  EXPECT_EQ(op->tensors().size(), 2u);
  EXPECT_TRUE(op->tensors()[1].is_output);
  EXPECT_EQ(op->space().size(), 2);
  EXPECT_NE(op->lower(Strategy{}), nullptr);
}

TEST(GemmOpBuilder, ValidatesRequiredPieces) {
  EXPECT_THROW(GemmOpBuilder("x").build(), CheckError);
  EXPECT_THROW(GemmOpBuilder("x").tensor("t", 1).build(), CheckError);
}

}  // namespace
}  // namespace swatop::dsl
