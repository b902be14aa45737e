// Tests of the benchmark's own helpers.
#include <gtest/gtest.h>

#include <thread>

#include "helpers.hpp"

namespace hostbench {
namespace {

TEST(Percentile, InterpolatesBetweenRanks) {
  EXPECT_DOUBLE_EQ(percentile({1, 2, 3, 4}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile({4, 1, 3, 2}, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(median({7}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(Percentile, P90RefusedBelowHundredSamples) {
  std::vector<double> v;
  for (int i = 0; i < 99; ++i) v.push_back(i);
  EXPECT_FALSE(p90(v).has_value());
  v.push_back(99);
  ASSERT_TRUE(p90(v).has_value());
  EXPECT_NEAR(*p90(v), 89.1, 1e-9);
}

TEST(Percentile, ClassMedianGmeanIgnoresTheMixOfClasses) {
  EXPECT_DOUBLE_EQ(class_median_gmean({}), 0.0);
  // Medians 2 and 8: geometric mean 4, however many ops each class has.
  EXPECT_NEAR(class_median_gmean({{"a", {1, 2, 3}}, {"b", {8}}}), 4.0, 1e-12);
  EXPECT_NEAR(class_median_gmean({{"a", {2}}, {"b", {7, 8, 9, 8, 8}}}), 4.0,
              1e-12);
}

TEST(SelfTime, SubtractsTheUnionOfChildren) {
  // Parent [0, 100); children overlap each other and stick out of it.
  EXPECT_EQ(covered_ns({0, 100}, {{10, 30}, {20, 40}, {90, 120}}), 40);
  EXPECT_EQ(covered_ns({0, 100}, {}), 0);
  EXPECT_EQ(covered_ns({50, 60}, {{0, 10}, {70, 80}}), 0);
  EXPECT_EQ(covered_ns({0, 100}, {{0, 100}, {10, 20}}), 100);
}

TEST(SelfTime, RecorderChargesChildrenToTheirParent) {
  SpanRecorder rec(true);
  rec.begin("parent", 7);
  const std::int64_t t = now_ns();
  rec.add("child", t, t + 1000, 7);
  rec.add("child", t + 500, t + 1500, 7);  // overlaps the first child
  std::this_thread::sleep_for(std::chrono::microseconds(50));
  rec.end();
  const SpanRecorder::Totals parent = rec.totals("parent");
  const SpanRecorder::Totals child = rec.totals("child");
  EXPECT_EQ(parent.count, 1);
  EXPECT_EQ(child.count, 2);
  EXPECT_EQ(child.total_ns, 2000);
  EXPECT_EQ(child.self_ns, 2000);
  EXPECT_EQ(parent.self_ns, parent.total_ns - 1500);
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[1].op, 7);
}

TEST(SelfTime, KeepsTotalsBeyondTheSpanCap) {
  SpanRecorder rec(true, 2);
  for (int i = 0; i < 5; ++i) {
    rec.begin("s");
    rec.end();
  }
  EXPECT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.dropped(), 3);
  EXPECT_EQ(rec.totals("s").count, 5);
}

TEST(SelfTime, DisabledRecorderRecordsNothing) {
  SpanRecorder rec(false);
  {
    ScopedSpan s(rec, "x");
  }
  EXPECT_TRUE(rec.spans().empty());
  EXPECT_EQ(rec.totals("x").count, 0);
}

TEST(Golden, MismatchIncrementsFailed) {
  Golden g;
  g.put("a", "1");
  g.put("t", "2.0");
  Tally tally;
  EXPECT_TRUE(g.check("a", "1", tally));
  EXPECT_EQ(tally.failed, 0);
  EXPECT_FALSE(g.check("a", "2", tally));
  EXPECT_EQ(tally.failed, 1);
  EXPECT_FALSE(g.check("missing", "1", tally));
  EXPECT_EQ(tally.failed, 2);
  double drift = 0.0;
  EXPECT_TRUE(g.check_near("t", 2.01, 0.01, tally, &drift));
  EXPECT_FALSE(g.check_near("t", 2.1, 0.01, tally, &drift));
  EXPECT_EQ(tally.failed, 3);
  EXPECT_NEAR(drift, 0.05, 1e-12);
}

TEST(Golden, RecordingStoresInsteadOfChecking) {
  Golden g;
  g.set_recording(true);
  Tally tally;
  EXPECT_TRUE(g.check("k", "v", tally));
  double drift = 0.0;
  EXPECT_TRUE(g.check_near("n", 1.5, 0.0, tally, &drift));
  EXPECT_EQ(tally.failed, 0);
  ASSERT_NE(g.find("k"), nullptr);
  EXPECT_EQ(*g.find("k"), "v");
}

std::vector<std::string> keys(OpSequence& seq, int rounds) {
  std::vector<std::string> out;
  for (int r = 0; r < rounds; ++r) {
    for (const CollOp& op : seq.next_round()) out.push_back(op.key());
  }
  return out;
}

TEST(OpSequence, SameSeedSameOps) {
  using han::coll::CollKind;
  const std::vector<CollKind> kinds = {CollKind::Bcast, CollKind::Allreduce};
  OpSequence a(42, kinds, {4, 64, 1024}, {0, 5, 9});
  OpSequence b(42, kinds, {4, 64, 1024}, {0, 5, 9});
  OpSequence c(43, kinds, {4, 64, 1024}, {0, 5, 9});
  const auto ka = keys(a, 4);
  EXPECT_EQ(ka, keys(b, 4));
  EXPECT_NE(ka, keys(c, 4));
}

TEST(OpSequence, EveryRoundCoversEveryKindAndSize) {
  using han::coll::CollKind;
  OpSequence seq(7, {CollKind::Bcast, CollKind::ReduceScatter}, {4, 64},
                 {3});
  for (int r = 0; r < 3; ++r) {
    std::vector<std::string> round;
    for (const CollOp& op : seq.next_round()) round.push_back(op.key());
    std::sort(round.begin(), round.end());
    EXPECT_EQ(round, (std::vector<std::string>{"bcast.4.r3", "bcast.64.r3",
                                               "reduce_scatter.4",
                                               "reduce_scatter.64"}));
  }
}

}  // namespace
}  // namespace hostbench
