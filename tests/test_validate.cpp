// Structural validators: coll::validate_plan and task::validate_graph
// must name the first defect of a malformed schedule, and the runtime /
// scheduler entry points must refuse to execute one.
#include <gtest/gtest.h>

#include "coll_test_util.hpp"
#include "coll/validate.hpp"
#include "han/task/graph.hpp"
#include "han/task/scheduler.hpp"

namespace han {
namespace {

using coll::Action;
using coll::DepRef;
using coll::Plan;
using coll::SlotRef;
using coll::validate_plan;

// --- Plan validation ----------------------------------------------------

Plan two_rank_sendrecv() {
  Plan p(/*comm_size=*/2, /*user_slots=*/1);
  p.ranks[0].add(coll::send_action(/*peer=*/1, /*tag=*/0, 16, SlotRef{0, 0}));
  p.ranks[1].add(coll::recv_action(/*peer=*/0, /*tag=*/0, 16, SlotRef{0, 0}));
  return p;
}

TEST(PlanValidate, WellFormedPasses) {
  EXPECT_EQ(validate_plan(two_rank_sendrecv(), 2), "");
}

TEST(PlanValidate, RankCountMismatch) {
  EXPECT_NE(validate_plan(two_rank_sendrecv(), 3), "");
}

TEST(PlanValidate, PeerOutOfRange) {
  Plan p = two_rank_sendrecv();
  p.ranks[0].actions[0].peer = 2;
  EXPECT_NE(validate_plan(p, 2), "");
}

TEST(PlanValidate, SlotOutOfRange) {
  Plan p = two_rank_sendrecv();
  p.ranks[0].actions[0].src.slot = 5;  // 1 user slot, no temps
  const std::string err = validate_plan(p, 2);
  EXPECT_NE(err.find("slot"), std::string::npos) << err;
}

TEST(PlanValidate, TempSlotOverrun) {
  Plan p(1, 1);
  p.ranks[0].temp_slots.push_back(8);
  // Copy 16 bytes into an 8-byte temp (slot 1 = first temp).
  p.ranks[0].add(coll::copy_action(16, SlotRef{0, 0}, SlotRef{1, 0}));
  const std::string err = validate_plan(p, 1);
  EXPECT_NE(err.find("overruns"), std::string::npos) << err;
}

TEST(PlanValidate, CrossSlotCheckedAgainstPeer) {
  // CrossCopy reads the *peer's* slot table: rank 1 has a temp, rank 0
  // does not, so reading peer slot 1 is fine but local slot 1 is not.
  Plan p(2, 1);
  p.ranks[1].temp_slots.push_back(32);
  p.ranks[0].add(
      coll::cross_copy_action(/*peer=*/1, 32, SlotRef{1, 0}, SlotRef{0, 0}));
  EXPECT_EQ(validate_plan(p, 2), "");
  p.ranks[0].actions[0].peer = 0;  // now slot 1 resolves on rank 0: invalid
  EXPECT_NE(validate_plan(p, 2), "");
}

TEST(PlanValidate, DepIndexOutOfRange) {
  Plan p = two_rank_sendrecv();
  p.ranks[1].actions[0].deps.push_back(DepRef{0, 7, 0.0});
  EXPECT_NE(validate_plan(p, 2), "");
}

TEST(PlanValidate, SelfDependency) {
  Plan p = two_rank_sendrecv();
  p.ranks[0].actions[0].deps.push_back(coll::dep(0));
  const std::string err = validate_plan(p, 2);
  EXPECT_NE(err.find("itself"), std::string::npos) << err;
}

TEST(PlanValidate, CrossRankCycle) {
  // rank0.a0 -> rank1.a0 -> rank0.a0: a deadlock the per-rank view of
  // get_or_create's index asserts could never see.
  Plan p(2, 1);
  Action a;
  a.kind = Action::Kind::Noop;
  p.ranks[0].add(a);
  p.ranks[1].add(a);
  p.ranks[0].actions[0].deps.push_back(coll::cross_dep(1, 0, 0.0));
  p.ranks[1].actions[0].deps.push_back(coll::cross_dep(0, 0, 0.0));
  const std::string err = validate_plan(p, 2);
  EXPECT_NE(err.find("cycle"), std::string::npos) << err;
}

TEST(PlanValidate, NegativeTag) {
  Plan p = two_rank_sendrecv();
  p.ranks[0].actions[0].tag = -1;
  EXPECT_NE(validate_plan(p, 2), "");
}

TEST(PlanValidate, DiagnosticsNameTheFirstDefect) {
  // Diagnostics are formatted only on a defect; their text is pinned.
  EXPECT_EQ(validate_plan(two_rank_sendrecv(), 3),
            "plan has 2 rank plans for a size-3 communicator");
  auto defect = [](auto edit) {
    Plan p = two_rank_sendrecv();
    edit(p);
    return validate_plan(p, 2);
  };
  EXPECT_EQ(defect([](Plan& p) { p.ranks[0].actions[0].tag = -1; }),
            "rank 0 action 0 has negative tag -1");
  EXPECT_EQ(defect([](Plan& p) { p.ranks[0].actions[0].peer = 2; }),
            "rank 0 action 0 peers with out-of-range rank 2");
  EXPECT_EQ(defect([](Plan& p) { p.ranks[0].actions[0].src.slot = 5; }),
            "rank 0 action 0 src references slot 5 but rank 0 has 1 slots");
  EXPECT_EQ(defect([](Plan& p) {
              p.ranks[1].actions[0].deps.push_back(DepRef{5, 0, 0.0});
            }),
            "rank 1 action 0 depends on out-of-range rank 5");
  EXPECT_EQ(defect([](Plan& p) {
              p.ranks[1].actions[0].deps.push_back(DepRef{0, 7, 0.0});
            }),
            "rank 1 action 0 depends on out-of-range action 7 of rank 0");
  EXPECT_EQ(defect([](Plan& p) {
              p.ranks[0].actions[0].deps.push_back(coll::dep(0));
            }),
            "rank 0 action 0 depends on itself");
  EXPECT_EQ(defect([](Plan& p) {
              p.ranks[1].actions[0].deps.push_back(DepRef{0, 0, -1.0});
            }),
            "rank 1 action 0 has a negative dep latency");
  EXPECT_EQ(defect([](Plan& p) {
              p.ranks[0].actions[0].deps.push_back(coll::cross_dep(1, 0, 0.0));
              p.ranks[1].actions[0].deps.push_back(coll::cross_dep(0, 0, 0.0));
            }),
            "dependency cycle among 2 of 2 actions");

  Plan p(1, 1);
  p.ranks[0].temp_slots.push_back(8);
  p.ranks[0].add(coll::copy_action(16, SlotRef{0, 0}, SlotRef{1, 0}));
  EXPECT_EQ(validate_plan(p, 1),
            "rank 0 action 0 dst overruns temp slot 1 (0 + 16 > 8)");
}

TEST(PlanValidate, GraphHoldsReverseEdgesInPlanOrder) {
  // rank 0: a0, a1 (deps a0); rank 1: a0 (deps rank 0 a0 after 1 us).
  Plan p(2, 1);
  p.ranks[0].add(Action{});
  Action second;
  second.deps.push_back(coll::dep(0));
  p.ranks[0].add(second);
  Action remote;
  remote.deps.push_back(coll::cross_dep(0, 0, 1e-6));
  p.ranks[1].add(remote);

  coll::PlanGraph g;
  ASSERT_EQ(validate_plan(p, 2, &g), "");
  EXPECT_EQ(g.base, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(g.indegree, (std::vector<int>{0, 1, 1}));
  EXPECT_EQ(g.dependents_begin, (std::vector<int>{0, 2, 2, 2}));
  EXPECT_EQ(g.dependents,
            (std::vector<DepRef>{DepRef{0, 1, 0.0}, DepRef{1, 0, 1e-6}}));
}

// --- TaskGraph validation ----------------------------------------------

task::TaskNode noop_node(int step, std::vector<int> deps = {}) {
  task::TaskNode n;
  n.step = step;
  n.deps = std::move(deps);
  n.issue = [] { return mpi::Request{}; };
  return n;
}

TEST(GraphValidate, WellFormedPasses) {
  task::TaskGraph g;
  const int a = g.add(noop_node(0));
  g.add(noop_node(1, {a}));
  EXPECT_EQ(task::validate_graph(g), "");
}

TEST(GraphValidate, MissingIssueClosure) {
  task::TaskGraph g;
  task::TaskNode n;
  n.step = 0;
  g.add(std::move(n));
  const std::string err = task::validate_graph(g);
  EXPECT_NE(err.find("issue"), std::string::npos) << err;
}

TEST(GraphValidate, NegativeStep) {
  task::TaskGraph g;
  g.add(noop_node(-1));
  EXPECT_NE(task::validate_graph(g), "");
}

TEST(GraphValidate, DepOutOfRange) {
  task::TaskGraph g;
  g.add(noop_node(0, {3}));
  EXPECT_NE(task::validate_graph(g), "");
}

TEST(GraphValidate, Cycle) {
  task::TaskGraph g;
  g.add(noop_node(0, {1}));
  g.add(noop_node(0, {0}));
  const std::string err = task::validate_graph(g);
  EXPECT_NE(err.find("cycle"), std::string::npos) << err;
}

// --- rejection at the execution entry points ----------------------------

using ValidateDeath = ::testing::Test;

TEST(ValidateDeath, SchedulerRejectsCyclicGraph) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  test::CollHarness h(machine::make_aries(1, 2));
  task::TaskGraph g;
  g.add(noop_node(0, {1}));
  g.add(noop_node(0, {0}));
  task::TaskMetrics metrics(h.world.metrics());
  EXPECT_DEATH(task::TaskScheduler::run(h.rt, metrics, std::move(g),
                                        /*window=*/1, 0),
               "cycle");
}

TEST(ValidateDeath, RuntimeRejectsMalformedPlan) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  test::CollHarness h(machine::make_aries(1, 2));
  coll::PlanKey key;
  key.build = [](const coll::PlanKey& k) {
    Plan p(k.comm_size, 1);
    p.ranks[0].add(
        coll::send_action(/*peer=*/99, /*tag=*/0, 8, SlotRef{0, 0}));
    return p;
  };
  EXPECT_DEATH(h.rt.start(h.world.world_comm(), 0, key,
                          {mpi::BufView::timing_only(8)}),
               "out-of-range");
}

}  // namespace
}  // namespace han
