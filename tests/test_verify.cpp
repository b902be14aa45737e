// han::verify mutation corpus: every test seeds a known-bad schedule (or
// a known-good one that earlier analyzer iterations mis-flagged) and
// asserts the analyzer reports exactly the right diagnostic class with a
// usable witness. The clean-sweep tests then pin the real builders to
// zero findings, and the gate tests cover the CollRuntime hook.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "coll/builders.hpp"
#include "coll/ring/ring_builders.hpp"
#include "coll/validate.hpp"
#include "han/verify/sweep.hpp"
#include "han/verify/verify.hpp"
#include "machine/machine.hpp"
#include "coll_test_util.hpp"

namespace han::verify {
namespace {

using coll::Action;
using coll::BuildSpec;
using coll::compute_action;
using coll::copy_action;
using coll::cross_copy_action;
using coll::cross_dep;
using coll::dep;
using coll::Plan;
using coll::recv_action;
using coll::reduce_action;
using coll::send_action;
using coll::SlotRef;

const Finding* find_diag(const Report& rep, Diag d) {
  for (const Finding& f : rep.findings) {
    if (f.code == d) return &f;
  }
  return nullptr;
}

int count_diag(const Report& rep, Diag d) {
  int n = 0;
  for (const Finding& f : rep.findings) n += f.code == d;
  return n;
}

// ---- deadlock class ----------------------------------------------------

// The MPI classic: both ranks do a blocking send then recv. Deadlocks
// under rendezvous (each send waits for the peer's recv, which waits for
// the local send), completes if sends are eager.
Plan blocking_exchange() {
  Plan p(2, /*user_slots=*/2);
  for (int r = 0; r < 2; ++r) {
    auto& rp = p.ranks[r];
    const int s = rp.add(send_action(1 - r, 0, 64, SlotRef{0, 0}));
    Action v = recv_action(1 - r, 0, 64, SlotRef{1, 0});
    v.deps.push_back(dep(s));  // "blocking" send: recv waits on it
    rp.add(std::move(v));
  }
  return p;
}

TEST(VerifyDeadlock, BlockingExchangeDeadlocksUnderRendezvous) {
  const Report rep = analyze_plan(blocking_exchange(), 2);
  const Finding* f = find_diag(rep, Diag::WaitCycle);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Error);
  // Witness: a cycle touching both ranks.
  ASSERT_GE(f->cycle.size(), 4u);
  bool r0 = false, r1 = false;
  for (const Event& e : f->cycle) {
    r0 |= e.rank == 0;
    r1 |= e.rank == 1;
  }
  EXPECT_TRUE(r0 && r1) << f->message;
}

TEST(VerifyDeadlock, BlockingExchangeEscapesWhenEager) {
  Options opts;
  opts.assume_rendezvous = false;
  const Report rep = analyze_plan(blocking_exchange(), 2, opts);
  EXPECT_EQ(find_diag(rep, Diag::WaitCycle), nullptr) << rep.to_string();
  EXPECT_TRUE(rep.clean());
}

TEST(VerifyDeadlock, RecvBeforeSendCycleIsProtocolIndependent) {
  // Both ranks post the recv first and gate their send on it: a hard
  // dependency cycle through the data edges, deadlocked even with eager
  // sends.
  Plan p(2, 2);
  for (int r = 0; r < 2; ++r) {
    auto& rp = p.ranks[r];
    const int v = rp.add(recv_action(1 - r, 0, 64, SlotRef{1, 0}));
    Action s = send_action(1 - r, 0, 64, SlotRef{0, 0});
    s.deps.push_back(dep(v));
    rp.add(std::move(s));
  }
  Options opts;
  opts.assume_rendezvous = false;
  const Report rep = analyze_plan(p, 2, opts);
  EXPECT_NE(find_diag(rep, Diag::WaitCycle), nullptr) << rep.to_string();
}

TEST(VerifyDeadlock, CrossRankDependencyCycle) {
  // rank 0's compute waits on rank 1's and vice versa.
  Plan p(2, 1);
  Action a = compute_action(1e-6);
  a.deps.push_back(cross_dep(1, 0, 0.0));
  p.ranks[0].add(std::move(a));
  Action b = compute_action(1e-6);
  b.deps.push_back(cross_dep(0, 0, 0.0));
  p.ranks[1].add(std::move(b));
  const Report rep = analyze_plan(p, 2);
  const Finding* f = find_diag(rep, Diag::WaitCycle);
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(f->cycle.empty());
}

TEST(VerifyDeadlock, NonblockingExchangeIsClean) {
  Plan p(2, 2);
  for (int r = 0; r < 2; ++r) {
    auto& rp = p.ranks[r];
    rp.add(recv_action(1 - r, 0, 64, SlotRef{1, 0}));
    rp.add(send_action(1 - r, 0, 64, SlotRef{0, 0}));
  }
  const Report rep = analyze_plan(p, 2);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(rep.error_count(), 0);
  EXPECT_EQ(rep.match_edges, 2);
}

// ---- matching class ----------------------------------------------------

TEST(VerifyMatching, UnmatchedSendFlagged) {
  Plan p(2, 1);
  p.ranks[0].add(send_action(1, 3, 64, SlotRef{0, 0}));
  const Report rep = analyze_plan(p, 2);
  const Finding* f = find_diag(rep, Diag::UnmatchedSend);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rank_a, 0);
  EXPECT_EQ(f->index_a, 0);
}

TEST(VerifyMatching, UnmatchedRecvFlagged) {
  Plan p(2, 1);
  p.ranks[1].add(recv_action(0, 3, 64, SlotRef{0, 0}));
  const Report rep = analyze_plan(p, 2);
  const Finding* f = find_diag(rep, Diag::UnmatchedRecv);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rank_a, 1);
  EXPECT_EQ(f->index_a, 0);
}

TEST(VerifyMatching, SizeMismatchFlagged) {
  Plan p(2, 2);
  p.ranks[0].add(send_action(1, 0, 64, SlotRef{0, 0}));
  p.ranks[1].add(recv_action(0, 0, 128, SlotRef{1, 0}));
  const Report rep = analyze_plan(p, 2);
  const Finding* f = find_diag(rep, Diag::SizeMismatch);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rank_a, 0);
  EXPECT_EQ(f->rank_b, 1);
}

TEST(VerifyMatching, SwappedPeerMutationOnGather) {
  BuildSpec spec;
  spec.bytes = 256;
  Plan p = coll::build_linear_gather(4, spec);
  ASSERT_TRUE(coll::validate_plan(p, 4).empty());
  // Mutation: redirect rank 2's contribution to rank 1 instead of root.
  bool mutated = false;
  for (Action& a : p.ranks[2].actions) {
    if (a.kind == Action::Kind::Send) {
      a.peer = 1;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  const Report rep = analyze_plan(p, 4);
  EXPECT_FALSE(rep.clean());
  EXPECT_NE(find_diag(rep, Diag::UnmatchedSend), nullptr);
  EXPECT_NE(find_diag(rep, Diag::UnmatchedRecv), nullptr);
}

TEST(VerifyMatching, SwappedTagMutationOnBcast) {
  BuildSpec spec;
  spec.alg = coll::Algorithm::Binomial;
  spec.bytes = 4096;
  Plan p = coll::build_tree_bcast(4, spec);
  bool mutated = false;
  for (Action& a : p.ranks[3].actions) {
    if (a.kind == Action::Kind::Recv) {
      a.tag += 7;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  const Report rep = analyze_plan(p, 4);
  EXPECT_FALSE(rep.clean());
  EXPECT_NE(find_diag(rep, Diag::UnmatchedRecv), nullptr);
  EXPECT_NE(find_diag(rep, Diag::UnmatchedSend), nullptr);
}

TEST(VerifyMatching, ForcedPostingInversionIsError) {
  // Two same-key sends on rank 0 where cross-rank dependencies force the
  // later-emitted one to post first, inverting FIFO pairing.
  Plan p(2, 2);
  auto& r0 = p.ranks[0];
  Action s0 = send_action(1, 5, 64, SlotRef{0, 0});
  s0.deps.push_back(cross_dep(1, 2, 0.0));  // waits on rank 1's compute
  r0.add(std::move(s0));
  r0.add(send_action(1, 5, 64, SlotRef{0, 0}));
  auto& r1 = p.ranks[1];
  r1.add(recv_action(0, 5, 64, SlotRef{1, 0}));
  r1.add(recv_action(0, 5, 64, SlotRef{1, 0}));
  Action c = compute_action(1e-6);
  c.deps.push_back(cross_dep(0, 1, 0.0));  // ... which waits on send #2
  r1.add(std::move(c));
  const Report rep = analyze_plan(p, 2);
  bool inversion_error = false;
  for (const Finding& f : rep.findings) {
    inversion_error |= f.code == Diag::MatchOrderAmbiguous &&
                       f.severity == Severity::Error;
  }
  EXPECT_TRUE(inversion_error) << rep.to_string();
}

TEST(VerifyMatching, DepFreeSameKeySendsPostInIndexOrder) {
  // Two dep-free same-key sends: the runtime issues them in index order
  // within one cascade, which the analyzer proves — not even a warning.
  Plan p(2, 2);
  p.ranks[0].add(send_action(1, 5, 64, SlotRef{0, 0}));
  p.ranks[0].add(send_action(1, 5, 64, SlotRef{0, 0}));
  Action v0 = recv_action(0, 5, 64, SlotRef{1, 0});
  const int v0i = p.ranks[1].add(std::move(v0));
  Action v1 = recv_action(0, 5, 64, SlotRef{1, 64});
  v1.deps.push_back(dep(v0i));
  p.ranks[1].add(std::move(v1));
  const Report rep = analyze_plan(p, 2);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(find_diag(rep, Diag::MatchOrderAmbiguous), nullptr);
}

TEST(VerifyMatching, RacySameKeyOpsAreWarningOnly) {
  // Same-key sends gated on *unordered* recvs from different peers: their
  // posting order really is timing-dependent — a warning (the pairing is
  // a guess), but not an error (no forced inversion).
  Plan p(4, 2);
  auto& r0 = p.ranks[0];
  const int vx = r0.add(recv_action(1, 1, 64, SlotRef{1, 0}));
  const int vy = r0.add(recv_action(2, 2, 64, SlotRef{1, 64}));
  Action sa = send_action(3, 5, 64, SlotRef{0, 0});
  sa.deps.push_back(dep(vx));
  r0.add(std::move(sa));
  Action sb = send_action(3, 5, 64, SlotRef{0, 0});
  sb.deps.push_back(dep(vy));
  r0.add(std::move(sb));
  p.ranks[1].add(send_action(0, 1, 64, SlotRef{0, 0}));
  p.ranks[2].add(send_action(0, 2, 64, SlotRef{0, 0}));
  const int w0 = p.ranks[3].add(recv_action(0, 5, 64, SlotRef{1, 0}));
  Action w1 = recv_action(0, 5, 64, SlotRef{1, 64});
  w1.deps.push_back(dep(w0));
  p.ranks[3].add(std::move(w1));
  const Report rep = analyze_plan(p, 4);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  const Finding* f = find_diag(rep, Diag::MatchOrderAmbiguous);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Warning);
  EXPECT_EQ(f->rank_a, 0);
}

// ---- race class --------------------------------------------------------

TEST(VerifyRace, DroppedDepRecvReduceRace) {
  // recv into tmp, reduce tmp into acc — with the recv->reduce dependency
  // dropped (the classic builder mutation).
  Plan p(2, 2);
  p.ranks[1].add(send_action(0, 0, 256, SlotRef{0, 0}));
  auto& r0 = p.ranks[0];
  r0.temp_slots.push_back(256);
  const SlotRef tmp{2, 0};
  r0.add(recv_action(1, 0, 256, tmp));
  r0.add(reduce_action(256, tmp, SlotRef{1, 0}, mpi::ReduceOp::Sum,
                       mpi::Datatype::Int32, false));  // no dep!
  const Report rep = analyze_plan(p, 2);
  const Finding* f = find_diag(rep, Diag::BufferRace);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->slot, 2);
  EXPECT_EQ(f->lo, 0u);
  EXPECT_EQ(f->hi, 256u);
}

TEST(VerifyRace, DroppedDepMutationOnRecdoub) {
  BuildSpec spec;
  spec.bytes = 1024;
  spec.dtype = mpi::Datatype::Int32;
  Plan p = coll::build_recdoub_allreduce(4, spec);
  ASSERT_TRUE(analyze_plan(p, 4).clean());
  bool mutated = false;
  for (Action& a : p.ranks[2].actions) {
    if (a.kind == Action::Kind::Reduce && !a.deps.empty()) {
      a.deps.clear();
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  const Report rep = analyze_plan(p, 4);
  EXPECT_FALSE(rep.clean());
  EXPECT_NE(find_diag(rep, Diag::BufferRace), nullptr) << rep.to_string();
}

TEST(VerifyRace, OverlappingRecvWindowsRace) {
  // Two concurrent recvs into overlapping halves of one slot.
  Plan p(3, 2);
  p.ranks[1].add(send_action(0, 0, 100, SlotRef{0, 0}));
  p.ranks[2].add(send_action(0, 0, 100, SlotRef{0, 0}));
  p.ranks[0].add(recv_action(1, 0, 100, SlotRef{1, 0}));
  p.ranks[0].add(recv_action(2, 0, 100, SlotRef{1, 50}));
  const Report rep = analyze_plan(p, 3);
  EXPECT_EQ(count_diag(rep, Diag::BufferRace), 1) << rep.to_string();
  const Finding* f = find_diag(rep, Diag::BufferRace);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->slot, 1);
  EXPECT_EQ(f->lo, 50u);
  EXPECT_EQ(f->hi, 100u);
}

TEST(VerifyRace, OverlappingWriteMutationOnGather) {
  BuildSpec spec;
  spec.bytes = 64;
  Plan p = coll::build_linear_gather(4, spec);
  ASSERT_TRUE(analyze_plan(p, 4).clean());
  // Mutation: root's recv from rank 2 lands on rank 1's region.
  bool mutated = false;
  for (Action& a : p.ranks[0].actions) {
    if (a.kind == Action::Kind::Recv && a.peer == 2) {
      a.dst.offset = 64;
      mutated = true;
      break;
    }
  }
  ASSERT_TRUE(mutated);
  const Report rep = analyze_plan(p, 4);
  const Finding* f = find_diag(rep, Diag::BufferRace);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->slot, 1);
}

TEST(VerifyRace, UnorderedAccumulationsGetOwnDiagnostic) {
  // Two reduces into the same interval, each gated only on its own recv:
  // the accumulation order is timing-dependent (fp nondeterminism).
  Plan p(3, 2);
  p.ranks[1].add(send_action(0, 0, 128, SlotRef{0, 0}));
  p.ranks[2].add(send_action(0, 0, 128, SlotRef{0, 0}));
  auto& r0 = p.ranks[0];
  r0.temp_slots.push_back(128);
  r0.temp_slots.push_back(128);
  const int v1 = r0.add(recv_action(1, 0, 128, SlotRef{2, 0}));
  const int v2 = r0.add(recv_action(2, 0, 128, SlotRef{3, 0}));
  Action red1 = reduce_action(128, SlotRef{2, 0}, SlotRef{1, 0},
                              mpi::ReduceOp::Sum, mpi::Datatype::Int32,
                              false);
  red1.deps.push_back(dep(v1));
  r0.add(std::move(red1));
  Action red2 = reduce_action(128, SlotRef{3, 0}, SlotRef{1, 0},
                              mpi::ReduceOp::Sum, mpi::Datatype::Int32,
                              false);
  red2.deps.push_back(dep(v2));
  r0.add(std::move(red2));
  const Report rep = analyze_plan(p, 3);
  EXPECT_NE(find_diag(rep, Diag::ReduceOrderAmbiguous), nullptr)
      << rep.to_string();
  EXPECT_EQ(find_diag(rep, Diag::BufferRace), nullptr);
}

TEST(VerifyRace, ChainedAccumulationsAreClean) {
  Plan p(3, 2);
  p.ranks[1].add(send_action(0, 0, 128, SlotRef{0, 0}));
  p.ranks[2].add(send_action(0, 0, 128, SlotRef{0, 0}));
  auto& r0 = p.ranks[0];
  r0.temp_slots.push_back(128);
  r0.temp_slots.push_back(128);
  const int v1 = r0.add(recv_action(1, 0, 128, SlotRef{2, 0}));
  const int v2 = r0.add(recv_action(2, 0, 128, SlotRef{3, 0}));
  Action red1 = reduce_action(128, SlotRef{2, 0}, SlotRef{1, 0},
                              mpi::ReduceOp::Sum, mpi::Datatype::Int32,
                              false);
  red1.deps.push_back(dep(v1));
  const int r1i = r0.add(std::move(red1));
  Action red2 = reduce_action(128, SlotRef{3, 0}, SlotRef{1, 0},
                              mpi::ReduceOp::Sum, mpi::Datatype::Int32,
                              false);
  red2.deps.push_back(dep(v2));
  red2.deps.push_back(dep(r1i));  // fixed order
  r0.add(std::move(red2));
  const Report rep = analyze_plan(p, 3);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
}

TEST(VerifyRace, SendSnapshotThenOverwriteIsClean) {
  // Regression: a send snapshots its payload at issue, so a reduce that
  // overwrites the buffer afterwards (gated on the exchange's recv, the
  // recursive-doubling shape) is NOT a race.
  Plan p(2, 2);
  for (int r = 0; r < 2; ++r) {
    auto& rp = p.ranks[r];
    rp.temp_slots.push_back(256);
    const SlotRef acc{1, 0}, tmp{2, 0};
    const int init = rp.add(copy_action(256, SlotRef{0, 0}, acc));
    Action s = send_action(1 - r, 0, 256, acc);
    s.deps.push_back(dep(init));
    rp.add(std::move(s));
    Action v = recv_action(1 - r, 0, 256, tmp);
    v.deps.push_back(dep(init));
    const int vi = rp.add(std::move(v));
    Action red = reduce_action(256, tmp, acc, mpi::ReduceOp::Sum,
                               mpi::Datatype::Int32, false);
    red.deps.push_back(dep(vi));
    rp.add(std::move(red));
  }
  const Report rep = analyze_plan(p, 2);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(find_diag(rep, Diag::BufferRace), nullptr);
}

TEST(VerifyRace, RingPhaseOverlapIsClean) {
  // Regression: ring allreduce's allgather-phase recv lands on bytes the
  // reduce-scatter-phase send read; the data's trip around the ring
  // orders them. Earlier analyzer iterations flagged this.
  BuildSpec spec;
  spec.bytes = 8 * 64 * 1024;
  spec.dtype = mpi::Datatype::Int32;
  const Plan p = coll::build_ring_allreduce(8, spec);
  const Report rep = analyze_plan(p, 8);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(rep.findings.size(), 0u);
}

// ---- cross-access class ------------------------------------------------

TEST(VerifyCross, UnorderedCrossAccessFlagged) {
  Plan p(2, 2);
  p.ranks[1].add(compute_action(1e-6));
  // rank 0 reads rank 1's slot with no ordering against rank 1 at all.
  p.ranks[0].add(cross_copy_action(1, 64, SlotRef{0, 0}, SlotRef{1, 0}));
  const Report rep = analyze_plan(p, 2);
  const Finding* f = find_diag(rep, Diag::CrossAccessUnordered);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->rank_a, 0);
  EXPECT_EQ(f->rank_b, 1);
}

TEST(VerifyCross, SequencedCrossAccessClean) {
  Plan p(2, 2);
  p.ranks[1].add(compute_action(1e-6));
  Action cc = cross_copy_action(1, 64, SlotRef{0, 0}, SlotRef{1, 0});
  cc.deps.push_back(cross_dep(1, 0, 0.0));
  p.ranks[0].add(std::move(cc));
  const Report rep = analyze_plan(p, 2);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(find_diag(rep, Diag::CrossAccessUnordered), nullptr);
}

// ---- graph level -------------------------------------------------------

GraphNodeSummary gnode(int ctx, int step, int op,
                       std::vector<int> members,
                       std::vector<int> deps = {}) {
  GraphNodeSummary n;
  n.ctx = ctx;
  n.step = step;
  n.op = op;
  n.members = std::move(members);
  n.deps = std::move(deps);
  return n;
}

TEST(VerifyGraph, CountMismatchFlagged) {
  std::vector<GraphSummary> gs(2);
  gs[0].world_rank = 0;
  gs[0].nodes = {gnode(7, 0, 0, {0, 1}), gnode(7, 1, 0, {0, 1})};
  gs[1].world_rank = 1;
  gs[1].nodes = {gnode(7, 0, 0, {0, 1})};
  const Report rep = analyze_task_graphs(gs, 1);
  const Finding* f = find_diag(rep, Diag::CollectiveCountMismatch);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->severity, Severity::Error);
}

TEST(VerifyGraph, OrderMismatchFlagged) {
  // Crossed call order: rank 0 runs Bcast then Reduce on the context,
  // rank 1 the reverse.
  std::vector<GraphSummary> gs(2);
  gs[0].world_rank = 0;
  gs[0].nodes = {gnode(7, 0, 0, {0, 1}), gnode(7, 1, 1, {0, 1})};
  gs[1].world_rank = 1;
  gs[1].nodes = {gnode(7, 0, 1, {0, 1}), gnode(7, 1, 0, {0, 1})};
  const Report rep = analyze_task_graphs(gs, 1);
  EXPECT_NE(find_diag(rep, Diag::CollectiveOrderMismatch), nullptr)
      << rep.to_string();
}

std::vector<GraphSummary> window_trap() {
  // Two contexts, issued in opposite per-rank order at adjacent steps.
  // With window 1 each rank's step-1 issue waits on its step-0 completion,
  // which needs the peer's step-1 issue: a cycle. Window >= 2 unblocks it.
  std::vector<GraphSummary> gs(2);
  gs[0].world_rank = 0;
  gs[0].nodes = {gnode(7, 0, 0, {0, 1}), gnode(8, 1, 0, {0, 1})};
  gs[1].world_rank = 1;
  gs[1].nodes = {gnode(8, 0, 0, {0, 1}), gnode(7, 1, 0, {0, 1})};
  return gs;
}

TEST(VerifyGraph, WindowDependentCycleAtWindowOne) {
  const Report rep = analyze_task_graphs(window_trap(), 1);
  const Finding* f = find_diag(rep, Diag::GraphWaitCycle);
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("window 1"), std::string::npos) << f->message;
}

TEST(VerifyGraph, WindowDependentCycleClearsAtWindowTwo) {
  const Report rep = analyze_task_graphs(window_trap(), 2);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
  EXPECT_EQ(find_diag(rep, Diag::GraphWaitCycle), nullptr);
}

TEST(VerifyGraph, WindowZeroClampsToOne) {
  const Report rep = analyze_task_graphs(window_trap(), 0);
  EXPECT_NE(find_diag(rep, Diag::GraphWaitCycle), nullptr);
}

TEST(VerifyGraph, DependencyCycleAcrossInstances) {
  // rank 0: node0 (ctx A) depends on node1 (ctx B); rank 1: node0 (ctx B)
  // depends on node1 (ctx A). Instances tie each pair across ranks:
  // deadlock at every window.
  std::vector<GraphSummary> gs(2);
  gs[0].world_rank = 0;
  gs[0].nodes = {gnode(7, 0, 0, {0, 1}, {1}), gnode(8, 0, 0, {0, 1})};
  gs[1].world_rank = 1;
  gs[1].nodes = {gnode(8, 0, 0, {0, 1}, {1}), gnode(7, 0, 0, {0, 1})};
  const Report rep = analyze_task_graphs(gs, 3);
  const Finding* f = find_diag(rep, Diag::GraphWaitCycle);
  ASSERT_NE(f, nullptr);
  EXPECT_FALSE(f->cycle.empty());
}

TEST(VerifyGraph, MatchedGraphsClean) {
  std::vector<GraphSummary> gs(2);
  gs[0].world_rank = 0;
  gs[0].nodes = {gnode(7, 0, 0, {0, 1}), gnode(8, 1, 0, {0, 1})};
  gs[1].world_rank = 1;
  gs[1].nodes = {gnode(7, 0, 0, {0, 1}), gnode(8, 1, 0, {0, 1})};
  const Report rep = analyze_task_graphs(gs, 1);
  EXPECT_TRUE(rep.clean()) << rep.to_string();
}

// ---- sweep -------------------------------------------------------------

TEST(VerifySweep, AllBuildersCleanSmoke) {
  SweepOptions opts;
  opts.full_space = false;
  const SweepResult res = run_sweep(opts);
  EXPECT_GT(res.entries.size(), 100u);
  EXPECT_EQ(res.total_errors(), 0) << res.summary();
  EXPECT_EQ(res.total_warnings(), 0) << res.summary();
}

TEST(VerifySweep, JsonIsDeterministic) {
  SweepOptions opts;
  opts.graphs = false;  // plan family only: fast
  const SweepResult a = run_sweep(opts);
  const SweepResult b = run_sweep(opts);
  EXPECT_EQ(a.to_json(), b.to_json());
  EXPECT_NE(a.to_json().find("\"totals\""), std::string::npos);
  EXPECT_TRUE(std::is_sorted(
      a.entries.begin(), a.entries.end(),
      [](const SweepEntry& x, const SweepEntry& y) { return x.name < y.name; }));
}

// ---- runtime gate ------------------------------------------------------

mpi::Request ibcast_for_gate(test::CollHarness& h, mpi::Rank& rank,
                             std::vector<std::vector<std::int32_t>>& bufs) {
  coll::CollConfig cfg;
  cfg.alg = coll::Algorithm::Binomial;
  return h.mods.libnbc().ibcast(
      h.world.world_comm(), rank.world_rank, /*root=*/0,
      mpi::BufView::of(bufs[rank.world_rank], mpi::Datatype::Int32),
      mpi::Datatype::Int32, cfg);
}

TEST(VerifyGate, CheckerSeesEveryFreshPlan) {
  test::CollHarness h(machine::make_aries(2, 2));
  int checked = 0;
  h.rt.set_plan_checker([&](const Plan& plan, int comm_size) {
    ++checked;
    EXPECT_TRUE(analyze_plan(plan, comm_size).clean());
    return std::string();
  });
  const int n = h.world.world_size();
  auto fill = [n] {
    std::vector<std::vector<std::int32_t>> bufs(n);
    for (int r = 0; r < n; ++r) {
      bufs[r] = r == 0 ? test::pattern_vec(0, 64)
                       : std::vector<std::int32_t>(64, -1);
    }
    return bufs;
  };
  std::vector<std::vector<std::int32_t>> first = fill(), second = fill();
  // Two back-to-back bcasts: the second instance runs the first's live
  // compiled plan, and the checker still sees it once.
  test::run_collective(h.world, [&](mpi::Rank& rank) {
    mpi::Request a = ibcast_for_gate(h, rank, first);
    mpi::Request b = ibcast_for_gate(h, rank, second);
    return mpi::wait_all(h.world.engine(), {a, b}).gate();
  });
  EXPECT_EQ(checked, 2);
  EXPECT_EQ(h.rt.instances_created(), 2u);
  EXPECT_EQ(h.rt.plans_compiled(), 1u);
  EXPECT_EQ(first[1], test::pattern_vec(0, 64));
  EXPECT_EQ(second[1], test::pattern_vec(0, 64));
}

TEST(VerifyGate, ArmedGateLetsCleanPlansThrough) {
  test::CollHarness h(machine::make_aries(2, 2));
  arm_plan_gate(h.rt);
  const int n = h.world.world_size();
  std::vector<std::vector<std::int32_t>> bufs(n);
  for (int r = 0; r < n; ++r) {
    bufs[r] = r == 0 ? test::pattern_vec(0, 64)
                     : std::vector<std::int32_t>(64, -1);
  }
  test::run_collective(h.world, [&](mpi::Rank& rank) {
    return ibcast_for_gate(h, rank, bufs);
  });
  for (int r = 0; r < n; ++r) {
    EXPECT_EQ(bufs[r], test::pattern_vec(0, 64)) << "rank " << r;
  }
}

// ---- striped lookup entries (v4 `sf=` tokens) --------------------------

// A cached striped schedule must be rebuilt on a multi-rail topology:
// on a single-rail rebuild effective_sf clamps to 1 and the stripe
// structure would be verified in name only.
TEST(VerifyLookup, StripedEntriesReverifyOnMultiRailTopology) {
  tune::LookupTable table;
  core::HanConfig cfg;
  cfg.fs = 256 << 10;
  cfg.sf = 2;
  cfg.sched = "bc1:k1:r2:sb1.ib0";
  table.insert(coll::CollKind::Bcast, 2, 2, 1 << 20, cfg);
  // A striped config whose sched id itself carries no :r token still
  // needs the rails (dispatch stripes by HanConfig::sf).
  core::HanConfig cfg2;
  cfg2.fs = 256 << 10;
  cfg2.sf = 4;
  cfg2.sched = "ar1:k1:sr0.ir1.ib2.sb3";
  table.insert(coll::CollKind::Allreduce, 2, 2, 1 << 20, cfg2);

  SweepResult sweep;
  verify_lookup(table, sweep);
  ASSERT_EQ(sweep.entries.size(), 2u);
  EXPECT_EQ(sweep.total_errors(), 0) << sweep.summary();
  EXPECT_EQ(sweep.total_warnings(), 0) << sweep.summary();
  // The rebuilt graphs really carried work (not degraded to no-ops).
  for (const SweepEntry& e : sweep.entries) {
    EXPECT_GT(e.actions, 0) << e.name;
  }
}

TEST(VerifyGateDeathTest, RejectedPlanAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        test::CollHarness h(machine::make_aries(2, 2));
        h.rt.set_plan_checker([](const Plan&, int) {
          return std::string("verify: injected rejection");
        });
        std::vector<std::vector<std::int32_t>> bufs(h.world.world_size());
        for (auto& b : bufs) b.assign(16, 1);
        test::run_collective(h.world, [&](mpi::Rank& rank) {
          return ibcast_for_gate(h, rank, bufs);
        });
      },
      "injected rejection");
}

}  // namespace
}  // namespace han::verify
