// CollRuntime plan sharing: every live instance with an equal PlanKey runs
// one compiled plan, a shared plan equals a freshly built one, every key
// input separates plans, and an idle runtime holds nothing.
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "coll_test_util.hpp"
#include "han/han.hpp"
#include "coll/ring/ring_builders.hpp"
#include "vendor/stack.hpp"

namespace han {
namespace {

using coll::Algorithm;
using coll::BuildSpec;
using coll::CollConfig;
using coll::Plan;
using coll::PlanKey;
using mpi::BufView;
using mpi::Datatype;
using mpi::ReduceOp;

/// Every plan the runtime hands to its checker: once per instance.
struct PlanLog {
  std::vector<const Plan*> seen;
  std::vector<Plan> plans;
};

void record(coll::CollRuntime& rt, PlanLog& log) {
  rt.set_plan_checker([&log](const Plan& plan, int /*comm_size*/) {
    log.seen.push_back(&plan);
    log.plans.push_back(plan);
    return std::string();
  });
}

BufView timing(std::size_t bytes) { return BufView::timing_only(bytes); }

// ---- every module's start site --------------------------------------------

constexpr std::size_t kBytes = 4096;

/// One rt.start() per rank: a module operation on the world communicator.
using Issue =
    std::function<mpi::Request(coll::ModuleSet& mods, const mpi::Comm& comm,
                               int rank)>;

struct StartSite {
  std::string name;
  int nodes, ppn;
  Issue issue;
};

std::vector<StartSite> tree_sites(const std::string& module) {
  auto mod = [module](coll::ModuleSet& m) { return m.find(module); };
  CollConfig cfg;
  cfg.segment = 1024;
  std::vector<StartSite> v;
  v.push_back({module + "_bcast", 2, 4, [=](auto& m, auto& c, int r) {
                 return mod(m)->ibcast(c, r, 1, timing(kBytes), Datatype::Byte,
                                       cfg);
               }});
  v.push_back({module + "_reduce", 2, 4, [=](auto& m, auto& c, int r) {
                 return mod(m)->ireduce(c, r, 1, timing(kBytes), timing(kBytes),
                                        Datatype::Int32, ReduceOp::Sum, cfg);
               }});
  v.push_back({module + "_allreduce", 2, 4, [=](auto& m, auto& c, int r) {
                 return mod(m)->iallreduce(c, r, timing(kBytes),
                                           timing(kBytes), Datatype::Int32,
                                           ReduceOp::Sum, cfg);
               }});
  v.push_back({module + "_gather", 2, 4, [=](auto& m, auto& c, int r) {
                 return mod(m)->igather(c, r, 1, timing(kBytes),
                                        timing(kBytes * c.size()), cfg);
               }});
  v.push_back({module + "_scatter", 2, 4, [=](auto& m, auto& c, int r) {
                 return mod(m)->iscatter(c, r, 1, timing(kBytes * c.size()),
                                         timing(kBytes), cfg);
               }});
  v.push_back({module + "_allgather", 2, 4, [=](auto& m, auto& c, int r) {
                 return mod(m)->iallgather(c, r, timing(kBytes),
                                           timing(kBytes * c.size()), cfg);
               }});
  v.push_back({module + "_barrier", 2, 4, [=](auto& m, auto& c, int r) {
                 return mod(m)->ibarrier(c, r);
               }});
  return v;
}

std::vector<StartSite> all_sites() {
  std::vector<StartSite> v;
  for (const char* m : {"libnbc", "adapt", "tuned"}) {
    for (StartSite& s : tree_sites(m)) v.push_back(std::move(s));
  }
  // Tuned switches allreduce to the ring at >= 1 MB on >= 4 ranks.
  v.push_back({"tuned_ring_allreduce", 2, 4, [](auto& m, auto& c, int r) {
                 return m.tuned().iallreduce(c, r, timing(1 << 20),
                                             timing(1 << 20), Datatype::Int32,
                                             ReduceOp::Sum, CollConfig{});
               }});
  v.push_back({"ring_reduce_scatter", 2, 4, [](auto& m, auto& c, int r) {
                 return m.ring().ireduce_scatter(
                     c, r, timing(kBytes * c.size()), timing(kBytes),
                     Datatype::Int32, ReduceOp::Sum, CollConfig{});
               }});
  v.push_back({"ring_reduce_scatter_strided", 2, 4,
               [](auto& m, auto& c, int r) {
                 const std::size_t stride = 2 * kBytes;
                 return m.ring().ireduce_scatter_strided(
                     c, r, timing((c.size() - 1) * stride + kBytes),
                     timing(kBytes), stride, Datatype::Int32, ReduceOp::Sum,
                     CollConfig{});
               }});
  v.push_back({"ring_allgather", 2, 4, [](auto& m, auto& c, int r) {
                 return m.ring().iallgather(c, r, timing(kBytes),
                                            timing(kBytes * c.size()),
                                            CollConfig{});
               }});
  v.push_back({"ring_allreduce", 2, 4, [](auto& m, auto& c, int r) {
                 return m.ring().iallreduce(c, r, timing(kBytes),
                                            timing(kBytes), Datatype::Int32,
                                            ReduceOp::Sum, CollConfig{});
               }});
  // SM and SOLO are intra-node: one node.
  for (const char* m : {"sm", "solo"}) {
    const std::string name = m;
    v.push_back({name + "_bcast", 1, 4, [name](auto& mods, auto& c, int r) {
                   return mods.find(name)->ibcast(c, r, 1, timing(kBytes),
                                                  Datatype::Byte, CollConfig{});
                 }});
    v.push_back({name + "_reduce", 1, 4, [name](auto& mods, auto& c, int r) {
                   return mods.find(name)->ireduce(
                       c, r, 1, timing(kBytes), timing(kBytes),
                       Datatype::Int32, ReduceOp::Sum, CollConfig{});
                 }});
  }
  v.push_back({"sm_barrier", 1, 4, [](auto& m, auto& c, int r) {
                 return m.sm().ibarrier(c, r);
               }});
  return v;
}

// Stable test IDs: ctest names carry the printed parameter.
void PrintTo(const StartSite& site, std::ostream* os) { *os << site.name; }

class StartSites : public ::testing::TestWithParam<StartSite> {};

/// Run `site` in a fresh timing-mode harness, `per_rank` times back to back
/// on every rank (all instances live at once), and return what the checker
/// saw.
PlanLog run_site(const StartSite& site, int per_rank) {
  PlanLog log;
  test::CollHarness h(machine::make_aries(site.nodes, site.ppn),
                      /*data_mode=*/false);
  record(h.rt, log);
  test::run_collective(h.world, [&](mpi::Rank& rank) {
    std::vector<mpi::Request> reqs;
    for (int i = 0; i < per_rank; ++i) {
      reqs.push_back(site.issue(h.mods, h.world.world_comm(), rank.world_rank));
    }
    return mpi::wait_all(h.world.engine(), std::move(reqs)).gate();
  });
  EXPECT_EQ(h.rt.instances_created(), static_cast<std::uint64_t>(per_rank));
  EXPECT_EQ(h.rt.plans_compiled(), 1u) << "back-to-back instances share";
  EXPECT_EQ(h.rt.live_instances(), 0u);
  EXPECT_EQ(h.rt.live_plans(), 0u);
  return log;
}

TEST_P(StartSites, SharedPlanEqualsFreshBuild) {
  const PlanLog fresh = run_site(GetParam(), 1);
  const PlanLog shared = run_site(GetParam(), 2);
  ASSERT_EQ(fresh.plans.size(), 1u);
  ASSERT_EQ(shared.plans.size(), 2u);
  EXPECT_EQ(shared.seen[0], shared.seen[1]) << "second instance rebuilt";
  EXPECT_TRUE(shared.plans[1] == fresh.plans[0]);
  EXPECT_FALSE(fresh.plans[0].ranks.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Modules, StartSites, ::testing::ValuesIn(all_sites()),
    [](const ::testing::TestParamInfo<StartSite>& site) {
      return site.param.name;
    });

TEST(PlanShare, VendorRingAllreduceSharesItsPlan) {
  vendor::SmpVendorStack stack("cray", machine::make_aries(2, 4),
                               vendor::cray_p2p(), {});
  PlanLog log;
  record(stack.runtime(), log);
  const mpi::Comm& world = stack.world().world_comm();
  test::run_collective(stack.world(), [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    mpi::Request a = stack.ring_allreduce(world, r, timing(kBytes),
                                          Datatype::Int32, ReduceOp::Sum);
    mpi::Request b = stack.ring_allreduce(world, r, timing(kBytes),
                                          Datatype::Int32, ReduceOp::Sum);
    return mpi::wait_all(stack.world().engine(), {a, b}).gate();
  });
  ASSERT_EQ(log.plans.size(), 2u);
  EXPECT_EQ(log.seen[0], log.seen[1]);
  EXPECT_EQ(stack.runtime().plans_compiled(), 1u);

  BuildSpec spec;
  spec.bytes = kBytes;
  spec.dtype = Datatype::Int32;
  spec.avx = true;
  spec.op_setup = 0.5e-6;
  EXPECT_TRUE(log.plans[0] ==
              coll::build_ring_allreduce(world.size(), spec));
  EXPECT_EQ(stack.runtime().live_plans(), 0u);
}

// ---- key inputs -------------------------------------------------------------

BuildSpec base_spec() {
  BuildSpec spec;
  spec.alg = Algorithm::Binomial;
  spec.bytes = kBytes;
  spec.segment = 1024;
  spec.dtype = Datatype::Int32;
  spec.op = ReduceOp::Sum;
  return spec;
}

PlanKey base_key() {
  return coll::spec_key<coll::build_tree_reduce>(base_spec());
}

/// On every rank start `a` on the world communicator and then `b` on the
/// rank's `split` communicator (the world when null), run to completion,
/// and return how many plans the runtime compiled.
std::uint64_t plans_for(test::CollHarness& h, const PlanKey& a,
                        const PlanKey& b,
                        const std::vector<mpi::Comm*>* split = nullptr) {
  const std::uint64_t before = h.rt.plans_compiled();
  test::run_collective(h.world, [&](mpi::Rank& rank) {
    const int r = rank.world_rank;
    const mpi::Comm& world = h.world.world_comm();
    const mpi::Comm& cb = split != nullptr ? *(*split)[r] : world;
    const int rb = cb.comm_rank_of_world(r);
    const std::size_t bytes = std::max(a.spec.bytes, b.spec.bytes);
    mpi::Request ra = h.rt.start(world, r, a, {timing(bytes), timing(bytes)});
    mpi::Request rb_req =
        h.rt.start(cb, rb, b, {timing(bytes), timing(bytes)});
    return mpi::wait_all(h.world.engine(), {ra, rb_req}).gate();
  });
  EXPECT_EQ(h.rt.live_instances(), 0u);
  EXPECT_EQ(h.rt.live_plans(), 0u);
  return h.rt.plans_compiled() - before;
}

Plan alt_builder(const PlanKey& key) {
  return coll::build_tree_bcast(key.comm_size, key.spec);
}

TEST(PlanKeys, EveryInputSeparatesPlans) {
  const std::vector<std::pair<const char*, std::function<void(PlanKey&)>>>
      edits = {
          {"builder", [](PlanKey& k) { k.build = &alt_builder; }},
          {"alg", [](PlanKey& k) { k.spec.alg = Algorithm::Binary; }},
          {"root", [](PlanKey& k) { k.spec.root = 1; }},
          {"bytes", [](PlanKey& k) { k.spec.bytes = 2 * kBytes; }},
          {"segment", [](PlanKey& k) { k.spec.segment = 2048; }},
          {"dtype", [](PlanKey& k) { k.spec.dtype = Datatype::Float; }},
          {"op", [](PlanKey& k) { k.spec.op = ReduceOp::Max; }},
          {"avx", [](PlanKey& k) { k.spec.avx = true; }},
          {"action_pre_delay",
           [](PlanKey& k) { k.spec.action_pre_delay = 1e-7; }},
          {"op_setup", [](PlanKey& k) { k.spec.op_setup = 1e-6; }},
          {"rail", [](PlanKey& k) { k.spec.rail = 0; }},
          {"stride", [](PlanKey& k) { k.stride = 64; }},
          {"block", [](PlanKey& k) { k.block = 64; }},
          {"copy_bandwidth", [](PlanKey& k) { k.copy_bandwidth = 1e9; }},
          {"flag_latency", [](PlanKey& k) { k.flag_latency = 1e-7; }},
      };
  for (const auto& [field, edit] : edits) {
    test::CollHarness h(machine::make_aries(2, 4), /*data_mode=*/false);
    PlanLog log;
    record(h.rt, log);
    PlanKey changed = base_key();
    edit(changed);
    EXPECT_FALSE(changed == base_key()) << field;
    EXPECT_EQ(plans_for(h, base_key(), changed), 2u) << field;
    ASSERT_EQ(log.seen.size(), 2u) << field;
    EXPECT_NE(log.seen[0], log.seen[1]) << field;
  }
}

TEST(PlanKeys, EqualKeysHashEqual) {
  const coll::PlanKeyHash hash;
  PlanKey a = base_key();
  PlanKey b = base_key();
  a.comm_size = b.comm_size = 8;
  EXPECT_TRUE(a == b);
  EXPECT_EQ(hash(a), hash(b));
  EXPECT_EQ(coll::hash_value(a.spec), coll::hash_value(b.spec));
  b.spec.op_setup = -0.0;  // == 0.0: still one key
  EXPECT_TRUE(a == b);
  EXPECT_EQ(hash(a), hash(b));
}

/// Split the world into halves of `half` consecutive ranks (colors by
/// r / half).
std::vector<mpi::Comm*> halves(mpi::SimWorld& world, int half) {
  const int n = world.world_size();
  std::vector<int> color(n), key(n);
  for (int r = 0; r < n; ++r) {
    color[r] = r / half;
    key[r] = r;
  }
  return world.comm_split(world.world_comm(), color, key);
}

TEST(PlanKeys, CommSizeSeparatesPlans) {
  test::CollHarness h(machine::make_aries(2, 4), /*data_mode=*/false);
  const std::vector<mpi::Comm*> split = halves(h.world, 4);
  EXPECT_EQ(plans_for(h, base_key(), base_key(), &split), 2u);
}

TEST(PlanKeys, EqualInputsOnSameSizeCommsShareOnePlan) {
  test::CollHarness h(machine::make_aries(2, 4), /*data_mode=*/false);
  const std::vector<mpi::Comm*> split = halves(h.world, 4);
  PlanLog log;
  record(h.rt, log);
  const std::uint64_t before = h.rt.plans_compiled();
  test::run_collective(h.world, [&](mpi::Rank& rank) {
    const mpi::Comm& half = *split[rank.world_rank];
    return h.rt.start(half, half.comm_rank_of_world(rank.world_rank),
                      base_key(), {timing(kBytes), timing(kBytes)});
  });
  EXPECT_EQ(h.rt.plans_compiled() - before, 1u);
  ASSERT_EQ(log.seen.size(), 2u);
  EXPECT_EQ(log.seen[0], log.seen[1]);
  EXPECT_EQ(h.rt.live_plans(), 0u);
}

// ---- lifetime ---------------------------------------------------------------

TEST(PlanShare, IdleRuntimeHoldsNoInstancesOrPlans) {
  test::CollHarness h(machine::make_aries(4, 4), /*data_mode=*/false);
  core::HanModule han(h.world, h.rt, h.mods);
  const mpi::Comm& world = h.world.world_comm();
  for (std::size_t bytes : {std::size_t{64}, std::size_t{1} << 20}) {
    test::run_collective(h.world, [&](mpi::Rank& rank) {
      return han.ibcast(world, rank.world_rank, 0, timing(bytes),
                        Datatype::Byte, CollConfig{});
    });
    EXPECT_EQ(h.rt.live_instances(), 0u) << bytes;
    EXPECT_EQ(h.rt.live_plans(), 0u) << bytes;
    test::run_collective(h.world, [&](mpi::Rank& rank) {
      return han.iallreduce(world, rank.world_rank, timing(bytes),
                            timing(bytes), Datatype::Int32, ReduceOp::Sum,
                            CollConfig{});
    });
    EXPECT_EQ(h.rt.live_instances(), 0u) << bytes;
    EXPECT_EQ(h.rt.live_plans(), 0u) << bytes;
  }
  // HAN issues the same per-level task on every node and segment: most
  // instances find a live plan.
  EXPECT_LT(h.rt.plans_compiled(), h.rt.instances_created());
}

}  // namespace
}  // namespace han
