// CollRuntime: executes collective Plans over the simulated MPI substrate.
//
// MPI semantics are preserved: each rank independently *starts* its part of
// a collective (ranks arrive at different times — this is what makes the
// paper's delayed-start task benchmarks expressible), instances on a
// communicator are matched by per-rank call order, and a rank's request
// completes when its own actions finish (not when the whole collective
// does), exactly like Open MPI.
//
// Plans are compiled once per distinct PlanKey and shared: every live
// instance whose key compares equal runs the same validated Plan and
// reverse-edge table, keeping only its own mutable state (dependency
// counters, launch flags, buffers, temps, requests). A compiled plan is
// dropped when the last instance using it retires, so an idle runtime
// holds no plans.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "coll/builders.hpp"
#include "coll/plan.hpp"
#include "coll/validate.hpp"
#include "simbase/trace.hpp"
#include "simmpi/world.hpp"

namespace han::coll {

class CollRuntime {
 public:
  explicit CollRuntime(mpi::SimWorld& world);
  ~CollRuntime();
  CollRuntime(const CollRuntime&) = delete;
  CollRuntime& operator=(const CollRuntime&) = delete;

  /// Rank `comm_rank` of `comm` starts its part of the next collective in
  /// its call order. The first arriving rank creates the instance; its
  /// plan is `key.build(key)` (with key.comm_size set to comm.size()),
  /// compiled only when no live instance already runs an equal key. User
  /// buffers bind to plan slots [0, num_user_slots).
  mpi::Request start(const mpi::Comm& comm, int comm_rank, PlanKey key,
                     std::vector<mpi::BufView> user_bufs);

  mpi::SimWorld& world() { return *world_; }

  /// Live collective instances (diagnostics; 0 when quiescent).
  std::size_t live_instances() const { return instances_.size(); }
  /// Compiled plans held by live instances (diagnostics; 0 when
  /// quiescent).
  std::size_t live_plans() const { return plans_.size(); }
  /// Instances created and plans compiled since construction; their
  /// difference is the number of instances that found a live plan.
  std::uint64_t instances_created() const { return instances_created_; }
  std::uint64_t plans_compiled() const { return plans_compiled_; }

  /// Attach a tracer: every executed action emits a (rank, kind, bytes)
  /// span, grouped under the rank's simulated node. Pass nullptr to detach.
  void set_tracer(sim::Tracer* tracer) { tracer_ = tracer; }
  sim::Tracer* tracer() const { return tracer_; }

  /// Install an extra pre-execution plan check, run once per collective
  /// instance on its plan, compiled or shared, after the structural
  /// validate_plan(). Returns "" to accept or a diagnostic to abort on
  /// (HAN_ASSERT with the message).
  /// han::verify::arm_plan_gate() installs its semantic analyzer here —
  /// dependency injection keeps coll/ below verify/ in the layer order.
  using PlanChecker = std::function<std::string(const Plan&, int comm_size)>;
  void set_plan_checker(PlanChecker checker) {
    plan_checker_ = std::move(checker);
  }

  /// Label a communicator context as a hierarchy level ("intra", "inter",
  /// ...). Actions on that context are accounted under
  /// `coll.level.<label>.*` instead of the default "flat" bucket; the
  /// level's in-flight gauge yields the paper's overlap ratio via
  /// mean_active. HanModule labels its sub-communicators automatically.
  void set_level_label(int context, const std::string& label);

 private:
  struct LevelStats {
    obs::Counter* actions = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* busy = nullptr;   // summed action-seconds
    obs::Gauge* inflight = nullptr;
  };
  struct KindStats {
    obs::Counter* actions = nullptr;
    obs::Counter* bytes = nullptr;
    obs::Counter* busy = nullptr;
  };

  LevelStats& make_level(const std::string& label);
  LevelStats* level_stats(int context);

  /// A validated plan plus its flattened dependency graph, shared by every
  /// live instance with an equal key.
  struct CompiledPlan {
    Plan plan;
    PlanGraph graph;
    int users = 0;  // live instances running this plan
  };

  struct RankState {
    bool arrived = false;
    int actions_left = 0;
    std::vector<mpi::BufView> user_bufs;
    std::vector<std::vector<std::byte>> temps;
    mpi::Request req;
  };

  struct Instance {
    const mpi::Comm* comm = nullptr;
    std::uint64_t seq = 0;
    const PlanKey* key = nullptr;  // the plan's entry in plans_
    CompiledPlan* compiled = nullptr;
    // Per flattened action (PlanGraph::base numbering).
    std::vector<int> deps_left;
    std::vector<char> launched;
    std::vector<RankState> ranks;
    long total_actions_left = 0;
    int ranks_not_arrived = 0;

    const Action& action(int rank, int a) const {
      return compiled->plan.ranks[rank].actions[a];
    }
    int flat(int rank, int a) const { return compiled->graph.base[rank] + a; }
  };

  // Callbacks capture a raw Instance*: an instance retires (and is freed)
  // only after all its actions and delayed unblocks have run.
  Instance& get_or_create(const mpi::Comm& comm, std::uint64_t seq,
                          const PlanKey& key);
  using PlanEntry = std::pair<const PlanKey, CompiledPlan>;
  /// The live plan for `key`, compiled on a miss; counts one more user.
  PlanEntry& acquire_plan(const PlanKey& key);
  void arrive(Instance* inst, int rank, std::vector<mpi::BufView> user_bufs,
              mpi::Request req);
  void try_launch(Instance* inst, int rank, int action);
  void execute(Instance* inst, int rank, int action);
  /// Completion of an executed action: data movement (data mode), action
  /// accounting, then dependency release.
  void finish_action(Instance* inst, int rank, int action, sim::Time t0,
                     LevelStats* level);
  void complete_action(Instance* inst, int rank, int action);
  mpi::BufView slot_view(Instance& inst, int rank, SlotRef ref,
                         std::size_t bytes) const;
  void maybe_retire(Instance* inst);
  /// Drop per-context state when its communicator is destroyed: the
  /// recycled context id would otherwise hand a fresh comm the stale call
  /// sequence and level label.
  void evict_context(int context);

  mpi::SimWorld* world_;
  sim::Tracer* tracer_ = nullptr;
  PlanChecker plan_checker_;
  int destroy_observer_ = -1;  // SimWorld comm-destroy observer token
  // Per-comm-context, per-comm-rank collective call counters.
  std::unordered_map<int, std::vector<std::uint64_t>> call_seq_;
  // Map nodes keep Instance and CompiledPlan addresses stable.
  std::map<std::pair<int, std::uint64_t>, Instance> instances_;
  std::unordered_map<PlanKey, CompiledPlan, PlanKeyHash> plans_;
  std::uint64_t instances_created_ = 0;
  std::uint64_t plans_compiled_ = 0;
  // Observability (pointers into the world's registry; stable for life).
  KindStats kinds_[8];
  obs::Gauge* inflight_ = nullptr;
  obs::Histogram* action_seconds_ = nullptr;
  std::map<std::string, LevelStats> levels_;       // stable value addresses
  std::unordered_map<int, LevelStats*> level_of_;  // context -> level
};

}  // namespace han::coll
