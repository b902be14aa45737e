#include "coll/solo/solo.hpp"

#include "coll/topology.hpp"

namespace han::coll {

namespace {
// One-sided reads of a hot buffer are largely L3-served, like SM's
// copy-out, but with no intermediate staging copy.
constexpr double kSoloBusFactor = 0.35;
constexpr sim::Time kWindowPost = 0.5e-6;  // root-side epoch open
Plan build_solo_bcast(const PlanKey& key) {
  const int n = key.comm_size;
  const int root = key.spec.root;
  const std::size_t bytes = key.spec.bytes;
  const double core = key.copy_bandwidth;
  const sim::Time flag = key.flag_latency;
  Plan plan(n, /*user_slots=*/1);
  // Root opens the exposure epoch; everyone reads the root buffer
  // directly (one copy, full core rate — SOLO's large-message edge).
  Action post = compute_action(kWindowPost);
  post.pre_delay = SoloModule::window_sync_cost();
  const int post_idx = plan.ranks[root].add(std::move(post));
  for (int r = 0; r < n; ++r) {
    if (r == root) continue;
    Action read = cross_copy_action(root, bytes, SlotRef{0, 0},
                                    SlotRef{0, 0}, core, kSoloBusFactor);
    read.pre_delay = SoloModule::window_sync_cost();
    read.deps.push_back(cross_dep(root, post_idx, flag));
    plan.ranks[r].add(std::move(read));
  }
  return plan;
}

Plan build_solo_reduce(const PlanKey& key) {
  const int n = key.comm_size;
  const int root = key.spec.root;
  const std::size_t bytes = key.spec.bytes;
  const double core = key.copy_bandwidth;
  const sim::Time flag = key.flag_latency;
  const mpi::Datatype dtype = key.spec.dtype;
  const mpi::ReduceOp op = key.spec.op;
  Plan plan(n, /*user_slots=*/2);
  // Binomial tree of direct one-sided reads: a parent reduces each
  // child's exposed accumulator straight into its own, with AVX kernels
  // and no staging copies.
  struct Layout {
    int acc_slot = 0;     // slot parents read (leaf: raw sendbuf)
    int expose_idx = -1;  // action marking the accumulator as final
  };
  std::vector<Layout> layout(n);
  std::vector<TreeNode> nodes(n);
  std::vector<int> by_vrank(n);
  for (int r = 0; r < n; ++r) {
    nodes[r] = tree_node(Algorithm::Binomial, n, to_vrank(r, root, n));
    by_vrank[to_vrank(r, root, n)] = r;
  }

  for (int v = n - 1; v >= 0; --v) {
    const int r = by_vrank[v];
    RankPlan& rp = plan.ranks[r];
    const bool leaf = nodes[r].children.empty();
    int last = -1;
    if (!leaf || r == root) {
      // Materialize an accumulator: recvbuf at root, a temp elsewhere.
      if (r == root) {
        layout[r].acc_slot = 1;
      } else {
        layout[r].acc_slot = 2;
        rp.temp_slots.push_back(bytes);
      }
      Action init = copy_action(bytes, SlotRef{0, 0},
                                SlotRef{layout[r].acc_slot, 0}, core,
                                kSoloBusFactor);
      init.pre_delay = SoloModule::window_sync_cost();
      last = rp.add(std::move(init));
      for (int child_v : nodes[r].children) {
        const int child = by_vrank[child_v];
        Action red = cross_reduce_action(
            child, bytes, SlotRef{layout[child].acc_slot, 0},
            SlotRef{layout[r].acc_slot, 0}, op, dtype, /*avx=*/true);
        red.deps.push_back(
            cross_dep(child, layout[child].expose_idx, flag));
        red.deps.push_back(dep(last));
        last = rp.add(std::move(red));
      }
      layout[r].expose_idx = last;
    } else {
      // Leaf: expose the raw send buffer (zero-copy) after the window
      // sync epoch.
      Action expose = compute_action(kWindowPost);
      expose.pre_delay = SoloModule::window_sync_cost();
      layout[r].acc_slot = 0;
      layout[r].expose_idx = rp.add(std::move(expose));
    }
  }
  return plan;
}

}  // namespace

mpi::Request SoloModule::ibcast(const mpi::Comm& comm, int me, int root,
                                mpi::BufView buf, mpi::Datatype /*dtype*/,
                                const CollConfig& /*cfg*/) {
  PlanKey key;
  key.build = &build_solo_bcast;
  key.spec.root = root;
  key.spec.bytes = buf.bytes;
  key.copy_bandwidth = world().profile().core_copy_bandwidth;
  key.flag_latency = world().profile().shm_latency;
  return rt().start(comm, me, key, {buf});
}

mpi::Request SoloModule::ireduce(const mpi::Comm& comm, int me, int root,
                                 mpi::BufView send, mpi::BufView recv,
                                 mpi::Datatype dtype, mpi::ReduceOp op,
                                 const CollConfig& /*cfg*/) {
  PlanKey key;
  key.build = &build_solo_reduce;
  key.spec.root = root;
  key.spec.bytes = send.bytes;
  key.spec.dtype = dtype;
  key.spec.op = op;
  key.copy_bandwidth = world().profile().core_copy_bandwidth;
  key.flag_latency = world().profile().shm_latency;
  return rt().start(comm, me, key, {send, recv});
}

mpi::Request SoloModule::iallreduce(const mpi::Comm& comm, int me,
                                    mpi::BufView send, mpi::BufView recv,
                                    mpi::Datatype dtype, mpi::ReduceOp op,
                                    const CollConfig& cfg) {
  mpi::Request gate = mpi::make_request(world().engine());
  mpi::Request red = ireduce(comm, me, /*root=*/0, send, recv, dtype, op, cfg);
  red->on_complete([this, &comm, me, recv, dtype, cfg, gate] {
    mpi::Request bc = ibcast(comm, me, /*root=*/0, recv, dtype, cfg);
    bc->on_complete([gate] { gate->complete(); });
  });
  return gate;
}

}  // namespace han::coll
