#include "coll/runtime.hpp"

#include <cstring>

#include "coll/validate.hpp"

namespace han::coll {

namespace {
// Per-plan action tags live below this; the instance sequence number is
// shifted above it. User P2P tags on the same communicator should stay
// below 2^20 to avoid colliding with collective traffic.
constexpr int kTagBits = 20;

constexpr const char* kKindNames[] = {"send",    "recv", "copy",
                                      "reduce",  "compute", "noop",
                                      "cross_copy", "cross_reduce"};
constexpr int kNumKinds = 8;
}  // namespace

CollRuntime::CollRuntime(mpi::SimWorld& world) : world_(&world) {
  obs::MetricsRegistry& m = world_->metrics();
  for (int k = 0; k < kNumKinds; ++k) {
    const std::string kind = kKindNames[k];
    kinds_[k].actions = &m.counter("coll.actions." + kind);
    kinds_[k].bytes = &m.counter("coll.bytes." + kind);
    kinds_[k].busy = &m.counter("coll.busy_seconds." + kind);
  }
  inflight_ = &m.gauge("coll.inflight");
  action_seconds_ = &m.histogram(
      "coll.action_seconds",
      {1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0});
  destroy_observer_ = world_->add_comm_destroy_observer(
      [this](int context) { evict_context(context); });
}

CollRuntime::~CollRuntime() {
  world_->remove_comm_destroy_observer(destroy_observer_);
}

void CollRuntime::evict_context(int context) {
  HAN_ASSERT_MSG(
      instances_.lower_bound(std::make_pair(context, std::uint64_t{0})) ==
              instances_.end() ||
          instances_.lower_bound(std::make_pair(context, std::uint64_t{0}))
                  ->first.first != context,
      "communicator freed with live collective instances");
  call_seq_.erase(context);
  level_of_.erase(context);
}

CollRuntime::LevelStats& CollRuntime::make_level(const std::string& label) {
  auto it = levels_.find(label);
  if (it == levels_.end()) {
    obs::MetricsRegistry& m = world_->metrics();
    const std::string base = "coll.level." + label;
    LevelStats ls;
    ls.actions = &m.counter(base + ".actions");
    ls.bytes = &m.counter(base + ".bytes");
    ls.busy = &m.counter(base + ".busy_seconds");
    ls.inflight = &m.gauge(base + ".inflight");
    it = levels_.emplace(label, ls).first;
  }
  return it->second;
}

CollRuntime::LevelStats* CollRuntime::level_stats(int context) {
  auto it = level_of_.find(context);
  if (it != level_of_.end()) return it->second;
  LevelStats* flat = &make_level("flat");
  level_of_.emplace(context, flat);
  return flat;
}

void CollRuntime::set_level_label(int context, const std::string& label) {
  level_of_[context] = &make_level(label);
}

mpi::Request CollRuntime::start(const mpi::Comm& comm, int comm_rank,
                                PlanKey key,
                                std::vector<mpi::BufView> user_bufs) {
  auto& seqs = call_seq_[comm.context()];
  if (seqs.empty()) seqs.resize(comm.size(), 0);
  const std::uint64_t seq = seqs.at(comm_rank)++;

  key.comm_size = comm.size();
  Instance& inst = get_or_create(comm, seq, key);
  mpi::Request req = mpi::make_request(world_->engine());
  arrive(&inst, comm_rank, std::move(user_bufs), req);
  return req;
}

CollRuntime::PlanEntry& CollRuntime::acquire_plan(const PlanKey& key) {
  auto [it, fresh] = plans_.try_emplace(key);
  CompiledPlan& cp = it->second;
  if (fresh) {
    ++plans_compiled_;
    HAN_ASSERT_MSG(key.build != nullptr, "plan key without a builder");
    cp.plan = key.build(key);
    const std::string defect =
        validate_plan(cp.plan, key.comm_size, &cp.graph);
    HAN_ASSERT_MSG(defect.empty(), defect.c_str());
  }
  ++cp.users;
  return *it;
}

CollRuntime::Instance& CollRuntime::get_or_create(const mpi::Comm& comm,
                                                  std::uint64_t seq,
                                                  const PlanKey& key) {
  auto [it, fresh] =
      instances_.try_emplace(std::make_pair(comm.context(), seq));
  Instance& inst = it->second;
  if (!fresh) return inst;

  ++instances_created_;
  inst.comm = &comm;
  inst.seq = seq;
  PlanEntry& entry = acquire_plan(key);
  inst.key = &entry.first;
  inst.compiled = &entry.second;
  const Plan& plan = inst.compiled->plan;
  if (plan_checker_) {
    const std::string verdict = plan_checker_(plan, comm.size());
    HAN_ASSERT_MSG(verdict.empty(), verdict.c_str());
  }

  const int n = comm.size();
  const PlanGraph& g = inst.compiled->graph;
  inst.deps_left = g.indegree;
  inst.launched.assign(g.indegree.size(), 0);
  inst.ranks.resize(n);
  for (int r = 0; r < n; ++r) {
    inst.ranks[r].actions_left = g.base[r + 1] - g.base[r];
  }
  inst.total_actions_left = g.base[n];
  inst.ranks_not_arrived = n;
  return inst;
}

void CollRuntime::arrive(Instance* inst, int rank,
                         std::vector<mpi::BufView> user_bufs,
                         mpi::Request req) {
  RankState& rs = inst->ranks.at(rank);
  HAN_ASSERT_MSG(!rs.arrived, "rank started the same collective twice");
  rs.arrived = true;
  --inst->ranks_not_arrived;
  const Plan& plan = inst->compiled->plan;
  HAN_ASSERT_MSG(static_cast<int>(user_bufs.size()) >= plan.num_user_slots,
                 "missing user buffers for plan slots");
  rs.user_bufs = std::move(user_bufs);
  rs.req = std::move(req);

  // Allocate temp slot storage in data mode.
  const auto& temp_sizes = plan.ranks[rank].temp_slots;
  if (world_->data_mode()) {
    rs.temps.resize(temp_sizes.size());
    for (std::size_t i = 0; i < temp_sizes.size(); ++i) {
      rs.temps[i].resize(temp_sizes[i]);
    }
  }

  if (rs.actions_left == 0) {
    rs.req->complete();
    maybe_retire(inst);
    return;
  }
  const int count = rs.actions_left;
  for (int a = 0; a < count; ++a) try_launch(inst, rank, a);
}

void CollRuntime::try_launch(Instance* inst, int rank, int action) {
  const int f = inst->flat(rank, action);
  if (!inst->ranks[rank].arrived || inst->launched[f] != 0 ||
      inst->deps_left[f] != 0) {
    return;
  }
  inst->launched[f] = 1;
  const Action& a = inst->action(rank, action);
  if (a.pre_delay > 0.0) {
    world_->engine().schedule_after(
        a.pre_delay, [this, inst, rank, action] { execute(inst, rank, action); });
  } else {
    execute(inst, rank, action);
  }
}

mpi::BufView CollRuntime::slot_view(Instance& inst, int rank, SlotRef ref,
                                    std::size_t bytes) const {
  RankState& rs = inst.ranks[rank];
  HAN_ASSERT_MSG(rs.arrived,
                 "slot access before rank arrival (missing cross-rank dep?)");
  const Plan& plan = inst.compiled->plan;
  if (ref.slot < plan.num_user_slots) {
    const mpi::BufView& user = rs.user_bufs[ref.slot];
    if (user.has_data()) {
      HAN_ASSERT_MSG(ref.offset + bytes <= user.bytes,
                     "plan slot access out of user buffer bounds");
    }
    return user.slice(ref.offset, bytes);
  }
  const std::size_t t = static_cast<std::size_t>(ref.slot) -
                        static_cast<std::size_t>(plan.num_user_slots);
  HAN_ASSERT(t < plan.ranks[rank].temp_slots.size());
  if (!world_->data_mode()) {
    mpi::BufView v = mpi::BufView::timing_only(bytes);
    return v;
  }
  auto& storage = rs.temps[t];
  HAN_ASSERT(ref.offset + bytes <= storage.size());
  return mpi::BufView{storage.data() + ref.offset, bytes, mpi::Datatype::Byte};
}

void CollRuntime::execute(Instance* inst, int rank, int action) {
  const Action& a = inst->action(rank, action);
  const mpi::Comm& comm = *inst->comm;
  const mpi::Tag tag =
      static_cast<mpi::Tag>((inst->seq << kTagBits) |
                            static_cast<std::uint64_t>(a.tag));
  HAN_ASSERT_MSG(a.tag >= 0 && a.tag < (1 << kTagBits),
                 "plan action tag out of range");
  const int kind = static_cast<int>(a.kind);
  const sim::Time t0 = world_->now();
  const double abytes = static_cast<double>(a.bytes);
  LevelStats* level = level_stats(comm.context());
  kinds_[kind].actions->add(1.0);
  kinds_[kind].bytes->add(abytes);
  level->actions->add(1.0);
  level->bytes->add(abytes);
  inflight_->add(t0, 1.0);
  level->inflight->add(t0, 1.0);
  // Small trivially-copyable capture: stored inline by Engine::Callback.
  auto done = [this, inst, rank, action, t0, level] {
    finish_action(inst, rank, action, t0, level);
  };

  mpi::Request r;
  switch (a.kind) {
    case Action::Kind::Send: {
      mpi::BufView src = slot_view(*inst, rank, a.src, a.bytes);
      r = world_->isend_ctx(comm, comm.context(), rank, a.peer, tag, src,
                            inst->compiled->plan.rail);
      break;
    }
    case Action::Kind::Recv: {
      mpi::BufView dst = slot_view(*inst, rank, a.dst, a.bytes);
      r = world_->irecv_ctx(comm, comm.context(), rank, a.peer, tag, dst);
      break;
    }
    case Action::Kind::Copy: {
      const int wr = comm.world_rank(rank);
      // bus_factor scales bytes and cap together: duration stays
      // bytes/cap while the memory bus is charged the discounted traffic
      // (L3-served shared-memory reads).
      const double cap = (a.copy_cap > 0.0
                              ? a.copy_cap
                              : world_->profile().core_copy_bandwidth) *
                         a.bus_factor;
      r = world_->copy_flow(
          wr, static_cast<std::size_t>(
                  static_cast<double>(a.bytes) * a.bus_factor),
          cap);
      break;
    }
    case Action::Kind::Reduce:
      r = world_->reduce_compute(comm.world_rank(rank), a.bytes, a.avx);
      break;
    case Action::Kind::Compute:
      r = world_->compute(comm.world_rank(rank), a.seconds);
      break;
    case Action::Kind::CrossCopy: {
      const int wr = comm.world_rank(rank);
      const int peer_wr = comm.world_rank(a.peer);
      HAN_ASSERT_MSG(world_->rank(wr).node == world_->rank(peer_wr).node,
                     "CrossCopy peers must share a node");
      // Reading the peer's window crosses the inter-socket link when the
      // two ranks sit in different NUMA domains (cache discount does not
      // apply there: remote reads always touch the link).
      const bool cross_numa =
          world_->rank(wr).numa != world_->rank(peer_wr).numa;
      const double factor = cross_numa ? 1.0 : a.bus_factor;
      const double cap = (a.copy_cap > 0.0
                              ? a.copy_cap
                              : world_->profile().core_copy_bandwidth) *
                         factor;
      r = world_->copy_flow_pair(
          wr, peer_wr,
          static_cast<std::size_t>(static_cast<double>(a.bytes) * factor),
          cap);
      break;
    }
    case Action::Kind::CrossReduce: {
      const int wr = comm.world_rank(rank);
      HAN_ASSERT_MSG(world_->rank(wr).node ==
                         world_->rank(comm.world_rank(a.peer)).node,
                     "CrossReduce peers must share a node");
      r = world_->reduce_compute(wr, a.bytes, a.avx);
      break;
    }
    case Action::Kind::Noop:
      world_->engine().schedule_after(0.0, done);
      return;
  }
  r->on_complete(done);
}

void CollRuntime::finish_action(Instance* inst, int rank, int action,
                                sim::Time t0, LevelStats* level) {
  const Action& a = inst->action(rank, action);
  if (world_->data_mode()) {
    // Cross* actions read the peer's slot; in-place copies are no-ops.
    // Reduce byte counts are element-aligned by the builder's contract.
    switch (a.kind) {
      case Action::Kind::Copy:
      case Action::Kind::CrossCopy: {
        const int owner = a.kind == Action::Kind::CrossCopy ? a.peer : rank;
        mpi::BufView src = slot_view(*inst, owner, a.src, a.bytes);
        mpi::BufView dst = slot_view(*inst, rank, a.dst, a.bytes);
        if (src.has_data() && dst.has_data() && dst.data != src.data) {
          std::memcpy(dst.data, src.data, a.bytes);
        }
        break;
      }
      case Action::Kind::Reduce:
      case Action::Kind::CrossReduce: {
        const int owner = a.kind == Action::Kind::CrossReduce ? a.peer : rank;
        mpi::BufView src = slot_view(*inst, owner, a.src, a.bytes);
        mpi::BufView dst = slot_view(*inst, rank, a.dst, a.bytes);
        if (src.has_data() && dst.has_data()) {
          const std::size_t count = a.bytes / type_size(a.dtype);
          mpi::apply_reduce(a.op, a.dtype, dst.data, src.data, count);
        }
        break;
      }
      default:
        break;
    }
  }

  const int kind = static_cast<int>(a.kind);
  const sim::Time now = world_->now();
  const sim::Time dt = now - t0;
  kinds_[kind].busy->add(dt);
  level->busy->add(dt);
  inflight_->add(now, -1.0);
  level->inflight->add(now, -1.0);
  action_seconds_->observe(dt);
  if (tracer_ != nullptr) {
    const int wr = inst->comm->world_rank(rank);
    const std::string name =
        std::string(kKindNames[kind]) + " " + sim::format_bytes(a.bytes);
    tracer_->span(wr, "coll", name, t0, now, world_->rank(wr).node);
  }
  complete_action(inst, rank, action);
}

void CollRuntime::complete_action(Instance* inst, int rank, int action) {
  RankState& rs = inst->ranks[rank];
  --rs.actions_left;
  --inst->total_actions_left;
  const PlanGraph& g = inst->compiled->graph;
  const int node = inst->flat(rank, action);
  for (int k = g.dependents_begin[node]; k < g.dependents_begin[node + 1];
       ++k) {
    // Reverse edge: d names the *dependent* action.
    const DepRef& d = g.dependents[k];
    auto unblock = [this, inst, r = d.rank, a = d.action] {
      if (--inst->deps_left[inst->flat(r, a)] == 0) try_launch(inst, r, a);
    };
    if (d.latency > 0.0) {
      world_->engine().schedule_after(d.latency, unblock);
    } else {
      unblock();
    }
  }
  if (rs.actions_left == 0) {
    rs.req->complete();
    maybe_retire(inst);
  }
}

void CollRuntime::maybe_retire(Instance* inst) {
  if (inst->total_actions_left != 0 || inst->ranks_not_arrived != 0) return;
  if (--inst->compiled->users == 0) {
    const PlanKey key = *inst->key;  // copy: erase frees the stored key
    const std::size_t erased = plans_.erase(key);
    HAN_ASSERT_MSG(erased == 1, "compiled plan missing at retirement");
  }
  instances_.erase(std::make_pair(inst->comm->context(), inst->seq));
}

}  // namespace han::coll
