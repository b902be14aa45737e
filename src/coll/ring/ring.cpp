#include "coll/ring/ring.hpp"

#include "coll/ring/ring_builders.hpp"
#include "simbase/assert.hpp"

namespace han::coll {

namespace {

// Ring neighbours are fixed, so setup is cheap (no tree construction);
// progression is event-driven like ADAPT's.
constexpr sim::Time kRingOpSetup = 0.8e-6;
constexpr sim::Time kRingActionDelay = 0.05e-6;
// Default pipelining slice for reduce-scatter (overridable via
// CollConfig::segment, the paper's irs knob).
constexpr std::size_t kRingDefaultSegment = 64 << 10;

void count_op(mpi::SimWorld& world, const char* op, std::size_t bytes) {
  world.metrics().counter(std::string("ring.") + op).add(1.0);
  world.metrics().counter("ring.bytes").add(static_cast<double>(bytes));
}

BuildSpec ring_spec(std::size_t bytes, mpi::Datatype dtype, mpi::ReduceOp op) {
  BuildSpec spec;
  spec.alg = Algorithm::Ring;
  spec.bytes = bytes;
  spec.dtype = dtype;
  spec.op = op;
  spec.avx = true;
  spec.action_pre_delay = kRingActionDelay;
  spec.op_setup = kRingOpSetup;
  return spec;
}

Plan build_strided(const PlanKey& key) {
  return build_ring_reduce_scatter_strided(key.comm_size, key.spec,
                                           key.stride, key.block);
}

}  // namespace

RingModule::RingModule(mpi::SimWorld& world, CollRuntime& rt)
    : CollModule(world, rt) {}

mpi::Request RingModule::ireduce_scatter(const mpi::Comm& comm, int me,
                                         mpi::BufView send, mpi::BufView recv,
                                         mpi::Datatype dtype, mpi::ReduceOp op,
                                         const CollConfig& cfg) {
  HAN_ASSERT(send.bytes >= recv.bytes);
  count_op(world(), "reduce_scatter", send.bytes);
  BuildSpec spec = ring_spec(send.bytes, dtype, op);
  spec.segment = cfg.segment != 0 ? cfg.segment : kRingDefaultSegment;
  spec.rail = cfg.rail;
  return rt().start(comm, me, spec_key<build_ring_reduce_scatter>(spec),
                    {send, recv});
}

mpi::Request RingModule::ireduce_scatter_strided(
    const mpi::Comm& comm, int me, mpi::BufView send, mpi::BufView recv,
    std::size_t stride, mpi::Datatype dtype, mpi::ReduceOp op,
    const CollConfig& cfg) {
  const int n = comm.size();
  HAN_ASSERT(send.bytes >= (n - 1) * stride + recv.bytes);
  count_op(world(), "reduce_scatter_strided", send.bytes);
  BuildSpec spec = ring_spec(send.bytes, dtype, op);
  spec.segment = cfg.segment != 0 ? cfg.segment : kRingDefaultSegment;
  spec.rail = cfg.rail;
  PlanKey key;
  key.build = &build_strided;
  key.spec = spec;
  key.stride = stride;
  key.block = recv.bytes;
  return rt().start(comm, me, key, {send, recv});
}

mpi::Request RingModule::iallgather(const mpi::Comm& comm, int me,
                                    mpi::BufView send, mpi::BufView recv,
                                    const CollConfig& cfg) {
  (void)cfg;
  count_op(world(), "allgather", send.bytes);
  const BuildSpec spec =
      ring_spec(send.bytes, mpi::Datatype::Byte, mpi::ReduceOp::Sum);
  return rt().start(comm, me, spec_key<build_ring_allgather>(spec),
                    {send, recv});
}

mpi::Request RingModule::iallreduce(const mpi::Comm& comm, int me,
                                    mpi::BufView send, mpi::BufView recv,
                                    mpi::Datatype dtype, mpi::ReduceOp op,
                                    const CollConfig& cfg) {
  (void)cfg;
  count_op(world(), "allreduce", send.bytes);
  const BuildSpec spec = ring_spec(send.bytes, dtype, op);
  return rt().start(comm, me, spec_key<build_ring_allreduce>(spec),
                    {send, recv});
}

}  // namespace han::coll
