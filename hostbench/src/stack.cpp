#include "stack.hpp"

#include <algorithm>
#include <exception>

namespace hostbench {

using namespace han;
using coll::CollKind;
using mpi::BufView;

mpi::Request issue(core::HanModule& han, const mpi::Comm& comm,
                   const CollOp& op, int me, BufView a, BufView b) {
  switch (op.kind) {
    case CollKind::Bcast:
      return han.ibcast(comm, me, op.root, a, a.dtype, coll::CollConfig{});
    case CollKind::Allreduce:
      return han.iallreduce(comm, me, a, b, a.dtype, mpi::ReduceOp::Sum,
                            coll::CollConfig{});
    default:
      return han.ireduce_scatter(comm, me, a, b, a.dtype, mpi::ReduceOp::Sum,
                                 coll::CollConfig{});
  }
}

std::pair<BufView, BufView> timing_views(const CollOp& op, int p) {
  if (op.kind == CollKind::ReduceScatter) {
    const auto n = static_cast<std::size_t>(p);
    const std::size_t block = std::max<std::size_t>(op.bytes / n, 1);
    return {BufView::timing_only(block * n), BufView::timing_only(block)};
  }
  return {BufView::timing_only(op.bytes), BufView::timing_only(op.bytes)};
}

namespace {

sim::CoTask warm_up_rank(Stack& s, CollOp op, int me) {
  const mpi::Comm& comm = s.world.world_comm();
  const auto [a, b] = timing_views(op, comm.size());
  co_await *issue(s.han, comm, op, me, a, b);
}

}  // namespace

void warm_up(Stack& s, const std::vector<CollKind>& kinds, std::size_t bytes) {
  for (CollKind kind : kinds) {
    const CollOp op{kind, bytes, 0};
    s.world.run([&](mpi::Rank& rank) {
      return warm_up_rank(s, op, rank.world_rank);
    });
  }
}

namespace {

using Buffers = std::vector<std::vector<std::int32_t>>;

sim::CoTask replay_rank(Stack& s, const CollOp& op, std::vector<std::int32_t>& a,
                        std::vector<std::int32_t>& b, int me) {
  co_await *issue(s.han, s.world.world_comm(), op, me,
                  BufView::of(a, mpi::Datatype::Int32),
                  BufView::of(b, mpi::Datatype::Int32));
}

/// What every rank must hold after `op` (bcast: in its send buffer).
Buffers reference(const CollOp& op, const Buffers& send, std::size_t block) {
  const std::size_t p = send.size();
  Buffers expect(p);
  for (std::size_t r = 0; r < p; ++r) {
    if (op.kind == CollKind::Bcast) {
      expect[r] = send[static_cast<std::size_t>(op.root)];
      continue;
    }
    const std::size_t off = op.kind == CollKind::ReduceScatter ? block * r : 0;
    expect[r].assign(block, 0);
    for (std::size_t q = 0; q < p; ++q) {
      for (std::size_t i = 0; i < block; ++i) expect[r][i] += send[q][off + i];
    }
  }
  return expect;
}

}  // namespace

void data_replay(const machine::MachineProfile& profile,
                 const core::HanModule::Decider& decider,
                 const std::vector<CollKind>& kinds,
                 const std::vector<std::size_t>& sizes, std::uint64_t seed,
                 Tally& tally) {
  sim::Rng rng(seed ^ 0xda7aull);
  mpi::SimWorld::Options o;
  o.data_mode = true;
  Stack s(profile, o);
  if (decider) s.han.set_decider(decider);
  const std::size_t p = static_cast<std::size_t>(s.world.world_size());
  for (std::size_t bytes : sizes) {
    const std::size_t count = std::max<std::size_t>(bytes / 4, 1);
    for (CollKind kind : kinds) {
      ++tally.attempted;
      CollOp op{kind, count * 4, 0};
      if (kind == CollKind::Bcast) {
        op.root = static_cast<int>(rng.next_below(p));
      }
      const std::size_t block = kind == CollKind::ReduceScatter
                                    ? std::max<std::size_t>(count / p, 1)
                                    : count;
      Buffers send(p), recv(p);
      for (std::size_t r = 0; r < p; ++r) {
        send[r].resize(kind == CollKind::ReduceScatter ? block * p : count);
        for (auto& v : send[r]) {
          v = static_cast<std::int32_t>(rng.next_below(1000));
        }
        recv[r].assign(block, -1);
      }
      const Buffers expect = reference(op, send, block);
      try {
        s.world.run([&](mpi::Rank& rank) {
          const auto r = static_cast<std::size_t>(rank.world_rank);
          return replay_rank(s, op, send[r], recv[r], rank.world_rank);
        });
      } catch (const std::exception& e) {
        tally.fail("data replay " + op.key() + ": " + e.what());
        continue;
      }
      const Buffers& got = kind == CollKind::Bcast ? send : recv;
      for (std::size_t r = 0; r < p; ++r) {
        if (got[r] != expect[r]) {
          tally.fail("data replay " + op.key() + " on " + profile.name +
                     ": rank " + std::to_string(r) +
                     " differs from the serial reference");
          break;
        }
      }
    }
  }
}

}  // namespace hostbench
