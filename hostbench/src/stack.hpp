// The simulated MPI stack the workloads drive, and the data-mode replay
// that checks computed bytes against a serial reference.
#pragma once

#include "han/han.hpp"
#include "helpers.hpp"

namespace hostbench {

/// World + plan runtime + submodules + HAN.
struct Stack {
  explicit Stack(han::machine::MachineProfile p,
                 han::mpi::SimWorld::Options o = han::mpi::SimWorld::Options())
      : world(std::move(p), o), rt(world), mods(world, rt),
        han(world, rt, mods) {}
  han::mpi::SimWorld world;
  han::coll::CollRuntime rt;
  han::coll::ModuleSet mods;
  han::core::HanModule han;
};

/// Issue `op` on rank `me` of `comm` through HAN's decider path. `a` is the
/// bcast buffer or the send buffer, `b` the receive buffer (reduce_scatter:
/// `a` holds comm-size equal blocks of `b`).
han::mpi::Request issue(han::core::HanModule& han, const han::mpi::Comm& comm,
                        const CollOp& op, int me, han::mpi::BufView a,
                        han::mpi::BufView b);

/// Timing-only (buffer, receive) views of `op` on a communicator of `p`
/// ranks; reduce_scatter splits `op.bytes` into `p` equal blocks (at
/// least one byte each).
std::pair<han::mpi::BufView, han::mpi::BufView> timing_views(const CollOp& op,
                                                             int p);

/// One timing-only op per kind at `bytes` on the world communicator (the
/// set-up's warm-up: lazy hierarchies, first plans, first pool chunks).
void warm_up(Stack& s, const std::vector<han::coll::CollKind>& kinds,
             std::size_t bytes);

/// Replay one op per kind in `kinds` at each of `sizes` with real payloads
/// on `profile` (through `decider` when set, else HAN's default) and
/// compare every rank's bytes with a serial reference. Each replay counts
/// as one attempted op; an exception or a byte mismatch fails it.
void data_replay(const han::machine::MachineProfile& profile,
                 const han::core::HanModule::Decider& decider,
                 const std::vector<han::coll::CollKind>& kinds,
                 const std::vector<std::size_t>& sizes, std::uint64_t seed,
                 Tally& tally);

}  // namespace hostbench
