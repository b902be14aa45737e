// Structural validation of collective Plans before execution.
//
// CollRuntime trusts a Plan's indices (dep rank/action, slot numbers,
// peers); a malformed builder otherwise surfaces as a deep out-of-bounds
// access or a silent hang mid-simulation. validate_plan() front-loads the
// checks — index ranges, slot bounds, and global (cross-rank) cycle
// detection — and reports the first defect as a human-readable string, so
// the runtime can fail fast at start() with the builder named in the
// message. The matching TaskGraph check lives in han/task/graph.hpp.
#pragma once

#include <string>
#include <vector>

#include "coll/plan.hpp"

namespace han::coll {

/// The flattened dependency DAG of a valid plan: action a of rank r is
/// node base[r] + a. Reverse edges are in CSR form — node i unblocks
/// dependents[dependents_begin[i] .. dependents_begin[i + 1]), each naming
/// the dependent's (rank, action) and the edge latency.
struct PlanGraph {
  std::vector<int> base;              // comm_size + 1 entries
  std::vector<int> indegree;          // dependency count per node
  std::vector<int> dependents_begin;  // node count + 1 entries
  std::vector<DepRef> dependents;
};

/// Check `plan` for structural defects: rank list mismatch against
/// `comm_size`, dependency rank/action indices out of range, self-deps,
/// Send/Recv/Cross* peers outside the communicator, slot references past
/// the rank's user+temp slots, negative tags, and dependency cycles across
/// the whole multi-rank DAG (Kahn). Returns "" when well-formed, else a
/// description of the first defect found. When the plan is well-formed and
/// `graph` is non-null, the checked DAG is stored there (CollRuntime runs
/// plans from it).
std::string validate_plan(const Plan& plan, int comm_size,
                          PlanGraph* graph = nullptr);

}  // namespace han::coll
