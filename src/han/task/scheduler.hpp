// TaskScheduler: executes any acyclic TaskGraph over the CollModule
// interface with a configurable in-flight step window.
//
// A node becomes issuable when (a) all its dependency nodes completed,
// (b) its step lies inside the window: step < frontier + window, where
// the frontier is the earliest step with incomplete tasks, and (c) every
// earlier-emitted node on the same communicator has been issued (per-comm
// FIFO — CollRuntime matches collective instances by per-rank call order,
// so the issue order must stay identical across ranks regardless of
// window). Window 1 reproduces the seed coroutines' lock-step wait_all
// barrier semantics exactly; larger windows let later steps start as soon
// as their data dependencies allow — a new tunable (HanConfig::window).
#pragma once

#include <array>

#include "coll/runtime.hpp"
#include "han/task/graph.hpp"

namespace han::task {

/// The scheduler's han.task.* metric handles for one registry, resolved by
/// the first run — a world that never runs a task graph gets no han.task.*
/// metrics — and reused by every later one (per-op counters on the first
/// node of each op). Must outlive the runs that use it (HanModule owns
/// one).
struct TaskMetrics {
  explicit TaskMetrics(obs::MetricsRegistry& r) : registry(&r) {}

  obs::MetricsRegistry* registry;
  obs::Gauge* inflight = nullptr;
  obs::Counter* issued = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* graphs = nullptr;
  obs::Counter* nodes = nullptr;
  std::array<obs::Counter*, static_cast<int>(Op::Barrier) + 1> per_op{};
};

class TaskScheduler {
 public:
  /// Execute `graph`. Returns a request that completes when every node
  /// has completed; an empty graph completes it synchronously. The graph
  /// is validated (HAN_ASSERT on malformed input). `trace_rank` labels
  /// tracer spans and is the owning rank's world rank.
  static mpi::Request run(coll::CollRuntime& rt, TaskMetrics& metrics,
                          TaskGraph graph, int window, int trace_rank);
};

}  // namespace han::task
