// Helpers shared by the host wall-clock benchmark's workloads: percentile
// rules, the in-memory span recorder, the pinned-output table and the
// seeded op sequence. Everything here is plain host code with no
// simulator state, so tests/test_helpers.cpp can pin each rule.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "coll/types.hpp"
#include "simbase/rng.hpp"

namespace hostbench {

// ---- Percentiles ----------------------------------------------------------

/// Linear-interpolation percentile (q in [0, 1]) of `values`; 0 when empty.
double percentile(std::vector<double> values, double q);
double median(const std::vector<double>& values);

/// A p90 is only reported with at least this many samples: below it, fewer
/// than ten samples lie beyond the 90th percentile.
constexpr std::size_t kMinP90Samples = 100;

/// The 90th percentile, or nullopt (refused) below kMinP90Samples.
std::optional<double> p90(const std::vector<double>& values);

/// Geometric mean over classes of each class's median; 0 when empty. A
/// workload's ops fall into classes of very different cost (bcast vs
/// allreduce, one machine vs another), so the median of all ops lies in a
/// gap between classes and jumps with noise; the class medians do not.
double class_median_gmean(
    const std::map<std::string, std::vector<double>>& by_class);

// ---- Spans ----------------------------------------------------------------

/// Monotonic host time in nanoseconds.
std::int64_t now_ns();

struct Interval {
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// Length of the part of `parent` that the union of `children` covers
/// (children may overlap each other or stick out of the parent).
std::int64_t covered_ns(Interval parent, std::vector<Interval> children);

/// In-memory span recorder. Spans nest on one thread (a stack of open
/// spans); each records name, start, end, parent and op id. Per-name
/// totals of duration and self time (duration minus child coverage) are
/// kept for every span; the spans themselves are kept up to `max_kept`
/// and written out by write_json(). A disabled recorder records nothing.
class SpanRecorder {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1;  // index into spans(), -1 for a root or a dropped parent
    std::int64_t op = -1;
  };
  struct Totals {
    std::int64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };

  explicit SpanRecorder(bool enabled, std::size_t max_kept = 20000)
      : enabled_(enabled), max_kept_(max_kept) {}

  bool enabled() const { return enabled_; }

  /// Open a span (names must be string literals: only the pointer is kept).
  void begin(const char* name, std::int64_t op = -1);
  /// Close the innermost open span.
  void end();
  /// Record an already-measured span as a child of the innermost open span.
  void add(const char* name, std::int64_t start, std::int64_t end,
           std::int64_t op = -1);

  const std::vector<Span>& spans() const { return spans_; }
  std::int64_t dropped() const { return dropped_; }
  Totals totals(std::string_view name) const;
  double total_s(std::string_view name) const {
    return static_cast<double>(totals(name).total_ns) * 1e-9;
  }

  /// Kept spans plus per-name totals as one JSON document.
  std::string to_json() const;
  bool write_json(const std::string& path) const;

 private:
  struct Open {
    const char* name;
    std::int64_t start;
    std::int64_t op;
    int kept_index;  // -1 when not kept
    std::vector<Interval> children;
  };
  void close(const char* name, std::int64_t start, std::int64_t end,
             int kept_index, const std::vector<Interval>& children);

  bool enabled_;
  std::size_t max_kept_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::int64_t dropped_ = 0;
  std::map<std::string, Totals, std::less<>> totals_;
};

/// RAII span (a no-op on a disabled recorder).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const char* name, std::int64_t op = -1)
      : rec_(rec) {
    if (rec_.enabled()) rec_.begin(name, op);
  }
  ~ScopedSpan() {
    if (rec_.enabled()) rec_.end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
};

// ---- CPU placement --------------------------------------------------------

/// Pins the calling thread to `width` of the CPUs the process may use,
/// picked round-robin by a pass index, and restores the original set on
/// destruction. On a shared host one CPU can run much slower than another
/// for minutes at a time; rotating passes over every CPU makes a run's
/// medians independent of where the scheduler happened to place it.
/// Threads the pinned thread starts inherit the pinned set.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void pin(int index, int width);
  int cpus() const { return static_cast<int>(cpus_.size()); }

 private:
  std::vector<int> cpus_;
};

// ---- Pinned outputs -------------------------------------------------------

std::uint64_t fnv1a(std::string_view text);
std::string hex64(std::uint64_t v);

/// Exact "%.17g" and the "%.9g" used for the tolerant reference table.
std::string fmt17(double v);
std::string fmt9(double v);

/// Attempted/failed op tally; every correctness check goes through it.
struct Tally {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> notes;  // one line per failure (first few kept)
  void fail(std::string note);
};

/// The pinned outputs (hostbench/golden.txt): "key value" lines, '#'
/// comments. In record mode every check stores its value instead.
class Golden {
 public:
  bool load(const std::string& path, std::string* error);
  bool save(const std::string& path) const;
  void set_recording(bool on) { recording_ = on; }
  bool recording() const { return recording_; }

  const std::string* find(const std::string& key) const;
  void put(const std::string& key, const std::string& value) {
    values_[key] = value;
  }

  /// Exact check: a missing key or a different value fails the op.
  bool check(const std::string& key, const std::string& value, Tally& tally);
  /// Tolerant check for floating outputs: |value/pinned - 1| <= rel_tol.
  /// Returns false (and fails the op) on a missing key or a larger drift;
  /// the drift is folded into *max_drift. Always passes in record mode
  /// (references are recorded with put()).
  bool check_near(const std::string& key, double value, double rel_tol,
                  Tally& tally, double* max_drift);

 private:
  std::map<std::string, std::string> values_;
  bool recording_ = false;
};

// ---- Op sequences ---------------------------------------------------------

/// One collective of a coll_* workload: kind, message bytes (the full
/// vector for reduce_scatter), and the root (bcast only, else 0).
struct CollOp {
  han::coll::CollKind kind = han::coll::CollKind::Bcast;
  std::size_t bytes = 0;
  int root = 0;
  std::string key() const;
};

/// One round: every (kind, size) once, in a seeded order, each bcast with
/// a root drawn from `roots`. The sequence of rounds is a pure function of
/// `seed`, so the same seed always yields the same ops.
class OpSequence {
 public:
  OpSequence(std::uint64_t seed, std::vector<han::coll::CollKind> kinds,
             std::vector<std::size_t> sizes, std::vector<int> roots);
  std::vector<CollOp> next_round();

 private:
  han::sim::Rng rng_;
  std::vector<han::coll::CollKind> kinds_;
  std::vector<std::size_t> sizes_;
  std::vector<int> roots_;
};

}  // namespace hostbench
