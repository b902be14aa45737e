// The benchmark's three workloads. Each runs its set-up several times, a
// timed phase of whole passes for about `seconds`, the correctness checks,
// and — when traced — a second timed phase with spans plus the per-layer
// probes. See hostbench/README.md for the metric glossary.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace hostbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 15.0;
  bool trace = false;
  std::string out_dir;  // scratch files (TuneDb round trips, span dumps)
  Golden* golden = nullptr;

  /// A traced run also runs the untraced phase, for the tracing overhead;
  /// it gets half the time there, the traced phase the full time.
  double untraced_seconds() const { return trace ? seconds / 2 : seconds; }
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;  // printed beside the value, e.g. a ratio's base
};

struct Report {
  Tally tally;
  std::map<std::string, Metric> e2e;    // untraced end-to-end metrics
  std::map<std::string, Metric> layer;  // traced per-layer metrics
  SpanRecorder spans{false};
};

/// The seed the pinned per-op digests of the coll_* workloads belong to.
constexpr std::uint64_t kDefaultSeed = 1;
/// Set-ups per run; setup_s is their median. Half run before the untraced
/// phase and half after it, so that the median spans the run's host
/// conditions rather than the fraction of a second the set-ups take.
constexpr int kSetups = 16;

void run_coll_small(const RunOptions& opt, Report& rep);
void run_coll_large(const RunOptions& opt, Report& rep);
void run_tune_fleet(const RunOptions& opt, Report& rep);

/// The han/verify probe of a traced tune_fleet run: verify.* metrics.
void verify_probe(Golden& golden, Report& rep);

/// Call `set_up` kSetups / 2 times, each on the next `width` CPUs of the
/// rotation, appending each call's host seconds to `seconds`. Returns what
/// the last call built; earlier results are torn down outside the timing.
template <typename SetUpFn>
auto time_setups(int width, std::vector<double>& seconds, SetUpFn&& set_up) {
  CpuRotation cpus;
  decltype(set_up()) last{};
  for (int i = 0; i < kSetups / 2; ++i) {
    cpus.pin(i, width);
    last = {};
    const std::int64_t t0 = now_ns();
    auto made = set_up();
    seconds.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    last = std::move(made);
  }
  return last;
}

/// What a timed phase measured.
struct Phase {
  std::vector<double> pass_s;    // host seconds of each pass
  std::vector<double> pass_ops;  // ops completed in each pass
  std::vector<double> op_ms;     // host milliseconds of each op
  std::map<std::string, std::vector<double>> class_op_ms;  // op_ms by class
  long ops = 0;

  /// One completed op of class `cls` (ops of one class do the same work).
  void add_op(const std::string& cls, double ms) {
    op_ms.push_back(ms);
    class_op_ms[cls].push_back(ms);
    ++ops;
  }
};

/// Run whole passes while the next one is expected to end within
/// `seconds` (at least one), each pinned to the next `width` CPUs of the
/// rotation. `pass(index, phase)` adds its ops with phase.add_op().
template <typename PassFn>
Phase timed_phase(double seconds, int width, PassFn&& pass) {
  CpuRotation cpus;
  Phase ph;
  const std::int64_t t0 = now_ns();
  for (int i = 0;; ++i) {
    cpus.pin(i, width);
    const long ops0 = ph.ops;
    const std::int64_t p0 = now_ns();
    pass(i, ph);
    ph.pass_s.push_back(static_cast<double>(now_ns() - p0) * 1e-9);
    ph.pass_ops.push_back(static_cast<double>(ph.ops - ops0));
    const double elapsed = static_cast<double>(now_ns() - t0) * 1e-9;
    if (elapsed * (i + 2) / (i + 1) > seconds) break;
  }
  return ph;
}

/// The end-to-end metrics every workload reports from its untraced phase.
void put_phase_metrics(const Phase& ph, const std::vector<double>& setup_s,
                       Report& rep);

/// Process CPU seconds (all threads) and peak resident set in MB.
double process_cpu_s();
double peak_rss_mb();

}  // namespace hostbench
