// hostbench: the host wall-clock benchmark of the simulator.
//
//   hostbench --workload <coll_small|coll_large|tune_fleet>
//             --seed N --seconds S --trace 0|1 --golden <path>
//             [--out-dir <dir>] [--write-golden <path>]
//
// Prints every metric with its unit, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics of the untraced phase with --trace 0, the per-layer metrics of
// the traced phase with --trace 1. See hostbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace hostbench {

// The metric names of BENCHMARK.json, in its order.
const std::vector<std::string> kEndToEnd = {
    "wall_s", "setup_s", "ops_per_s", "op_ms_p50_gmean", "peak_rss_mb"};
const std::vector<std::string> kPerLayer = {
    "trace.overhead",        "op_ms_p90",
    "cold_tune_s",           "warm_tune_s",
    "simmpi.run_s",          "simbase.events",
    "simbase.ns_per_event",  "flownet.flows",
    "flownet.flows_per_op",  "simmpi.messages",
    "coll.actions",          "han.call_s",
    "han.call_share",        "han.decide_s",
    "han.task.graphs",       "han.task.nodes",
    "autotune.prepare_s",    "autotune.estimate_s",
    "autotune.prepare_share", "autotune.taskbench_runs",
    "autotune.model_estimates", "autotune.warm_reuse_ratio",
    "autotune.tunedb_io_s",  "parallel.cpu_over_wall",
    "verify.plans_s",        "verify.graphs_s",
    "verify.cases",          "verify.actions"};
// Units of the per-layer metrics a workload bypasses (reported as 0).
const std::map<std::string, std::string> kLayerUnits = {
    {"trace.overhead", "ratio"},        {"op_ms_p90", "ms"},
    {"cold_tune_s", "s"},               {"warm_tune_s", "s"},
    {"simmpi.run_s", "s"},              {"simbase.events", "count"},
    {"simbase.ns_per_event", "ns"},     {"flownet.flows", "count"},
    {"flownet.flows_per_op", "flows/op"}, {"simmpi.messages", "count"},
    {"coll.actions", "count"},          {"han.call_s", "s"},
    {"han.call_share", "ratio"},        {"han.decide_s", "s"},
    {"han.task.graphs", "count"},       {"han.task.nodes", "count"},
    {"autotune.prepare_s", "s"},        {"autotune.estimate_s", "s"},
    {"autotune.prepare_share", "ratio"}, {"autotune.taskbench_runs", "count"},
    {"autotune.model_estimates", "count"},
    {"autotune.warm_reuse_ratio", "ratio"}, {"autotune.tunedb_io_s", "s"},
    {"parallel.cpu_over_wall", "ratio"}, {"verify.plans_s", "s"},
    {"verify.graphs_s", "s"},           {"verify.cases", "count"},
    {"verify.actions", "count"}};

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM, not getrusage: ru_maxrss survives exec, so it would report the
  // launching interpreter's peak whenever that is the larger one.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

void put_phase_metrics(const Phase& ph, const std::vector<double>& setup_s,
                       Report& rep) {
  const std::string passes = std::to_string(ph.pass_s.size()) + " passes";
  rep.e2e["wall_s"] = {median(ph.pass_s), "s", "median of " + passes};
  rep.e2e["setup_s"] = {median(setup_s), "s",
                        "median of " + std::to_string(setup_s.size()) +
                            " set-ups"};
  std::vector<double> rate;
  for (std::size_t i = 0; i < ph.pass_s.size(); ++i) {
    rate.push_back(ph.pass_ops[i] / ph.pass_s[i]);
  }
  rep.e2e["ops_per_s"] = {median(rate), "1/s",
                          "median over passes; " + std::to_string(ph.ops) +
                              " ops in all"};
  rep.e2e["op_ms_p50"] = {median(ph.op_ms), "ms",
                          std::to_string(ph.op_ms.size()) + " samples"};
  rep.e2e["op_ms_p50_gmean"] = {
      class_median_gmean(ph.class_op_ms), "ms",
      "geometric mean over " + std::to_string(ph.class_op_ms.size()) +
          " op classes of each class's median; " +
          std::to_string(ph.op_ms.size()) + " samples"};
  rep.e2e["peak_rss_mb"] = {peak_rss_mb(), "MB", "VmHWM"};
}

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "hostbench: %s\nusage: hostbench --workload <name> --seed N "
               "--seconds S --trace 0|1 --golden <path> [--out-dir <dir>] "
               "[--write-golden <path>]\n",
               msg);
  return 2;
}

void print_metrics(const char* title,
                   const std::map<std::string, Metric>& metrics) {
  std::printf("%s:\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("  %-26s %-16s %-8s %s\n", name.c_str(), fmt9(m.value).c_str(),
                m.unit.c_str(), m.note.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string workload, golden_path, write_golden;
  opt.out_dir = ".bench_build/hostbench/out";
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value after " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage("--seed takes an integer");
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      if (*end != '\0' || !(opt.seconds > 0)) {
        return usage("--seconds takes a positive number");
      }
      have_seconds = true;
    } else if (a == "--trace") {
      const std::string t = v;
      if (t != "0" && t != "1") return usage("--trace takes 0 or 1");
      opt.trace = t == "1";
      have_trace = true;
    } else if (a == "--golden") {
      golden_path = v;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else if (a == "--write-golden") {
      write_golden = v;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return usage("--seed, --seconds and --trace are required");
  }
  void (*run)(const RunOptions&, Report&) = nullptr;
  if (workload == "coll_small") run = run_coll_small;
  if (workload == "coll_large") run = run_coll_large;
  if (workload == "tune_fleet") run = run_tune_fleet;
  if (run == nullptr) return usage(("unknown workload '" + workload + "'").c_str());

  Golden golden;
  std::string error;
  if (!write_golden.empty()) {
    if (std::filesystem::exists(write_golden) &&
        !golden.load(write_golden, &error)) {
      return usage(error.c_str());
    }
    golden.set_recording(true);
  } else if (golden_path.empty() || !golden.load(golden_path, &error)) {
    return usage(golden_path.empty() ? "--golden is required" : error.c_str());
  }
  opt.golden = &golden;
  std::filesystem::create_directories(opt.out_dir);

  std::printf("hostbench %s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  Report rep;
  try {
    run(opt, rep);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hostbench: %s: %s\n", workload.c_str(), e.what());
    return 1;
  }

  if (!write_golden.empty()) {
    if (!golden.save(write_golden)) return usage("cannot write golden file");
    std::printf("pinned outputs written to %s\n", write_golden.c_str());
  }

  rep.e2e["ops"] = {static_cast<double>(rep.tally.attempted), "count",
                    "attempted"};
  rep.e2e["ops_failed"] = {static_cast<double>(rep.tally.failed), "count",
                           "threw, drifted from the pinned outputs, or had a "
                           "verify finding"};
  print_metrics("end-to-end (untraced)", rep.e2e);
  if (opt.trace) {
    for (const std::string& name : kPerLayer) {
      if (rep.layer.count(name) == 0) {
        rep.layer[name] = {0.0, kLayerUnits.at(name), "bypassed"};
      }
    }
    print_metrics("per-layer (traced)", rep.layer);
    const std::string path =
        opt.out_dir + "/spans_" + workload + ".json";
    if (rep.spans.write_json(path)) {
      std::printf("spans: %zu kept, %lld dropped, written to %s\n",
                  rep.spans.spans().size(),
                  static_cast<long long>(rep.spans.dropped()), path.c_str());
    }
  }
  for (const std::string& note : rep.tally.notes) {
    std::printf("FAILED: %s\n", note.c_str());
  }
  const bool correct = rep.tally.failed == 0 && rep.tally.attempted > 0;
  std::printf("correct: %s (%ld of %ld ops failed)\n",
              correct ? "true" : "false", rep.tally.failed,
              rep.tally.attempted);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.tally.attempted);
  json += ", \"failed\": " + std::to_string(rep.tally.failed);
  json += ", \"metrics\": {";
  const auto& names = opt.trace ? kPerLayer : kEndToEnd;
  const auto& values = opt.trace ? rep.layer : rep.e2e;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric& m = values.at(names[i]);
    json += (i == 0 ? "\"" : ", \"") + names[i] + "\": {\"value\": " +
            fmt17(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace hostbench

int main(int argc, char** argv) { return hostbench::main(argc, argv); }
