// tune_fleet: a cold Tuner::tune (jobs = 2) of a small fleet of stock
// shapes — flat, NUMA-split and multi-rail — ingested into a TuneDb, then a
// seeded efficiency perturbation of one machine in one band and a warm
// re-tune of the fleet through a saved and re-loaded DB. This is the
// paper's Fig. 8 path: thousands of short task benchmarks on
// sub-communicators plus the cost model and DB reads and writes. A traced
// run also probes the search (prepare vs estimate) and han/verify.
#include <optional>
#include <stdexcept>
#include <string>

#include "autotune/tunedb.hpp"
#include "stack.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

using namespace han;

// Flat, NUMA-split and multi-rail. aries2x8 is left out because it shares
// its TuneDb record key with aries_rail4 (the key has no NIC count).
const std::vector<std::string> kFleet = {"opath2x8", "aries_numa2x2x4",
                                         "aries_rail4"};
// Perturbation choices: the lowest perturbed band and the efficiency factor
// applied at and above it. Every kBands x kFactors passes use each pair
// once, in an order the seed shuffles, so a run's mix of re-tune work does
// not depend on the seed.
const std::vector<std::uint64_t> kBands = {1u << 20, 4u << 20};
const std::vector<double> kFactors = {0.85, 0.7};
// The perturbed machine is fixed (aries_numa2x2x4), so the seed changes only
// the order of the perturbations.
constexpr std::size_t kPerturbed = 1;
constexpr int kJobs = 2;

machine::MachineProfile stock(const std::string& name) {
  for (const machine::StockMachine& m : machine::stock_machines()) {
    if (name == m.name) return m.profile;
  }
  throw std::runtime_error("unknown stock machine " + name);
}

struct Perturbation {
  std::uint64_t band = 0;
  double factor = 1.0;
  std::string key() const {
    return kFleet[kPerturbed] + "." + std::to_string(band) + "." +
           fmt9(factor);
  }
  machine::MachineProfile apply(machine::MachineProfile p) const {
    machine::scale_net_efficiency(p, factor, band);
    return p;
  }
};

std::string digest(const tune::LookupTable& t) {
  return hex64(fnv1a(t.serialize()));
}

tune::TunerOptions tuner_options() {
  tune::TunerOptions o;
  o.jobs = kJobs;
  return o;
}

/// Per-pass sums the traced run turns into per-layer metrics.
struct TuneStats {
  double cold_s = 0, cold_cpu_s = 0;
  double taskbench_runs = 0, model_estimates = 0;
  int reused = 0, retuned = 0;
  std::vector<double> cold_pass_s, warm_pass_s;
};

void count_tune(Stack& s, TuneStats& st) {
  obs::MetricsRegistry& m = s.world.metrics();
  st.taskbench_runs += m.counter("tune.taskbench.runs").value();
  st.model_estimates += m.counter("tune.model_estimates").value();
}

/// One pass: cold fleet tune, then perturb and warm re-tune. Every machine
/// tuned is one op, checked against its pinned table digest.
void fleet_pass(const Perturbation& pert, const std::string& db_path,
                Golden& golden, Tally& tally, SpanRecorder& spans,
                Phase& ph, TuneStats& st, std::string* last_warm_table) {
  const tune::TunerOptions topts = tuner_options();
  tune::TuneDb db;

  const std::int64_t c0 = now_ns();
  const double cpu0 = process_cpu_s();
  {
    ScopedSpan cold(spans, "tune.cold");
    for (const std::string& name : kFleet) {
      const std::int64_t t0 = now_ns();
      ++tally.attempted;
      try {
        ScopedSpan span(spans, "autotune.tune");
        const machine::MachineProfile profile = stock(name);
        Stack hw(profile);
        tune::Tuner tuner(hw.world, hw.han, hw.world.world_comm());
        const tune::TuneReport rep = tuner.tune(topts);
        db.ingest(tune::signature_of(profile), rep.table);
        count_tune(hw, st);
        golden.check("tune_fleet.cold." + name, digest(rep.table), tally);
      } catch (const std::exception& e) {
        tally.fail("cold tune " + name + ": " + e.what());
      }
      ph.add_op("cold." + name, static_cast<double>(now_ns() - t0) * 1e-6);
    }
  }
  const double cold_s = static_cast<double>(now_ns() - c0) * 1e-9;
  st.cold_s += cold_s;
  st.cold_cpu_s += process_cpu_s() - cpu0;
  st.cold_pass_s.push_back(cold_s);

  const std::int64_t w0 = now_ns();
  {
    ScopedSpan warm(spans, "tune.warm");
    // The DB goes through its file format, as between two service runs.
    {
      ScopedSpan io(spans, "autotune.tunedb_io");
      if (!db.save(db_path)) tally.fail("TuneDb save to " + db_path);
      std::optional<tune::TuneDb> loaded = tune::TuneDb::load(db_path);
      if (!loaded) {
        tally.fail("TuneDb load from " + db_path);
      } else {
        db = std::move(*loaded);
      }
    }
    for (std::size_t i = 0; i < kFleet.size(); ++i) {
      const std::string& name = kFleet[i];
      const bool perturbed = i == kPerturbed;
      const std::int64_t t0 = now_ns();
      ++tally.attempted;
      try {
        const machine::MachineProfile profile =
            perturbed ? pert.apply(stock(name)) : stock(name);
        const tune::MachineSignature sig = tune::signature_of(profile);
        {
          ScopedSpan io(spans, "autotune.tunedb_io");
          std::vector<tune::LookupTable::Key> wanted;
          if (const tune::TuneDb::Record* rec = db.find(sig.key())) {
            const tune::LookupTable stored = rec->table();
            for (const auto& [key, cfg] : stored.entries()) {
              wanted.push_back(key);
            }
          }
          const bool stale = !db.stale_keys(sig, wanted).empty();
          if (stale != perturbed) {
            tally.fail("stale_keys on " + name + " disagrees with the " +
                       "perturbation");
          }
        }
        ScopedSpan span(spans, "autotune.warm_tune");
        Stack hw(profile);
        tune::Tuner tuner(hw.world, hw.han, hw.world.world_comm());
        const tune::WarmStartReport w = tune::warm_tune(db, tuner, topts);
        count_tune(hw, st);
        st.reused += w.reused;
        st.retuned += w.retuned;
        if ((w.retuned > 0) != perturbed) {
          tally.fail("warm tune of " + name + " re-tuned " +
                     std::to_string(w.retuned) + " buckets");
        }
        golden.check(perturbed ? "tune_fleet.warm." + pert.key()
                               : "tune_fleet.cold." + name,
                     digest(w.table), tally);
        if (perturbed) *last_warm_table = w.table.serialize();
      } catch (const std::exception& e) {
        tally.fail("warm tune " + name + ": " + e.what());
      }
      ph.add_op("warm." + name, static_cast<double>(now_ns() - t0) * 1e-6);
    }
  }
  st.warm_pass_s.push_back(static_cast<double>(now_ns() - w0) * 1e-9);
}

}  // namespace

void run_tune_fleet(const RunOptions& opt, Report& rep) {
  Golden& golden = *opt.golden;
  const std::string db_path = opt.out_dir + "/tune_fleet.tunedb";

  // Set-up: every fleet machine's stack and tuner, its hierarchies and one
  // warm-up op per tuned kind.
  std::vector<double> setup_s;
  auto set_up = [&] {
    for (const std::string& name : kFleet) {
      Stack hw(stock(name));
      tune::Tuner tuner(hw.world, hw.han, hw.world.world_comm());
      hw.han.flat_hierarchy(hw.world.world_comm());
      warm_up(hw, tune::TunerOptions::default_kinds(), 4u << 10);
    }
    return 0;
  };
  time_setups(kJobs, setup_s, set_up);

  if (golden.recording()) {
    // Warm tables of every perturbation a pass can use.
    for (std::uint64_t band : kBands) {
      for (double factor : kFactors) {
        const Perturbation p{band, factor};
        Stack hw(p.apply(stock(kFleet[kPerturbed])));
        tune::Tuner tuner(hw.world, hw.han, hw.world.world_comm());
        golden.put("tune_fleet.warm." + p.key(),
                   digest(tuner.tune(tuner_options()).table));
      }
    }
  }

  auto phase = [&](double seconds, SpanRecorder& spans, TuneStats& st,
                   std::string* warm_table, Perturbation* last) {
    sim::Rng rng(opt.seed);
    std::vector<Perturbation> cycle;
    return timed_phase(seconds, kJobs, [&](int pass, Phase& ph) {
      if (cycle.empty()) {
        for (std::uint64_t band : kBands) {
          for (double factor : kFactors) cycle.push_back({band, factor});
        }
        for (std::size_t i = cycle.size(); i > 1; --i) {
          std::swap(cycle[i - 1], cycle[rng.next_below(i)]);
        }
      }
      *last = cycle.back();
      cycle.pop_back();
      ScopedSpan span(spans, "pass", pass);
      fleet_pass(*last, db_path, golden, rep.tally, spans, ph, st,
                 warm_table);
    });
  };

  SpanRecorder off(false);
  TuneStats st;
  std::string warm_table;
  Perturbation last;
  const Phase ph = phase(opt.untraced_seconds(), off, st, &warm_table, &last);
  time_setups(kJobs, setup_s, set_up);
  put_phase_metrics(ph, setup_s, rep);
  rep.e2e["cold_tune_s"] = {median(st.cold_pass_s), "s",
                            "median of " +
                                std::to_string(st.cold_pass_s.size()) +
                                " cold fleet tunes"};
  rep.e2e["warm_tune_s"] = {median(st.warm_pass_s), "s",
                            "median of " +
                                std::to_string(st.warm_pass_s.size()) +
                                " warm re-tunes"};

  // Outside the timed phase: the last perturbed machine's warm table must
  // compute the right bytes for every kind in a small and a large band.
  tune::LookupTable table;
  if (!tune::LookupTable::deserialize(warm_table, &table)) {
    ++rep.tally.attempted;
    rep.tally.fail("warm table does not parse");
  } else {
    data_replay(last.apply(stock(kFleet[kPerturbed])), table.decider(),
                tune::TunerOptions::default_kinds(), {4u << 10, 1u << 20},
                opt.seed, rep.tally);
  }

  if (!opt.trace) return;

  rep.spans = SpanRecorder(true);
  TuneStats ts;
  std::string unused;
  const Phase tph = phase(opt.seconds, rep.spans, ts, &unused, &last);

  // Task-model search driven per kind on one fleet machine.
  double prepare_s = 0.0, estimate_s = 0.0;
  {
    ScopedSpan span(rep.spans, "autotune.search");
    const machine::MachineProfile profile = stock(kFleet.front());
    Stack hw(profile);
    tune::Searcher s(hw.world, hw.han, hw.world.world_comm(),
                     tune::SearchSpace::for_profile(profile));
    for (coll::CollKind kind : tune::TunerOptions::default_kinds()) {
      const std::int64_t t0 = now_ns();
      s.prepare(kind, false);
      const std::int64_t t1 = now_ns();
      for (std::size_t m : tune::TunerOptions().message_sizes) {
        (void)s.estimate(kind, m, false);
      }
      const std::int64_t t2 = now_ns();
      rep.spans.add("autotune.prepare", t0, t1);
      rep.spans.add("autotune.estimate", t1, t2);
      prepare_s += static_cast<double>(t1 - t0) * 1e-9;
      estimate_s += static_cast<double>(t2 - t1) * 1e-9;
    }
  }

  verify_probe(golden, rep);

  auto& L = rep.layer;
  L["trace.overhead"] = {median(tph.pass_s) / median(ph.pass_s), "ratio",
                         "traced pass " + fmt9(median(tph.pass_s)) +
                             " s / untraced pass " + fmt9(median(ph.pass_s)) +
                             " s"};
  L["cold_tune_s"] = {median(ts.cold_pass_s), "s", ""};
  L["warm_tune_s"] = {median(ts.warm_pass_s), "s", ""};
  L["autotune.prepare_s"] = {prepare_s, "s", "3 kinds on " + kFleet.front()};
  L["autotune.estimate_s"] = {estimate_s, "s", "3 kinds x 7 sizes"};
  L["autotune.prepare_share"] = {
      prepare_s / (prepare_s + estimate_s), "ratio",
      "autotune.prepare_s " + fmt9(prepare_s) + " s / search " +
          fmt9(prepare_s + estimate_s) + " s"};
  L["autotune.taskbench_runs"] = {ts.taskbench_runs, "count", ""};
  L["autotune.model_estimates"] = {ts.model_estimates, "count", ""};
  const double reuse_base = ts.reused + ts.retuned;
  L["autotune.warm_reuse_ratio"] = {
      reuse_base > 0 ? ts.reused / reuse_base : 0.0, "ratio",
      "reused " + std::to_string(ts.reused) + " / (reused + retuned) " +
          fmt9(reuse_base)};
  L["autotune.tunedb_io_s"] = {rep.spans.total_s("autotune.tunedb_io"), "s",
                               "save + load + stale_keys"};
  L["parallel.cpu_over_wall"] = {
      ts.cold_s > 0 ? ts.cold_cpu_s / ts.cold_s : 0.0, "ratio",
      "process cpu " + fmt9(ts.cold_cpu_s) + " s / cold wall " +
          fmt9(ts.cold_s) + " s, jobs=" + std::to_string(kJobs)};
}

}  // namespace hostbench
