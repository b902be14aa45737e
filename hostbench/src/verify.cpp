// The han/verify probe of a traced tune_fleet run: han::verify::run_sweep
// over the full autotuner space (the SearchSpace the tuner searches), plans
// only and then graphs only, windows 1-3, with no execution. It builds and
// analyses schedules without simulating them.
#include "han/verify/sweep.hpp"
#include "workloads.hpp"

namespace hostbench {

using namespace han;

void verify_probe(Golden& golden, Report& rep) {
  verify::SweepOptions plans;  // full space, windows 1-3, serial
  plans.graphs = false;
  verify::SweepOptions graphs;
  graphs.plans = false;

  long cases = 0, actions = 0, errors = 0, warnings = 0;
  auto sweep = [&](const char* span, const verify::SweepOptions& o) {
    const std::int64_t t0 = now_ns();
    const verify::SweepResult r = verify::run_sweep(o);
    const std::int64_t t1 = now_ns();
    rep.spans.add(span, t0, t1);
    // Every case is an op; a case with a finding fails.
    for (const verify::SweepEntry& e : r.entries) {
      ++rep.tally.attempted;
      if (e.errors > 0 || e.warnings > 0) {
        rep.tally.fail("verify finding in " + e.name);
      }
      ++cases;
      actions += e.actions;
      errors += e.errors;
      warnings += e.warnings;
    }
    return static_cast<double>(t1 - t0) * 1e-9;
  };
  const double plans_s = sweep("verify.plans", plans);
  const double graphs_s = sweep("verify.graphs", graphs);

  ++rep.tally.attempted;
  golden.check("verify.totals",
               std::to_string(cases) + "/" + std::to_string(actions) + "/" +
                   std::to_string(errors) + "/" + std::to_string(warnings),
               rep.tally);

  auto& L = rep.layer;
  L["verify.plans_s"] = {plans_s, "s", ""};
  L["verify.graphs_s"] = {graphs_s, "s", ""};
  L["verify.cases"] = {static_cast<double>(cases), "count", "per sweep"};
  L["verify.actions"] = {static_cast<double>(actions), "count", "per sweep"};
}

}  // namespace hostbench
