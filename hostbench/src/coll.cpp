// coll_small / coll_large: HAN bcast, allreduce and reduce_scatter with the
// default decider on aries 32x16, one op = one collective on all 512 ranks.
//
// coll_small (4 B .. 16 KB) is where per-call HAN work — decide, task-graph
// build, first scheduler issue — is a large share of host time; coll_large
// (1 MB .. 8 MB) is where the event loop (engine, flownet, simmpi, coll)
// dominates and the HAN call path should not show.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "stack.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

using namespace han;
using coll::CollKind;

constexpr int kNodes = 32;
constexpr int kPpn = 16;
// Bcast roots the seed draws from: node leaders and non-leaders on the
// first, middle and last nodes.
const std::vector<int> kRoots = {0, 1, 15, 16, 100, 255, 256, 511};
const std::vector<CollKind> kKinds = {CollKind::Bcast, CollKind::Allreduce,
                                      CollKind::ReduceScatter};
// Simulated times of an op depend, in their last digits, on the absolute
// simulated clock at which it starts (rounding of event times), so ops at
// other positions than the pinned default-seed round are checked against
// the per-op reference within this relative tolerance.
constexpr double kRelTol = 1e-2;

struct OpCtx {
  Stack* stack = nullptr;
  CollOp op;
  std::int64_t op_id = 0;
  SpanRecorder* spans = nullptr;  // tracing on when enabled()
  std::vector<double> done;
};

sim::CoTask rank_program(OpCtx& c, int me) {
  const mpi::Comm& comm = c.stack->world.world_comm();
  const auto [a, b] = timing_views(c.op, comm.size());
  mpi::Request r;
  if (c.spans->enabled()) {
    const std::int64_t t0 = now_ns();
    r = issue(c.stack->han, comm, c.op, me, a, b);
    c.spans->add("han.call", t0, now_ns(), c.op_id);
  } else {
    r = issue(c.stack->han, comm, c.op, me, a, b);
  }
  co_await *r;
  c.done[static_cast<std::size_t>(me)] = c.stack->world.now();
}

/// Run one op to completion; returns its max-across-ranks simulated time.
double run_op(Stack& s, const CollOp& op, std::int64_t op_id,
              SpanRecorder& spans) {
  OpCtx c;
  c.stack = &s;
  c.op = op;
  c.op_id = op_id;
  c.spans = &spans;
  c.done.assign(static_cast<std::size_t>(s.world.world_size()), -1.0);
  const double t0 = s.world.now();
  {
    ScopedSpan run_span(spans, "simmpi.run", op_id);
    s.world.run(
        [&c](mpi::Rank& rank) { return rank_program(c, rank.world_rank); });
  }
  double worst = 0.0;
  for (double d : c.done) worst = std::max(worst, d - t0);
  return worst;
}

/// An op's class for op_ms_p50_gmean: kind and size. Bcasts of one size
/// from different roots do nearly the same host work, and splitting them by
/// root would leave coll_large a handful of samples per class.
std::string op_class(const CollOp& op) {
  return std::string(coll::coll_kind_name(op.kind)) + "." +
         std::to_string(op.bytes);
}

struct Counters {
  double events = 0, messages = 0, flows = 0, actions = 0, graphs = 0,
         nodes = 0;
};

Counters read_counters(Stack& s) {
  obs::MetricsRegistry& m = s.world.metrics();
  Counters c;
  c.events = static_cast<double>(s.world.engine().events_processed());
  c.messages = static_cast<double>(s.world.messages_sent());
  c.flows = m.counter("net.flows.started").value();
  for (const char* k : {"send", "recv", "copy", "reduce", "compute", "noop",
                        "cross_copy", "cross_reduce"}) {
    c.actions += m.counter(std::string("coll.actions.") + k).value();
  }
  c.graphs = m.counter("han.task.graphs").value();
  c.nodes = m.counter("han.task.nodes").value();
  return c;
}

/// Build the stack, its hierarchies and one warm-up op per kind.
std::unique_ptr<Stack> set_up(const std::vector<std::size_t>& sizes) {
  auto s = std::make_unique<Stack>(machine::make_aries(kNodes, kPpn));
  s->han.hierarchy(s->world.world_comm());
  s->han.flat_hierarchy(s->world.world_comm());
  warm_up(*s, kKinds, sizes.front());
  return s;
}

// ---- The workload ----------------------------------------------------------

struct TracedPhase {
  Phase ph;
  Counters delta;
  std::vector<CollOp> ops;  // for the decide replay
};

void run_coll(const char* name, const std::vector<std::size_t>& sizes,
              const RunOptions& opt, Report& rep) {
  Golden& golden = *opt.golden;
  const std::string prefix = name;

  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack =
      time_setups(1, setup_s, [&] { return set_up(sizes); });

  if (golden.recording()) {
    // Reference table: every (kind, size, root) once, in canonical order.
    SpanRecorder off(false);
    for (CollKind k : kKinds) {
      for (std::size_t b : sizes) {
        for (int root : k == CollKind::Bcast ? kRoots : std::vector<int>{0}) {
          const CollOp op{k, b, root};
          golden.put(prefix + ".ref." + op.key(),
                     fmt9(run_op(*stack, op, -1, off)));
        }
      }
    }
    stack = set_up(sizes);
  }

  // Every op is checked within kRelTol of its reference; the first round of
  // the default seed on a freshly set-up stack also exactly.
  double max_drift = 0.0;
  const std::int64_t round_ops =
      static_cast<std::int64_t>(kKinds.size() * sizes.size());
  auto check_op = [&](const CollOp& op, std::int64_t id, double sim_s,
                      bool fresh_stack) {
    ++rep.tally.attempted;
    if (!golden.check_near(prefix + ".ref." + op.key(), sim_s, kRelTol,
                           rep.tally, &max_drift)) {
      return;
    }
    if (fresh_stack && opt.seed == kDefaultSeed && id < round_ops) {
      char idx[8];
      std::snprintf(idx, sizeof idx, "%02d", static_cast<int>(id));
      golden.check(prefix + ".seed1.op" + idx, op.key() + "@" + fmt17(sim_s),
                   rep.tally);
    }
  };

  auto phase = [&](double seconds, Stack& s, SpanRecorder& spans,
                   TracedPhase* traced) {
    OpSequence seq(opt.seed, kKinds, sizes, kRoots);
    std::int64_t next_id = 0;
    const Counters c0 = read_counters(s);
    Phase ph = timed_phase(seconds, 1, [&](int, Phase& p) {
      for (const CollOp& op : seq.next_round()) {
        const std::int64_t id = next_id++;
        ScopedSpan op_span(spans, "op", id);
        const std::int64_t t0 = now_ns();
        double sim_s = 0.0;
        bool ok = true;
        try {
          sim_s = run_op(s, op, id, spans);
        } catch (const std::exception& e) {
          ++rep.tally.attempted;
          rep.tally.fail(op.key() + ": " + e.what());
          ok = false;
        }
        p.add_op(op_class(op), static_cast<double>(now_ns() - t0) * 1e-6);
        // The untraced phase runs first, on the stack as set up.
        if (ok) check_op(op, id, sim_s, traced == nullptr);
        if (traced != nullptr) traced->ops.push_back(op);
      }
    });
    if (traced != nullptr) {
      const Counters c1 = read_counters(s);
      traced->delta = Counters{c1.events - c0.events,
                               c1.messages - c0.messages,
                               c1.flows - c0.flows,
                               c1.actions - c0.actions,
                               c1.graphs - c0.graphs,
                               c1.nodes - c0.nodes};
    }
    return ph;
  };

  // Outside the timed phase: replay one op per kind at the band's edge
  // size with real payloads against a serial reference.
  data_replay(machine::make_aries(4, 4), nullptr, kKinds,
              {sizes.back() <= (16u << 10) ? sizes.back() : sizes.front()},
              opt.seed, rep.tally);

  SpanRecorder off(false);
  const Phase ph = phase(opt.untraced_seconds(), *stack, off, nullptr);
  // The second half of the set-ups; the traced phase runs on the last one.
  stack.reset();
  stack = time_setups(1, setup_s, [&] { return set_up(sizes); });
  put_phase_metrics(ph, setup_s, rep);
  if (const auto tail = p90(ph.op_ms)) {
    rep.e2e["op_ms_p90"] = {*tail, "ms",
                            std::to_string(ph.op_ms.size()) + " ops"};
  } else {
    rep.e2e["op_ms_p90"] = {0.0, "ms",
                            "refused: " + std::to_string(ph.op_ms.size()) +
                                " ops < " + std::to_string(kMinP90Samples)};
  }
  rep.e2e["sim_drift_max"] = {max_drift, "ratio",
                              "largest |sim/ref - 1| over checked ops"};

  if (!opt.trace) return;

  // Traced phase on the same stack: spans around every op, SimWorld::run
  // and each rank's HanModule call.
  rep.spans = SpanRecorder(true);
  TracedPhase tp;
  tp.ph = phase(opt.seconds, *stack, rep.spans, &tp);
  const double run_s = rep.spans.total_s("simmpi.run");
  const double han_s = rep.spans.total_s("han.call");
  const double ops = static_cast<double>(tp.ph.ops);
  const double overhead = median(tp.ph.pass_s) / median(ph.pass_s);

  // decide replay: once per rank per op, outside the simulation.
  const std::int64_t d0 = now_ns();
  {
    ScopedSpan span(rep.spans, "han.decide");
    const mpi::Comm& comm = stack->world.world_comm();
    for (const CollOp& op : tp.ops) {
      for (int r = 0; r < comm.size(); ++r) {
        (void)stack->han.decide(op.kind, comm, op.bytes);
      }
    }
  }
  const double decide_s = static_cast<double>(now_ns() - d0) * 1e-9;

  auto& L = rep.layer;
  L["trace.overhead"] = {overhead, "ratio",
                         "traced pass " + fmt9(median(tp.ph.pass_s)) +
                             " s / untraced pass " +
                             fmt9(median(ph.pass_s)) + " s"};
  const auto tail = p90(tp.ph.op_ms);
  L["op_ms_p90"] = {tail.value_or(0.0), "ms",
                    (tail ? "" : "refused: ") + std::to_string(tp.ph.ops) +
                        " ops"};
  L["simmpi.run_s"] = {run_s, "s", std::to_string(tp.ph.ops) + " ops"};
  L["simbase.events"] = {tp.delta.events, "count", ""};
  L["simbase.ns_per_event"] = {
      tp.delta.events > 0 ? (run_s - han_s) * 1e9 / tp.delta.events : 0.0,
      "ns", "(simmpi.run_s - han.call_s) " + fmt9(run_s - han_s) +
                " s / simbase.events " + fmt9(tp.delta.events)};
  L["flownet.flows"] = {tp.delta.flows, "count", ""};
  L["flownet.flows_per_op"] = {tp.delta.flows / ops, "flows/op",
                               "flownet.flows " + fmt9(tp.delta.flows) +
                                   " / ops " + fmt9(ops)};
  L["simmpi.messages"] = {tp.delta.messages, "count", ""};
  L["coll.actions"] = {tp.delta.actions, "count", ""};
  L["han.call_s"] = {han_s, "s",
                     std::to_string(rep.spans.totals("han.call").count) +
                         " calls"};
  L["han.call_share"] = {run_s > 0 ? han_s / run_s : 0.0, "ratio",
                         "han.call_s " + fmt9(han_s) + " s / simmpi.run_s " +
                             fmt9(run_s) + " s"};
  L["han.decide_s"] = {decide_s, "s",
                       std::to_string(tp.ops.size() * kNodes * kPpn) +
                           " decides"};
  L["han.task.graphs"] = {tp.delta.graphs, "count", ""};
  L["han.task.nodes"] = {tp.delta.nodes, "count", ""};
}

}  // namespace

void run_coll_small(const RunOptions& opt, Report& rep) {
  run_coll("coll_small", {4, 16, 64, 256, 1 << 10, 4 << 10, 16 << 10}, opt,
           rep);
}

void run_coll_large(const RunOptions& opt, Report& rep) {
  run_coll("coll_large", {1 << 20, 2 << 20, 4 << 20, 8 << 20}, opt, rep);
}

}  // namespace hostbench
