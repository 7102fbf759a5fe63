// churn: one caller creating never-seen sub-communicators of the
// 120-rank hex cluster. Every op is a full plan request (restrict ->
// tune -> validate -> compile -> predict) followed by netsim scoring of
// the tuned plan against the classic tree barrier — the path where the
// dense tuner does most of the work.
#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "barrier/algorithms.hpp"
#include "barrier/compiled_schedule.hpp"
#include "core/tuner.hpp"
#include "netsim/engine.hpp"
#include "opstream.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace optibar;

constexpr std::size_t kWorld = 120;
constexpr std::size_t kMinSubset = 8;
/// The first ops of the seeded sequence every run completes; the
/// deterministic metrics (plan quality, signal and event counts) are
/// taken over exactly these, so they repeat for a fixed seed.
constexpr std::size_t kScoredOps = 1000;
/// Per-message netsim noise (the validation benches' protocol).
constexpr double kJitter = 0.03;

struct ChurnOp {
  std::int64_t op_ns = 0;
  std::int64_t plan_ns = 0;
  std::int64_t sim_ns[2] = {0, 0};  ///< tuned, tree
  double speedup = 0.0;             ///< tree time / tuned time
  std::size_t signals = 0;
  std::size_t stages = 0;
  std::size_t events = 0;           ///< netsim events, both episodes
  double host_factor = 1.0;         ///< HostSpeed factor of its slice
  bool failed = false;
};

struct Checks {
  std::size_t not_barrier = 0;
  std::size_t prediction_mismatch = 0;
  std::string first;
};

class Churn {
 public:
  explicit Churn(std::uint64_t seed) : seed_(seed) {}

  void setup() {
    const MachineSpec machine = hex_cluster();
    world_ = generate_profile(machine, round_robin_mapping(machine, kWorld));
    // Warm the workspaces to the largest shape so the timed ops start
    // from steady-state allocations.
    const TuneResult warm = tune_barrier(world_);
    compiled_.compile(warm.schedule(), warm.profile());
    predicted_time(compiled_, PredictOptions{}, predict_ws_);
    simulate_compiled_into(compiled_, warm.profile(), SimOptions{}, sim_ws_,
                           sim_);
  }

  ChurnOp run_op(std::uint64_t index, const std::vector<std::size_t>& subset,
                 SpanLog* log, Checks& checks) {
    ChurnOp out;
    OpTimeline timeline(index);
    try {
      TopologyProfile local;
      timeline.step("topology.restrict",
                    [&] { local = world_.restrict_to(subset); });
      std::optional<TuneResult> tuned;
      timeline.step("core.tune", [&] { tuned.emplace(tune_barrier(local)); });
      bool is_barrier = false;
      timeline.step("barrier.validate",
                    [&] { is_barrier = tuned->schedule().is_barrier(); });
      timeline.step("barrier.compile", [&] {
        compiled_.compile(tuned->schedule(), tuned->profile());
      });
      PredictOptions predict;
      predict.awaited_stages = tuned->barrier().awaited_stages;
      double predicted = 0.0;
      timeline.step("barrier.predict", [&] {
        predicted = predicted_time(compiled_, predict, predict_ws_);
      });
      out.plan_ns = now_ns() - timeline.start_ns();

      Schedule tree(1);
      timeline.step("barrier.algorithms",
                    [&] { tree = tree_barrier(subset.size()); });
      SimOptions sim;
      sim.jitter = kJitter;
      sim.seed = seed_ * 0x2545f4914f6cdd1dull + index;
      double times[2] = {0.0, 0.0};
      out.sim_ns[0] = timeline.step("netsim.simulate", [&] {
        simulate_compiled_into(compiled_, tuned->profile(), sim, sim_ws_,
                               sim_);
      });
      times[0] = sim_.barrier_time();
      out.events += sim_ws_.queue.scheduled();
      out.sim_ns[1] = timeline.step("netsim.simulate", [&] {
        simulate_into(tree, tuned->profile(), sim, sim_ws_, sim_);
      });
      times[1] = sim_.barrier_time();
      out.events += sim_ws_.queue.scheduled();
      out.op_ns = timeline.finish(log, "churn.op");

      out.speedup = times[1] / times[0];
      out.signals = tuned->schedule().total_signals();
      out.stages = tuned->schedule().stage_count();
      const bool bits_match =
          std::bit_cast<std::uint64_t>(predicted) ==
          std::bit_cast<std::uint64_t>(tuned->predicted_cost());
      checks.not_barrier += is_barrier ? 0 : 1;
      checks.prediction_mismatch += bits_match ? 0 : 1;
      if ((!is_barrier || !bits_match) && checks.first.empty()) {
        checks.first = "op " + std::to_string(index) + " (" +
                       std::to_string(subset.size()) + " ranks)";
      }
    } catch (const Error&) {
      // The library refused this subset: a failed op, not a crash.
      out.failed = true;
      out.op_ns = timeline.finish(nullptr, "churn.op");
    }
    return out;
  }

 private:
  std::uint64_t seed_;
  TopologyProfile world_;
  CompiledSchedule compiled_;
  PredictWorkspace predict_ws_;
  SimWorkspace sim_ws_;
  SimResult sim_;
};

}  // namespace

void run_churn(const RunConfig& config, Report& report) {
  Churn churn(config.seed);
  report.metric("setup_s", scaled_setup_seconds(kSetupRepetitions,
                                                [&] { churn.setup(); }),
                "s", kSetupRepetitions);

  Checks checks;
  LoopClock clock;
  SpanLog log(config.trace ? kSpanCapacity : 0);
  std::vector<ChurnOp> traced;
  ChurnStream stream(config.seed, kWorld, kMinSubset);
  std::vector<std::size_t> subset;
  std::uint64_t drawn = ~std::uint64_t{0};
  const std::vector<ChurnOp> ops = closed_loop<ChurnOp>(
      config.seconds, kScoredOps,
      [&](std::uint64_t i, SpanLog* span_log) {
        // A traced run calls each op twice; both see the same subset.
        if (i != drawn) {
          subset = stream.next();
          drawn = i;
        }
        return churn.run_op(i, subset, span_log, checks);
      },
      clock, config.trace ? &log : nullptr, &traced);
  for (const ChurnOp& op : ops) {
    report.attempt(op.failed);
  }

  // Deterministic quality and size figures over the scored prefix.
  std::vector<double> speedups;
  double signals = 0.0;
  double stages = 0.0;
  double events = 0.0;
  for (std::size_t i = 0; i < kScoredOps; ++i) {
    if (!ops[i].failed) {
      speedups.push_back(ops[i].speedup);
      signals += static_cast<double>(ops[i].signals);
      stages += static_cast<double>(ops[i].stages);
      events += static_cast<double>(ops[i].events);
    }
  }
  const double scored = static_cast<double>(speedups.size());
  report.note("scored prefix: first " + std::to_string(kScoredOps) + " ops");

  if (!config.trace) {
    // Times and rates at nominal host speed (hostspeed.hpp); the
    // unscaled wall-clock figures follow as wall.* metrics.
    const std::vector<double> plan = scaled_timings(ops, &ChurnOp::plan_ns);
    const std::vector<double> op_ns = scaled_timings(ops, &ChurnOp::op_ns);
    std::vector<double> episodes;
    for (const ChurnOp& op : ops) {
      if (!op.failed) {
        for (const std::int64_t sim_ns : op.sim_ns) {
          episodes.push_back(static_cast<double>(sim_ns) * op.host_factor);
        }
      }
    }
    const std::chrono::nanoseconds wall(
        static_cast<std::int64_t>(clock.scaled_ns));
    report.metric("plan_ms_p50", windowed_percentile(plan, 0.50), kNsToMs,
                  "ms");
    report.metric("plan_ms_p90", windowed_percentile(plan, 0.90), kNsToMs,
                  "ms");
    report.metric("episode_us_p50", windowed_percentile(episodes, 0.50),
                  kNsToUs, "us");
    report.metric("episode_us_p99", windowed_percentile(episodes, 0.99),
                  kNsToUs, "us");
    report.metric("episodes_per_s", rate(episodes.size(), wall), "1/s",
                  episodes.size());
    report.metric("service_op_ns_p50", windowed_percentile(op_ns, 0.50),
                  kNsToNs, "ns");
    report.metric("service_op_ns_p99", windowed_percentile(op_ns, 0.99),
                  kNsToNs, "ns");
    report.metric("service_ops_per_s", rate(ops.size(), wall), "1/s",
                  ops.size());
    report.metric("sim_speedup_vs_tree", geometric_mean(speedups), "x",
                  speedups.size());
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("wall.plan_ms_p50",
                  windowed_percentile(timings(ops, &ChurnOp::plan_ns), 0.50),
                  kNsToMs, "ms");
    report.metric("wall.service_ops_per_s",
                  rate(ops.size(), std::chrono::nanoseconds(clock.wall_ns)),
                  "1/s", ops.size());
    report_host_speed(report, clock);
  } else {
    const LayerTimes layers = layer_times({&log});
    const auto self = [&](const char* name) {
      const auto it = layers.per_op_self_ns.find(name);
      return it == layers.per_op_self_ns.end() ? std::vector<double>{}
                                                : it->second;
    };
    report.metric("core.tune_us_p50", percentile(self("core.tune"), 0.50),
                  kNsToUs, "us");
    report.metric("core.tune_us_p90", percentile(self("core.tune"), 0.90),
                  kNsToUs, "us");
    report.metric("core.tune_share",
                  layers.total_self_ns.at("core.tune") / layers.op_ns, "ratio");
    report.metric("topology.restrict_us_p50",
                  percentile(self("topology.restrict"), 0.50), kNsToUs, "us");
    report.metric("barrier.compile_us_p50",
                  percentile(self("barrier.compile"), 0.50), kNsToUs, "us");
    report.metric("barrier.predict_us_p50",
                  percentile(self("barrier.predict"), 0.50), kNsToUs, "us");
    std::vector<double> sims;
    for (const ChurnOp& op : traced) {
      if (!op.failed) {
        sims.push_back(static_cast<double>(op.sim_ns[0]));
        sims.push_back(static_cast<double>(op.sim_ns[1]));
      }
    }
    report.metric("netsim.simulate_us_p50", percentile(sims, 0.50), kNsToUs,
                  "us");
    double traced_events = 0.0;
    for (const ChurnOp& op : traced) {
      traced_events += static_cast<double>(op.events);
    }
    report.metric("netsim.events_per_s",
                  traced_events /
                      (layers.total_self_ns.at("netsim.simulate") * 1e-9),
                  "1/s");
    report.metric("netsim.events_per_op", events / scored / 2.0, "count",
                  speedups.size() * 2);
    report.metric("barrier.signals_per_plan", signals / scored, "count",
                  speedups.size());
    report.metric("barrier.stages_per_plan", stages / scored, "count",
                  speedups.size());
    report.metric("trace_overhead_ratio",
                  percentile(timings(traced, &ChurnOp::op_ns), 0.50).value /
                      percentile(timings(ops, &ChurnOp::op_ns), 0.50).value,
                  "ratio", ops.size());
    report.metric("trace.attributed_share", layers.attributed_share(),
                  "ratio");
    report.check("churn.trace_attribution", layers.attributed_share() >= 0.9,
                 "layer self time / op time = " +
                     std::to_string(layers.attributed_share()));
    if (!config.trace_out.empty()) {
      write_spans(config.trace_out, {&log}, config.fingerprint);
    }
  }

  const std::string first =
      checks.first.empty() ? "" : "; first: " + checks.first;
  report.check("churn.is_barrier", checks.not_barrier == 0,
               std::to_string(checks.not_barrier) +
                   " tuned schedule(s) are not barriers" + first);
  report.check("churn.predicted_cost_bits", checks.prediction_mismatch == 0,
               std::to_string(checks.prediction_mismatch) +
                   " compiled prediction(s) differ from predicted_cost()" +
                   first);
}

}  // namespace e2e
