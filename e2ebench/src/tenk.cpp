// tenk: 10240 ranks of tenk_cluster(256) on the tiled profile — the
// only workload on the hierarchical, blocked and tiled path. Each op
// tunes hierarchically, compiles the blocked plan, predicts it, and
// runs one netsim episode with a per-op seed.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "barrier/blocked_schedule.hpp"
#include "barrier/compiled_schedule.hpp"
#include "core/hierarchical.hpp"
#include "netsim/engine.hpp"
#include "profile/generate_tiled.hpp"
#include "profile/tiled_profile.hpp"
#include "topology/machine.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace optibar;

constexpr std::size_t kNodes = 256;
constexpr std::size_t kRanks = 10240;
/// Deterministic metrics are taken over exactly these first ops.
constexpr std::size_t kScoredOps = 20;
constexpr double kJitter = 0.03;

}  // namespace

/// tree_barrier(ranks) as per-stage edge lists, sorted by (src, dst):
/// arrival stage s folds every odd multiple of 2^s into the even one
/// below it; the departure replays the arrival transposed and reversed.
/// Built without the dense P x P stage matrices a Schedule would need.
std::vector<std::vector<std::pair<std::size_t, std::size_t>>> tree_edges(
    std::size_t ranks) {
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> arrival;
  for (std::size_t half = 1; half < ranks; half <<= 1) {
    std::vector<std::pair<std::size_t, std::size_t>> stage;
    for (std::size_t i = half; i < ranks; i += half << 1) {
      stage.emplace_back(i, i - half);
    }
    arrival.push_back(std::move(stage));
  }
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> out = arrival;
  for (auto it = arrival.rbegin(); it != arrival.rend(); ++it) {
    std::vector<std::pair<std::size_t, std::size_t>> stage;
    for (const auto& [src, dst] : *it) {
      stage.emplace_back(dst, src);
    }
    std::sort(stage.begin(), stage.end());
    out.push_back(std::move(stage));
  }
  return out;
}

namespace {

struct TenkOp {
  std::int64_t op_ns = 0;
  std::int64_t plan_ns = 0;
  std::int64_t sim_ns = 0;
  double sim_time = 0.0;  ///< simulated barrier time, seconds
  std::size_t events = 0;
  double host_factor = 1.0;  ///< HostSpeed factor of its slice
  bool failed = false;
};

struct Checks {
  std::size_t dense_fallbacks = 0;
  std::size_t prediction_mismatch = 0;
};

class Tenk {
 public:
  explicit Tenk(std::uint64_t seed) : seed_(seed) {}

  void setup() {
    tiled_ = generate_tiled_profile(tenk_cluster(kNodes), kRanks);
    // One full op warms every workspace to the 10k shape.
    Checks ignored;
    run_op(0, nullptr, ignored);
  }

  /// The tree baseline: netsim of the classic tree barrier on the same
  /// tiled costs, with the run's seed.
  double tree_time() {
    std::vector<std::vector<CompiledEdge>> stages;
    for (const auto& edges : tree_edges(kRanks)) {
      std::vector<CompiledEdge> stage;
      for (const auto& [src, dst] : edges) {
        stage.push_back(
            CompiledEdge{src, dst, tiled_.l(src, dst), tiled_.o(src, dst)});
      }
      stages.push_back(std::move(stage));
    }
    std::vector<double> self(kRanks);
    for (std::size_t i = 0; i < kRanks; ++i) {
      self[i] = tiled_.o(i, i);
    }
    CompiledSchedule tree;
    tree.compile_edges(kRanks, stages, self);
    SimOptions sim;
    sim.jitter = kJitter;
    sim.seed = seed_;
    simulate_compiled_into(tree, tiled_, sim, sim_ws_, sim_);
    return sim_.barrier_time();
  }

  TenkOp run_op(std::uint64_t index, SpanLog* log, Checks& checks) {
    TenkOp out;
    OpTimeline timeline(index);
    try {
      std::optional<HierarchicalTuneResult> tuned;
      timeline.step("core.htune",
                    [&] { tuned.emplace(tune_hierarchical(tiled_)); });
      timeline.step("barrier.compile_blocked", [&] {
        compile_blocked(tuned->blocked, tiled_, compiled_);
      });
      PredictOptions predict;
      predict.awaited_stages = tuned->blocked.awaited_stages();
      double predicted = 0.0;
      timeline.step("barrier.predict", [&] {
        predicted = predicted_time(compiled_, predict, predict_ws_);
      });
      out.plan_ns = now_ns() - timeline.start_ns();
      SimOptions sim;
      sim.jitter = kJitter;
      sim.seed = seed_ * 0x2545f4914f6cdd1dull + index;
      out.sim_ns = timeline.step("netsim.simulate", [&] {
        simulate_compiled_into(compiled_, tiled_, sim, sim_ws_, sim_);
      });
      out.op_ns = timeline.finish(log, "tenk.op");
      out.sim_time = sim_.barrier_time();
      out.events = sim_ws_.queue.scheduled();
      checks.dense_fallbacks += tuned->used_dense_fallback ? 1 : 0;
      checks.prediction_mismatch +=
          std::bit_cast<std::uint64_t>(predicted) ==
                  std::bit_cast<std::uint64_t>(tuned->predicted_cost)
              ? 0
              : 1;
      if (index == 0) {
        signals_ = 0;
        for (std::size_t s = 0; s < tuned->blocked.stage_count(); ++s) {
          tuned->blocked.for_each_edge(
              s, [&](std::size_t, std::size_t) { ++signals_; });
        }
        stages_ = tuned->blocked.stage_count();
      }
    } catch (const Error&) {
      out.failed = true;
      out.op_ns = timeline.finish(nullptr, "tenk.op");
    }
    return out;
  }

  const TiledProfile& tiled() const { return tiled_; }
  std::size_t signals() const { return signals_; }
  std::size_t stages() const { return stages_; }

 private:
  std::uint64_t seed_;
  TiledProfile tiled_;
  CompiledSchedule compiled_;
  PredictWorkspace predict_ws_;
  SimWorkspace sim_ws_;
  SimResult sim_;
  std::size_t signals_ = 0;
  std::size_t stages_ = 0;
};

}  // namespace

void run_tenk(const RunConfig& config, Report& report) {
  Tenk tenk(config.seed);
  report.metric("setup_s", scaled_setup_seconds(kSetupRepetitions,
                                                [&] { tenk.setup(); }),
                "s", kSetupRepetitions);
  const double tree_time = tenk.tree_time();

  Checks checks;
  LoopClock clock;
  SpanLog log(config.trace ? kSpanCapacity : 0);
  std::vector<TenkOp> traced;
  const std::vector<TenkOp> ops = closed_loop<TenkOp>(
      config.seconds, kScoredOps,
      [&](std::uint64_t i, SpanLog* span_log) {
        return tenk.run_op(i, span_log, checks);
      },
      clock, config.trace ? &log : nullptr, &traced);
  for (const TenkOp& op : ops) {
    report.attempt(op.failed);
  }
  std::vector<double> scored_times;
  double events = 0.0;
  for (std::size_t i = 0; i < kScoredOps; ++i) {
    if (!ops[i].failed) {
      scored_times.push_back(ops[i].sim_time);
      events += static_cast<double>(ops[i].events);
    }
  }
  report.note("scored prefix: first " + std::to_string(kScoredOps) + " ops");

  if (!config.trace) {
    // Times and rates at nominal host speed (hostspeed.hpp); the
    // unscaled wall-clock figures follow as wall.* metrics.
    const std::vector<double> plan = scaled_timings(ops, &TenkOp::plan_ns);
    const std::vector<double> sims = scaled_timings(ops, &TenkOp::sim_ns);
    const std::vector<double> op_ns = scaled_timings(ops, &TenkOp::op_ns);
    const std::chrono::nanoseconds wall(
        static_cast<std::int64_t>(clock.scaled_ns));
    report.metric("plan_ms_p50", windowed_percentile(plan, 0.50), kNsToMs,
                  "ms");
    report.metric("plan_ms_p90", windowed_percentile(plan, 0.90), kNsToMs,
                  "ms");
    report.metric("episode_us_p50", windowed_percentile(sims, 0.50),
                  kNsToUs, "us");
    report.metric("episode_us_p99", windowed_percentile(sims, 0.99),
                  kNsToUs, "us");
    report.metric("episodes_per_s", rate(sims.size(), wall), "1/s",
                  sims.size());
    report.metric("service_op_ns_p50", windowed_percentile(op_ns, 0.50),
                  kNsToNs, "ns");
    report.metric("service_op_ns_p99", windowed_percentile(op_ns, 0.99),
                  kNsToNs, "ns");
    report.metric("service_ops_per_s", rate(ops.size(), wall), "1/s",
                  ops.size());
    report.metric("sim_speedup_vs_tree",
                  tree_time / geometric_mean(scored_times), "x",
                  scored_times.size());
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("wall.plan_ms_p50",
                  windowed_percentile(timings(ops, &TenkOp::plan_ns), 0.50),
                  kNsToMs, "ms");
    report.metric("wall.service_ops_per_s",
                  rate(ops.size(), std::chrono::nanoseconds(clock.wall_ns)),
                  "1/s", ops.size());
    report_host_speed(report, clock);
  } else {
    const LayerTimes layers = layer_times({&log});
    const auto p50 = [&](const char* name) {
      return percentile(layers.per_op_self_ns.at(name), 0.50);
    };
    report.metric("core.htune_ms_p50", p50("core.htune"), kNsToMs, "ms");
    report.metric("barrier.compile_blocked_ms_p50",
                  p50("barrier.compile_blocked"), kNsToMs, "ms");
    report.metric("barrier.predict_ms_p50", p50("barrier.predict"), kNsToMs,
                  "ms");
    report.metric("netsim.simulate_ms_p50", p50("netsim.simulate"), kNsToMs,
                  "ms");
    double traced_events = 0.0;
    for (const TenkOp& op : traced) {
      traced_events += static_cast<double>(op.events);
    }
    report.metric("netsim.events_per_s",
                  traced_events /
                      (layers.total_self_ns.at("netsim.simulate") * 1e-9),
                  "1/s");
    report.metric("netsim.events_per_op",
                  events / static_cast<double>(scored_times.size()), "count",
                  scored_times.size());
    report.metric("profile.model_bytes",
                  static_cast<double>(tenk.tiled().memory_bytes()), "bytes");
    report.metric("barrier.signals_per_plan",
                  static_cast<double>(tenk.signals()), "count");
    report.metric("barrier.stages_per_plan",
                  static_cast<double>(tenk.stages()), "count");
    report.metric("trace_overhead_ratio",
                  percentile(timings(traced, &TenkOp::op_ns), 0.50).value /
                      percentile(timings(ops, &TenkOp::op_ns), 0.50).value,
                  "ratio", ops.size());
    report.metric("trace.attributed_share", layers.attributed_share(),
                  "ratio");
    report.check("tenk.trace_attribution", layers.attributed_share() >= 0.9,
                 "layer self time / op time = " +
                     std::to_string(layers.attributed_share()));
    if (!config.trace_out.empty()) {
      write_spans(config.trace_out, {&log}, config.fingerprint);
    }
  }

  report.check("tenk.no_dense_fallback", checks.dense_fallbacks == 0,
               std::to_string(checks.dense_fallbacks) +
                   " op(s) fell back to the dense tuner");
  report.check("tenk.predicted_cost_bits", checks.prediction_mismatch == 0,
               std::to_string(checks.prediction_mismatch) +
                   " compiled prediction(s) differ from predicted_cost");
}

}  // namespace e2e
