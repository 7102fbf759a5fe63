// steady: one long-lived 16-rank world on quad_cluster() running its
// tuned plan back to back, the way an MPI application reuses
// MPI_COMM_WORLD: one Communicator and one RankPool for the whole run,
// episodes driven through ScheduleExecutor post/wait. Tuning happens
// only in set-up, so simmpi and the one-sided transport do all the
// timed work.
#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "barrier/algorithms.hpp"
#include "core/engine_options.hpp"
#include "hostspeed.hpp"
#include "netsim/engine.hpp"
#include "rma/transport.hpp"
#include "simmpi/communicator.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/rank_pool.hpp"
#include "simmpi/runtime.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "workloads.hpp"

namespace e2e {

namespace {

using namespace optibar;

constexpr std::size_t kRanks = 16;
/// Episodes before timing starts (lazy window set-up, pool warm-up).
constexpr std::size_t kWarmEpisodes = 8;
/// The timed work is a count rather than a deadline: the reused
/// Communicator grows with every episode, so peak memory must be
/// compared at an equal episode count, whatever the speed of the build
/// under test. The episodes run in kRounds bursts spread evenly over
/// --seconds, so the samples cover the whole run rather than one moment
/// of a machine whose speed drifts over seconds; inside a burst they
/// run back to back, as a parked rank thread's core that idles between
/// episodes wakes slowly on a shared host.
constexpr std::size_t kRounds = 16;
constexpr std::size_t kEpisodesPerRound = 1000;
/// Untimed episodes that open each round, while the cores of the
/// parked rank threads wake up.
constexpr std::size_t kLeadInEpisodes = 20;
/// World-plan requests after each round of the untraced run, due
/// evenly over the time left until the next round, so they sample the
/// whole run too. Each timed request directly follows an untimed one,
/// so it never starts on a core that was just idle.
constexpr std::size_t kPlansPerRound = 50;
/// The episode figures come from the kQuietWindows windows of
/// kQuietWindow consecutive episodes the host disturbed least: 2000
/// episodes, an eighth of the run, so p99 rests on 20 samples beyond it.
constexpr std::size_t kQuietWindow = 100;
constexpr std::size_t kQuietWindows = 20;
/// Netsim repetitions per plan for sim_speedup_vs_tree.
constexpr std::size_t kSimReps = 64;
constexpr double kJitter = 0.03;

/// Per-rank timestamps of one episode; each rank writes its own slot.
struct RankTimes {
  std::vector<std::int64_t> enter = std::vector<std::int64_t>(kRanks);
  std::vector<std::int64_t> posted = std::vector<std::int64_t>(kRanks);
  std::vector<std::int64_t> exit = std::vector<std::int64_t>(kRanks);
};

struct Episode {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t last_enter = 0;
  std::int64_t last_posted = 0;
  std::int64_t last_exit = 0;
  bool synchronized = true;  ///< min exit >= max entry
};

class Steady {
 public:
  void setup() {
    const MachineSpec machine = quad_cluster();
    profile_ = generate_profile(machine, round_robin_mapping(machine, kRanks));
    plan_.emplace(rma::tune_best_transport(profile_, EngineOptions{}));
    // Tear down the previous repetition's world before building anew.
    pool_.reset();
    comm_.reset();
    executor_ = std::make_unique<simmpi::ScheduleExecutor>(plan_->schedule);
    comm_ = std::make_unique<simmpi::Communicator>(kRanks);
    pool_ = std::make_unique<simmpi::RankPool>(kRanks);
    next_episode_ = 0;
    for (std::size_t i = 0; i < kWarmEpisodes; ++i) {
      run_episode();
    }
  }

  Episode run_episode() {
    episode_ = next_episode_++;
    Episode out;
    out.start = now_ns();
    simmpi::run_ranks(*pool_, *comm_, rank_fn_);
    out.end = now_ns();
    out.last_enter =
        *std::max_element(times_.enter.begin(), times_.enter.end());
    out.last_posted =
        *std::max_element(times_.posted.begin(), times_.posted.end());
    out.last_exit = *std::max_element(times_.exit.begin(), times_.exit.end());
    out.synchronized =
        *std::min_element(times_.exit.begin(), times_.exit.end()) >=
        out.last_enter;
    return out;
  }

  const TopologyProfile& profile() const { return profile_; }
  const rma::TransportTune& plan() const { return *plan_; }
  const simmpi::Communicator& comm() const { return *comm_; }

 private:
  TopologyProfile profile_;
  std::optional<rma::TransportTune> plan_;
  std::unique_ptr<simmpi::ScheduleExecutor> executor_;
  std::unique_ptr<simmpi::Communicator> comm_;
  std::unique_ptr<simmpi::RankPool> pool_;
  RankTimes times_;
  int episode_ = 0;
  int next_episode_ = 0;
  // Built once so the timed loop does not re-wrap a lambda per episode.
  simmpi::RankFunction rank_fn_ = [this](simmpi::RankContext& ctx) {
    const std::size_t r = ctx.rank();
    times_.enter[r] = now_ns();
    simmpi::ScheduleExecutor::EpisodeHandle handle =
        executor_->post(ctx, episode_);
    times_.posted[r] = now_ns();
    executor_->wait(handle);
    times_.exit[r] = now_ns();
  };
};

/// Everything the timed rounds measured.
struct Rounds {
  std::vector<double> untraced_ns;  ///< episode wall times, untraced
  std::vector<double> traced_ns;    ///< episode wall times, traced
  std::vector<double> plan_ns;      ///< world-plan requests (untraced run)
  std::size_t episodes = 0;         ///< all episodes, lead-ins included
  std::size_t unsynchronized = 0;
  std::size_t plans_requested = 0;  ///< timed and untimed
  std::size_t plans_refused = 0;
  std::size_t plans_changed = 0;    ///< re-requested plan != set-up plan
};

/// Record the four simmpi layers of one episode. They partition it:
/// dispatch until the last rank entered, post until the last rank
/// posted, execute until the last rank left wait, join until run_ranks
/// returned — clamped so a rank that finishes before another's post()
/// returned cannot make an interval negative.
void trace_episode(SpanLog& log, std::uint64_t op, const Episode& e) {
  const std::int32_t root = log.add("steady.op", op, e.start, e.end, -1);
  const std::int64_t posted = std::max(e.last_posted, e.last_enter);
  const std::int64_t exited = std::max(e.last_exit, posted);
  log.add("simmpi.dispatch", op, e.start, e.last_enter, root);
  log.add("simmpi.post", op, e.last_enter, posted, root);
  log.add("simmpi.execute", op, posted, exited, root);
  log.add("simmpi.join", op, exited, e.end, root);
}

/// The application asks for its world plan again: tune, pick
/// transports and build the executor, which validates the barrier.
/// Returns the request's wall time; counts refusals and plans that
/// differ from the set-up plan.
std::int64_t request_plan(const Steady& steady, Rounds& out) {
  ++out.plans_requested;
  const std::int64_t start = now_ns();
  try {
    const rma::TransportTune plan =
        rma::tune_best_transport(steady.profile(), EngineOptions{});
    const simmpi::ScheduleExecutor executor(plan.schedule);
    const std::int64_t end = now_ns();
    out.plans_changed += plan.schedule == steady.plan().schedule ? 0 : 1;
    return end - start;
  } catch (const Error&) {
    ++out.plans_refused;
    return now_ns() - start;
  }
}

void sleep_until_ns(std::int64_t due) {
  const std::int64_t now = now_ns();
  if (due > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
  }
}

/// kRounds rounds, due evenly over `seconds`. A round is
/// kLeadInEpisodes untimed episodes, kEpisodesPerRound timed episodes
/// back to back and, untraced, kPlansPerRound timed world-plan
/// requests, scaled by a host_factor_now() taken just before them.
/// With a log, odd rounds are traced, so traced and untraced episodes
/// interleave under the same conditions.
Rounds run_rounds(Steady& steady, double seconds, SpanLog* log) {
  Rounds out;
  const std::int64_t start = now_ns();
  const double slot_ns = seconds * 1e9 / static_cast<double>(kRounds);
  const auto due = [&](std::size_t round) {
    return start +
           static_cast<std::int64_t>(slot_ns * static_cast<double>(round));
  };
  for (std::size_t round = 0; round < kRounds; ++round) {
    sleep_until_ns(due(round));
    for (std::size_t i = 0; i < kLeadInEpisodes; ++i) {
      out.unsynchronized += steady.run_episode().synchronized ? 0 : 1;
      ++out.episodes;
    }
    const bool traced = log != nullptr && round % 2 == 1;
    for (std::size_t i = 0; i < kEpisodesPerRound; ++i) {
      const Episode e = steady.run_episode();
      ++out.episodes;
      out.unsynchronized += e.synchronized ? 0 : 1;
      const auto ns = static_cast<double>(e.end - e.start);
      if (traced) {
        trace_episode(*log, round * kEpisodesPerRound + i, e);
        out.traced_ns.push_back(ns);
      } else {
        out.untraced_ns.push_back(ns);
      }
    }
    if (log != nullptr) {
      continue;
    }
    const double factor = host_factor_now();
    const std::int64_t plans_start = now_ns();
    const double gap = static_cast<double>(due(round + 1) - plans_start) /
                       static_cast<double>(kPlansPerRound);
    for (std::size_t i = 0; i < kPlansPerRound; ++i) {
      sleep_until_ns(plans_start +
                     static_cast<std::int64_t>(gap * static_cast<double>(i)));
      request_plan(steady, out);
      out.plan_ns.push_back(
          static_cast<double>(request_plan(steady, out)) * factor);
    }
  }
  return out;
}

}  // namespace

void run_steady(const RunConfig& config, Report& report) {
  Steady steady;
  report.metric("setup_s", median_setup_seconds(kSetupRepetitions,
                                                [&] { steady.setup(); }),
                "s", kSetupRepetitions);
  const rma::TransportTune& plan = steady.plan();
  report.note(std::string("plan: ") + rma::transport_name(plan.transport) +
              ", " + std::to_string(plan.one_sided_signals) + " of " +
              std::to_string(plan.schedule.total_signals()) +
              " signals one-sided");

  SpanLog log(config.trace ? kSpanCapacity : 0);
  const double rss_before = current_rss_kb();
  const Rounds rounds =
      run_rounds(steady, config.seconds, config.trace ? &log : nullptr);
  const double rss_kb_per_episode = (current_rss_kb() - rss_before) /
                                    static_cast<double>(rounds.episodes);
  const std::size_t timed =
      rounds.untraced_ns.size() + rounds.traced_ns.size();
  for (std::size_t i = 0; i < timed; ++i) {
    report.attempt(false);
  }
  for (std::size_t i = 0; i < rounds.plans_requested; ++i) {
    report.attempt(i < rounds.plans_refused);
  }
  report.note("episodes: " + std::to_string(timed) + " timed in " +
              std::to_string(kRounds) + " rounds, " +
              std::to_string(rounds.episodes + kWarmEpisodes) +
              " in all on one Communicator");

  if (!config.trace) {
    // Plan quality under netsim (deterministic per seed).
    SimOptions sim;
    sim.jitter = kJitter;
    sim.seed = config.seed;
    const double tuned_time =
        simulate_mean_time(plan.schedule, steady.profile(), sim, kSimReps);
    const double tree_time = simulate_mean_time(
        tree_barrier(kRanks), steady.profile(), sim, kSimReps);

    // Episode figures come from the least-disturbed episodes of the
    // run: the kQuietWindows windows of kQuietWindow back-to-back
    // episodes with the lowest p90 (least_disturbed_sample). An
    // episode needs all 16 rank threads, so it stalls whenever the
    // hypervisor takes any of the 4 vCPUs away, and on a busy host
    // that can spoil every 1000-episode round of a run (p99 2-5 ms
    // where a quiet round reads 0.2 ms), while windows of ~11 ms still
    // find the gaps between bursts.
    const std::vector<double> quiet = least_disturbed_sample(
        rounds.untraced_ns, kQuietWindow, kQuietWindows);
    double quiet_ns = 0.0;
    for (const double v : quiet) {
      quiet_ns += v;
    }
    const double episodes_per_s =
        rate(quiet.size(),
             std::chrono::nanoseconds(static_cast<std::int64_t>(quiet_ns)));
    const std::size_t windows = kQuietWindows;
    Percentile episode_p50 = percentile(quiet, 0.50);
    Percentile episode_p99 = percentile(quiet, 0.99);
    episode_p50.windows = episode_p99.windows = windows;
    report.metric("plan_ms_p50", windowed_percentile(rounds.plan_ns, 0.50),
                  kNsToMs, "ms");
    report.metric("plan_ms_p90", windowed_percentile(rounds.plan_ns, 0.90),
                  kNsToMs, "ms");
    report.metric("episode_us_p50", episode_p50, kNsToUs, "us");
    report.metric("episode_us_p99", episode_p99, kNsToUs, "us");
    report.metric("episodes_per_s", episodes_per_s, "1/s", quiet.size(),
                  windows);
    report.metric("service_op_ns_p50", episode_p50, kNsToNs, "ns");
    report.metric("service_op_ns_p99", episode_p99, kNsToNs, "ns");
    report.metric("service_ops_per_s", episodes_per_s, "1/s", quiet.size(),
                  windows);
    report.metric("sim_speedup_vs_tree", tree_time / tuned_time, "x",
                  kSimReps);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    const LayerTimes layers = layer_times({&log});
    for (const char* layer : {"simmpi.dispatch", "simmpi.post",
                              "simmpi.execute", "simmpi.join"}) {
      report.metric(std::string(layer) + "_us_p50",
                    percentile(layers.per_op_self_ns.at(layer), 0.50),
                    kNsToUs, "us");
    }
    report.metric("simmpi.rss_kb_per_episode", rss_kb_per_episode, "KB",
                  rounds.episodes);
    report.metric("rma.puts_per_episode",
                  static_cast<double>(plan.one_sided_signals), "count");
    report.metric("barrier.signals_per_plan",
                  static_cast<double>(plan.schedule.total_signals()), "count");
    report.metric("barrier.stages_per_plan",
                  static_cast<double>(plan.schedule.stage_count()), "count");
    // Compared on the least-disturbed episodes of each side, as the
    // end-to-end figures are, so a disturbed round does not read as
    // tracing overhead.
    const auto quiet_p50 = [](const std::vector<double>& ns) {
      return percentile(
                 least_disturbed_sample(ns, kQuietWindow, kQuietWindows),
                 0.50)
          .value;
    };
    report.metric("trace_overhead_ratio",
                  quiet_p50(rounds.traced_ns) / quiet_p50(rounds.untraced_ns),
                  "ratio", rounds.traced_ns.size());
    report.metric("trace.attributed_share", layers.attributed_share(),
                  "ratio");
    report.check("steady.trace_attribution", layers.attributed_share() >= 0.9,
                 "layer self time / op time = " +
                     std::to_string(layers.attributed_share()));
    if (!config.trace_out.empty()) {
      write_spans(config.trace_out, {&log}, config.fingerprint);
    }
  }

  const std::size_t unsynchronized = rounds.unsynchronized;
  report.check("steady.synchronization", unsynchronized == 0,
               std::to_string(unsynchronized) +
                   " episode(s) had a rank leave before every rank entered");
  report.check("steady.plan_deterministic", rounds.plans_changed == 0,
               std::to_string(rounds.plans_changed) +
                   " re-requested world plan(s) differ from the set-up plan");
  const std::size_t unmatched = steady.comm().unmatched_operations();
  report.check("steady.unmatched_operations", unmatched == 0,
               std::to_string(unmatched) +
                   " unmatched operation(s) at the end");
}

}  // namespace e2e
