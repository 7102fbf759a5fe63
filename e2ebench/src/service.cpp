// service: three client threads against one self-healing
// BarrierLibrary on a 32-rank quad_cluster() world, with the library's
// repair worker as the fourth thread. Mostly warm plan lookups, beside
// measured-latency and success reports, a small share of never-seen
// subsets (cache misses that tune and evict), stall bursts on each
// client's current flaky subset, so quarantine -> repair -> probation
// keeps cycling through the whole timed phase, and a few lookups after
// which the client runs the served plan for one netsim episode.
#include <algorithm>
#include <latch>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "barrier/algorithms.hpp"
#include "core/library.hpp"
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

constexpr std::size_t kWorld = 32;
constexpr std::size_t kClients = 3;
constexpr std::size_t kWarm = 192;  ///< shared warm subsets
constexpr std::size_t kWarmMin = 8;
constexpr std::size_t kWarmMax = 16;
constexpr std::size_t kFlakyMin = 8;
constexpr std::size_t kFlakyMax = 12;
/// Cold subsets are the smallest class, so the cheapest-first eviction
/// of the bounded cache always finds one of them to evict and never a
/// warm or flaky plan a client is still using.
constexpr std::size_t kColdMin = 4;
constexpr std::size_t kColdMax = 5;
constexpr std::size_t kColdSlots = 16;  ///< cache room for cold plans
/// Per-op times kept per client and time window (uniform sample of
/// the window's ops).
constexpr std::size_t kSampleCapacity = std::size_t{1} << 16;
/// Netsim repetitions per warm plan in the post-phase quality audit.
constexpr std::size_t kAuditReps = 4;
constexpr double kJitter = 0.03;

const char* layer_of(ServiceOp::Kind kind) {
  switch (kind) {
    case ServiceOp::kLookup:
    case ServiceOp::kExecute:
      return "core.lookup";
    case ServiceOp::kLatency:
      return "core.latency_report";
    case ServiceOp::kSuccess:
      return "core.success_report";
    case ServiceOp::kStall:
      return "core.stall_report";
    case ServiceOp::kCold:
      return "core.miss";
  }
  return "core.unknown";
}

/// Distinct ordered subsets with sizes in [lo, hi], none in `taken`.
std::vector<std::vector<std::size_t>> draw_distinct(
    Rng& rng, std::size_t count, std::size_t lo, std::size_t hi,
    std::set<std::vector<std::size_t>>& taken) {
  std::vector<std::vector<std::size_t>> out;
  while (out.size() < count) {
    std::vector<std::size_t> subset =
        draw_subset(rng, kWorld, rng.between(lo, hi));
    if (taken.insert(subset).second) {
      out.push_back(std::move(subset));
    }
  }
  return out;
}

/// A timed sample and when it was taken.
struct Stamped {
  std::int64_t at_ns = 0;
  double ns = 0.0;
};

/// What one client measured. The timed phase is cut into kMaxWindows
/// equal time windows; a phase with an op cap instead of a deadline
/// has one.
struct ClientResult {
  explicit ClientResult(std::uint64_t seed)
      : traced_sample(kSampleCapacity, seed * (kMaxWindows + 1)) {
    for (std::size_t w = 0; w < kMaxWindows; ++w) {
      sample.emplace_back(kSampleCapacity, seed * (kMaxWindows + 1) + w + 1);
    }
  }
  std::vector<Reservoir> sample;  ///< per window: untraced per-op time
  Reservoir traced_sample;        ///< traced per-op time
  std::vector<std::size_t> window_ops = std::vector<std::size_t>(kMaxWindows);
  std::vector<Stamped> cold_ns;     ///< every cache-miss op
  std::vector<Stamped> episode_ns;  ///< every netsim episode a client ran
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::size_t wrong_ranks = 0;    ///< warm lookup served another subset
};

/// When a client stops: at a deadline, or after a fixed op count.
struct Limit {
  std::int64_t start_ns = 0;     ///< the phase's common start
  std::int64_t deadline_ns = 0;  ///< 0 = no deadline
  std::size_t max_ops = 0;       ///< 0 = no op cap
};

class Service {
 public:
  explicit Service(std::uint64_t seed) : seed_(seed) {
    Rng rng(seed);
    std::set<std::vector<std::size_t>> taken;
    warm_ = draw_distinct(rng, kWarm, kWarmMin, kWarmMax, taken);
    for (std::size_t c = 0; c < kClients; ++c) {
      std::vector<std::vector<std::size_t>> table = warm_;
      const auto flaky =
          draw_distinct(rng, mix_.flaky_pool, kFlakyMin, kFlakyMax, taken);
      table.insert(table.end(), flaky.begin(), flaky.end());
      tables_.push_back(std::move(table));
    }
    for (const auto& subset : warm_) {
      warm_sizes_.push_back(subset.size());
    }
  }

  void setup() {
    library_.reset();
    const MachineSpec machine = quad_cluster();
    TopologyProfile profile =
        generate_profile(machine, round_robin_mapping(machine, kWorld));
    EngineOptions options;
    options.service.auto_repair = true;
    options.service.max_cache_entries =
        kWarm + kClients * mix_.flaky_pool + kColdSlots;
    library_ = std::make_unique<BarrierLibrary>(std::move(profile), options);
    std::vector<std::vector<std::size_t>> prewarm = warm_;
    for (const auto& table : tables_) {
      prewarm.insert(prewarm.end(), table.begin() + kWarm, table.end());
    }
    library_->tune_all(prewarm);
    // Exact per-pair truth of the warm subsets, so latency reports
    // jitter +-5% around it instead of tripping the drift gate.
    truth_.clear();
    for (const auto& subset : warm_) {
      truth_.push_back(library_->profile().restrict_to(subset));
    }
  }

  /// Run all clients concurrently from a common start.
  void run(double seconds, std::size_t max_ops,
           std::vector<ClientResult>& results,
           std::vector<std::unique_ptr<SpanLog>>& logs) {
    results.clear();
    for (std::size_t c = 0; c < kClients; ++c) {
      results.emplace_back(seed_ + c);
    }
    std::latch ready(static_cast<std::ptrdiff_t>(kClients + 1));
    std::int64_t start = 0;
    std::latch started(1);
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ready.arrive_and_wait();
        started.wait();
        Limit limit;
        limit.start_ns = start;
        limit.max_ops = max_ops;
        limit.deadline_ns =
            seconds > 0.0 ? start + static_cast<std::int64_t>(seconds * 1e9)
                          : 0;
        client(c, limit, logs.empty() ? nullptr : logs[c].get(), results[c]);
      });
    }
    ready.arrive_and_wait();
    start = now_ns();
    started.count_down();
    for (std::thread& t : threads) {
      t.join();
    }
  }

  BarrierLibrary& library() { return *library_; }
  const std::vector<std::vector<std::size_t>>& warm() const { return warm_; }

 private:
  void client(std::size_t c, Limit limit, SpanLog* log, ClientResult& out) {
    ServiceStream stream(seed_, c, warm_sizes_, mix_, kWorld, kColdMin,
                         kColdMax);
    const std::vector<std::vector<std::size_t>>& table = tables_[c];
    SimWorkspace workspace;
    SimResult result;
    std::int64_t end = now_ns();
    const double window_ns =
        limit.deadline_ns == 0
            ? 0.0
            : static_cast<double>(limit.deadline_ns - limit.start_ns) /
                  static_cast<double>(kMaxWindows);
    while ((limit.max_ops == 0 || out.ops < limit.max_ops) &&
           (limit.deadline_ns == 0 || end < limit.deadline_ns)) {
      const ServiceOp op = stream.next();
      const std::vector<std::size_t>& subset =
          op.kind == ServiceOp::kCold ? op.cold : table[op.subset];
      const LibraryEntry* entry = nullptr;
      bool failed = false;
      const std::int64_t start = now_ns();
      try {
        switch (op.kind) {
          case ServiceOp::kLookup:
          case ServiceOp::kExecute:
            entry = &library_->subset_plan(subset);
            break;
          case ServiceOp::kCold:
            // The entry is not read: under the bounded cache another
            // client's miss may evict and free it at once, which the
            // library's contract allows.
            library_->subset_plan(subset);
            break;
          case ServiceOp::kLatency:
            library_->report_measured_latency(
                subset, op.src, op.dst,
                truth_[op.subset].l(op.src, op.dst) * op.factor);
            break;
          case ServiceOp::kSuccess:
            library_->report_execution_success(subset);
            break;
          case ServiceOp::kStall:
            library_->report_execution_failure(subset, "flaky link stall");
            break;
        }
      } catch (const Error&) {
        failed = true;  // refused by the library
      }
      end = now_ns();
      const auto ns = static_cast<double>(end - start);
      const std::size_t window =
          window_ns > 0.0
              ? std::min(kMaxWindows - 1,
                         static_cast<std::size_t>(
                             static_cast<double>(start - limit.start_ns) /
                             window_ns))
              : 0;
      // A traced run records every other op, so traced and untraced
      // ops interleave under the same conditions.
      SpanLog* const op_log = out.ops % 2 == 0 ? log : nullptr;
      (op_log != nullptr ? out.traced_sample : out.sample[window]).offer(ns);
      ++out.window_ops[window];
      if (op.kind == ServiceOp::kCold) {
        out.cold_ns.push_back(Stamped{start, ns});
      }
      out.failed += failed ? 1 : 0;
      if (entry != nullptr && entry->global_ranks != subset) {
        ++out.wrong_ranks;
      }
      const std::uint64_t id = (std::uint64_t{c} << 40) + out.ops;
      if (op_log != nullptr) {
        op_log->add(layer_of(op.kind), id, start, end, -1);
      }
      if (op.kind == ServiceOp::kExecute && entry != nullptr) {
        // Client-side work, outside the op's time: run the served plan.
        SimOptions sim;
        sim.jitter = kJitter;
        sim.seed = id;
        const std::int64_t sim_start = now_ns();
        simulate_into(entry->stored.schedule, truth_[op.subset], sim,
                      workspace, result);
        end = now_ns();
        out.episode_ns.push_back(
            Stamped{sim_start, static_cast<double>(end - sim_start)});
        if (op_log != nullptr) {
          op_log->add("netsim.simulate", id, sim_start, end, -1);
        }
      }
      ++out.ops;
    }
  }

  std::uint64_t seed_;
  ServiceMix mix_;
  std::vector<std::vector<std::size_t>> warm_;
  std::vector<std::size_t> warm_sizes_;
  /// Per client: the warm subsets, then its flaky pool.
  std::vector<std::vector<std::vector<std::size_t>>> tables_;
  std::vector<TopologyProfile> truth_;
  std::unique_ptr<BarrierLibrary> library_;
};

struct Phase {
  std::vector<ClientResult> results;
  ServiceStats stats;
  std::size_t ops = 0;
  std::size_t failed = 0;
  std::size_t wrong_ranks = 0;
};

Phase run_phase(Service& service, double seconds, std::size_t max_ops,
                std::vector<std::unique_ptr<SpanLog>>& logs) {
  Phase phase;
  service.run(seconds, max_ops, phase.results, logs);
  service.library().wait_for_repairs();
  phase.stats = service.library().stats();
  for (const ClientResult& r : phase.results) {
    phase.ops += r.ops;
    phase.failed += r.failed;
    phase.wrong_ranks += r.wrong_ranks;
  }
  return phase;
}

void check_phase(const Phase& phase, const char* label, Report& report) {
  const ServiceStats& s = phase.stats;
  report.note(std::string(label) + ": " + std::to_string(phase.ops) +
              " ops; quarantines " + std::to_string(s.quarantines) +
              ", repairs started " + std::to_string(s.repairs_started) +
              " (promoted " + std::to_string(s.repairs_promoted) +
              ", failed " + std::to_string(s.repairs_failed) +
              "), degradations " + std::to_string(s.permanent_degradations) +
              ", tunes " + std::to_string(s.tunes) + ", evictions " +
              std::to_string(s.evictions));
  for (std::size_t i = 0; i < phase.ops; ++i) {
    report.attempt(i < phase.failed);
  }
  report.check("service.served_ranks", phase.wrong_ranks == 0,
               std::to_string(phase.wrong_ranks) +
                   " warm lookup(s) served an entry for another subset");
  report.check("service.repair_accounting",
               s.repairs_started == s.repairs_promoted + s.repairs_failed,
               "started " + std::to_string(s.repairs_started) +
                   ", promoted + failed " +
                   std::to_string(s.repairs_promoted + s.repairs_failed));
  report.check("service.repair_loop",
               s.quarantines > 0 && s.repairs_promoted > 0,
               "quarantines " + std::to_string(s.quarantines) +
                   ", repairs promoted " + std::to_string(s.repairs_promoted) +
                   " (both must be non-zero)");
}

/// Plan quality: netsim every warm plan the service serves against
/// the tree barrier on the same subset (deterministic per seed);
/// returns the geometric-mean speedup over the warm subsets.
double audit_speedup(Service& service, std::uint64_t seed) {
  std::vector<double> speedups;
  for (const auto& subset : service.warm()) {
    const LibraryEntry& entry = service.library().subset_plan(subset);
    const TopologyProfile local =
        service.library().profile().restrict_to(subset);
    SimOptions sim;
    sim.jitter = kJitter;
    sim.seed = seed;
    speedups.push_back(
        simulate_mean_time(tree_barrier(subset.size()), local, sim,
                           kAuditReps) /
        simulate_mean_time(entry.stored.schedule, local, sim, kAuditReps));
  }
  return geometric_mean(speedups);
}

}  // namespace

void run_service(const RunConfig& config, Report& report) {
  Service service(config.seed);
  report.metric("setup_s", median_setup_seconds(kSetupRepetitions,
                                                [&] { service.setup(); }),
                "s", kSetupRepetitions);
  std::vector<std::unique_ptr<SpanLog>> no_logs;

  if (!config.trace) {
    const Phase phase = run_phase(service, config.seconds, 0, no_logs);
    check_phase(phase, "timed phase", report);
    const double speedup = audit_speedup(service, config.seed);

    // Per-op times and op rates per time window, all clients merged.
    std::vector<std::vector<double>> windows(kMaxWindows);
    std::vector<double> rates;
    const std::chrono::nanoseconds window_ns(static_cast<std::int64_t>(
        config.seconds * 1e9 / static_cast<double>(kMaxWindows)));
    std::vector<Stamped> cold;
    std::vector<Stamped> episodes;
    double episode_busy_ns = 0.0;
    for (std::size_t w = 0; w < kMaxWindows; ++w) {
      std::size_t ops = 0;
      for (const ClientResult& r : phase.results) {
        windows[w].insert(windows[w].end(), r.sample[w].values().begin(),
                          r.sample[w].values().end());
        ops += r.window_ops[w];
      }
      rates.push_back(rate(ops, window_ns));
    }
    for (const ClientResult& r : phase.results) {
      cold.insert(cold.end(), r.cold_ns.begin(), r.cold_ns.end());
      episodes.insert(episodes.end(), r.episode_ns.begin(),
                      r.episode_ns.end());
      for (const Stamped& e : r.episode_ns) {
        episode_busy_ns += e.ns;
      }
    }
    const auto in_time_order = [](std::vector<Stamped> stamped) {
      std::sort(stamped.begin(), stamped.end(),
                [](const Stamped& a, const Stamped& b) {
                  return a.at_ns < b.at_ns;
                });
      std::vector<double> out;
      for (const Stamped& s : stamped) {
        out.push_back(s.ns);
      }
      return out;
    };
    const std::vector<double> cold_ns = in_time_order(cold);
    const std::vector<double> episode_ns = in_time_order(episodes);
    report.metric("plan_ms_p50", windowed_percentile(cold_ns, 0.50), kNsToMs,
                  "ms");
    report.metric("plan_ms_p90", windowed_percentile(cold_ns, 0.90), kNsToMs,
                  "ms");
    report.metric("episode_us_p50", windowed_percentile(episode_ns, 0.50),
                  kNsToUs, "us");
    report.metric("episode_us_p99", windowed_percentile(episode_ns, 0.99),
                  kNsToUs, "us");
    report.metric("episodes_per_s",
                  rate(episode_ns.size(),
                       std::chrono::nanoseconds(
                           static_cast<std::int64_t>(episode_busy_ns))),
                  "1/s", episode_ns.size());
    report.metric("service_op_ns_p50", windowed_percentile(windows, 0.50),
                  kNsToNs, "ns");
    report.metric("service_op_ns_p99", windowed_percentile(windows, 0.99),
                  kNsToNs, "ns");
    report.metric("service_ops_per_s", interquartile_mean(rates), "1/s",
                  phase.ops, kMaxWindows);
    report.metric("sim_speedup_vs_tree", speedup, "x", kWarm);
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // Traced run: a fixed op count per client, sized so the span logs
  // hold the traced half.
  const std::size_t ops = kSpanCapacity;
  std::vector<std::unique_ptr<SpanLog>> logs;
  std::vector<const SpanLog*> views;
  for (std::size_t c = 0; c < kClients; ++c) {
    logs.push_back(std::make_unique<SpanLog>(ops));
    views.push_back(logs.back().get());
  }
  const Phase traced = run_phase(service, 0.0, ops, logs);
  check_phase(traced, "traced phase", report);

  const LayerTimes layers = layer_times(views);
  const auto self = [&](const char* name) {
    return layers.per_op_self_ns.at(name);
  };
  report.metric("core.lookup_ns_p50", percentile(self("core.lookup"), 0.50),
                kNsToNs, "ns");
  report.metric("core.lookup_ns_p99", percentile(self("core.lookup"), 0.99),
                kNsToNs, "ns");
  report.metric("core.latency_report_ns_p50",
                percentile(self("core.latency_report"), 0.50), kNsToNs, "ns");
  report.metric("core.latency_report_ns_p99",
                percentile(self("core.latency_report"), 0.99), kNsToNs, "ns");
  report.metric("core.stall_report_us_p50",
                percentile(self("core.stall_report"), 0.50), kNsToUs, "us");
  report.metric("core.miss_ms_p50", percentile(self("core.miss"), 0.50),
                kNsToMs, "ms");
  report.metric("netsim.simulate_us_p50",
                percentile(self("netsim.simulate"), 0.50), kNsToUs, "us");
  const ServiceStats& s = traced.stats;
  report.metric("core.quarantines", static_cast<double>(s.quarantines),
                "count");
  report.metric("core.repairs_started", static_cast<double>(s.repairs_started),
                "count");
  report.metric("core.repairs_promoted",
                static_cast<double>(s.repairs_promoted), "count");
  report.metric("core.repair_promote_ratio",
                s.repairs_started > 0
                    ? static_cast<double>(s.repairs_promoted) /
                          static_cast<double>(s.repairs_started)
                    : 0.0,
                "ratio");
  report.metric("core.evictions", static_cast<double>(s.evictions), "count");
  std::vector<double> traced_ns;
  std::vector<double> untraced_ns;
  for (const ClientResult& r : traced.results) {
    traced_ns.insert(traced_ns.end(), r.traced_sample.values().begin(),
                     r.traced_sample.values().end());
    untraced_ns.insert(untraced_ns.end(), r.sample[0].values().begin(),
                       r.sample[0].values().end());
  }
  report.metric("trace_overhead_ratio",
                percentile(traced_ns, 0.50).value /
                    percentile(untraced_ns, 0.50).value,
                "ratio", traced.ops);
  report.metric("trace.attributed_share", layers.attributed_share(), "ratio");
  report.check("service.trace_attribution", layers.attributed_share() >= 0.9,
               "layer self time / op time = " +
                   std::to_string(layers.attributed_share()));
  if (!config.trace_out.empty()) {
    write_spans(config.trace_out, views, config.fingerprint);
  }
}

}  // namespace e2e
