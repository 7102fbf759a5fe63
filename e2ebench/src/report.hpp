// What one benchmark run reports, and the process-level probes every
// workload shares (resident memory, repeated set-up).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "stats.hpp"

namespace e2e {

/// Command-line knobs of one run.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< CSV path for the traced run's spans
  std::vector<std::string> fingerprint;  ///< "key=value" lines
};

struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< 0 when the value is not a sample statistic
  std::size_t windows = 1;  ///< time windows it is the median over
  double quantile = 0.0;    ///< effective quantile of a percentile, else 0
};

struct CheckResult {
  std::string name;
  bool ok = true;
  std::string detail;
};

/// Metrics, correctness checks and op counts of one run.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit,
              std::size_t samples = 0, std::size_t windows = 1);
  /// A percentile scaled from nanoseconds into `unit` by `scale`.
  void metric(const std::string& name, const Percentile& p, double scale,
              const std::string& unit);
  /// Record a correctness check; a failed one makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void note(const std::string& line) { notes_.push_back(line); }

  /// One attempted operation of the workload's closed loop.
  void attempt(bool failed) {
    ++attempted_;
    failed_ += failed ? 1 : 0;
  }
  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return failed_; }

  bool correct() const;
  const std::vector<MetricValue>& metrics() const { return metrics_; }

  /// Human-readable lines: notes, every metric with unit and sample
  /// count, and every check.
  void print(std::ostream& os) const;
  /// Machine-readable form consumed by run.py.
  void write_json(std::ostream& os) const;

 private:
  std::vector<MetricValue> metrics_;
  std::vector<CheckResult> checks_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Peak resident set of this process so far, in MiB (getrusage).
double peak_rss_mb();
/// Current resident set, in KiB (/proc/self/statm).
double current_rss_kb();

/// Run `setup` `repetitions` times and return the median wall time in
/// seconds. The state the last repetition builds is what the workload
/// then measures.
double median_setup_seconds(std::size_t repetitions,
                            const std::function<void()>& setup);

/// Nanoseconds -> `unit` scale factors for Report::metric.
inline constexpr double kNsToUs = 1e-3;
inline constexpr double kNsToMs = 1e-6;
inline constexpr double kNsToNs = 1.0;

}  // namespace e2e
