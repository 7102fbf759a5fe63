// Percentiles, rates and sampling helpers of the end-to-end benchmark.
//
// Two rules from the benchmark's contract live here so every workload
// applies them the same way:
//   - a percentile is reported only where at least kTailSamples samples
//     lie beyond it; a request for a higher quantile than the sample
//     supports is clamped down, and the result says so (effective
//     quantile plus sample count travel with the value);
//   - a rate is operations divided by steady_clock seconds of the phase
//     that did them, never by one thread's CPU time;
//   - a run's timing is the interquartile mean over consecutive time
//     windows of the windows' statistic. A burst of host interference
//     (the hypervisor taking a vCPU away for milliseconds) then moves
//     one window rather than the whole run's tail; and on a host whose
//     speed switches between levels for seconds at a time, the value
//     moves smoothly with the share of time spent at each level, where
//     a median jumps from one level to the next once that share
//     crosses one half.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2e {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kTailSamples = 10;
/// Time windows a windowed statistic uses at most.
inline constexpr std::size_t kMaxWindows = 16;

/// One reported percentile.
struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  ///< sample count it was taken from
  std::size_t windows = 1;  ///< time windows it is the median over
  double requested = 0.0;   ///< quantile asked for, in (0, 1)
  double effective = 0.0;   ///< quantile reported (<= requested)
  bool clamped() const { return effective < requested; }
};

/// Nearest-rank percentile of `values` (copied; order irrelevant): the
/// k-th smallest value with k = ceil(q * n), moved down until at least
/// kTailSamples values lie beyond it. Throws std::invalid_argument when
/// q is outside (0, 1) or fewer than kTailSamples + 1 values exist.
Percentile percentile(std::vector<double> values, double q);

/// Smallest sample whose q-percentile keeps kTailSamples beyond it.
std::size_t min_samples(double q);

/// Interquartile mean of the windows' percentiles; every window must
/// hold min_samples(q) values. Throws std::invalid_argument otherwise
/// or when there are no windows.
Percentile windowed_percentile(
    const std::vector<std::vector<double>>& windows, double q);

/// The least-disturbed part of a sample taken in order: it is cut
/// into consecutive windows of `window` values (a partial last window
/// is dropped) and the `keep` windows with the lowest 90th percentile
/// are returned, pooled in their original order. Host interference
/// only ever adds delay, so these windows are the closest a run gets to
/// the program's own cost, and a slower program still slows every
/// window. Throws std::invalid_argument when `window` is 0 or fewer
/// than `keep` whole windows exist.
std::vector<double> least_disturbed_sample(const std::vector<double>& ordered,
                                           std::size_t window,
                                           std::size_t keep);

/// Percentile of samples in the order they were taken: they are cut
/// into the most equal consecutive windows (at most kMaxWindows) that
/// each hold min_samples(q), and the result is windowed_percentile() of
/// them. With fewer than two windows' worth it is percentile(). Throws
/// as percentile() does.
Percentile windowed_percentile(const std::vector<double>& ordered, double q);

/// Mean of the middle half of a non-empty sample: the n/4 (rounded
/// down) smallest and largest values are dropped. Throws
/// std::invalid_argument when empty.
double interquartile_mean(std::vector<double> values);

/// Operations per wall-clock second. Throws std::invalid_argument on a
/// non-positive elapsed time.
double rate(std::size_t operations, std::chrono::nanoseconds elapsed);

/// Geometric mean of positive values; throws on an empty sample or a
/// non-positive value.
double geometric_mean(const std::vector<double>& values);

/// splitmix64: the benchmark's only random source, so one seed gives
/// one operation sequence on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform integer in [0, bound); bound must be positive.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform integer in [lo, hi].
  std::size_t between(std::size_t lo, std::size_t hi) {
    return lo + static_cast<std::size_t>(below(hi - lo + 1));
  }

 private:
  std::uint64_t state_;
};

/// Fixed-capacity uniform sample of a stream (Algorithm R), so a timed
/// phase of millions of operations keeps a bounded, unbiased set of
/// per-op times.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed);
  void offer(double value);
  const std::vector<double>& values() const { return values_; }

 private:
  std::size_t capacity_;
  std::size_t seen_ = 0;
  std::vector<double> values_;
  Rng rng_;
};

/// Draw `size` distinct ranks of [0, ranks) in draw order.
std::vector<std::size_t> draw_subset(Rng& rng, std::size_t ranks,
                                     std::size_t size);

}  // namespace e2e
