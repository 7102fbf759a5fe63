// Host-speed calibration that steadies the timings of a shared host.
//
// A shared host runs the same deterministic op at speeds up to 1.5x
// apart: other tenants' load takes memory bandwidth, cache and core
// time in levels that hold for a few hundred milliseconds and drift
// over minutes, so two 30-s runs minutes apart can differ by 20 % in
// every statistic of the same code. Timings of work done by one thread
// (churn's and tenk's ops and set-ups, steady's world-plan requests)
// are therefore scaled to a host on which a fixed reference kernel
// takes its nominal time, the kernel being timed next to the work: a
// random read-modify-write walk over a 16 MiB table, the mix of cache
// misses and integer work the tuners and netsim do. The kernel is the
// benchmark's own code, so a change to optibar moves op times and
// never the factor. The unscaled figures are kept in each run's full
// result as wall.* metrics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "report.hpp"

namespace e2e {

/// Nominal median time of kCalibrationCalls kernel calls: about the
/// typical reading on the host the benchmark's bounds were set on,
/// where runs read 1.4-2.3 ms (see README, "Steadiness").
inline constexpr double kReferenceNominalNs = 2.0e6;
/// Ops share one calibration for this long.
inline constexpr std::int64_t kSliceNs = 200'000'000;
/// Kernel calls per calibration; their median is used.
inline constexpr int kCalibrationCalls = 3;
/// A slice's factor uses the calibrations of this many slices on
/// either side of it too.
inline constexpr std::size_t kSmoothSlices = 2;

/// Run the reference kernel once; returns its wall time in ns.
std::int64_t reference_kernel_ns();

/// Median wall time of kCalibrationCalls kernel calls, in ns.
double calibration_ns();

/// kReferenceNominalNs / calibration_ns(): the factor that scales work
/// timed right after it to nominal host speed.
double host_factor_now();

/// kReferenceNominalNs over the median of each calibration and the
/// kSmoothSlices calibrations on either side of it (fewer at the ends).
std::vector<double> smoothed_factors(const std::vector<double>& kernel_ns);

/// Calibrates once per slice of a closed loop; the factors are worked
/// out when the loop is over.
class HostSpeed {
 public:
  /// Call before each op with now_ns(): calibrates when a slice begins
  /// and returns the slice the op belongs to.
  std::size_t before_op(std::int64_t now);

  /// Each slice's factor, smoothed_factors() of the calibrations, so a
  /// calibration the host happened to disturb does not mis-scale its
  /// slice.
  std::vector<double> factors() const {
    return smoothed_factors(kernel_ns_);
  }

  /// Wall time spent calibrating, to leave out of the loop's wall time.
  std::int64_t spent_ns() const { return spent_ns_; }

 private:
  std::vector<double> kernel_ns_;  ///< one calibration per slice
  std::int64_t slice_start_ = 0;
  std::int64_t spent_ns_ = 0;
};

/// Wall time of a closed loop, raw and at nominal host speed.
struct LoopClock {
  std::int64_t wall_ns = 0;         ///< whole loop, calibrations included
  std::int64_t calibration_ns = 0;  ///< spent in HostSpeed calibrations
  double scaled_ns = 0.0;  ///< each iteration's wall time x its factor
  std::vector<double> factors;  ///< one per slice
};

/// Record the loop's host-speed figures in `report` as metrics outside
/// BENCHMARK.json: the median factor, its range, and the share of the
/// loop spent calibrating.
void report_host_speed(Report& report, const LoopClock& clock);

/// median_setup_seconds() at nominal host speed: each repetition is
/// scaled by host_factor_now() taken just before it.
double scaled_setup_seconds(std::size_t repetitions,
                            const std::function<void()>& setup);

}  // namespace e2e
