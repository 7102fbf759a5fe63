#include "hostspeed.hpp"

#include <algorithm>
#include <array>
#include <cstddef>

#include "trace.hpp"

namespace e2e {

namespace {

constexpr std::size_t kTableWords = std::size_t{1} << 21;  // 16 MiB
constexpr int kSteps = 200000;
/// Keeps the kernel's result alive, so the compiler cannot drop it.
volatile std::uint64_t kernel_sink = 0;

}  // namespace

std::int64_t reference_kernel_ns() {
  static std::vector<std::uint64_t> table(kTableWords, 1);
  const std::int64_t start = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += table[x & (kTableWords - 1)] ^ (acc >> 3);
    table[(x >> 21) & (kTableWords - 1)] = acc;
  }
  kernel_sink = acc;
  return now_ns() - start;
}

double calibration_ns() {
  std::array<std::int64_t, kCalibrationCalls> times{};
  for (std::int64_t& t : times) {
    t = reference_kernel_ns();
  }
  std::sort(times.begin(), times.end());
  const std::int64_t median = times[times.size() / 2];
  return static_cast<double>(std::max<std::int64_t>(1, median));
}

double host_factor_now() { return kReferenceNominalNs / calibration_ns(); }

std::size_t HostSpeed::before_op(std::int64_t now) {
  if (!kernel_ns_.empty() && now - slice_start_ < kSliceNs) {
    return kernel_ns_.size() - 1;
  }
  kernel_ns_.push_back(calibration_ns());
  slice_start_ = now_ns();
  spent_ns_ += slice_start_ - now;
  return kernel_ns_.size() - 1;
}

std::vector<double> smoothed_factors(const std::vector<double>& kernel_ns) {
  std::vector<double> out;
  const std::size_t n = kernel_ns.size();
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> near(
        kernel_ns.begin() + static_cast<long>(i - std::min(i, kSmoothSlices)),
        kernel_ns.begin() +
            static_cast<long>(std::min(n, i + kSmoothSlices + 1)));
    std::sort(near.begin(), near.end());
    out.push_back(kReferenceNominalNs / near[near.size() / 2]);
  }
  return out;
}

double scaled_setup_seconds(std::size_t repetitions,
                            const std::function<void()>& setup) {
  std::vector<double> seconds;
  for (std::size_t i = 0; i < repetitions; ++i) {
    const double factor = host_factor_now();
    const std::int64_t start = now_ns();
    setup();
    seconds.push_back(static_cast<double>(now_ns() - start) * 1e-9 * factor);
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[seconds.size() / 2];
}

void report_host_speed(Report& report, const LoopClock& clock) {
  if (clock.factors.empty()) {
    return;
  }
  std::vector<double> factors = clock.factors;
  std::sort(factors.begin(), factors.end());
  report.metric("host.speed_factor_p50", factors[factors.size() / 2],
                "ratio", factors.size());
  report.metric("host.speed_factor_min", factors.front(), "ratio");
  report.metric("host.speed_factor_max", factors.back(), "ratio");
  report.metric("host.calibration_share",
                static_cast<double>(clock.calibration_ns) /
                    static_cast<double>(clock.wall_ns),
                "ratio");
}

}  // namespace e2e
