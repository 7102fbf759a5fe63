#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

namespace e2e {

Percentile percentile(std::vector<double> values, double q) {
  if (!(q > 0.0 && q < 1.0)) {
    throw std::invalid_argument("percentile: quantile must be in (0, 1)");
  }
  const std::size_t n = values.size();
  if (n < kTailSamples + 1) {
    throw std::invalid_argument(
        "percentile: need at least 11 samples, got " + std::to_string(n));
  }
  // Nearest rank: the smallest value with at least q * n values at or
  // below it, as a zero-based index.
  std::size_t k = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  k = std::max<std::size_t>(k, 1) - 1;
  k = std::min(k, n - 1 - kTailSamples);
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  Percentile out;
  out.value = values[k];
  out.samples = n;
  out.requested = q;
  out.effective =
      std::min(q, static_cast<double>(k + 1) / static_cast<double>(n));
  return out;
}

std::size_t min_samples(double q) {
  if (!(q > 0.0 && q < 1.0)) {
    throw std::invalid_argument("min_samples: quantile must be in (0, 1)");
  }
  std::size_t n = kTailSamples + 1;
  while (n - static_cast<std::size_t>(
                 std::ceil(q * static_cast<double>(n) - 1e-9)) <
         kTailSamples) {
    ++n;
  }
  return n;
}

namespace {

/// Each window's percentile, in `values`; the rest of `out` describes
/// the whole sample.
std::vector<double> per_window(const std::vector<std::vector<double>>& windows,
                               double q, Percentile& out) {
  if (windows.empty()) {
    throw std::invalid_argument("windowed percentile: no windows");
  }
  std::vector<double> values;
  for (const std::vector<double>& window : windows) {
    if (window.size() < min_samples(q)) {
      throw std::invalid_argument(
          "windowed percentile: a window holds only " +
          std::to_string(window.size()) + " samples");
    }
    values.push_back(percentile(window, q).value);
    out.samples += window.size();
  }
  out.windows = windows.size();
  out.requested = q;
  out.effective = q;
  return values;
}

}  // namespace

Percentile windowed_percentile(
    const std::vector<std::vector<double>>& windows, double q) {
  Percentile out;
  out.value = interquartile_mean(per_window(windows, q, out));
  return out;
}

std::vector<double> least_disturbed_sample(const std::vector<double>& ordered,
                                           std::size_t window,
                                           std::size_t keep) {
  const std::size_t count = window == 0 ? 0 : ordered.size() / window;
  if (count < keep || keep == 0) {
    throw std::invalid_argument(
        "least_disturbed_sample: need " + std::to_string(keep) +
        " whole windows, have " + std::to_string(count));
  }
  // (90th percentile, index) of every window; nearest rank, as in
  // percentile(), without its tail-sample rule.
  std::vector<std::pair<double, std::size_t>> ranked;
  for (std::size_t w = 0; w < count; ++w) {
    std::vector<double> values(
        ordered.begin() + static_cast<long>(w * window),
        ordered.begin() + static_cast<long>((w + 1) * window));
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(0.9 * static_cast<double>(window) - 1e-9)));
    const auto nth = values.begin() + static_cast<long>(k - 1);
    std::nth_element(values.begin(), nth, values.end());
    ranked.emplace_back(*nth, w);
  }
  std::stable_sort(
      ranked.begin(), ranked.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<std::size_t> kept;
  for (std::size_t i = 0; i < keep; ++i) {
    kept.push_back(ranked[i].second);
  }
  std::sort(kept.begin(), kept.end());
  std::vector<double> out;
  for (const std::size_t w : kept) {
    out.insert(out.end(), ordered.begin() + static_cast<long>(w * window),
               ordered.begin() + static_cast<long>((w + 1) * window));
  }
  return out;
}

Percentile windowed_percentile(const std::vector<double>& ordered,
                               double q) {
  const std::size_t n = ordered.size();
  const std::size_t count = std::min(kMaxWindows, n / min_samples(q));
  if (count < 2) {
    return percentile(ordered, q);
  }
  std::vector<std::vector<double>> windows;
  for (std::size_t w = 0; w < count; ++w) {
    const auto begin = ordered.begin();
    windows.emplace_back(begin + static_cast<long>(w * n / count),
                         begin + static_cast<long>((w + 1) * n / count));
  }
  return windowed_percentile(windows, q);
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) {
    throw std::invalid_argument("interquartile_mean: empty sample");
  }
  std::sort(values.begin(), values.end());
  const std::size_t drop = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = drop; i < values.size() - drop; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(values.size() - 2 * drop);
}

double rate(std::size_t operations, std::chrono::nanoseconds elapsed) {
  if (elapsed.count() <= 0) {
    throw std::invalid_argument("rate: elapsed time must be positive");
  }
  return static_cast<double>(operations) /
         std::chrono::duration<double>(elapsed).count();
}

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) {
    throw std::invalid_argument("geometric_mean: empty sample");
  }
  double log_sum = 0.0;
  for (const double v : values) {
    if (!(v > 0.0)) {
      throw std::invalid_argument("geometric_mean: non-positive value");
    }
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

std::uint64_t Rng::next() {
  state_ += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_(seed) {
  if (capacity == 0) {
    throw std::invalid_argument("Reservoir: capacity must be positive");
  }
  values_.reserve(capacity);
}

void Reservoir::offer(double value) {
  ++seen_;
  if (values_.size() < capacity_) {
    values_.push_back(value);
    return;
  }
  const std::uint64_t slot = rng_.below(seen_);
  if (slot < capacity_) {
    values_[slot] = value;
  }
}

std::vector<std::size_t> draw_subset(Rng& rng, std::size_t ranks,
                                     std::size_t size) {
  if (size > ranks) {
    throw std::invalid_argument("draw_subset: subset larger than the world");
  }
  // Partial Fisher-Yates over the identity permutation.
  std::vector<std::size_t> pool(ranks);
  for (std::size_t i = 0; i < ranks; ++i) {
    pool[i] = i;
  }
  for (std::size_t i = 0; i < size; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(rng.below(ranks - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(size);
  return pool;
}

}  // namespace e2e
