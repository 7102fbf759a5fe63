#include "opstream.hpp"

#include <algorithm>
#include <stdexcept>

namespace e2e {

namespace {

constexpr std::size_t kPerMillion = 1000000;

}  // namespace

ChurnStream::ChurnStream(std::uint64_t seed, std::size_t world,
                         std::size_t min_size)
    : rng_(seed), world_(world), min_size_(min_size) {
  if (min_size < 2 || min_size > world) {
    throw std::invalid_argument("ChurnStream: bad subset size range");
  }
}

std::vector<std::size_t> ChurnStream::next() {
  for (;;) {
    const std::size_t size = rng_.between(min_size_, world_);
    std::vector<std::size_t> subset = draw_subset(rng_, world_, size);
    if (seen_.insert(subset).second) {
      return subset;
    }
  }
}

ServiceStream::ServiceStream(std::uint64_t seed, std::size_t client,
                             const std::vector<std::size_t>& warm_sizes,
                             ServiceMix mix, std::size_t world,
                             std::size_t cold_min, std::size_t cold_max)
    : rng_(seed * 0x9e3779b97f4a7c15ull + (client + 1) * 0xda942042e4dd58b5ull),
      client_(client),
      warm_sizes_(warm_sizes),
      mix_(mix),
      world_(world),
      cold_min_(cold_min),
      cold_max_(cold_max) {
  if (warm_sizes_.empty() || mix_.window == 0 || mix_.burst == 0 ||
      mix_.flaky_pool == 0 ||
      client >= world || cold_min < 2 || cold_max < cold_min ||
      cold_max > world) {
    throw std::invalid_argument("ServiceStream: bad configuration");
  }
  if (mix_.stall_bursts + mix_.flaky_success + mix_.warm_success +
          mix_.latency + mix_.cold + mix_.execute >
      kPerMillion) {
    throw std::invalid_argument("ServiceStream: mix exceeds one million");
  }
}

ServiceOp ServiceStream::next() {
  const std::size_t flaky =
      warm_sizes_.size() + (issued_ / mix_.window) % mix_.flaky_pool;
  ++issued_;
  ServiceOp op;
  if (burst_left_ > 0) {
    --burst_left_;
    op.kind = ServiceOp::kStall;
    op.subset = flaky;
    return op;
  }
  std::size_t draw = static_cast<std::size_t>(rng_.below(kPerMillion));
  const auto take = [&draw](std::size_t share) {
    if (draw < share) {
      return true;
    }
    draw -= share;
    return false;
  };
  const std::size_t warm = static_cast<std::size_t>(
      rng_.below(warm_sizes_.size()));
  if (take(mix_.stall_bursts)) {
    op.kind = ServiceOp::kStall;
    op.subset = flaky;
    burst_left_ = mix_.burst - 1;
  } else if (take(mix_.flaky_success)) {
    op.kind = ServiceOp::kSuccess;
    op.subset = flaky;
  } else if (take(mix_.warm_success)) {
    op.kind = ServiceOp::kSuccess;
    op.subset = warm;
  } else if (take(mix_.latency)) {
    op.kind = ServiceOp::kLatency;
    op.subset = warm;
    const std::size_t n = warm_sizes_[warm];
    op.src = static_cast<std::size_t>(rng_.below(n));
    op.dst = (op.src + 1 + static_cast<std::size_t>(rng_.below(n - 1))) % n;
    op.factor = 0.95 + 0.1 * static_cast<double>(rng_.below(1000)) / 1000.0;
  } else if (take(mix_.cold)) {
    op.kind = ServiceOp::kCold;
    for (;;) {
      const std::size_t size = rng_.between(cold_min_, cold_max_);
      // Lead with this client's own rank, then distinct others.
      std::vector<std::size_t> rest = draw_subset(rng_, world_ - 1, size - 1);
      std::vector<std::size_t> subset{client_};
      for (const std::size_t r : rest) {
        subset.push_back(r >= client_ ? r + 1 : r);
      }
      if (seen_.insert(subset).second) {
        op.cold = std::move(subset);
        break;
      }
    }
  } else if (take(mix_.execute)) {
    op.kind = ServiceOp::kExecute;
    op.subset = warm;
  } else {
    op.kind = ServiceOp::kLookup;
    op.subset = warm;
  }
  return op;
}

}  // namespace e2e
