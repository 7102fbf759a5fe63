// Seeded operation generators. The workloads draw every input from
// these, so one seed yields one operation sequence (pinned by the
// benchmark's tests) and the program under test sees only the
// generated inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "stats.hpp"

namespace e2e {

/// Never-seen ordered rank subsets of a world, sizes uniform in
/// [min_size, world] (churn's communicator stream).
class ChurnStream {
 public:
  ChurnStream(std::uint64_t seed, std::size_t world, std::size_t min_size);
  std::vector<std::size_t> next();

 private:
  Rng rng_;
  std::size_t world_;
  std::size_t min_size_;
  std::set<std::vector<std::size_t>> seen_;
};

/// One plan-service call.
struct ServiceOp {
  /// kExecute is a warm lookup after which the client runs the served
  /// plan for one netsim episode, as an application would run it.
  enum Kind { kLookup, kLatency, kSuccess, kStall, kCold, kExecute };
  Kind kind = kLookup;
  /// All kinds but kCold: index into the client's subset table (warm
  /// subsets first, then the client's flaky subsets).
  std::size_t subset = 0;
  std::size_t src = 0;  ///< kLatency: local source rank
  std::size_t dst = 0;  ///< kLatency: local destination rank
  double factor = 1.0;  ///< kLatency: measured / true latency
  std::vector<std::size_t> cold;  ///< kCold: the never-seen subset
};

/// The service mix of one client, in operations per million; the rest
/// are warm lookups.
struct ServiceMix {
  std::size_t stall_bursts = 20;     ///< a burst = `burst` stall reports
  std::size_t burst = 3;             ///< = the library's quarantine threshold
  std::size_t flaky_success = 4000;  ///< successes on the current flaky plan
  std::size_t warm_success = 5800;
  std::size_t latency = 140000;
  std::size_t cold = 200;            ///< never-seen subsets (cache misses)
  std::size_t execute = 150;         ///< lookups followed by one episode
  /// Ops per flaky subset. A plan survives only a few repairs, so the
  /// flaky role moves to the next subset of the client's pool each
  /// window, wrapping after `flaky_pool` windows.
  std::size_t window = 200000;
  std::size_t flaky_pool = 128;
};

/// One client's deterministic op sequence. Subset table layout:
/// [0, warm) are the shared warm subsets; warm + (w mod flaky_pool) is
/// the client's flaky subset of window w. Cold subsets are drawn
/// never-seen from `world` ranks with sizes in [cold_min, cold_max],
/// each led by rank `client` so no two clients ever draw the same one.
class ServiceStream {
 public:
  ServiceStream(std::uint64_t seed, std::size_t client,
                const std::vector<std::size_t>& warm_sizes, ServiceMix mix,
                std::size_t world, std::size_t cold_min,
                std::size_t cold_max);
  ServiceOp next();

 private:
  Rng rng_;
  std::size_t client_;
  std::vector<std::size_t> warm_sizes_;
  ServiceMix mix_;
  std::size_t world_;
  std::size_t cold_min_;
  std::size_t cold_max_;
  std::size_t issued_ = 0;
  std::size_t burst_left_ = 0;
  std::set<std::vector<std::size_t>> seen_;
};

}  // namespace e2e
