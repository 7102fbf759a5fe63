// Persistent rank-thread pool: spawn once, run many episodes.
//
// run_ranks spawns and joins one thread per rank per call — fine for a
// single barrier, ruinous when the callers above it (library stress,
// resilience retries, tuning sweeps, CLI repetitions) execute thousands
// of episodes: thread creation dominates the episode cost long before
// the board does. A RankPool keeps P workers parked on a condition
// variable and runs each episode as a *generation*: the submitter
// publishes the rank function, bumps an epoch counter and broadcasts;
// each participating worker runs the function for its own rank exactly
// once, then parks again. There is no inter-worker barrier — a worker
// only synchronizes with the submitter (epoch to start, a remaining
// count to finish), never with its siblings.
//
// Generations serialize: concurrent run() calls queue on an internal
// mutex, so a pool owned by a shared executor is safe to use from
// several threads (episodes interleave at generation granularity).
// Everything the submitter wrote before run() is visible to the
// workers (publication rides the epoch handshake), and everything the
// workers wrote is visible to the submitter when run() returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace optibar::simmpi {

class RankPool {
 public:
  /// Spawn `ranks` parked workers (one per rank id).
  explicit RankPool(std::size_t ranks);

  /// Wakes and joins every worker; outstanding generations finish first
  /// (the destructor takes the same serialization mutex as run()).
  ~RankPool();

  RankPool(const RankPool&) = delete;
  RankPool& operator=(const RankPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(rank) for every rank in [0, n) as one generation; workers
  /// with rank >= n stay parked. Blocks until all participants return,
  /// then rethrows the first rank exception (lowest rank wins, like
  /// run_ranks). n must be in [1, size()].
  void run(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Full-width generation.
  void run(const std::function<void(std::size_t)>& fn) { run(size(), fn); }

 private:
  void worker_loop(std::size_t rank);

  std::mutex run_mutex_;  ///< serializes generations (submitter side)

  std::mutex mutex_;  ///< guards everything below
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::uint64_t epoch_ = 0;
  std::size_t active_ = 0;     ///< ranks participating in this generation
  std::size_t remaining_ = 0;  ///< participants not yet finished
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::vector<std::exception_ptr> errors_;
  bool stop_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace optibar::simmpi
