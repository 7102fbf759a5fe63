// Google-benchmark: runtime contention sweep — what the sharded message
// board and the persistent rank pool each buy per episode.
//
// Every benchmark runs one full dissemination-barrier episode per
// iteration on real rank threads with zero injected link delay, so the
// measured time is pure runtime overhead: thread creation (spawn mode)
// or generation dispatch (pooled mode), plus message-board lock
// contention (one global shard vs one shard per destination rank).
//
// The four mode combinations at P in {16, 48, 120} are the PR's
// headline comparison: pooled+sharded must beat spawn+global by >= 2x
// at P = 48 (tracked in BENCH_runtime.json via scripts/bench_json.sh,
// regression-gated by scripts/bench_compare.py on the
// episodes_per_second counter).
//
// BM_EpisodeDispatch isolates the vehicle cost with an empty rank
// function: spawn pays P thread creations + joins per episode, pooled
// pays one condvar broadcast per generation.
#include <benchmark/benchmark.h>

#include <cstddef>

#include "barrier/algorithms.hpp"
#include "simmpi/communicator.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/rank_pool.hpp"
#include "simmpi/runtime.hpp"

namespace {

using namespace optibar;
using simmpi::BoardMode;
using simmpi::Communicator;
using simmpi::RankContext;
using simmpi::RankPool;
using simmpi::ScheduleExecutor;

// How an episode obtains its rank threads: spawn-and-join per episode,
// or one generation of a persistent RankPool.
enum class Vehicle { kSpawn, kPool };

simmpi::LatencyModel zero_latency() {
  return [](std::size_t, std::size_t) {
    return simmpi::Clock::duration::zero();
  };
}

// One barrier episode per iteration; a fresh communicator per episode
// (mirroring run_once) keeps the channel map from accumulating across
// the tag space.
void BM_ThreadRuntime(benchmark::State& state, Vehicle exec,
                      BoardMode board) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  const ScheduleExecutor executor(dissemination_barrier(p));
  RankPool pool(exec == Vehicle::kPool ? p : 1);
  int episode = 0;
  for (auto _ : state) {
    Communicator comm(p, zero_latency(), nullptr, board);
    const simmpi::RankFunction fn = [&](RankContext& ctx) {
      executor.execute(ctx, episode);
    };
    if (exec == Vehicle::kPool) {
      simmpi::run_ranks(pool, comm, fn);
    } else {
      simmpi::run_ranks(comm, fn);
    }
    ++episode;
  }
  state.counters["episodes_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_ThreadRuntime, spawn_global,
                  Vehicle::kSpawn, BoardMode::kGlobal)
    ->Arg(16)->Arg(48)->Arg(120)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ThreadRuntime, spawn_sharded,
                  Vehicle::kSpawn, BoardMode::kSharded)
    ->Arg(16)->Arg(48)->Arg(120)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ThreadRuntime, pooled_global,
                  Vehicle::kPool, BoardMode::kGlobal)
    ->Arg(16)->Arg(48)->Arg(120)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_ThreadRuntime, pooled_sharded,
                  Vehicle::kPool, BoardMode::kSharded)
    ->Arg(16)->Arg(48)->Arg(120)->Unit(benchmark::kMillisecond);

// Vehicle cost alone: empty rank function, no communicator traffic.
void BM_EpisodeDispatch(benchmark::State& state, Vehicle exec) {
  const std::size_t p = static_cast<std::size_t>(state.range(0));
  RankPool pool(exec == Vehicle::kPool ? p : 1);
  Communicator comm(p, zero_latency());
  const simmpi::RankFunction fn = [](RankContext&) {};
  for (auto _ : state) {
    if (exec == Vehicle::kPool) {
      simmpi::run_ranks(pool, comm, fn);
    } else {
      simmpi::run_ranks(comm, fn);
    }
  }
  state.counters["episodes_per_second"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK_CAPTURE(BM_EpisodeDispatch, spawn, Vehicle::kSpawn)
    ->Arg(16)->Arg(48)->Arg(120)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_EpisodeDispatch, pooled, Vehicle::kPool)
    ->Arg(16)->Arg(48)->Arg(120)->Unit(benchmark::kMillisecond);

}  // namespace
