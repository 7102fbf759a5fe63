// Stress tests for the merged stage engine at real widths (4 and 8):
// thousands of pooled episodes on one communicator, each one a fresh
// RankPool generation, with every rank alternating between polling
// test() around busy work and parking in wait(). Run on the hybrid
// transport plan (one-sided and two-sided edges on one board at width 8,
// two-sided only at width 4) and on a payload-carrying allreduce, plus
// resilient episodes under a delay-only fault plan. Labelled for both
// sanitizer suites: the handles, inboxes and flag words cross rank
// threads every episode (tsan), and the per-stage inboxes are
// reallocated thousands of times (asan).
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "collective/executor.hpp"
#include "collective/generators.hpp"
#include "collective/schedule.hpp"
#include "core/engine_options.hpp"
#include "rma/transport.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/rank_pool.hpp"
#include "simmpi/runtime.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"

namespace optibar {
namespace {

using simmpi::Communicator;
using simmpi::RankContext;
using simmpi::RankPool;
using simmpi::ScheduleExecutor;

constexpr int kEpisodes = 2000;
constexpr int kResilientEpisodes = 200;

class EngineStress : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Widths, EngineStress, ::testing::Values(4u, 8u),
                         [](const auto& info) {
                           return "p" + std::to_string(info.param);
                         });

simmpi::LatencyModel zero_latency() {
  return [](std::size_t, std::size_t) {
    return simmpi::Clock::duration::zero();
  };
}

Schedule hybrid_plan(std::size_t p) {
  const MachineSpec machine = quad_cluster();
  const TopologyProfile profile =
      generate_profile(machine, round_robin_mapping(machine, p));
  return rma::tune_best_transport(profile, EngineOptions{}).schedule;
}

/// Some compute between polls; the result feeds a sink so it is kept.
std::uint64_t busy_work(std::uint64_t seed) {
  for (int i = 0; i < 64; ++i) {
    seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
  }
  return seed;
}

/// Drive one handle to completion: ranks whose (episode + rank) is even
/// poll test() around busy work, the others park in wait().
template <typename Executor, typename Handle>
void finish(const Executor& executor, Handle& handle, int episode,
            std::size_t rank, std::uint64_t& sink) {
  if ((static_cast<std::size_t>(episode) + rank) % 2 == 0) {
    while (!executor.test(handle)) {
      sink = busy_work(sink);
      std::this_thread::yield();  // ranks may outnumber cores
    }
  } else {
    executor.wait(handle);
  }
}

TEST_P(EngineStress, HybridPlanPooledEpisodes) {
  const std::size_t p = GetParam();
  const ScheduleExecutor executor(hybrid_plan(p));
  Communicator comm(p, zero_latency());
  RankPool pool(p);
  std::vector<std::uint64_t> sinks(p, 1);
  std::vector<std::size_t> done(p, 0);
  for (int episode = 0; episode < kEpisodes; ++episode) {
    simmpi::run_ranks(pool, comm, [&](RankContext& ctx) {
      ScheduleExecutor::EpisodeHandle handle = executor.post(ctx, episode);
      finish(executor, handle, episode, ctx.rank(), sinks[ctx.rank()]);
      done[ctx.rank()] += handle.done() ? 1 : 0;
    });
  }
  EXPECT_EQ(done, std::vector<std::size_t>(p, kEpisodes));
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST_P(EngineStress, AllreducePooledEpisodesMatchTheOracle) {
  const std::size_t p = GetParam();
  const CollectiveSchedule schedule = recursive_doubling_allreduce(p, 6, 8);
  const CollectiveExecutor executor(schedule);
  Communicator comm(p, zero_latency());
  RankPool pool(p);
  std::vector<std::uint64_t> sinks(p, 1);
  std::vector<Payload> buffers(p);
  std::size_t mismatches = 0;
  for (int episode = 0; episode < kEpisodes; ++episode) {
    std::vector<Payload> inputs(p, Payload(schedule.elem_count()));
    for (std::size_t r = 0; r < p; ++r) {
      for (std::size_t i = 0; i < inputs[r].size(); ++i) {
        inputs[r][i] = static_cast<std::uint64_t>(episode) * 1000 + r * 10 + i;
      }
    }
    buffers = inputs;
    simmpi::run_ranks(pool, comm, [&](RankContext& ctx) {
      CollectiveExecutor::EpisodeHandle handle =
          executor.post(ctx, ReduceOp::kSum, buffers[ctx.rank()], episode);
      finish(executor, handle, episode, ctx.rank(), sinks[ctx.rank()]);
    });
    mismatches +=
        buffers == oracle_result(schedule, ReduceOp::kSum, inputs) ? 0 : 1;
  }
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

TEST_P(EngineStress, ResilientEpisodesFinishUnderDelays) {
  const std::size_t p = GetParam();
  const ScheduleExecutor executor(hybrid_plan(p));
  Communicator comm(p, zero_latency());
  FaultPlan faults;
  faults.seed = 7;
  faults.delays.push_back({ChannelFaultRule::kAnyRank,
                           ChannelFaultRule::kAnyRank,
                           ChannelFaultRule::kAnyTag, 0.3, 2e-4});
  comm.set_fault_plan(faults);
  // Deadlines far above any delay: a delay-only plan must never stall.
  simmpi::ResilienceOptions options;
  options.deadline_floor = std::chrono::seconds(2);
  options.deadline_ceiling = std::chrono::seconds(2);
  RankPool pool(p);
  std::vector<std::uint64_t> sinks(p, 1);
  std::size_t stalled = 0;
  for (int episode = 0; episode < kResilientEpisodes; ++episode) {
    simmpi::StallReport report;
    report.reset(p, executor.stage_count());
    simmpi::run_ranks(pool, comm, [&](RankContext& ctx) {
      ScheduleExecutor::ResilientEpisodeHandle handle =
          executor.post_resilient(ctx, options, report, episode);
      finish(executor, handle, episode, ctx.rank(), sinks[ctx.rank()]);
      report.per_rank[ctx.rank()].finished = handle.succeeded();
    });
    report.finalize();
    stalled += report.stalled ? 1 : 0;
  }
  EXPECT_EQ(stalled, 0u);
  EXPECT_EQ(comm.dropped_messages(), 0u);
}

}  // namespace
}  // namespace optibar
