// Stress tests for the fork-join lifetime of ThreadPool::TaskGroup at
// fixed widths 4 and 8, independent of the host's hardware thread
// count: thousands of short-lived parallel_for groups (each dies on
// the caller's stack the moment wait() returns, so a worker that still
// touches it afterwards is a use-after-free), nested fan-outs whose
// callers park in wait() while work is queued, and repeated parallel
// tune_barrier calls on the hex preset. Runs under both tsan and asan.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <vector>

#include "core/engine_options.hpp"
#include "core/tuner.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"

namespace optibar {
namespace {

class PoolWidth : public ::testing::TestWithParam<std::size_t> {};

INSTANTIATE_TEST_SUITE_P(Widths, PoolWidth, ::testing::Values(4u, 8u),
                         [](const auto& info) {
                           return "w" + std::to_string(info.param);
                         });

TEST_P(PoolWidth, ThousandsOfShortParallelFors) {
  ThreadPool pool(GetParam());
  constexpr std::size_t kCalls = 5000;
  std::atomic<std::size_t> total{0};
  for (std::size_t call = 0; call < kCalls; ++call) {
    // 2..9 tiny bodies: the group drains within a worker wakeup, which
    // is when finish_one() and the caller's return race hardest.
    const std::size_t n = 2 + call % 8;
    pool.parallel_for(n, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  std::size_t expected = 0;
  for (std::size_t call = 0; call < kCalls; ++call) {
    expected += 2 + call % 8;
  }
  EXPECT_EQ(total.load(), expected);
}

TEST_P(PoolWidth, NestedGroupsKeepTheirCallersBusy) {
  // Outer bodies fan out again; their callers sit in TaskGroup::wait()
  // while sibling tasks are queued, and must be woken to help.
  ThreadPool pool(GetParam());
  std::atomic<std::size_t> leaves{0};
  for (int round = 0; round < 200; ++round) {
    pool.parallel_for(GetParam(), [&](std::size_t) {
      pool.parallel_for(4, [&](std::size_t) {
        leaves.fetch_add(1, std::memory_order_relaxed);
      });
    });
  }
  EXPECT_EQ(leaves.load(), 200 * GetParam() * 4);
}

TEST_P(PoolWidth, RepeatedParallelHexTunesAgree) {
  // The tuner's own fork-join at width 4 and 8: 300 tunes of the hex
  // preset at P = 120, every one bit-identical to the serial result.
  const MachineSpec machine = hex_cluster();
  const TopologyProfile profile =
      generate_profile(machine, round_robin_mapping(machine, 120));
  const Schedule serial = tune_barrier(profile, EngineOptions{}).schedule();
  EngineOptions options;
  options.threads = GetParam();
  for (int call = 0; call < 300; ++call) {
    ASSERT_EQ(tune_barrier(profile, options).schedule(), serial)
        << "call " << call;
  }
}

}  // namespace
}  // namespace optibar
