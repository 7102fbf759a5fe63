// End-to-end data correctness on the threaded MPI-like runtime: every
// generator and every composer-tuned schedule, executed with real
// payload buffers over simmpi, must be bit-exact against the serial
// oracle — on both paper machines and for every reduction operator.
// (Runs under TSan via scripts/tsan.sh; the payload handoff through the
// communicator is part of the concurrency surface.)
#include "collective/executor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <limits>
#include <vector>

#include "collective/generators.hpp"
#include "collective/tuner.hpp"
#include "simmpi/runtime.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

std::vector<Payload> random_inputs(std::size_t ranks, std::size_t elems,
                                   Rng& rng) {
  std::vector<Payload> inputs(ranks, Payload(elems));
  for (Payload& buf : inputs) {
    for (std::uint64_t& w : buf) {
      w = rng.next_u64();
    }
  }
  return inputs;
}

void expect_bit_exact(const CollectiveSchedule& schedule, ReduceOp op,
                      const std::vector<Payload>& inputs) {
  const CollectiveExecutor executor(schedule);
  const std::vector<Payload> got = executor.run_once(inputs, op);
  const std::vector<Payload> want = oracle_result(schedule, op, inputs);
  if (schedule.op() == CollectiveOp::kReduce) {
    EXPECT_EQ(got[schedule.root()], want[schedule.root()]);
    return;
  }
  for (std::size_t r = 0; r < schedule.ranks(); ++r) {
    EXPECT_EQ(got[r], want[r]) << "rank " << r;
  }
}

constexpr ReduceOp kAllOps[] = {ReduceOp::kSum, ReduceOp::kMin,
                                ReduceOp::kMax, ReduceOp::kXor};

TEST(CollectiveSimmpi, GeneratorsBitExactAgainstOracle) {
  Rng rng(7);
  for (std::size_t p : {2u, 5u, 8u, 12u}) {
    const std::size_t elems = 23;
    const std::vector<Payload> inputs = random_inputs(p, elems, rng);
    std::vector<NamedCollective> pool =
        classic_collectives(CollectiveOp::kAllreduce, p, 0, elems, 8);
    for (const NamedCollective& cand :
         classic_collectives(CollectiveOp::kBroadcast, p, p - 1, elems, 8)) {
      pool.push_back(cand);
    }
    for (const NamedCollective& cand :
         classic_collectives(CollectiveOp::kReduce, p, p / 2, elems, 8)) {
      pool.push_back(cand);
    }
    for (const NamedCollective& cand : pool) {
      for (ReduceOp op : kAllOps) {
        SCOPED_TRACE(cand.name);
        expect_bit_exact(cand.schedule, op, inputs);
      }
    }
  }
}

/// Composer-tuned schedules for both presets: the tuner's hierarchical
/// candidates must execute correctly too, not just predict cheaply.
void run_tuned_on(const MachineSpec& machine, std::size_t ranks) {
  const TopologyProfile profile =
      generate_profile(machine, round_robin_mapping(machine, ranks));
  Rng rng(2011);
  const std::size_t elems = 65;
  const std::vector<Payload> inputs = random_inputs(ranks, elems, rng);
  for (CollectiveOp op : {CollectiveOp::kBroadcast, CollectiveOp::kReduce,
                          CollectiveOp::kAllreduce}) {
    CollectiveTuneOptions options;
    options.op = op;
    options.payload_bytes = elems * 8;
    options.root = op == CollectiveOp::kAllreduce ? 0 : ranks - 1;
    const CollectiveTuneResult tuned = tune_collective(profile, options);
    SCOPED_TRACE(tuned.name());
    for (ReduceOp rop : kAllOps) {
      expect_bit_exact(tuned.schedule(), rop, inputs);
    }
  }
}

TEST(CollectiveSimmpi, TunedSchedulesBitExactOnQuadCluster) {
  run_tuned_on(quad_cluster(2), 16);
}

TEST(CollectiveSimmpi, TunedSchedulesBitExactOnHexCluster) {
  run_tuned_on(hex_cluster(2), 24);
}

TEST(CollectiveSimmpi, ExecutorRejectsInvalidSchedules) {
  CollectiveSchedule broken(CollectiveOp::kBroadcast, 4, 4, 8, 0);
  broken.append_stage({CollectiveEdge{0, 1, 0, 4, false}});  // 2, 3 unreached
  EXPECT_THROW(CollectiveExecutor executor(broken), Error);
}

TEST(CollectiveSimmpi, ExecutorRejectsWrongBufferSize) {
  const CollectiveExecutor executor(ring_allreduce(4, 8, 8));
  Rng rng(3);
  EXPECT_THROW(executor.run_once(random_inputs(4, 7, rng), ReduceOp::kSum),
               Error);
  EXPECT_THROW(executor.run_once(random_inputs(3, 8, rng), ReduceOp::kSum),
               Error);
}

TEST(CollectiveSimmpi, ExecutorRefusesTheFirstOverflowingEpisode) {
  const CollectiveExecutor executor(ring_allreduce(4, 8, 8));
  const int stages = static_cast<int>(executor.stage_count());
  const int last = (std::numeric_limits<int>::max() - stages + 1) / stages;
  simmpi::Communicator comm(4);
  std::vector<Payload> buffers(4, Payload(8, 1));
  simmpi::run_ranks(comm, [&](simmpi::RankContext& ctx) {
    executor.execute(ctx, ReduceOp::kSum, buffers[ctx.rank()], last);
  });
  EXPECT_EQ(buffers[0], Payload(8, 4));
  EXPECT_THROW(simmpi::run_ranks(comm,
                                 [&](simmpi::RankContext& ctx) {
                                   executor.execute(ctx, ReduceOp::kSum,
                                                    buffers[ctx.rank()],
                                                    last + 1);
                                 }),
               Error);
  EXPECT_EQ(comm.unmatched_operations(), 0u);
}

/// Stress: repeated episodes over one executor, fresh random inputs per
/// round, a byte-latency model skewing delivery timing. Exercises the
/// payload handoff under thread-scheduling variance (tsan target).
TEST(CollectiveSimmpiStress, RepeatedEpisodesStayBitExact) {
  const CollectiveSchedule schedule = ring_allreduce(8, 40, 8);
  const CollectiveExecutor executor(schedule);
  Rng rng(99);
  for (int round = 0; round < 8; ++round) {
    const std::vector<Payload> inputs = random_inputs(8, 40, rng);
    const std::vector<Payload> got = executor.run_once(
        inputs, ReduceOp::kSum, simmpi::uniform_latency(),
        [](std::size_t, std::size_t, std::size_t bytes) {
          return std::chrono::microseconds(bytes / 64);
        });
    const std::vector<Payload> want =
        oracle_result(schedule, ReduceOp::kSum, inputs);
    for (std::size_t r = 0; r < 8; ++r) {
      ASSERT_EQ(got[r], want[r]) << "round " << round << " rank " << r;
    }
  }
}

}  // namespace
}  // namespace optibar
