// Tests for the seeded fault model: spec grammar round-trips, decision
// determinism, the communicator-level drop/duplicate/delay hooks, and
// the per-channel send sequence that resilient retries draw from.
#include "simmpi/fault.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>

#include "barrier/algorithms.hpp"
#include "simmpi/communicator.hpp"
#include "simmpi/executor.hpp"
#include "simmpi/resilience.hpp"
#include "simmpi/runtime.hpp"
#include "util/error.hpp"

namespace optibar {
namespace {

using namespace std::chrono_literals;

TEST(FaultPlan, EmptyByDefault) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(FaultPlan::parse(plan.spec()), plan);
}

TEST(FaultPlan, SpecRoundTripsEveryRuleKind) {
  FaultPlan plan;
  plan.seed = 7;
  plan.drops.push_back({0, 1, 2, 1.0, 0.0});
  plan.drops.push_back({ChannelFaultRule::kAnyRank, 3,
                        ChannelFaultRule::kAnyTag, 0.25, 0.0});
  plan.duplicates.push_back({ChannelFaultRule::kAnyRank,
                             ChannelFaultRule::kAnyRank,
                             ChannelFaultRule::kAnyTag, 0.5, 0.0});
  plan.delays.push_back({2, 3, ChannelFaultRule::kAnyTag, 0.125, 1e-3});
  plan.putdrops.push_back({0, 3, 1, 0.5, 0.0});
  plan.putdrops.push_back({ChannelFaultRule::kAnyRank,
                           ChannelFaultRule::kAnyRank,
                           ChannelFaultRule::kAnyTag, 0.75, 0.0});
  plan.crashes.push_back({4, 2});
  const FaultPlan reparsed = FaultPlan::parse(plan.spec());
  EXPECT_EQ(reparsed, plan);
  // And the round-trip is a fixed point: spec(parse(spec())) == spec().
  EXPECT_EQ(reparsed.spec(), plan.spec());
}

TEST(FaultPlan, SpecRoundTripsAwkwardProbabilities) {
  // Probabilities that do not print exactly in short form must still
  // round-trip bit-exactly (printed at full precision).
  FaultPlan plan;
  plan.seed = 1;
  plan.drops.push_back({0, 1, 0, 0.1 + 0.2, 0.0});
  plan.delays.push_back({1, 0, 0, 1.0 / 3.0, 7.3e-5});
  const FaultPlan reparsed = FaultPlan::parse(plan.spec());
  EXPECT_EQ(reparsed, plan);
}

TEST(FaultPlan, ParsesDocumentedExample) {
  const FaultPlan plan =
      FaultPlan::parse("seed=7;drop=0>1@2:1;dup=*>*@*:0.5;"
                       "delay=2>3@*:0.25:0.001;putdrop=0>3@1:0.5;crash=4@2");
  EXPECT_EQ(plan.seed, 7u);
  ASSERT_EQ(plan.drops.size(), 1u);
  EXPECT_EQ(plan.drops[0].src, 0u);
  EXPECT_EQ(plan.drops[0].dst, 1u);
  EXPECT_EQ(plan.drops[0].tag, 2);
  EXPECT_EQ(plan.drops[0].probability, 1.0);
  ASSERT_EQ(plan.duplicates.size(), 1u);
  EXPECT_EQ(plan.duplicates[0].src, ChannelFaultRule::kAnyRank);
  EXPECT_EQ(plan.duplicates[0].tag, ChannelFaultRule::kAnyTag);
  ASSERT_EQ(plan.delays.size(), 1u);
  EXPECT_EQ(plan.delays[0].delay_seconds, 0.001);
  ASSERT_EQ(plan.putdrops.size(), 1u);
  EXPECT_EQ(plan.putdrops[0].src, 0u);
  EXPECT_EQ(plan.putdrops[0].dst, 3u);
  EXPECT_EQ(plan.putdrops[0].tag, 1);  // stage, in the tag position
  EXPECT_EQ(plan.putdrops[0].probability, 0.5);
  ASSERT_EQ(plan.crashes.size(), 1u);
  EXPECT_EQ(plan.crashes[0].rank, 4u);
  EXPECT_EQ(plan.crashes[0].stage, 2u);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("bogus=1"), Error);
  EXPECT_THROW(FaultPlan::parse("seed=notanumber"), Error);
  EXPECT_THROW(FaultPlan::parse("drop=0>1@2"), Error);        // missing prob
  EXPECT_THROW(FaultPlan::parse("drop=0>1@2:1.5"), Error);    // prob > 1
  EXPECT_THROW(FaultPlan::parse("drop=0>1@2:-0.1"), Error);   // prob < 0
  EXPECT_THROW(FaultPlan::parse("delay=0>1@2:0.5"), Error);   // no seconds
  EXPECT_THROW(FaultPlan::parse("crash=4"), Error);           // no stage
  EXPECT_THROW(FaultPlan::parse("drop=0-1@2:1"), Error);      // bad separator
  EXPECT_THROW(FaultPlan::parse("putdrop=0>1@2"), Error);     // missing prob
  EXPECT_THROW(FaultPlan::parse("putdrop=0>1@2:2.0"), Error); // prob > 1
}

TEST(FaultInjector, PutDecisionsAreDeterministicAndIndependent) {
  FaultPlan plan;
  plan.seed = 9;
  plan.putdrops.push_back({ChannelFaultRule::kAnyRank,
                           ChannelFaultRule::kAnyRank,
                           ChannelFaultRule::kAnyTag, 0.5, 0.0});
  plan.drops.push_back({ChannelFaultRule::kAnyRank,
                        ChannelFaultRule::kAnyRank,
                        ChannelFaultRule::kAnyTag, 0.5, 0.0});
  const FaultInjector injector(plan);
  // Pure function of the arguments: same inputs, same answer.
  for (std::uint64_t seq = 0; seq < 64; ++seq) {
    EXPECT_EQ(injector.decide_put(0, 1, 2, seq),
              injector.decide_put(0, 1, 2, seq));
  }
  // Hashed on its own kind salt: the put stream is not the drop stream.
  bool diverged = false;
  for (std::uint64_t seq = 0; seq < 64 && !diverged; ++seq) {
    diverged = injector.decide_put(0, 1, 2, seq) !=
               injector.decide(0, 1, 2, seq).drop;
  }
  EXPECT_TRUE(diverged);
  // Certain and impossible rules behave as such.
  FaultPlan certain;
  certain.putdrops.push_back({0, 1, 1, 1.0, 0.0});
  const FaultInjector always(certain);
  EXPECT_TRUE(always.decide_put(0, 1, 1, 0));
  EXPECT_FALSE(always.decide_put(0, 1, 0, 0));  // stage mismatch
  EXPECT_FALSE(always.decide_put(1, 0, 1, 0));  // direction mismatch
}

TEST(FaultInjector, CertainRulesAlwaysFire) {
  FaultPlan plan;
  plan.drops.push_back({0, 1, 2, 1.0, 0.0});
  const FaultInjector injector(plan);
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    EXPECT_TRUE(injector.decide(0, 1, 2, seq).drop);
  }
  // Any other channel is untouched.
  EXPECT_FALSE(injector.decide(1, 0, 2, 0).drop);
  EXPECT_FALSE(injector.decide(0, 1, 3, 0).drop);
}

TEST(FaultInjector, ZeroProbabilityRulesNeverFire) {
  FaultPlan plan;
  plan.drops.push_back({ChannelFaultRule::kAnyRank, ChannelFaultRule::kAnyRank,
                        ChannelFaultRule::kAnyTag, 0.0, 0.0});
  const FaultInjector injector(plan);
  for (std::uint64_t seq = 0; seq < 100; ++seq) {
    EXPECT_FALSE(injector.decide(0, 1, 0, seq).drop);
  }
}

TEST(FaultInjector, DecisionsAreDeterministicAndSeedSensitive) {
  FaultPlan plan;
  plan.seed = 11;
  plan.drops.push_back({ChannelFaultRule::kAnyRank, ChannelFaultRule::kAnyRank,
                        ChannelFaultRule::kAnyTag, 0.5, 0.0});
  const FaultInjector a(plan);
  const FaultInjector b(plan);
  plan.seed = 12;
  const FaultInjector c(plan);
  bool any_difference = false;
  for (std::uint64_t seq = 0; seq < 256; ++seq) {
    EXPECT_EQ(a.decide(0, 1, 0, seq).drop, b.decide(0, 1, 0, seq).drop);
    if (a.decide(0, 1, 0, seq).drop != c.decide(0, 1, 0, seq).drop) {
      any_difference = true;
    }
  }
  EXPECT_TRUE(any_difference) << "seed does not influence decisions";
}

TEST(FaultInjector, ProbabilityIsApproximatelyHonoured) {
  FaultPlan plan;
  plan.seed = 3;
  plan.drops.push_back({ChannelFaultRule::kAnyRank, ChannelFaultRule::kAnyRank,
                        ChannelFaultRule::kAnyTag, 0.3, 0.0});
  const FaultInjector injector(plan);
  std::size_t fired = 0;
  const std::size_t trials = 20000;
  for (std::uint64_t seq = 0; seq < trials; ++seq) {
    fired += injector.decide(0, 1, 0, seq).drop ? 1 : 0;
  }
  const double rate = static_cast<double>(fired) / trials;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

TEST(FaultInjector, DelayRulesSumAndDuplicateRulesCount) {
  FaultPlan plan;
  plan.delays.push_back({0, 1, 0, 1.0, 1e-3});
  plan.delays.push_back({0, 1, ChannelFaultRule::kAnyTag, 1.0, 2e-3});
  plan.duplicates.push_back({0, 1, 0, 1.0, 0.0});
  const FaultInjector injector(plan);
  const FaultInjector::Decision d = injector.decide(0, 1, 0, 5);
  EXPECT_FALSE(d.drop);
  EXPECT_EQ(d.duplicates, 1u);
  EXPECT_DOUBLE_EQ(d.delay_seconds, 3e-3);
}

TEST(FaultInjector, CrashStageIsMinimumOverRules) {
  FaultPlan plan;
  plan.crashes.push_back({2, 5});
  plan.crashes.push_back({2, 3});
  plan.crashes.push_back({4, 0});
  const FaultInjector injector(plan);
  EXPECT_EQ(injector.crash_stage(2), 3u);
  EXPECT_EQ(injector.crash_stage(4), 0u);
  EXPECT_EQ(injector.crash_stage(0), FaultInjector::kNoCrash);
}

TEST(CommunicatorFaults, CertainDropSwallowsTheSignal) {
  simmpi::Communicator comm(2);
  FaultPlan plan;
  plan.drops.push_back({0, 1, 0, 1.0, 0.0});
  comm.set_fault_plan(plan);
  auto recv = comm.irecv(0, 1, 0);
  auto send = comm.issend(0, 1, 0);
  EXPECT_FALSE(send->wait_for(20ms));
  EXPECT_FALSE(recv->wait_for(1ms));
  EXPECT_EQ(comm.dropped_messages(), 1u);
}

TEST(CommunicatorFaults, DropIsChannelSpecific) {
  simmpi::Communicator comm(2);
  FaultPlan plan;
  plan.drops.push_back({0, 1, 7, 1.0, 0.0});
  comm.set_fault_plan(plan);
  auto recv = comm.irecv(1, 0, 7);  // other direction, same tag
  auto send = comm.issend(1, 0, 7);
  send->wait();
  recv->wait();
  EXPECT_EQ(comm.dropped_messages(), 0u);
}

TEST(CommunicatorFaults, DuplicateDoesNotStarveTheRealSend) {
  // A certain duplicate posts a ghost copy; the original must still
  // bind to the receive so the synchronized sender completes.
  simmpi::Communicator comm(2);
  FaultPlan plan;
  plan.duplicates.push_back({0, 1, 0, 1.0, 0.0});
  comm.set_fault_plan(plan);
  for (int round = 0; round < 4; ++round) {
    auto recv = comm.irecv(0, 1, round);
    auto send = comm.issend(0, 1, round);
    ASSERT_TRUE(send->wait_for(500ms)) << "round " << round;
    ASSERT_TRUE(recv->wait_for(500ms)) << "round " << round;
  }
  EXPECT_EQ(comm.dropped_messages(), 0u);
}

TEST(CommunicatorFaults, DelaySpikePostponesDelivery) {
  simmpi::Communicator comm(2);
  FaultPlan plan;
  plan.delays.push_back({0, 1, 0, 1.0, 0.050});  // 50 ms spike
  comm.set_fault_plan(plan);
  auto recv = comm.irecv(0, 1, 0);
  auto send = comm.issend(0, 1, 0);
  EXPECT_FALSE(recv->wait_for(5ms)) << "delivery ignored the delay spike";
  EXPECT_TRUE(recv->wait_for(500ms));
  EXPECT_TRUE(send->wait_for(500ms));
}

TEST(CommunicatorFaults, PayloadSurvivesDelaySpike) {
  simmpi::Communicator comm(2);
  FaultPlan plan;
  plan.delays.push_back({0, 1, 0, 1.0, 0.010});
  comm.set_fault_plan(plan);
  simmpi::Payload sink;
  auto recv = comm.irecv(0, 1, 0, &sink);
  auto send = comm.issend(0, 1, 0, simmpi::Payload{1, 2, 3});
  recv->wait();
  send->wait();
  EXPECT_EQ(sink, (simmpi::Payload{1, 2, 3}));
}

TEST(CommunicatorFaults, DuplicatesAreCounted) {
  simmpi::Communicator comm(2);
  FaultPlan plan;
  plan.duplicates.push_back({0, 1, 0, 1.0, 0.0});
  plan.duplicates.push_back({0, 1, 0, 1.0, 0.0});
  comm.set_fault_plan(plan);
  auto recv = comm.irecv(0, 1, 0);
  auto send = comm.issend(0, 1, 0);
  send->wait();
  recv->wait();
  EXPECT_EQ(comm.duplicated_messages(), 2u);
  EXPECT_EQ(comm.unmatched_operations(), 2u);  // the two ghosts
}

// ---- The per-channel send sequence behind every fault decision ----

class FaultSequence : public ::testing::TestWithParam<simmpi::BoardMode> {};

INSTANTIATE_TEST_SUITE_P(BoardModes, FaultSequence,
                         ::testing::Values(simmpi::BoardMode::kSharded,
                                           simmpi::BoardMode::kGlobal),
                         [](const auto& info) {
                           return info.param == simmpi::BoardMode::kSharded
                                      ? "sharded"
                                      : "global";
                         });

/// What one resilient episode under a fault plan left behind.
struct FaultedRun {
  simmpi::StallReport report;
  std::size_t dropped = 0;
  std::size_t duplicated = 0;
  std::size_t dropped_puts = 0;
};

FaultedRun run_faulted(const Schedule& schedule, const FaultPlan& plan,
                       const simmpi::ResilienceOptions& options,
                       simmpi::BoardMode board) {
  const simmpi::ScheduleExecutor executor(schedule);
  simmpi::Communicator comm(schedule.ranks(), simmpi::uniform_latency(),
                            nullptr, board);
  comm.set_fault_plan(plan);
  FaultedRun run;
  run.report.reset(executor.ranks(), executor.stage_count());
  simmpi::run_ranks(comm, [&](simmpi::RankContext& ctx) {
    if (executor.execute_resilient(ctx, options, run.report)) {
      run.report.per_rank[ctx.rank()].finished = true;
    }
  });
  run.report.finalize();
  run.dropped = comm.dropped_messages();
  run.duplicated = comm.duplicated_messages();
  run.dropped_puts = comm.dropped_puts();
  return run;
}

TEST_P(FaultSequence, RetryDrawsTheNextSequenceNumber) {
  // Channel 0 -> 1 at stage 0 drops the first `drops` sends on it, and
  // only those. Each resilient retry resends on the same tag; it must
  // draw the next sequence number, so the barrier completes after
  // exactly `drops` losses. A replay of number 0 would drop every
  // retry and stall.
  struct Case {
    std::uint64_t seed;
    std::size_t drops;
  };
  for (const Case c : {Case{5, 1}, Case{2, 2}}) {
    FaultPlan plan;
    plan.seed = c.seed;
    plan.drops.push_back({0, 1, 0, 0.5, 0.0});
    const FaultInjector injector(plan);
    for (std::uint64_t seq = 0; seq <= c.drops; ++seq) {
      ASSERT_EQ(injector.decide(0, 1, 0, seq).drop, seq < c.drops)
          << "seed " << c.seed << " seq " << seq;
    }
    simmpi::ResilienceOptions options;
    options.deadline_floor = 30ms;
    options.max_retries = c.drops;
    options.retry_backoff = 1.0;
    const FaultedRun run =
        run_faulted(dissemination_barrier(4), plan, options, GetParam());
    EXPECT_FALSE(run.report.stalled) << run.report.describe();
    EXPECT_EQ(run.dropped, c.drops) << "seed " << c.seed;
  }
}

TEST_P(FaultSequence, CountsAndStallReportArePinned) {
  // One fixed plan over a mixed-transport barrier (stage 1 one-sided).
  // No retries, so every rank sends each of its signals at most once
  // and the outcome depends on the hashed decisions alone. The
  // expected values are those of the per-channel map board the link
  // table replaced: the board layout must not move a single decision.
  Schedule schedule = dissemination_barrier(8);
  schedule.set_transport(1, schedule.stage(1));
  const FaultPlan plan = FaultPlan::parse(
      "seed=21;drop=*>*@*:0.15;dup=*>*@*:0.5;putdrop=*>*@*:0.2");
  simmpi::ResilienceOptions options;
  options.deadline_floor = 100ms;
  options.max_retries = 0;
  const FaultedRun run = run_faulted(schedule, plan, options, GetParam());
  EXPECT_EQ(run.dropped, 2u);
  EXPECT_EQ(run.duplicated, 4u);
  EXPECT_EQ(run.dropped_puts, 3u);
  EXPECT_EQ(run.report.describe(),
            "stall report: 8/8 ranks stuck, 9 signals pending\n"
            "  rank 0: stuck at stage 1, no one-sided flag from rank 6; "
            "last heard from rank 7\n"
            "  rank 1: stuck at stage 1, no one-sided flag from rank 7; "
            "last heard from rank 0\n"
            "  rank 2: stuck at stage 1, no one-sided flag from rank 0; "
            "last heard from rank 1\n"
            "  rank 3: stuck at stage 1, no one-sided flag from rank 1; "
            "last heard from rank 2\n"
            "  rank 4: stuck at stage 2, no signal from rank 0, unacked "
            "send to rank 0; last heard from rank 2\n"
            "  rank 5: stuck at stage 2, no signal from rank 1, unacked "
            "send to rank 1; last heard from rank 3\n"
            "  rank 6: stuck at stage 0, unacked send to rank 7; last "
            "heard from rank 5\n"
            "  rank 7: stuck at stage 0, no signal from rank 6; never heard "
            "from any peer\n"
            "  lost signal: stage 0 6 -> 7\n"
            "  lost signal: stage 1 0 -> 2\n"
            "  lost signal: stage 1 1 -> 3\n"
            "  lost signal: stage 1 6 -> 0\n"
            "  lost signal: stage 1 7 -> 1\n"
            "  lost signal: stage 2 0 -> 4\n"
            "  lost signal: stage 2 1 -> 5\n"
            "  lost signal: stage 2 4 -> 0\n"
            "  lost signal: stage 2 5 -> 1\n"
            "  knowledge: 45/64 arrival facts never propagated (e.g. rank 0's "
            "arrival never reached rank 2)\n");
}

}  // namespace
}  // namespace optibar
