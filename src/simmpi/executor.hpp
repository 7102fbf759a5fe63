// The general matrix-barrier interpreter (Section VI).
//
// "The program used to validate the model employs a general simulator
//  for matrix encodings of barriers, storing the tested barrier in a
//  structure with a stage count, as well as the sequence of incidence
//  matrices, and an array of MPI requests to match the signal pattern of
//  each stage."
//
// ScheduleExecutor is the barrier front-end of the stage engine
// (stage_engine.hpp): each edge of a stage becomes a zero-payload send
// and receive, or — for edges the schedule tags one-sided
// (Schedule::transport) — an RMA put into the receiver's window and an
// awaited flag. Stage indices are encoded in tags so repeated barrier
// invocations cannot cross-match. Execution is handle-based (the
// MPI_Ibarrier lifecycle):
//
//   EpisodeHandle h = exec.post(ctx);   // post the first stage, return
//   while (!exec.test(h)) { compute();} // poll, overlap compute
//   // or: exec.wait(h);                // finish in bounded slices
#pragma once

#include <chrono>
#include <vector>

#include "barrier/schedule.hpp"
#include "simmpi/stage_engine.hpp"

namespace optibar::simmpi {

class ScheduleExecutor : private StageEngine {
 public:
  using StageEngine::EpisodeHandle;
  using StageEngine::ResilientEpisodeHandle;

  /// Precompute per-rank op lists. The schedule must be a valid barrier
  /// (checked: executing a non-barrier would not synchronize, and some
  /// non-barriers deadlock the synchronized sends).
  explicit ScheduleExecutor(const Schedule& schedule,
                            const ExecutorOptions& options = {});

  using StageEngine::op_count;
  using StageEngine::options;
  using StageEngine::ranks;
  using StageEngine::stage_count;
  using StageEngine::test;
  using StageEngine::wait;

  /// Post one barrier episode for this rank and return without waiting.
  /// `episode` distinguishes repeated invocations in the tag space.
  EpisodeHandle post(RankContext& ctx, int episode = 0) const {
    return StageEngine::post(ctx, episode);
  }

  /// Exactly wait(post(ctx, episode)).
  void execute(RankContext& ctx, int episode = 0) const {
    StageEngine::execute(ctx, episode);
  }

  /// One full barrier across all ranks of a fresh communicator. Each
  /// rank optionally sleeps for its entry delay first (the paper's
  /// delay-injection synchronization check); returns each rank's exit
  /// time relative to the common start.
  std::vector<std::chrono::nanoseconds> run_once(
      LatencyModel latency = uniform_latency(),
      std::vector<std::chrono::nanoseconds> entry_delays = {}) const {
    return StageEngine::run_once(std::move(latency), nullptr, entry_delays,
                                 nullptr, nullptr);
  }

  /// Post one bounded-wait episode (resilience.hpp); see
  /// StageEngine::post_resilient for the report contract.
  ResilientEpisodeHandle post_resilient(RankContext& ctx,
                                        const ResilienceOptions& options,
                                        StallReport& report,
                                        int episode = 0) const {
    return StageEngine::post_resilient(ctx, options, report, episode);
  }

  /// Exactly wait(post_resilient(ctx, options, report, episode)).
  bool execute_resilient(RankContext& ctx, const ResilienceOptions& options,
                         StallReport& report, int episode = 0) const {
    return StageEngine::execute_resilient(ctx, options, report, episode);
  }

  /// One bounded-wait barrier across all ranks of a fresh communicator
  /// with `faults` attached; returns the finalized StallReport. Never
  /// hangs and never leaks rank threads.
  StallReport run_once_resilient(
      const ResilienceOptions& options, const FaultPlan& faults = {},
      LatencyModel latency = uniform_latency()) const {
    return StageEngine::run_once_resilient(options, faults, std::move(latency),
                                           nullptr, nullptr, nullptr);
  }
};

}  // namespace optibar::simmpi
