// End-to-end collective execution on the simmpi runtime.
//
// The collective front-end of the stage engine (simmpi/stage_engine.hpp):
// it translates a CollectiveSchedule into per-rank stage ops — one send
// and one receive per edge, carrying the edge's word range — and
// supplies the ReduceOp that combining receives fold with. The engine's
// stage semantics match the serial interpreter exactly (the snapshot
// rule, incoming edges applied in ascending source order), so a valid
// schedule's execution is bit-exact against execute_serial() and the
// oracle: data correctness, not just timing, is testable on the threaded
// runtime. Execution is handle-based (MPI_Iallreduce-style) with the
// engine's post/test/wait lifecycle.
#pragma once

#include <cstddef>
#include <vector>

#include "collective/schedule.hpp"
#include "simmpi/stage_engine.hpp"

namespace optibar {

class CollectiveExecutor : private simmpi::StageEngine {
 public:
  using StageEngine::EpisodeHandle;
  using StageEngine::ResilientEpisodeHandle;

  /// Precompute per-rank op lists. The schedule must pass
  /// is_valid_collective(): executing an invalid dataflow would
  /// silently produce wrong buffers.
  explicit CollectiveExecutor(const CollectiveSchedule& schedule,
                              const simmpi::ExecutorOptions& options = {});

  using StageEngine::options;
  using StageEngine::ranks;
  using StageEngine::stage_count;
  using StageEngine::test;
  using StageEngine::wait;

  /// Post one collective episode on `buffer` (elem_count words,
  /// transformed in place; it must stay at a stable address until the
  /// episode is done) and return without waiting.
  EpisodeHandle post(simmpi::RankContext& ctx, ReduceOp op, Payload& buffer,
                     int episode = 0) const;

  /// Exactly wait(post(ctx, op, buffer, episode)).
  void execute(simmpi::RankContext& ctx, ReduceOp op, Payload& buffer,
               int episode = 0) const;

  /// Run the collective once across all ranks of a fresh communicator
  /// and return the final per-rank buffers. `inputs` must hold ranks()
  /// buffers of elem_count words each.
  std::vector<Payload> run_once(
      const std::vector<Payload>& inputs, ReduceOp op,
      simmpi::LatencyModel latency = simmpi::uniform_latency(),
      simmpi::ByteLatencyModel byte_latency = nullptr) const;

  /// Post one bounded-wait episode (see simmpi/resilience.hpp):
  /// per-stage deadlines, bounded resends, crash faults honoured.
  /// Incoming data is applied only when the whole stage completed, so a
  /// stalled rank's buffer stays at its last consistent stage snapshot;
  /// resends re-copy from the unchanged buffer and carry identical
  /// words. `report` must be pre-reset and outlive the handle.
  ResilientEpisodeHandle post_resilient(
      simmpi::RankContext& ctx, ReduceOp op, Payload& buffer,
      const simmpi::ResilienceOptions& options, simmpi::StallReport& report,
      int episode = 0) const;

  /// Exactly wait(post_resilient(...)).
  bool execute_resilient(simmpi::RankContext& ctx, ReduceOp op,
                         Payload& buffer,
                         const simmpi::ResilienceOptions& options,
                         simmpi::StallReport& report, int episode = 0) const;

  /// A resilient run across all ranks: final buffers (stalled ranks
  /// keep their last consistent state) plus the finalized StallReport.
  struct ResilientResult {
    std::vector<Payload> buffers;
    simmpi::StallReport report;
  };
  ResilientResult run_once_resilient(
      const std::vector<Payload>& inputs, ReduceOp op,
      const simmpi::ResilienceOptions& options,
      const FaultPlan& faults = {},
      simmpi::LatencyModel latency = simmpi::uniform_latency(),
      simmpi::ByteLatencyModel byte_latency = nullptr) const;
};

}  // namespace optibar
