#include "collective/executor.hpp"

#include "util/error.hpp"

namespace optibar {

namespace {

std::vector<simmpi::StageEngine::PlacedOp> collective_ops(
    const CollectiveSchedule& schedule) {
  OPTIBAR_REQUIRE(is_valid_collective(schedule),
                  "refusing to execute a collective schedule whose dataflow "
                  "does not implement " << to_string(schedule.op()));
  using Kind = simmpi::StageOp::Kind;
  std::vector<simmpi::StageEngine::PlacedOp> ops;
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    for (const CollectiveEdge& e : schedule.stage(s)) {
      ops.push_back({e.src, s, {e.dst, e.offset, e.count, false, Kind::kSend}});
      ops.push_back(
          {e.dst, s, {e.src, e.offset, e.count, e.combine, Kind::kRecv}});
    }
  }
  return ops;
}

template <ReduceOp kOp>
std::uint64_t combine_with(std::uint64_t mine, std::uint64_t in) {
  return reduce_word(kOp, mine, in);
}

simmpi::CombineFn combine_of(ReduceOp op) {
  switch (op) {
    case ReduceOp::kSum:
      return combine_with<ReduceOp::kSum>;
    case ReduceOp::kMin:
      return combine_with<ReduceOp::kMin>;
    case ReduceOp::kMax:
      return combine_with<ReduceOp::kMax>;
    case ReduceOp::kXor:
      return combine_with<ReduceOp::kXor>;
  }
  OPTIBAR_FAIL("unknown ReduceOp");
}

}  // namespace

CollectiveExecutor::CollectiveExecutor(const CollectiveSchedule& schedule,
                                       const simmpi::ExecutorOptions& options)
    : StageEngine(schedule.ranks(), schedule.stage_count(),
                  schedule.elem_count(), collective_ops(schedule), options) {}

CollectiveExecutor::EpisodeHandle CollectiveExecutor::post(
    simmpi::RankContext& ctx, ReduceOp op, Payload& buffer,
    int episode) const {
  return StageEngine::post(ctx, episode, &buffer, combine_of(op));
}

void CollectiveExecutor::execute(simmpi::RankContext& ctx, ReduceOp op,
                                 Payload& buffer, int episode) const {
  StageEngine::execute(ctx, episode, &buffer, combine_of(op));
}

std::vector<Payload> CollectiveExecutor::run_once(
    const std::vector<Payload>& inputs, ReduceOp op,
    simmpi::LatencyModel latency,
    simmpi::ByteLatencyModel byte_latency) const {
  std::vector<Payload> buffers = inputs;
  StageEngine::run_once(std::move(latency), std::move(byte_latency), {},
                        &buffers, combine_of(op));
  return buffers;
}

CollectiveExecutor::ResilientEpisodeHandle CollectiveExecutor::post_resilient(
    simmpi::RankContext& ctx, ReduceOp op, Payload& buffer,
    const simmpi::ResilienceOptions& options, simmpi::StallReport& report,
    int episode) const {
  return StageEngine::post_resilient(ctx, options, report, episode, &buffer,
                                     combine_of(op));
}

bool CollectiveExecutor::execute_resilient(
    simmpi::RankContext& ctx, ReduceOp op, Payload& buffer,
    const simmpi::ResilienceOptions& options, simmpi::StallReport& report,
    int episode) const {
  return StageEngine::execute_resilient(ctx, options, report, episode,
                                        &buffer, combine_of(op));
}

CollectiveExecutor::ResilientResult CollectiveExecutor::run_once_resilient(
    const std::vector<Payload>& inputs, ReduceOp op,
    const simmpi::ResilienceOptions& options, const FaultPlan& faults,
    simmpi::LatencyModel latency,
    simmpi::ByteLatencyModel byte_latency) const {
  ResilientResult result{inputs, {}};
  result.report = StageEngine::run_once_resilient(
      options, faults, std::move(latency), std::move(byte_latency),
      &result.buffers, combine_of(op));
  return result;
}

}  // namespace optibar
