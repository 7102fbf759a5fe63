#include "simmpi/executor.hpp"

#include "util/error.hpp"

namespace optibar::simmpi {

namespace {

std::vector<StageEngine::PlacedOp> barrier_ops(const Schedule& schedule) {
  OPTIBAR_REQUIRE(schedule.is_barrier(),
                  "refusing to execute a signal pattern that is not a "
                  "barrier (Eq. 3 check failed)");
  using Kind = StageOp::Kind;
  std::vector<StageEngine::PlacedOp> ops;
  const std::size_t p = schedule.ranks();
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    const StageMatrix& stage = schedule.stage(s);
    for (std::size_t src = 0; src < p; ++src) {
      for (std::size_t dst = 0; dst < p; ++dst) {
        if (stage(src, dst) == 0) {
          continue;
        }
        const bool put = schedule.one_sided(s, src, dst);
        ops.push_back({src, s, {.peer = dst,
                                .kind = put ? Kind::kPut : Kind::kSend}});
        ops.push_back({dst, s, {.peer = src,
                                .kind = put ? Kind::kFlag : Kind::kRecv}});
      }
    }
  }
  return ops;
}

}  // namespace

ScheduleExecutor::ScheduleExecutor(const Schedule& schedule,
                                   const ExecutorOptions& options)
    : StageEngine(schedule.ranks(), schedule.stage_count(), 0,
                  barrier_ops(schedule), options) {}

}  // namespace optibar::simmpi
