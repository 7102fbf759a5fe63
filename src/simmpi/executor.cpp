#include "simmpi/executor.hpp"

#include <algorithm>
#include <thread>

#include "rma/layout.hpp"
#include "util/error.hpp"

namespace optibar::simmpi {

ScheduleExecutor::ScheduleExecutor(const Schedule& schedule,
                                   const ExecutorOptions& options)
    : stages_(schedule.stage_count()), options_(options) {
  options_.validate();
  OPTIBAR_REQUIRE(schedule.is_barrier(),
                  "refusing to execute a signal pattern that is not a "
                  "barrier (Eq. 3 check failed)");
  const std::size_t p = schedule.ranks();
  ops_.assign(p, std::vector<StageOps>(stages_));
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t s = 0; s < stages_; ++s) {
      // Partition each stage's edges by transport tag: untagged edges
      // keep the issend/irecv path, tagged ones become put/flag pairs.
      StageOps& ops = ops_[r][s];
      for (std::size_t dst : schedule.targets_of(r, s)) {
        (schedule.one_sided(s, r, dst) ? ops.put_to : ops.send_to)
            .push_back(dst);
      }
      for (std::size_t src : schedule.sources_of(r, s)) {
        (schedule.one_sided(s, src, r) ? ops.flag_from : ops.recv_from)
            .push_back(src);
      }
      has_one_sided_ = has_one_sided_ || !ops.put_to.empty();
    }
  }
  if (options_.shared_pool != nullptr) {
    OPTIBAR_REQUIRE(options_.shared_pool->size() >= p,
                    "shared pool has " << options_.shared_pool->size()
                                       << " workers, schedule needs " << p);
  } else if (options_.mode == ExecutionMode::kPersistentPool) {
    pool_ = std::make_unique<RankPool>(p);
  }
}

ScheduleExecutor::ScheduleExecutor(const Schedule& schedule,
                                   ExecutionMode mode)
    : ScheduleExecutor(schedule, [mode] {
        ExecutorOptions options;
        options.mode = mode;
        return options;
      }()) {}

void ScheduleExecutor::run_episode(Communicator& comm,
                                   const RankFunction& fn) const {
  if (options_.shared_pool != nullptr) {
    run_ranks(*options_.shared_pool, comm, fn);
  } else if (pool_ != nullptr) {
    run_ranks(*pool_, comm, fn);
  } else {
    run_ranks(comm, fn);
  }
}

void ScheduleExecutor::check_context(const RankContext& ctx) const {
  OPTIBAR_REQUIRE(ctx.rank() < ops_.size(),
                  "rank out of range for this executor");
  OPTIBAR_REQUIRE(ctx.size() == ops_.size(),
                  "communicator size " << ctx.size()
                                       << " != schedule rank count "
                                       << ops_.size());
}

void ScheduleExecutor::begin_stage(EpisodeHandle& handle,
                                   std::size_t stage) const {
  if (stage == stages_) {
    handle.done_ = true;
    handle.requests_.clear();
    handle.flags_.clear();
    return;
  }
  handle.stage_ = stage;
  const std::size_t rank = handle.ctx_->rank();
  const StageOps& ops = ops_[rank][stage];
  // Tag = (episode, stage) so repeated barrier calls cannot cross-match.
  const int tag = episode_tag(handle.episode_, stages_, stage);
  handle.requests_.clear();
  handle.requests_.reserve(ops.send_to.size() + ops.recv_from.size());
  // Sends before recvs — the op order execute() has always used; the
  // lifecycle must not reorder it or wait(post()) stops being
  // bit-identical to the old blocking path. One-sided puts go out
  // between the two: like sends they are outbound, but they complete
  // locally at issue and produce no request.
  for (std::size_t dst : ops.send_to) {
    handle.requests_.push_back(handle.ctx_->issend(dst, tag));
  }
  handle.flags_.clear();
  if (!ops.put_to.empty() || !ops.flag_from.empty()) {
    const std::size_t e = static_cast<std::size_t>(handle.episode_);
    const std::size_t p = ops_.size();
    for (std::size_t dst : ops.put_to) {
      // The flag lands in dst's window at the slot keyed by *this*
      // rank; the region base is symmetric across ranks.
      handle.ctx_->rma_put(
          dst, handle.rma_base_ + rma::word_index(e, stage, rank, stages_, p),
          rma::flag_value(e), stage);
    }
    handle.flags_.reserve(ops.flag_from.size());
    for (std::size_t src : ops.flag_from) {
      handle.flags_.push_back(Communicator::FlagWait{
          handle.rma_base_ + rma::word_index(e, stage, src, stages_, p),
          rma::flag_value(e)});
    }
  }
  for (std::size_t src : ops.recv_from) {
    handle.requests_.push_back(handle.ctx_->irecv(src, tag));
  }
}

std::size_t ScheduleExecutor::rma_base(RankContext& ctx, int episode) const {
  OPTIBAR_REQUIRE(episode >= 0,
                  "one-sided schedules need non-negative episode numbers "
                  "(the epoch double-buffering is keyed on them)");
  return ctx.communicator().rma_region(
      reinterpret_cast<std::uintptr_t>(this),
      rma::words_per_rank(stages_, ops_.size()));
}

ScheduleExecutor::EpisodeHandle ScheduleExecutor::post(RankContext& ctx,
                                                       int episode) const {
  check_context(ctx);
  EpisodeHandle handle;
  handle.ctx_ = &ctx;
  handle.episode_ = episode;
  if (has_one_sided_) {
    handle.rma_base_ = rma_base(ctx, episode);
  }
  begin_stage(handle, 0);
  return handle;
}

bool ScheduleExecutor::test(EpisodeHandle& handle) const {
  if (handle.done_) {
    return true;
  }
  OPTIBAR_REQUIRE(handle.ctx_ != nullptr, "test() on an empty handle");
  for (;;) {
    for (const Request& request : handle.requests_) {
      if (!request->test()) {
        return false;
      }
    }
    for (const Communicator::FlagWait& flag : handle.flags_) {
      if (!handle.ctx_->rma_test(flag.word, flag.expected)) {
        return false;
      }
    }
    begin_stage(handle, handle.stage_ + 1);
    if (handle.done_) {
      return true;
    }
  }
}

void ScheduleExecutor::wait(EpisodeHandle& handle) const {
  if (handle.done_) {
    return;
  }
  OPTIBAR_REQUIRE(handle.ctx_ != nullptr, "wait() on an empty handle");
  while (!handle.done_) {
    // One bounded progress slice: park on this rank's shard condvar
    // until the stage's requests all matched or the slice expires, then
    // either advance a stage or park again. A loop of slices consumes
    // the same matches as one unbounded wait_all_on park.
    if (handle.ctx_->wait_stage_until(
            handle.requests_, handle.flags_,
            Clock::now() + options_.progress_slice)) {
      begin_stage(handle, handle.stage_ + 1);
    }
  }
}

void ScheduleExecutor::execute(RankContext& ctx, int episode) const {
  EpisodeHandle handle = post(ctx, episode);
  wait(handle);
}

void ScheduleExecutor::begin_stage_resilient(ResilientEpisodeHandle& handle,
                                             std::size_t stage) const {
  RankStall& mine = handle.report_->per_rank[handle.ctx_->rank()];
  if (stage == stages_) {
    mine.stage_reached = stages_;
    handle.done_ = true;
    handle.sends_.clear();
    handle.recvs_.clear();
    handle.flags_.clear();
    return;
  }
  handle.stage_ = stage;
  mine.stage_reached = stage;
  if (stage >= handle.crash_at_) {
    mine.crashed = true;
    handle.failed_ = true;
    return;
  }
  const std::size_t rank = handle.ctx_->rank();
  const StageOps& ops = ops_[rank][stage];
  const int tag = episode_tag(handle.episode_, stages_, stage);
  handle.sends_.clear();
  handle.sends_.reserve(ops.send_to.size());
  for (std::size_t dst : ops.send_to) {
    handle.sends_.push_back(ResilientEpisodeHandle::SendOp{
        dst, {handle.ctx_->issend(dst, tag)}});
  }
  handle.flags_.clear();
  if (!ops.put_to.empty() || !ops.flag_from.empty()) {
    const std::size_t e = static_cast<std::size_t>(handle.episode_);
    const std::size_t p = ops_.size();
    // Puts complete at issue — nothing joins sends_, nothing retries:
    // the fire-and-forget sender never learns of a putdrop, so only
    // the receiver's flag wait below can stall.
    for (std::size_t dst : ops.put_to) {
      handle.ctx_->rma_put(
          dst, handle.rma_base_ + rma::word_index(e, stage, rank, stages_, p),
          rma::flag_value(e), stage);
    }
    handle.flags_.reserve(ops.flag_from.size());
    for (std::size_t src : ops.flag_from) {
      handle.flags_.push_back(ResilientEpisodeHandle::FlagOp{
          src, handle.rma_base_ + rma::word_index(e, stage, src, stages_, p)});
    }
  }
  handle.recvs_.clear();
  handle.recvs_.reserve(ops.recv_from.size());
  for (std::size_t src : ops.recv_from) {
    handle.recvs_.push_back(
        ResilientEpisodeHandle::RecvOp{src, handle.ctx_->irecv(src, tag)});
  }
  handle.attempt_ = 0;
  handle.budget_ = handle.options_.stage_deadline(stage);
  handle.consumed_ = Clock::duration::zero();
}

ScheduleExecutor::ResilientEpisodeHandle ScheduleExecutor::post_resilient(
    RankContext& ctx, const ResilienceOptions& options, StallReport& report,
    int episode) const {
  check_context(ctx);
  OPTIBAR_REQUIRE(report.per_rank.size() == ops_.size() &&
                      report.stages == stages_,
                  "StallReport not reset for this executor");
  ResilientEpisodeHandle handle;
  handle.ctx_ = &ctx;
  handle.report_ = &report;
  handle.options_ = options;
  handle.episode_ = episode;
  if (has_one_sided_) {
    handle.rma_base_ = rma_base(ctx, episode);
  }
  const FaultInjector* faults = ctx.communicator().fault_injector();
  handle.crash_at_ = faults != nullptr ? faults->crash_stage(ctx.rank())
                                       : FaultInjector::kNoCrash;
  begin_stage_resilient(handle, 0);
  return handle;
}

ScheduleExecutor::ResilientEpisodeHandle ScheduleExecutor::post_resilient(
    RankContext& ctx, StallReport& report, int episode) const {
  return post_resilient(ctx, options_.resilience, report, episode);
}

void ScheduleExecutor::progress_resilient(ResilientEpisodeHandle& handle,
                                          Clock::duration slice) const {
  const Clock::time_point slice_end = Clock::now() + slice;
  RankStall& mine = handle.report_->per_rank[handle.ctx_->rank()];
  while (!handle.done_ && !handle.failed_) {
    // Wait the stage's requests against min(slice left, budget left):
    // the deadline budget is charged by the time actually spent inside
    // progress, never by the compute a polling caller does in between.
    const Clock::time_point t0 = Clock::now();
    const Clock::duration remaining =
        std::max(Clock::duration::zero(), handle.budget_ - handle.consumed_);
    Clock::time_point deadline = t0 + remaining;
    if (deadline > slice_end) {
      deadline = std::max(slice_end, t0);
    }
    bool all_done = true;
    for (ResilientEpisodeHandle::SendOp& send : handle.sends_) {
      for (const Request& request : send.attempts) {
        send.done = send.done || request->wait_until(deadline);
      }
      all_done = all_done && send.done;
    }
    for (ResilientEpisodeHandle::RecvOp& recv : handle.recvs_) {
      if (!recv.done && recv.request->wait_until(deadline)) {
        recv.done = true;
        mine.delivered.push_back(
            SignalEdge{handle.stage_, recv.src, handle.ctx_->rank()});
      }
      all_done = all_done && recv.done;
    }
    if (!handle.flags_.empty()) {
      // One combined bounded park for the stage's outstanding flags,
      // then per-flag visible probes so a partial arrival (e.g. one
      // dropped put among several) marks what did land.
      std::vector<Communicator::FlagWait> waits;
      for (const ResilientEpisodeHandle::FlagOp& flag : handle.flags_) {
        if (!flag.done) {
          waits.push_back(Communicator::FlagWait{
              flag.word,
              rma::flag_value(static_cast<std::size_t>(handle.episode_))});
        }
      }
      if (!waits.empty()) {
        handle.ctx_->wait_stage_until({}, waits, deadline);
        for (ResilientEpisodeHandle::FlagOp& flag : handle.flags_) {
          if (!flag.done &&
              handle.ctx_->rma_test(
                  flag.word, rma::flag_value(
                                 static_cast<std::size_t>(handle.episode_)))) {
            flag.done = true;
            mine.delivered.push_back(
                SignalEdge{handle.stage_, flag.src, handle.ctx_->rank()});
          }
        }
      }
      for (const ResilientEpisodeHandle::FlagOp& flag : handle.flags_) {
        all_done = all_done && flag.done;
      }
    }
    handle.consumed_ += Clock::now() - t0;
    if (all_done) {
      begin_stage_resilient(handle, handle.stage_ + 1);
      if (Clock::now() >= slice_end) {
        return;
      }
      continue;
    }
    if (handle.consumed_ >= handle.budget_) {
      if (handle.attempt_ >= handle.options_.max_retries) {
        for (const ResilientEpisodeHandle::SendOp& send : handle.sends_) {
          if (!send.done) {
            mine.pending_send_to.push_back(send.dst);
          }
        }
        for (const ResilientEpisodeHandle::RecvOp& recv : handle.recvs_) {
          if (!recv.done) {
            mine.pending_recv_from.push_back(recv.src);
          }
        }
        for (const ResilientEpisodeHandle::FlagOp& flag : handle.flags_) {
          if (!flag.done) {
            mine.pending_put_from.push_back(flag.src);
          }
        }
        handle.failed_ = true;
        return;
      }
      // Resend every unacked synchronized send: a fresh message with a
      // fresh fault draw, so a lossy (not dead) link can still let it
      // through. Receives are not reposted — the original stays armed.
      const int tag = episode_tag(handle.episode_, stages_, handle.stage_);
      for (ResilientEpisodeHandle::SendOp& send : handle.sends_) {
        if (!send.done) {
          send.attempts.push_back(handle.ctx_->issend(send.dst, tag));
        }
      }
      ++handle.attempt_;
      handle.budget_ = std::chrono::duration_cast<Clock::duration>(
          handle.budget_ * handle.options_.retry_backoff);
      handle.consumed_ = Clock::duration::zero();
    }
    if (Clock::now() >= slice_end) {
      return;
    }
  }
}

bool ScheduleExecutor::test(ResilientEpisodeHandle& handle) const {
  if (handle.done()) {
    return true;
  }
  OPTIBAR_REQUIRE(handle.ctx_ != nullptr, "test() on an empty handle");
  progress_resilient(handle, Clock::duration::zero());
  return handle.done();
}

bool ScheduleExecutor::wait(ResilientEpisodeHandle& handle) const {
  if (handle.done()) {
    return handle.succeeded();
  }
  OPTIBAR_REQUIRE(handle.ctx_ != nullptr, "wait() on an empty handle");
  while (!handle.done()) {
    progress_resilient(handle, options_.progress_slice);
  }
  return handle.succeeded();
}

bool ScheduleExecutor::execute_resilient(RankContext& ctx,
                                         const ResilienceOptions& options,
                                         StallReport& report,
                                         int episode) const {
  ResilientEpisodeHandle handle =
      post_resilient(ctx, options, report, episode);
  return wait(handle);
}

StallReport ScheduleExecutor::run_once_resilient(
    const ResilienceOptions& options, const FaultPlan& faults,
    LatencyModel latency) const {
  const std::size_t p = ops_.size();
  StallReport report;
  report.reset(p, stages_);
  Communicator comm(p, std::move(latency));
  if (!faults.empty()) {
    comm.set_fault_plan(faults);
  }
  run_episode(comm, [&](RankContext& ctx) {
    if (execute_resilient(ctx, options, report)) {
      report.per_rank[ctx.rank()].finished = true;
    }
  });
  report.finalize();
  return report;
}

std::vector<std::chrono::nanoseconds> ScheduleExecutor::run_once(
    LatencyModel latency,
    std::vector<std::chrono::nanoseconds> entry_delays) const {
  const std::size_t p = ops_.size();
  if (!entry_delays.empty()) {
    OPTIBAR_REQUIRE(entry_delays.size() == p, "entry_delays size mismatch");
  }
  std::vector<std::chrono::nanoseconds> exits(p);
  Communicator comm(p, std::move(latency));
  const Clock::time_point start = Clock::now();
  run_episode(comm, [&](RankContext& ctx) {
    const std::size_t r = ctx.rank();
    if (!entry_delays.empty() && entry_delays[r].count() > 0) {
      std::this_thread::sleep_for(entry_delays[r]);
    }
    execute(ctx);
    exits[r] = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - start);
  });
  OPTIBAR_ASSERT(comm.unmatched_operations() == 0,
                 "barrier left unmatched operations on the communicator");
  return exits;
}

}  // namespace optibar::simmpi
