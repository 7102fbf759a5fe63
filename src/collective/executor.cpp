#include "collective/executor.hpp"

#include <algorithm>
#include <memory>

#include "util/error.hpp"

namespace optibar {

using simmpi::Clock;

CollectiveExecutor::CollectiveExecutor(const CollectiveSchedule& schedule,
                                       const simmpi::ExecutorOptions& options)
    : stages_(schedule.stage_count()),
      elem_count_(schedule.elem_count()),
      options_(options) {
  options_.validate();
  OPTIBAR_REQUIRE(is_valid_collective(schedule),
                  "refusing to execute a collective schedule whose dataflow "
                  "does not implement " << to_string(schedule.op()));
  const std::size_t p = schedule.ranks();
  ops_.assign(p, std::vector<StageOps>(stages_));
  for (std::size_t s = 0; s < stages_; ++s) {
    for (const CollectiveEdge& e : schedule.stage(s)) {
      ops_[e.src][s].sends.push_back(SendOp{e.dst, e.offset, e.count});
      ops_[e.dst][s].recvs.push_back(
          RecvOp{e.src, e.offset, e.count, e.combine});
    }
  }
  // Stage edges are sorted by (src, dst), so each rank's recvs arrive in
  // ascending src already; sort defensively to pin the application order.
  for (std::size_t r = 0; r < p; ++r) {
    for (std::size_t s = 0; s < stages_; ++s) {
      std::sort(ops_[r][s].recvs.begin(), ops_[r][s].recvs.end(),
                [](const RecvOp& a, const RecvOp& b) { return a.src < b.src; });
    }
  }
  if (options_.shared_pool != nullptr) {
    OPTIBAR_REQUIRE(options_.shared_pool->size() >= p,
                    "shared pool has " << options_.shared_pool->size()
                                       << " workers, schedule needs " << p);
  } else if (options_.mode == simmpi::ExecutionMode::kPersistentPool) {
    pool_ = std::make_unique<simmpi::RankPool>(p);
  }
}

CollectiveExecutor::CollectiveExecutor(const CollectiveSchedule& schedule,
                                       simmpi::ExecutionMode mode)
    : CollectiveExecutor(schedule, [mode] {
        simmpi::ExecutorOptions options;
        options.mode = mode;
        return options;
      }()) {}

void CollectiveExecutor::run_episode(simmpi::Communicator& comm,
                                     const simmpi::RankFunction& fn) const {
  if (options_.shared_pool != nullptr) {
    simmpi::run_ranks(*options_.shared_pool, comm, fn);
  } else if (pool_ != nullptr) {
    simmpi::run_ranks(*pool_, comm, fn);
  } else {
    simmpi::run_ranks(comm, fn);
  }
}

void CollectiveExecutor::check_context(const simmpi::RankContext& ctx,
                                       const Payload& buffer) const {
  OPTIBAR_REQUIRE(ctx.rank() < ops_.size(),
                  "rank out of range for this executor");
  OPTIBAR_REQUIRE(ctx.size() == ops_.size(),
                  "communicator size " << ctx.size()
                                       << " != schedule rank count "
                                       << ops_.size());
  OPTIBAR_REQUIRE(buffer.size() == elem_count_,
                  "buffer has " << buffer.size() << " words, expected "
                                << elem_count_);
}

Payload CollectiveExecutor::send_words(const Payload& buffer,
                                       const SendOp& send) const {
  return Payload(
      buffer.begin() + static_cast<std::ptrdiff_t>(send.offset),
      buffer.begin() + static_cast<std::ptrdiff_t>(send.offset + send.count));
}

void CollectiveExecutor::apply_stage(const StageOps& ops,
                                     const std::vector<Payload>& inbox,
                                     ReduceOp op, Payload& buffer) const {
  // Apply incoming edges in ascending source order (recvs are sorted).
  for (std::size_t k = 0; k < ops.recvs.size(); ++k) {
    const RecvOp& recv = ops.recvs[k];
    const Payload& in = inbox[k];
    OPTIBAR_ASSERT(in.size() == recv.count,
                   "received " << in.size() << " words, expected "
                               << recv.count);
    for (std::size_t i = 0; i < recv.count; ++i) {
      std::uint64_t& word = buffer[recv.offset + i];
      word = recv.combine ? reduce_word(op, word, in[i]) : in[i];
    }
  }
}

void CollectiveExecutor::begin_stage(EpisodeHandle& handle,
                                     std::size_t stage) const {
  if (stage == stages_) {
    handle.done_ = true;
    handle.requests_.clear();
    handle.inbox_.clear();
    return;
  }
  handle.stage_ = stage;
  const StageOps& ops = ops_[handle.ctx_->rank()][stage];
  const int tag = simmpi::episode_tag(handle.episode_, stages_, stage);
  handle.requests_.clear();
  handle.requests_.reserve(ops.sends.size() + ops.recvs.size());
  // Copy every outgoing sub-range first: the stage's sends read the
  // buffer as it is at stage entry, before any incoming data lands.
  for (const SendOp& send : ops.sends) {
    handle.requests_.push_back(
        handle.ctx_->issend(send.dst, tag,
                            send_words(*handle.buffer_, send)));
  }
  handle.inbox_.assign(ops.recvs.size(), Payload{});
  for (std::size_t k = 0; k < ops.recvs.size(); ++k) {
    handle.requests_.push_back(
        handle.ctx_->irecv(ops.recvs[k].src, tag, &handle.inbox_[k]));
  }
}

CollectiveExecutor::EpisodeHandle CollectiveExecutor::post(
    simmpi::RankContext& ctx, ReduceOp op, Payload& buffer,
    int episode) const {
  check_context(ctx, buffer);
  EpisodeHandle handle;
  handle.ctx_ = &ctx;
  handle.op_ = op;
  handle.buffer_ = &buffer;
  handle.episode_ = episode;
  begin_stage(handle, 0);
  return handle;
}

bool CollectiveExecutor::test(EpisodeHandle& handle) const {
  if (handle.done_) {
    return true;
  }
  OPTIBAR_REQUIRE(handle.ctx_ != nullptr, "test() on an empty handle");
  for (;;) {
    for (const simmpi::Request& request : handle.requests_) {
      if (!request->test()) {
        return false;
      }
    }
    apply_stage(ops_[handle.ctx_->rank()][handle.stage_], handle.inbox_,
                handle.op_, *handle.buffer_);
    begin_stage(handle, handle.stage_ + 1);
    if (handle.done_) {
      return true;
    }
  }
}

void CollectiveExecutor::wait(EpisodeHandle& handle) const {
  if (handle.done_) {
    return;
  }
  OPTIBAR_REQUIRE(handle.ctx_ != nullptr, "wait() on an empty handle");
  while (!handle.done_) {
    if (handle.ctx_->wait_all_batched_until(
            handle.requests_,
            Clock::now() + options_.progress_slice)) {
      apply_stage(ops_[handle.ctx_->rank()][handle.stage_], handle.inbox_,
                  handle.op_, *handle.buffer_);
      begin_stage(handle, handle.stage_ + 1);
    }
  }
}

void CollectiveExecutor::execute(simmpi::RankContext& ctx, ReduceOp op,
                                 Payload& buffer, int episode) const {
  EpisodeHandle handle = post(ctx, op, buffer, episode);
  wait(handle);
}

void CollectiveExecutor::begin_stage_resilient(ResilientEpisodeHandle& handle,
                                               std::size_t stage) const {
  simmpi::RankStall& mine = handle.report_->per_rank[handle.ctx_->rank()];
  if (stage == stages_) {
    mine.stage_reached = stages_;
    handle.done_ = true;
    handle.sends_.clear();
    handle.recvs_.clear();
    handle.inbox_.reset();
    return;
  }
  handle.stage_ = stage;
  mine.stage_reached = stage;
  if (stage >= handle.crash_at_) {
    mine.crashed = true;
    handle.failed_ = true;
    return;
  }
  const StageOps& ops = ops_[handle.ctx_->rank()][stage];
  const int tag = simmpi::episode_tag(handle.episode_, stages_, stage);
  // Snapshot rule: outgoing words are read before anything of this
  // stage lands, and the buffer is untouched until the stage
  // completes — so every resend re-reads identical words.
  handle.sends_.clear();
  handle.sends_.reserve(ops.sends.size());
  for (const SendOp& send : ops.sends) {
    handle.sends_.push_back(ResilientEpisodeHandle::SendState{
        send.dst,
        {handle.ctx_->issend(send.dst, tag,
                             send_words(*handle.buffer_, send))}});
  }
  // The inbox is shared with the communicator (keepalive): if this
  // rank gives up on a receive, a late sender can still match it and
  // deliver — into storage that must outlive this frame.
  handle.inbox_ = std::make_shared<std::vector<Payload>>(ops.recvs.size());
  handle.recvs_.clear();
  handle.recvs_.reserve(ops.recvs.size());
  for (std::size_t k = 0; k < ops.recvs.size(); ++k) {
    handle.recvs_.push_back(ResilientEpisodeHandle::RecvState{
        ops.recvs[k].src,
        handle.ctx_->irecv(ops.recvs[k].src, tag, &(*handle.inbox_)[k],
                           handle.inbox_)});
  }
  handle.attempt_ = 0;
  handle.budget_ = handle.options_.stage_deadline(stage);
  handle.consumed_ = Clock::duration::zero();
}

CollectiveExecutor::ResilientEpisodeHandle CollectiveExecutor::post_resilient(
    simmpi::RankContext& ctx, ReduceOp op, Payload& buffer,
    const simmpi::ResilienceOptions& options, simmpi::StallReport& report,
    int episode) const {
  check_context(ctx, buffer);
  OPTIBAR_REQUIRE(report.per_rank.size() == ops_.size() &&
                      report.stages == stages_,
                  "StallReport not reset for this executor");
  ResilientEpisodeHandle handle;
  handle.ctx_ = &ctx;
  handle.report_ = &report;
  handle.options_ = options;
  handle.op_ = op;
  handle.buffer_ = &buffer;
  handle.episode_ = episode;
  const FaultInjector* faults = ctx.communicator().fault_injector();
  handle.crash_at_ = faults != nullptr ? faults->crash_stage(ctx.rank())
                                       : FaultInjector::kNoCrash;
  begin_stage_resilient(handle, 0);
  return handle;
}

void CollectiveExecutor::progress_resilient(ResilientEpisodeHandle& handle,
                                            Clock::duration slice) const {
  const Clock::time_point slice_end = Clock::now() + slice;
  simmpi::RankStall& mine = handle.report_->per_rank[handle.ctx_->rank()];
  while (!handle.done_ && !handle.failed_) {
    const Clock::time_point t0 = Clock::now();
    const Clock::duration remaining =
        std::max(Clock::duration::zero(), handle.budget_ - handle.consumed_);
    Clock::time_point deadline = t0 + remaining;
    if (deadline > slice_end) {
      deadline = std::max(slice_end, t0);
    }
    bool all_done = true;
    for (ResilientEpisodeHandle::SendState& send : handle.sends_) {
      for (const simmpi::Request& request : send.attempts) {
        send.done = send.done || request->wait_until(deadline);
      }
      all_done = all_done && send.done;
    }
    for (ResilientEpisodeHandle::RecvState& recv : handle.recvs_) {
      if (!recv.done && recv.request->wait_until(deadline)) {
        recv.done = true;
        mine.delivered.push_back(
            simmpi::SignalEdge{handle.stage_, recv.src, handle.ctx_->rank()});
      }
      all_done = all_done && recv.done;
    }
    handle.consumed_ += Clock::now() - t0;
    if (all_done) {
      // Stage complete: apply incoming edges in ascending source order,
      // exactly like the happy path.
      apply_stage(ops_[handle.ctx_->rank()][handle.stage_], *handle.inbox_,
                  handle.op_, *handle.buffer_);
      begin_stage_resilient(handle, handle.stage_ + 1);
      if (Clock::now() >= slice_end) {
        return;
      }
      continue;
    }
    if (handle.consumed_ >= handle.budget_) {
      if (handle.attempt_ >= handle.options_.max_retries) {
        for (const ResilientEpisodeHandle::SendState& send : handle.sends_) {
          if (!send.done) {
            mine.pending_send_to.push_back(send.dst);
          }
        }
        for (const ResilientEpisodeHandle::RecvState& recv : handle.recvs_) {
          if (!recv.done) {
            mine.pending_recv_from.push_back(recv.src);
          }
        }
        handle.failed_ = true;
        return;
      }
      const StageOps& ops = ops_[handle.ctx_->rank()][handle.stage_];
      const int tag =
          simmpi::episode_tag(handle.episode_, stages_, handle.stage_);
      for (std::size_t k = 0; k < handle.sends_.size(); ++k) {
        if (!handle.sends_[k].done) {
          handle.sends_[k].attempts.push_back(handle.ctx_->issend(
              handle.sends_[k].dst, tag,
              send_words(*handle.buffer_, ops.sends[k])));
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

bool CollectiveExecutor::test(ResilientEpisodeHandle& handle) const {
  if (handle.done()) {
    return true;
  }
  OPTIBAR_REQUIRE(handle.ctx_ != nullptr, "test() on an empty handle");
  progress_resilient(handle, Clock::duration::zero());
  return handle.done();
}

bool CollectiveExecutor::wait(ResilientEpisodeHandle& handle) const {
  if (handle.done()) {
    return handle.succeeded();
  }
  OPTIBAR_REQUIRE(handle.ctx_ != nullptr, "wait() on an empty handle");
  while (!handle.done()) {
    progress_resilient(handle, options_.progress_slice);
  }
  return handle.succeeded();
}

bool CollectiveExecutor::execute_resilient(
    simmpi::RankContext& ctx, ReduceOp op, Payload& buffer,
    const simmpi::ResilienceOptions& options, simmpi::StallReport& report,
    int episode) const {
  ResilientEpisodeHandle handle =
      post_resilient(ctx, op, buffer, options, report, episode);
  return wait(handle);
}

CollectiveExecutor::ResilientResult CollectiveExecutor::run_once_resilient(
    const std::vector<Payload>& inputs, ReduceOp op,
    const simmpi::ResilienceOptions& options, const FaultPlan& faults,
    simmpi::LatencyModel latency,
    simmpi::ByteLatencyModel byte_latency) const {
  const std::size_t p = ops_.size();
  OPTIBAR_REQUIRE(inputs.size() == p,
                  "expected " << p << " input buffers, got " << inputs.size());
  ResilientResult result;
  result.buffers = inputs;
  result.report.reset(p, stages_);
  simmpi::Communicator comm(p, std::move(latency), std::move(byte_latency));
  if (!faults.empty()) {
    comm.set_fault_plan(faults);
  }
  run_episode(comm, [&](simmpi::RankContext& ctx) {
    if (execute_resilient(ctx, op, result.buffers[ctx.rank()], options,
                          result.report)) {
      result.report.per_rank[ctx.rank()].finished = true;
    }
  });
  result.report.finalize();
  return result;
}

std::vector<Payload> CollectiveExecutor::run_once(
    const std::vector<Payload>& inputs, ReduceOp op,
    simmpi::LatencyModel latency,
    simmpi::ByteLatencyModel byte_latency) const {
  const std::size_t p = ops_.size();
  OPTIBAR_REQUIRE(inputs.size() == p,
                  "expected " << p << " input buffers, got " << inputs.size());
  std::vector<Payload> buffers = inputs;
  simmpi::Communicator comm(p, std::move(latency), std::move(byte_latency));
  run_episode(comm, [&](simmpi::RankContext& ctx) {
    execute(ctx, op, buffers[ctx.rank()]);
  });
  OPTIBAR_ASSERT(comm.unmatched_operations() == 0,
                 "collective left unmatched operations on the communicator");
  return buffers;
}

}  // namespace optibar
