#include "simmpi/stage_engine.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <thread>
#include <tuple>
#include <utility>

#include "rma/layout.hpp"
#include "util/error.hpp"

namespace optibar::simmpi {

namespace {

/// Width of one bounded park inside wait(): the rank re-scans its stage
/// at least this often, which keeps pooled workers responsive and lets
/// the resilient lifecycle charge deadlines by progress time.
constexpr Clock::duration kProgressSlice = std::chrono::milliseconds(1);

using Kind = StageOp::Kind;

bool payload_recv(const StageOp& op) {
  return op.kind == Kind::kRecv && op.count > 0;
}

}  // namespace

StageEngine::RegionKey::RegionKey() {
  // Top bit set: rma::Window keys are addresses or small constants, and
  // user-space addresses never carry it, so the key spaces are disjoint.
  static std::atomic<std::uintptr_t> next{0};
  constexpr std::uintptr_t kEngineBit =
      std::uintptr_t{1} << (std::numeric_limits<std::uintptr_t>::digits - 1);
  value = kEngineBit | next.fetch_add(1, std::memory_order_relaxed);
}

StageEngine::StageEngine(std::size_t ranks, std::size_t stages,
                         std::size_t buffer_words, std::vector<PlacedOp> ops,
                         const ExecutorOptions& options)
    : ranks_(ranks),
      stages_(stages),
      buffer_words_(buffer_words),
      options_(options) {
  OPTIBAR_REQUIRE(options_.shared_pool == nullptr ||
                      options_.shared_pool->size() >= ranks,
                  "shared pool has " << options_.shared_pool->size()
                                     << " workers, schedule needs " << ranks);
  std::stable_sort(ops.begin(), ops.end(),
                   [](const PlacedOp& a, const PlacedOp& b) {
                     const auto key = [](const PlacedOp& x) {
                       const bool inbound = x.op.kind == Kind::kRecv ||
                                            x.op.kind == Kind::kFlag;
                       return std::make_tuple(x.rank, x.stage, x.op.kind,
                                              inbound ? x.op.peer : 0);
                     };
                     return key(a) < key(b);
                   });
  row_begin_.assign(ranks * stages + 1, 0);
  ops_.reserve(ops.size());
  for (const PlacedOp& placed : ops) {
    OPTIBAR_REQUIRE(placed.rank < ranks && placed.stage < stages &&
                        placed.op.peer < ranks &&
                        placed.op.offset + placed.op.count <= buffer_words,
                    "op at rank " << placed.rank << ", stage "
                                  << placed.stage << " outside the plan");
    ++row_begin_[placed.rank * stages + placed.stage + 1];
    ops_.push_back(placed.op);
    has_one_sided_ = has_one_sided_ || placed.op.kind == Kind::kPut;
  }
  for (std::size_t cell = 1; cell < row_begin_.size(); ++cell) {
    row_begin_[cell] += row_begin_[cell - 1];
  }
}

std::span<const StageOp> StageEngine::ops(std::size_t rank,
                                          std::size_t stage) const {
  const std::size_t cell = rank * stages_ + stage;
  return {ops_.data() + row_begin_[cell], ops_.data() + row_begin_[cell + 1]};
}

std::size_t StageEngine::op_count(std::size_t rank) const {
  OPTIBAR_REQUIRE(rank < ranks_, "rank out of range");
  return row_begin_[(rank + 1) * stages_] - row_begin_[rank * stages_];
}

StageEngine::Cursor StageEngine::start(RankContext& ctx, int episode,
                                       Payload* buffer,
                                       CombineFn combine) const {
  OPTIBAR_REQUIRE(ctx.rank() < ranks_, "rank out of range for this executor");
  OPTIBAR_REQUIRE(ctx.size() == ranks_,
                  "communicator size " << ctx.size()
                                       << " != schedule rank count "
                                       << ranks_);
  const std::size_t words = buffer == nullptr ? 0 : buffer->size();
  OPTIBAR_REQUIRE(words == buffer_words_, "buffer has "
                                              << words << " words, expected "
                                              << buffer_words_);
  Cursor at{&ctx, buffer, combine, episode, 0, 0};
  if (has_one_sided_) {
    OPTIBAR_REQUIRE(episode >= 0,
                    "one-sided schedules need non-negative episode numbers "
                    "(the epoch double-buffering is keyed on them)");
    at.rma_base = ctx.communicator().rma_region(
        region_.value, rma::words_per_rank(stages_, ranks_));
  }
  return at;
}

void StageEngine::check_buffers(const std::vector<Payload>* buffers) const {
  // Checked before any rank starts: a rank refusing its buffer mid-run
  // would leave its peers waiting on signals it never sends.
  if (buffers == nullptr) {
    return;
  }
  OPTIBAR_REQUIRE(buffers->size() == ranks_,
                  "expected " << ranks_ << " input buffers, got "
                              << buffers->size());
  for (const Payload& buffer : *buffers) {
    OPTIBAR_REQUIRE(buffer.size() == buffer_words_,
                    "buffer has " << buffer.size() << " words, expected "
                                  << buffer_words_);
  }
}

Request StageEngine::issue(const Cursor& at, const StageOp& op, int tag,
                           Payload* sink,
                           const std::shared_ptr<void>& keepalive) const {
  RankContext& ctx = *at.ctx;
  switch (op.kind) {
    case Kind::kSend:
      if (op.count == 0) {
        return ctx.issend(op.peer, tag);
      }
      // The snapshot rule: the range is copied out at issue, before
      // anything of this stage lands in the buffer.
      return ctx.issend(
          op.peer, tag,
          Payload(at.buffer->begin() + static_cast<std::ptrdiff_t>(op.offset),
                  at.buffer->begin() +
                      static_cast<std::ptrdiff_t>(op.offset + op.count)));
    case Kind::kPut: {
      // The flag lands in the peer's window at the slot keyed by this
      // rank; the region base is symmetric across ranks.
      const auto e = static_cast<std::size_t>(at.episode);
      ctx.rma_put(op.peer,
                  at.rma_base + rma::word_index(e, at.stage, ctx.rank(),
                                                stages_, ranks_),
                  rma::flag_value(e), at.stage);
      return nullptr;
    }
    case Kind::kRecv:
      return op.count == 0 ? ctx.irecv(op.peer, tag)
                           : ctx.irecv(op.peer, tag, sink, keepalive);
    case Kind::kFlag:
      break;
  }
  return nullptr;
}

Communicator::FlagWait StageEngine::flag_of(const Cursor& at,
                                            const StageOp& op) const {
  const auto e = static_cast<std::size_t>(at.episode);
  return Communicator::FlagWait{
      at.rma_base + rma::word_index(e, at.stage, op.peer, stages_, ranks_),
      rma::flag_value(e)};
}

std::size_t StageEngine::payload_recvs(std::size_t rank,
                                       std::size_t stage) const {
  const std::span<const StageOp> cell = ops(rank, stage);
  return static_cast<std::size_t>(
      std::count_if(cell.begin(), cell.end(), payload_recv));
}

void StageEngine::apply_stage(const Cursor& at,
                              const std::vector<Payload>& inbox) const {
  // Ascending source order: receives are sorted so within the cell.
  std::size_t slot = 0;
  for (const StageOp& op : ops(at.ctx->rank(), at.stage)) {
    if (!payload_recv(op)) {
      continue;
    }
    const Payload& in = inbox[slot++];
    OPTIBAR_ASSERT(in.size() == op.count,
                   "received " << in.size() << " words, expected "
                               << op.count);
    for (std::size_t i = 0; i < op.count; ++i) {
      std::uint64_t& word = (*at.buffer)[op.offset + i];
      word = op.combine ? at.combine(word, in[i]) : in[i];
    }
  }
}

// ---- plain lifecycle ----------------------------------------------------

void StageEngine::begin_stage(EpisodeHandle& handle, std::size_t stage) const {
  const std::size_t rank = handle.at_.ctx->rank();
  while (stage < stages_ && ops(rank, stage).empty()) {
    ++stage;  // no-op stage for this rank: skipped outright
  }
  handle.requests_.clear();
  handle.flags_.clear();
  if (stage == stages_) {
    handle.done_ = true;
    handle.inbox_.clear();
    return;
  }
  handle.at_.stage = stage;
  const int tag = episode_tag(handle.at_.episode, stages_, stage);
  handle.inbox_.assign(payload_recvs(rank, stage), Payload{});
  std::size_t slot = 0;
  for (const StageOp& op : ops(rank, stage)) {
    if (op.kind == Kind::kFlag) {
      handle.flags_.push_back(flag_of(handle.at_, op));
    } else if (Request request = issue(
                   handle.at_, op, tag,
                   payload_recv(op) ? &handle.inbox_[slot++] : nullptr,
                   nullptr)) {
      handle.requests_.push_back(std::move(request));
    }
  }
}

void StageEngine::finish_stage(EpisodeHandle& handle) const {
  if (!handle.inbox_.empty()) {
    apply_stage(handle.at_, handle.inbox_);
  }
  begin_stage(handle, handle.at_.stage + 1);
}

StageEngine::EpisodeHandle StageEngine::post(RankContext& ctx, int episode,
                                             Payload* buffer,
                                             CombineFn combine) const {
  EpisodeHandle handle;
  handle.at_ = start(ctx, episode, buffer, combine);
  begin_stage(handle, 0);
  return handle;
}

bool StageEngine::test(EpisodeHandle& handle) const {
  OPTIBAR_REQUIRE(handle.done_ || handle.at_.ctx != nullptr,
                  "test() on an empty handle");
  const auto stage_done = [&] {
    return std::all_of(handle.requests_.begin(), handle.requests_.end(),
                       [](const Request& r) { return r->test(); }) &&
           std::all_of(handle.flags_.begin(), handle.flags_.end(),
                       [&](const Communicator::FlagWait& f) {
                         return handle.at_.ctx->rma_test(f.word, f.expected);
                       });
  };
  while (!handle.done_ && stage_done()) {
    finish_stage(handle);
  }
  return handle.done_;
}

void StageEngine::wait(EpisodeHandle& handle) const {
  OPTIBAR_REQUIRE(handle.done_ || handle.at_.ctx != nullptr,
                  "wait() on an empty handle");
  while (!handle.done_) {
    // One bounded slice on the rank's shard condvar; a loop of slices
    // consumes the same matches as one unbounded park.
    if (handle.at_.ctx->wait_stage_until(handle.requests_, handle.flags_,
                                         Clock::now() + kProgressSlice)) {
      finish_stage(handle);
    }
  }
}

void StageEngine::execute(RankContext& ctx, int episode, Payload* buffer,
                          CombineFn combine) const {
  EpisodeHandle handle = post(ctx, episode, buffer, combine);
  wait(handle);
}

// ---- resilient lifecycle ------------------------------------------------

void StageEngine::begin_stage_resilient(ResilientEpisodeHandle& handle,
                                        std::size_t stage) const {
  const std::size_t rank = handle.at_.ctx->rank();
  RankStall& mine = handle.report_->per_rank[rank];
  handle.pending_.clear();
  handle.at_.stage = stage;
  mine.stage_reached = stage;
  if (stage == stages_) {
    handle.done_ = true;
    handle.inbox_.reset();
    return;
  }
  if (stage >= handle.crash_at_) {
    mine.crashed = true;
    handle.failed_ = true;
    return;
  }
  const int tag = episode_tag(handle.at_.episode, stages_, stage);
  const std::size_t inbox_size = payload_recvs(rank, stage);
  handle.inbox_ = inbox_size == 0
                      ? nullptr
                      : std::make_shared<std::vector<Payload>>(inbox_size);
  std::size_t slot = 0;
  const std::size_t cell = rank * stages_ + stage;
  for (std::size_t i = row_begin_[cell]; i < row_begin_[cell + 1]; ++i) {
    const StageOp& op = ops_[i];
    Request request =
        issue(handle.at_, op, tag,
              payload_recv(op) ? &(*handle.inbox_)[slot++] : nullptr,
              handle.inbox_);
    // Puts complete at issue: nothing to await, nothing to retry.
    if (op.kind != Kind::kPut) {
      handle.pending_.push_back({i, {}, false});
      if (request) {
        handle.pending_.back().attempts.push_back(std::move(request));
      }
    }
  }
  handle.attempt_ = 0;
  handle.budget_ = handle.options_.stage_deadline(stage);
  handle.consumed_ = Clock::duration::zero();
}

StageEngine::ResilientEpisodeHandle StageEngine::post_resilient(
    RankContext& ctx, const ResilienceOptions& options, StallReport& report,
    int episode, Payload* buffer, CombineFn combine) const {
  options.validate();
  ResilientEpisodeHandle handle;
  handle.at_ = start(ctx, episode, buffer, combine);
  OPTIBAR_REQUIRE(report.per_rank.size() == ranks_ &&
                      report.stages == stages_,
                  "StallReport not reset for this executor");
  handle.report_ = &report;
  handle.options_ = options;
  const FaultInjector* faults = ctx.communicator().fault_injector();
  handle.crash_at_ = faults != nullptr ? faults->crash_stage(ctx.rank())
                                       : FaultInjector::kNoCrash;
  begin_stage_resilient(handle, 0);
  return handle;
}

void StageEngine::progress_resilient(ResilientEpisodeHandle& handle,
                                     Clock::duration slice) const {
  const Clock::time_point slice_end = Clock::now() + slice;
  const std::size_t rank = handle.at_.ctx->rank();
  RankStall& mine = handle.report_->per_rank[rank];
  while (!handle.done_ && !handle.failed_) {
    // Wait the stage's ops against min(slice left, budget left): the
    // budget is charged by the time actually spent inside progress,
    // never by the compute a polling caller does in between.
    const Clock::time_point t0 = Clock::now();
    const Clock::duration remaining =
        std::max(Clock::duration::zero(), handle.budget_ - handle.consumed_);
    const Clock::time_point deadline =
        std::min(t0 + remaining, std::max(slice_end, t0));
    // Each outstanding op waits against the same deadline, so a partial
    // arrival (one dropped signal among several) marks what did land.
    for (ResilientEpisodeHandle::Pending& pending : handle.pending_) {
      if (pending.done) {
        continue;
      }
      const StageOp& op = ops_[pending.op];
      if (op.kind == Kind::kFlag) {
        const Communicator::FlagWait flag = flag_of(handle.at_, op);
        pending.done = handle.at_.ctx->wait_stage_until({}, {&flag, 1},
                                                        deadline);
      }
      for (const Request& request : pending.attempts) {
        pending.done = pending.done || request->wait_until(deadline);
      }
      if (pending.done && op.kind != Kind::kSend) {
        mine.delivered.push_back({handle.at_.stage, op.peer, rank});
      }
    }
    handle.consumed_ += Clock::now() - t0;
    if (std::all_of(handle.pending_.begin(), handle.pending_.end(),
                    [](const auto& pending) { return pending.done; })) {
      if (handle.inbox_ != nullptr) {
        apply_stage(handle.at_, *handle.inbox_);
      }
      begin_stage_resilient(handle, handle.at_.stage + 1);
    } else if (handle.consumed_ >= handle.budget_ &&
               handle.attempt_ >= handle.options_.max_retries) {
      for (const ResilientEpisodeHandle::Pending& pending : handle.pending_) {
        const StageOp& op = ops_[pending.op];
        if (!pending.done) {
          (op.kind == Kind::kSend   ? mine.pending_send_to
           : op.kind == Kind::kRecv ? mine.pending_recv_from
                                    : mine.pending_put_from)
              .push_back(op.peer);
        }
      }
      handle.failed_ = true;
    } else if (handle.consumed_ >= handle.budget_) {
      // Resend every unacked synchronized send: a fresh message with a
      // fresh fault draw, so a lossy (not dead) link can still let it
      // through. The buffer is untouched until the stage completes, so
      // a resend carries the same words. Receives stay armed.
      const int tag =
          episode_tag(handle.at_.episode, stages_, handle.at_.stage);
      for (ResilientEpisodeHandle::Pending& pending : handle.pending_) {
        const StageOp& op = ops_[pending.op];
        if (op.kind == Kind::kSend && !pending.done) {
          pending.attempts.push_back(
              issue(handle.at_, op, tag, nullptr, nullptr));
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

bool StageEngine::test(ResilientEpisodeHandle& handle) const {
  OPTIBAR_REQUIRE(handle.done() || handle.at_.ctx != nullptr,
                  "test() on an empty handle");
  if (!handle.done()) {
    progress_resilient(handle, Clock::duration::zero());
  }
  return handle.done();
}

bool StageEngine::wait(ResilientEpisodeHandle& handle) const {
  OPTIBAR_REQUIRE(handle.done() || handle.at_.ctx != nullptr,
                  "wait() on an empty handle");
  while (!handle.done()) {
    progress_resilient(handle, kProgressSlice);
  }
  return handle.succeeded();
}

bool StageEngine::execute_resilient(RankContext& ctx,
                                    const ResilienceOptions& options,
                                    StallReport& report, int episode,
                                    Payload* buffer,
                                    CombineFn combine) const {
  ResilientEpisodeHandle handle =
      post_resilient(ctx, options, report, episode, buffer, combine);
  return wait(handle);
}

// ---- whole-communicator runs ---------------------------------------------

void StageEngine::run_ranks_once(Communicator& comm,
                                 const RankFunction& fn) const {
  if (options_.shared_pool != nullptr) {
    run_ranks(*options_.shared_pool, comm, fn);
  } else {
    run_ranks(comm, fn);
  }
}

std::vector<std::chrono::nanoseconds> StageEngine::run_once(
    LatencyModel latency, ByteLatencyModel byte_latency,
    const std::vector<std::chrono::nanoseconds>& entry_delays,
    std::vector<Payload>* buffers, CombineFn combine) const {
  check_buffers(buffers);
  OPTIBAR_REQUIRE(entry_delays.empty() || entry_delays.size() == ranks_,
                  "entry_delays size mismatch");
  std::vector<std::chrono::nanoseconds> exits(ranks_);
  Communicator comm(ranks_, std::move(latency), std::move(byte_latency));
  const Clock::time_point start_time = Clock::now();
  run_ranks_once(comm, [&](RankContext& ctx) {
    const std::size_t r = ctx.rank();
    if (!entry_delays.empty() && entry_delays[r].count() > 0) {
      std::this_thread::sleep_for(entry_delays[r]);
    }
    execute(ctx, 0, buffers != nullptr ? &(*buffers)[r] : nullptr, combine);
    exits[r] = std::chrono::duration_cast<std::chrono::nanoseconds>(
        Clock::now() - start_time);
  });
  OPTIBAR_ASSERT(comm.unmatched_operations() == 0,
                 "episode left unmatched operations on the communicator");
  return exits;
}

StallReport StageEngine::run_once_resilient(const ResilienceOptions& options,
                                            const FaultPlan& faults,
                                            LatencyModel latency,
                                            ByteLatencyModel byte_latency,
                                            std::vector<Payload>* buffers,
                                            CombineFn combine) const {
  options.validate();
  check_buffers(buffers);
  StallReport report;
  report.reset(ranks_, stages_);
  Communicator comm(ranks_, std::move(latency), std::move(byte_latency));
  if (!faults.empty()) {
    comm.set_fault_plan(faults);
  }
  run_ranks_once(comm, [&](RankContext& ctx) {
    const std::size_t r = ctx.rank();
    report.per_rank[r].finished = execute_resilient(
        ctx, options, report, 0,
        buffers != nullptr ? &(*buffers)[r] : nullptr, combine);
  });
  report.finalize();
  return report;
}

}  // namespace optibar::simmpi
