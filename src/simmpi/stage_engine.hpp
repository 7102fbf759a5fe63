// The per-rank stage engine: the paper's general interpreter (Section VI),
// written once for barriers, collectives and library plans.
//
// "Execution amounts to each participating process looping over the
//  required number of stages, issuing nonblocking, synchronized signals
//  according to the dependencies of the stage (with MPI_Issend), and
//  awaiting completion of all issued requests."
//
// A barrier is that loop carrying zero-byte signals; a collective, the
// same loop carrying word ranges of a per-rank buffer. All stage ops sit
// in one flat CSR array indexed by (rank, stage); a stage runs sends,
// puts, then receives and flags, and applies received words only once
// it completed (the snapshot rule). One-sided edges use the
// double-buffered flag slots of src/rma/layout.hpp. Signal edges
// (count == 0) take the payload-free issend/irecv overloads and
// allocate no Payload or inbox.
//
// Two lifecycles, each written once:
//
//   plain      post / test / wait, execute == wait(post()). wait() parks
//              on the rank's shard condvar in bounded 1 ms slices. A
//              rank's empty stages are skipped outright — the Section
//              VII-C specialisation of generated code: no lock, no park.
//   resilient  post_resilient / test / wait / execute_resilient /
//              run_once_resilient (resilience.hpp): per-stage deadlines
//              charged by elapsed progress time, bounded resends of
//              unacked Issends, crash faults honoured, one StallReport
//              row per rank. Every stage is entered, so stage_reached and
//              crash-at-stage stay exact.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "simmpi/communicator.hpp"
#include "simmpi/rank_pool.hpp"
#include "simmpi/resilience.hpp"
#include "simmpi/runtime.hpp"

namespace optibar::simmpi {

/// How run_once-style entry points obtain rank threads.
struct ExecutorOptions {
  /// Optional caller-owned pool whose parked workers run the episodes
  /// instead of a spawned thread per rank; must outlive the executor and
  /// hold at least ranks() workers. Construction never spawns threads.
  RankPool* shared_pool = nullptr;
};

/// Folds an incoming word into the buffer word it lands on.
using CombineFn = std::uint64_t (*)(std::uint64_t mine, std::uint64_t in);

/// One operation of one rank in one stage.
struct StageOp {
  enum class Kind : std::uint8_t {
    kSend,  ///< two-sided synchronized send (issend)
    kPut,   ///< one-sided flag store into the peer's window
    kRecv,  ///< two-sided receive (irecv)
    kFlag,  ///< one-sided flag awaited in this rank's own window
  };
  std::size_t peer = 0;
  std::size_t offset = 0;  ///< first buffer word of the range
  std::size_t count = 0;   ///< words in the range; 0 for a signal
  bool combine = false;    ///< receive combines instead of overwriting
  Kind kind = Kind::kSend;
};

class StageEngine {
  /// Where one rank's episode stands; shared by both handle kinds.
  struct Cursor {
    RankContext* ctx = nullptr;
    Payload* buffer = nullptr;  ///< null for a barrier
    CombineFn combine = nullptr;
    int episode = 0;
    std::size_t stage = 0;     ///< stage whose ops are in flight
    std::size_t rma_base = 0;  ///< this engine's window region base
  };

 public:
  /// One op placed at (rank, stage): the construction input.
  struct PlacedOp {
    std::size_t rank = 0;
    std::size_t stage = 0;
    StageOp op;
  };

  /// One in-flight episode of one rank, advanced by test()/wait() on the
  /// engine that created it. Move-only; receive sinks survive moves.
  class EpisodeHandle {
   public:
    EpisodeHandle() = default;
    EpisodeHandle(EpisodeHandle&&) = default;
    EpisodeHandle& operator=(EpisodeHandle&&) = default;
    EpisodeHandle(const EpisodeHandle&) = delete;
    EpisodeHandle& operator=(const EpisodeHandle&) = delete;

    /// True once every stage completed.
    bool done() const { return done_; }

   private:
    friend class StageEngine;
    Cursor at_;
    std::vector<Request> requests_;
    std::vector<Communicator::FlagWait> flags_;
    std::vector<Payload> inbox_;  ///< the stage's payload receives
    bool done_ = false;
  };

  /// One in-flight bounded-wait episode. Only time spent inside
  /// test()/wait() is charged against a stage's deadline.
  class ResilientEpisodeHandle {
   public:
    ResilientEpisodeHandle() = default;
    ResilientEpisodeHandle(ResilientEpisodeHandle&&) = default;
    ResilientEpisodeHandle& operator=(ResilientEpisodeHandle&&) = default;
    ResilientEpisodeHandle(const ResilientEpisodeHandle&) = delete;
    ResilientEpisodeHandle& operator=(const ResilientEpisodeHandle&) = delete;

    /// True once the episode completed, crashed, or gave up.
    bool done() const { return done_ || failed_; }
    bool succeeded() const { return done_; }
    /// Crashed or exhausted its retries; the report row says where.
    bool stalled() const { return failed_; }

   private:
    friend class StageEngine;
    /// An awaited op of the current stage. A send may have several
    /// attempts (resends) and is done when any matched; a receive has
    /// one; a flag has none — its sender completed at issue and never
    /// learns of a drop, so only the receiver can report it.
    struct Pending {
      std::size_t op = 0;  ///< index into the engine's op array
      std::vector<Request> attempts;
      bool done = false;
    };

    Cursor at_;
    StallReport* report_ = nullptr;  ///< caller-owned, outlives handle
    ResilienceOptions options_;
    std::size_t crash_at_ = 0;
    std::vector<Pending> pending_;
    /// Shared with the communicator (keepalive): a late sender can still
    /// deliver into a receive this rank gave up on.
    std::shared_ptr<std::vector<Payload>> inbox_;
    std::size_t attempt_ = 0;
    Clock::duration budget_{};    ///< current attempt's deadline budget
    Clock::duration consumed_{};  ///< progress time charged so far
    bool done_ = false;
    bool failed_ = false;
  };

  /// Lay `ops` out for a plan of `ranks` x `stages` whose per-rank
  /// buffers hold `buffer_words` words (0: a barrier, no buffer). Order
  /// within a (rank, stage) cell: sends, puts, receives, flags; inbound
  /// ops by ascending source, outbound ones as given.
  StageEngine(std::size_t ranks, std::size_t stages, std::size_t buffer_words,
              std::vector<PlacedOp> ops, const ExecutorOptions& options);

  std::size_t ranks() const { return ranks_; }
  std::size_t stage_count() const { return stages_; }
  const ExecutorOptions& options() const { return options_; }

  /// Ops `rank` runs per episode (a signal counts once at each end).
  std::size_t op_count(std::size_t rank) const;

  /// Post one episode: issue the first non-empty stage and return.
  /// `buffer` (null for a barrier) is transformed in place and must stay
  /// at a stable address until done; `combine` folds combining
  /// receives. Episodes sharing a communicator need distinct episode
  /// numbers, non-negative ones when the plan has one-sided edges.
  EpisodeHandle post(RankContext& ctx, int episode, Payload* buffer = nullptr,
                     CombineFn combine = nullptr) const;
  /// Nonblocking probe (MPI_Test): advance through every completed
  /// stage; returns whether the episode is done.
  bool test(EpisodeHandle& handle) const;
  /// Drive the episode to completion in bounded progress slices.
  void wait(EpisodeHandle& handle) const;
  void execute(RankContext& ctx, int episode, Payload* buffer = nullptr,
               CombineFn combine = nullptr) const;

  /// Post one bounded-wait episode. `options` is validated here;
  /// `report` must be reset(ranks(), stage_count()) and outlive the
  /// handle. Each rank writes only its own row.
  ResilientEpisodeHandle post_resilient(RankContext& ctx,
                                        const ResilienceOptions& options,
                                        StallReport& report, int episode,
                                        Payload* buffer = nullptr,
                                        CombineFn combine = nullptr) const;
  /// One zero-width progress slice; returns handle.done().
  bool test(ResilientEpisodeHandle& handle) const;
  /// Drive to a terminal state; true when every stage completed.
  bool wait(ResilientEpisodeHandle& handle) const;
  bool execute_resilient(RankContext& ctx, const ResilienceOptions& options,
                         StallReport& report, int episode,
                         Payload* buffer = nullptr,
                         CombineFn combine = nullptr) const;

  /// One episode across all ranks of a fresh communicator. Rank r first
  /// sleeps entry_delays[r] (if given) and runs on (*buffers)[r] (if
  /// given); returns each rank's exit time since the common start.
  std::vector<std::chrono::nanoseconds> run_once(
      LatencyModel latency, ByteLatencyModel byte_latency,
      const std::vector<std::chrono::nanoseconds>& entry_delays,
      std::vector<Payload>* buffers, CombineFn combine) const;

  /// One bounded-wait episode across all ranks of a fresh communicator
  /// with `faults` attached. Never hangs: every rank completes or
  /// reports.
  StallReport run_once_resilient(const ResilienceOptions& options,
                                 const FaultPlan& faults, LatencyModel latency,
                                 ByteLatencyModel byte_latency,
                                 std::vector<Payload>* buffers,
                                 CombineFn combine) const;

 private:
  /// Window-region key, fresh for every engine instance — constructed,
  /// copied or moved — so an engine built where a freed one lived never
  /// inherits its flag words.
  struct RegionKey {
    RegionKey();
    RegionKey(const RegionKey&) : RegionKey() {}
    RegionKey& operator=(const RegionKey&) {
      value = RegionKey().value;
      return *this;
    }
    std::uintptr_t value;
  };

  std::span<const StageOp> ops(std::size_t rank, std::size_t stage) const;
  Cursor start(RankContext& ctx, int episode, Payload* buffer,
               CombineFn combine) const;
  void check_buffers(const std::vector<Payload>* buffers) const;
  void run_ranks_once(Communicator& comm, const RankFunction& fn) const;

  // Issue `op` in the cursor's stage; returns its request (null for
  // puts and flags). A payload receive lands in `sink`.
  Request issue(const Cursor& at, const StageOp& op, int tag, Payload* sink,
                const std::shared_ptr<void>& keepalive) const;
  Communicator::FlagWait flag_of(const Cursor& at, const StageOp& op) const;
  std::size_t payload_recvs(std::size_t rank, std::size_t stage) const;
  void apply_stage(const Cursor& at, const std::vector<Payload>& inbox) const;

  void begin_stage(EpisodeHandle& handle, std::size_t stage) const;
  void finish_stage(EpisodeHandle& handle) const;
  void begin_stage_resilient(ResilientEpisodeHandle& handle,
                             std::size_t stage) const;
  void progress_resilient(ResilientEpisodeHandle& handle,
                          Clock::duration slice) const;

  std::size_t ranks_ = 0;
  std::size_t stages_ = 0;
  std::size_t buffer_words_ = 0;
  std::vector<std::size_t> row_begin_;  ///< CSR offsets per (rank, stage)
  std::vector<StageOp> ops_;
  ExecutorOptions options_;
  bool has_one_sided_ = false;
  RegionKey region_;
};

}  // namespace optibar::simmpi
