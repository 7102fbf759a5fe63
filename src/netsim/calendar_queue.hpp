// Calendar-queue scheduler over typed simulation events.
//
// The zero-alloc replacement for EventQueue on the netsim hot path
// (EventQueue remains as the reference scheduler of the test-only
// simulate_reference, tests/support/). Three structural changes buy
// the throughput:
//
//   - events are a typed POD (SimEvent) dispatched through a switch in
//     the engine, not a heap-allocated std::function closure;
//   - event storage is a slab arena with a free list: pending events
//     live in reused slots, so steady-state scheduling performs no
//     heap allocation at all once the slab is warm;
//   - the priority queue is a calendar queue (R. Brown, CACM 1988):
//     an array of time-bucketed lanes, each holding its events sorted
//     by (time, seq). With the bucket width adapted to the observed
//     event spacing, schedule() and pop() are O(1) amortized instead
//     of the binary heap's O(log n).
//
// Determinism contract (the invariant everything else leans on): pop()
// returns events in exactly ascending (time, insertion-sequence) order
// — the same total order as EventQueue — regardless of bucket layout,
// resize history, or floating-point bucket-index rounding:
//
//   - equal times always map to the same bucket (the index is a pure
//     function of time and width), and each bucket is kept sorted, so
//     ties resolve by insertion sequence;
//   - the year scan tracks the cursor's *virtual* bucket number as an
//     integer and tests eligibility with the SAME virtual_bucket()
//     function that placed the event — never with a recomputed
//     (vb+1)*width bound, which floating-point rounding can put on the
//     other side of floor(time/width) and thereby pop a later bucket's
//     event first;
//   - when every pending event lives in a future year the scan comes up
//     empty and the direct-search fallback pops the global (time, seq)
//     minimum — order is never violated, the worst case is one wasted
//     ring scan.
//
// reset() keeps every capacity (buckets, slab, free list) and the
// adapted bucket width, so repeated simulations reuse all storage.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace optibar {

/// What a fired event does (the engine's dispatch switch).
enum class SimEventKind : std::uint8_t {
  kEnter = 0,      ///< rank `a` enters the barrier
  kInject,         ///< message `a` -> `b` of `stage` arrives (ghost?)
  kAsyncSendDone,  ///< eager-send stage token of rank `a` completes
  kFinalizeMatch,  ///< receiver processing of `a` -> `b` done (payload
                   ///< = injection time, for the trace)
  kAdvanceStage,   ///< deferred poll-tick transition of rank `a`
  kPutInject,      ///< one-sided put `a` -> `b` of `stage` hits the wire
  kPutLand,        ///< put flag `a` -> `b` becomes visible (payload =
                   ///< injection time, for the trace)
  kPutsDone,       ///< sync-mode put-batch token of rank `a` completes
};

/// One typed simulation event. Plain data: the meaning of a/b/stage/
/// payload depends on `kind` (see SimEventKind). Time and tie-break
/// sequence live in the queue's bucket entries, not here.
struct SimEvent {
  SimEventKind kind = SimEventKind::kEnter;
  bool ghost = false;
  std::uint32_t stage = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double payload = 0.0;
};

class CalendarQueue {
 public:
  CalendarQueue() { buckets_.resize(kMinBuckets); }

  /// Schedule `event` at absolute virtual time `time`; must not be in
  /// the past relative to now().
  void schedule(double time, const SimEvent& event) {
    OPTIBAR_REQUIRE(time >= now_, "event scheduled in the past: " << time
                                                                  << " < "
                                                                  << now_);
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
      slab_[slot] = event;
    } else {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.push_back(event);
    }
    const Ref ref{time, next_seq_++, slot};
    Bucket& bucket = buckets_[ring_index(virtual_bucket(time))];
    if (bucket.refs.empty() || before(bucket.refs.back(), ref)) {
      bucket.refs.push_back(ref);  // common case: append in order
    } else {
      const auto it =
          std::upper_bound(bucket.refs.begin() +
                               static_cast<std::ptrdiff_t>(bucket.head),
                           bucket.refs.end(), ref,
                           [](const Ref& a, const Ref& b) {
                             return before(a, b);
                           });
      bucket.refs.insert(it, ref);
    }
    ++count_;
    if (count_ > 2 * buckets_.size()) {
      rebuild(buckets_.size() * 2);
    }
  }

  double now() const { return now_; }
  bool empty() const { return count_ == 0; }
  std::size_t pending() const { return count_; }

  /// Total events scheduled since the last reset() (the events/sec
  /// numerator of bench_netsim).
  std::uint64_t scheduled() const { return next_seq_; }

  /// Remove and return the earliest event (ascending (time, seq));
  /// advances now().
  SimEvent pop() {
    OPTIBAR_REQUIRE(count_ > 0, "pop on empty calendar queue");
    std::size_t scanned = 0;
    while (scanned < buckets_.size()) {
      Bucket& bucket = buckets_[cursor_];
      // Eligible = belongs to the cursor's year. Computed with the same
      // virtual_bucket() that placed the event, so placement and scan
      // cannot disagree (a `time < (vb+1)*width` bound can, when the
      // division rounds down across the boundary).
      if (bucket.head < bucket.refs.size() &&
          virtual_bucket(bucket.refs[bucket.head].time) <= cursor_vb_) {
        return take(bucket);
      }
      cursor_ = (cursor_ + 1) % buckets_.size();
      ++cursor_vb_;
      ++scanned;
    }
    // Every event lives in a future year (or a boundary rounded past
    // the scan): jump straight to the global minimum.
    std::size_t best = buckets_.size();
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
      const Bucket& b = buckets_[i];
      if (b.head >= b.refs.size()) {
        continue;
      }
      if (best == buckets_.size() ||
          before(b.refs[b.head], buckets_[best].refs[buckets_[best].head])) {
        best = i;
      }
    }
    OPTIBAR_ASSERT(best < buckets_.size(), "calendar queue lost an event");
    cursor_ = best;
    return take(buckets_[best]);
  }

  /// Drop all pending events and rewind time, keeping every capacity
  /// (buckets, slab, free list) and the adapted bucket width.
  void reset() {
    for (Bucket& bucket : buckets_) {
      bucket.refs.clear();
      bucket.head = 0;
    }
    slab_.clear();
    free_.clear();
    count_ = 0;
    now_ = 0.0;
    next_seq_ = 0;
    cursor_ = 0;
    cursor_vb_ = 0;
  }

  /// Introspection for the unit tests.
  std::size_t bucket_count() const { return buckets_.size(); }
  double bucket_width() const { return width_; }

 private:
  struct Ref {
    double time;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  struct Bucket {
    std::vector<Ref> refs;
    std::size_t head = 0;  ///< popped prefix (compacted when drained)
  };

  static constexpr std::size_t kMinBuckets = 8;

  static bool before(const Ref& a, const Ref& b) {
    if (a.time != b.time) {
      return a.time < b.time;
    }
    return a.seq < b.seq;
  }

  std::uint64_t virtual_bucket(double time) const {
    const double q = time / width_;
    // Clamp pathological quotients (tiny widths against far-future
    // times); monotonicity — all the order proof needs — survives.
    if (q >= 9.0e18) {
      return static_cast<std::uint64_t>(9.0e18);
    }
    return static_cast<std::uint64_t>(q);
  }

  std::size_t ring_index(std::uint64_t vb) const {
    return static_cast<std::size_t>(vb % buckets_.size());
  }

  SimEvent take(Bucket& bucket) {
    const Ref ref = bucket.refs[bucket.head++];
    if (bucket.head == bucket.refs.size()) {
      bucket.refs.clear();
      bucket.head = 0;
    }
    --count_;
    now_ = ref.time;
    // Re-anchor the scan at the popped event's exact virtual bucket:
    // this keeps the insert invariant (new events never land behind
    // the cursor) exact even across float boundary rounding.
    cursor_vb_ = virtual_bucket(ref.time);
    cursor_ = ring_index(cursor_vb_);
    const SimEvent event = slab_[ref.slot];
    free_.push_back(ref.slot);
    if (count_ < buckets_.size() / 2 && buckets_.size() > kMinBuckets) {
      rebuild(buckets_.size() / 2);
    }
    return event;
  }

  /// Re-bucket everything into `new_count` buckets with a width fitted
  /// to the observed event spacing. O(n log n), amortized O(1) per
  /// operation by the doubling/halving thresholds.
  void rebuild(std::size_t new_count) {
    scratch_.clear();
    for (Bucket& bucket : buckets_) {
      scratch_.insert(scratch_.end(),
                      bucket.refs.begin() +
                          static_cast<std::ptrdiff_t>(bucket.head),
                      bucket.refs.end());
      bucket.refs.clear();
      bucket.head = 0;
    }
    std::sort(scratch_.begin(), scratch_.end(),
              [](const Ref& a, const Ref& b) { return before(a, b); });
    buckets_.resize(new_count);
    width_ = fitted_width();
    // Appending in globally sorted order keeps every bucket sorted.
    for (const Ref& ref : scratch_) {
      buckets_[ring_index(virtual_bucket(ref.time))].refs.push_back(ref);
    }
    cursor_vb_ = virtual_bucket(now_);
    cursor_ = ring_index(cursor_vb_);
  }

  /// Bucket width from the sorted scratch_: ~1/3 of the mean event gap
  /// over the middle 80% (trimming shields the estimate from a single
  /// far-future outlier stretching the span). Degenerate spreads (all
  /// ties, empty) keep the current width.
  double fitted_width() {
    const std::size_t n = scratch_.size();
    if (n < 2) {
      return width_;
    }
    const std::size_t trim = n / 10;
    double span = scratch_[n - 1 - trim].time - scratch_[trim].time;
    std::size_t gaps = n - 1 - 2 * trim;
    if (!(span > 0.0)) {
      span = scratch_.back().time - scratch_.front().time;  // untrimmed
      gaps = n - 1;
    }
    if (!(span > 0.0)) {
      return width_;  // all events tie: width is irrelevant
    }
    const double w = 3.0 * span / static_cast<double>(gaps);
    if (!(w > 1e-300) || !(w < 1e300)) {
      return width_;
    }
    return w;
  }

  std::vector<Bucket> buckets_;
  std::vector<SimEvent> slab_;     ///< event payload arena
  std::vector<std::uint32_t> free_;  ///< recycled slab slots
  std::vector<Ref> scratch_;       ///< rebuild staging
  double width_ = 1.0;
  double now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::size_t count_ = 0;
  std::size_t cursor_ = 0;        ///< ring position of the scan
  std::uint64_t cursor_vb_ = 0;   ///< the scan's virtual bucket number
};

}  // namespace optibar
