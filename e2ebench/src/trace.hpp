// Outside-in span tracing for the traced benchmark run.
//
// The benchmark wraps every call it makes into an optibar module in a
// span (name, start, end, parent, op id). Spans live in per-thread
// logs that are preallocated before the traced phase, so recording is
// two clock reads and a store; the logs are written out as CSV when
// the run ends. A layer's self time is its span minus the part its
// child spans cover; spans named "*.op" are the benchmark's own
// per-operation roots, so their self time is the harness glue the
// layers do not account for.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/// steady_clock now, in nanoseconds since its epoch.
inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = nullptr;  ///< string literal, e.g. "core.tune"
  std::int32_t parent = -1;    ///< index in the same log; -1 = root
  std::uint64_t op = 0;        ///< operation the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// One recording thread's spans. Not thread-safe; one log per thread.
/// add() returns -1 and records nothing once `capacity` spans are
/// held; the workloads size their traced phases to fit.
class SpanLog {
 public:
  explicit SpanLog(std::size_t capacity);

  /// Record an externally timed span.
  std::int32_t add(const char* name, std::uint64_t op, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::size_t capacity_;
};

/// Times the consecutive layer calls of one operation. Timestamps are
/// taken on every run; a traced run additionally records the op's root
/// span and one child span per step, from the same timestamps.
class OpTimeline {
 public:
  explicit OpTimeline(std::uint64_t op) : op_(op), start_(now_ns()) {}

  /// Run `fn` as one step attributed to `layer`; returns its duration.
  template <class Fn>
  std::int64_t step(const char* layer, Fn&& fn) {
    const std::int64_t start = now_ns();
    fn();
    const std::int64_t end = now_ns();
    if (count_ < kMaxSteps) {
      steps_[count_++] = Step{layer, start, end};
    }
    return end - start;
  }

  std::int64_t start_ns() const { return start_; }

  /// End the op and return its duration; with a log, record the root
  /// span `root` and its step children.
  std::int64_t finish(SpanLog* log, const char* root);

 private:
  struct Step {
    const char* name;
    std::int64_t start;
    std::int64_t end;
  };
  static constexpr std::size_t kMaxSteps = 16;
  std::uint64_t op_;
  std::int64_t start_;
  Step steps_[kMaxSteps] = {};
  std::size_t count_ = 0;
};

/// Per-layer self times of a set of logs.
struct LayerTimes {
  /// name -> self time (ns) summed per operation, one entry per op
  /// that entered the layer.
  std::map<std::string, std::vector<double>> per_op_self_ns;
  /// name -> total self time (ns) over all ops.
  std::map<std::string, double> total_self_ns;
  double op_ns = 0.0;      ///< summed duration of all root spans
  double layer_ns = 0.0;   ///< summed self time of non-"*.op" spans

  /// Share of operation time the layer spans account for.
  double attributed_share() const {
    return op_ns > 0.0 ? layer_ns / op_ns : 0.0;
  }
};

LayerTimes layer_times(const std::vector<const SpanLog*>& logs);

/// Write every span as CSV (log, index, parent, op, name, start_ns,
/// end_ns), after `header` lines each prefixed with "# ".
void write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs,
                 const std::vector<std::string>& header);

}  // namespace e2e
