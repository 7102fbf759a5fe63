// The four workloads of the end-to-end barrier benchmark. Each builds
// its inputs from RunConfig::seed, measures its closed loop, checks
// the outputs and fills a Report; see e2ebench/README.md for why each
// exists and what every metric means on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "hostspeed.hpp"
#include "report.hpp"
#include "trace.hpp"

namespace e2e {

/// Never-seen sub-communicators of hex_cluster(): restrict -> tune ->
/// compile -> predict, then netsim scoring against the tree barrier.
void run_churn(const RunConfig& config, Report& report);

/// One long-lived quad_cluster() world of 16 ranks executing its tuned
/// plan back to back on pooled rank threads and one Communicator.
void run_steady(const RunConfig& config, Report& report);

/// Three client threads against one self-healing BarrierLibrary.
void run_service(const RunConfig& config, Report& report);

/// 10240 ranks of tenk_cluster(): hierarchical tune on the tiled
/// profile -> compile_blocked -> predict -> netsim.
void run_tenk(const RunConfig& config, Report& report);

/// tree_barrier(ranks) as sorted per-stage (src, dst) edge lists, built
/// without dense stage matrices (tenk's 10240-rank tree baseline).
std::vector<std::vector<std::pair<std::size_t, std::size_t>>> tree_edges(
    std::size_t ranks);

/// Op results a closed loop reserves room for (more still fit).
inline constexpr std::size_t kReservedOps = std::size_t{1} << 17;

/// The single-caller closed loop of churn and tenk: op(i, log) for
/// i = 0, 1, ... until `seconds` have passed and at least `min_ops`
/// ran; returns each op's untraced result, each stamped with the
/// HostSpeed factor of its slice, and fills `clock`. With a `log`,
/// every op runs twice on the same inputs, once untraced and once
/// recording its spans into `log`, in an order that alternates from op
/// to op so neither side always finds the caches warm; the traced
/// results go to `traced`. The two sides then see the same host
/// conditions, so their time ratio is the tracing overhead alone.
template <class Op, class Fn>
std::vector<Op> closed_loop(double seconds, std::size_t min_ops, Fn&& op,
                            LoopClock& clock, SpanLog* log = nullptr,
                            std::vector<Op>* traced = nullptr) {
  std::vector<Op> ops;
  // Reserved up front: a vector that doubles as it goes would make
  // peak_rss_mb jump with the op count.
  ops.reserve(kReservedOps);
  if (traced != nullptr) {
    traced->reserve(kReservedOps);
  }
  HostSpeed speed;
  // (iteration wall time, slice) of every iteration; factors are known
  // only once the loop is over.
  std::vector<std::pair<std::int64_t, std::size_t>> iterations;
  iterations.reserve(kReservedOps);
  const std::int64_t start = now_ns();
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t i = 0;; ++i) {
    const std::int64_t now = now_ns();
    if (ops.size() >= min_ops && now - start >= budget) {
      break;
    }
    const std::size_t slice = speed.before_op(now);
    const std::int64_t begin = now_ns();
    if (log == nullptr) {
      ops.push_back(op(i, nullptr));
    } else if (i % 2 == 0) {
      ops.push_back(op(i, nullptr));
      traced->push_back(op(i, log));
    } else {
      traced->push_back(op(i, log));
      ops.push_back(op(i, nullptr));
    }
    iterations.emplace_back(now_ns() - begin, slice);
  }
  clock.wall_ns = now_ns() - start;
  clock.calibration_ns = speed.spent_ns();
  clock.factors = speed.factors();
  for (std::size_t k = 0; k < iterations.size(); ++k) {
    const double factor = clock.factors[iterations[k].second];
    clock.scaled_ns += static_cast<double>(iterations[k].first) * factor;
    ops[k].host_factor = factor;
    if (log != nullptr) {
      (*traced)[k].host_factor = factor;
    }
  }
  return ops;
}

/// One timing field of every op that did not fail, as doubles.
template <class Op>
std::vector<double> timings(const std::vector<Op>& ops,
                            std::int64_t Op::*field) {
  std::vector<double> out;
  for (const Op& op : ops) {
    if (!op.failed) {
      out.push_back(static_cast<double>(op.*field));
    }
  }
  return out;
}

/// The same field at nominal host speed: each time times its op's
/// host_factor.
template <class Op>
std::vector<double> scaled_timings(const std::vector<Op>& ops,
                                   std::int64_t Op::*field) {
  std::vector<double> out;
  for (const Op& op : ops) {
    if (!op.failed) {
      out.push_back(static_cast<double>(op.*field) * op.host_factor);
    }
  }
  return out;
}

/// Set-up repetitions whose median is setup_s.
inline constexpr std::size_t kSetupRepetitions = 21;

/// Span-log capacity of one traced thread.
inline constexpr std::size_t kSpanCapacity = 400000;

}  // namespace e2e
