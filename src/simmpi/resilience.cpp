#include "simmpi/resilience.hpp"

#include <algorithm>
#include <sstream>

#include "util/error.hpp"
#include "util/matrix.hpp"

namespace optibar::simmpi {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

void or_into(BoolMatrix& a, const BoolMatrix& b) {
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      a(i, j) = a(i, j) || b(i, j);
    }
  }
}

void list_ranks(std::ostream& os, const std::vector<std::size_t>& ranks) {
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    os << (i == 0 ? "" : ",") << ranks[i];
  }
}

}  // namespace

Clock::duration ResilienceOptions::stage_deadline(std::size_t stage) const {
  Clock::duration deadline = deadline_floor;
  if (stage < predicted_stage_seconds.size()) {
    const double seconds =
        predicted_stage_seconds[stage] * slack * time_scale;
    deadline = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
  }
  return std::clamp(deadline, deadline_floor, deadline_ceiling);
}

void ResilienceOptions::validate() const {
  OPTIBAR_REQUIRE(slack > 0.0, "resilience slack must be positive, got "
                                   << slack);
  OPTIBAR_REQUIRE(time_scale > 0.0,
                  "resilience time_scale must be positive, got "
                      << time_scale);
  OPTIBAR_REQUIRE(retry_backoff >= 1.0,
                  "resilience retry_backoff must be >= 1, got "
                      << retry_backoff);
  OPTIBAR_REQUIRE(deadline_floor >= Clock::duration::zero(),
                  "resilience deadline_floor must be non-negative");
  using Millis = std::chrono::duration<double, std::milli>;
  OPTIBAR_REQUIRE(deadline_ceiling >= deadline_floor,
                  "resilience deadline_floor "
                      << Millis(deadline_floor).count()
                      << " ms exceeds deadline_ceiling "
                      << Millis(deadline_ceiling).count() << " ms");
  for (const double seconds : predicted_stage_seconds) {
    OPTIBAR_REQUIRE(seconds >= 0.0,
                    "negative predicted stage cost " << seconds);
  }
}

bool StallReport::names_edge(std::size_t stage, std::size_t src,
                             std::size_t dst) const {
  return std::find(pending_edges.begin(), pending_edges.end(),
                   SignalEdge{stage, src, dst}) != pending_edges.end();
}

std::vector<std::pair<std::size_t, std::size_t>> StallReport::implicated_pairs()
    const {
  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  pairs.reserve(pending_edges.size());
  for (const SignalEdge& edge : pending_edges) {
    pairs.emplace_back(edge.src, edge.dst);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  return pairs;
}

void StallReport::reset(std::size_t rank_count, std::size_t stage_count) {
  ranks = rank_count;
  stages = stage_count;
  stalled = false;
  per_rank.assign(ranks, RankStall{});
  for (std::size_t r = 0; r < ranks; ++r) {
    per_rank[r].rank = r;
  }
  knowledge = BoolMatrix::identity(ranks);
  pending_edges.clear();
}

void StallReport::finalize() {
  OPTIBAR_ASSERT(per_rank.size() == ranks, "report not reset for this run");
  stalled = false;
  pending_edges.clear();
  for (RankStall& stall : per_rank) {
    stalled = stalled || !stall.finished;
    // Canonical order: a delivery can be detected one retry round late
    // under scheduler jitter, so the log's insertion order is not
    // reproducible — its contents are. Sorting makes equal runs
    // compare equal.
    std::sort(stall.delivered.begin(), stall.delivered.end());
    // Latest delivery by (stage, src) — a wall-clock-free definition of
    // "the peer last heard from", identical across reruns.
    stall.last_heard_from = kNone;
    SignalEdge latest{};
    for (const SignalEdge& edge : stall.delivered) {
      if (stall.last_heard_from == kNone || latest < edge) {
        latest = edge;
        stall.last_heard_from = edge.src;
      }
    }
    if (!stall.finished && !stall.crashed) {
      for (std::size_t dst : stall.pending_send_to) {
        pending_edges.push_back(SignalEdge{stall.stage_reached, stall.rank,
                                           dst});
      }
      for (std::size_t src : stall.pending_recv_from) {
        pending_edges.push_back(SignalEdge{stall.stage_reached, src,
                                           stall.rank});
      }
      for (std::size_t src : stall.pending_put_from) {
        pending_edges.push_back(SignalEdge{stall.stage_reached, src,
                                           stall.rank});
      }
    }
  }
  std::sort(pending_edges.begin(), pending_edges.end());
  pending_edges.erase(
      std::unique(pending_edges.begin(), pending_edges.end()),
      pending_edges.end());

  // Eq. 3 over what actually arrived: D_a collects the stage-a signals
  // whose receive completed (receiver-side log — delivery is the event
  // that propagates knowledge).
  knowledge = BoolMatrix::identity(ranks);
  for (std::size_t a = 0; a < stages; ++a) {
    BoolMatrix delivered_stage(ranks, ranks);
    for (const RankStall& stall : per_rank) {
      for (const SignalEdge& edge : stall.delivered) {
        if (edge.stage == a) {
          delivered_stage(edge.src, edge.dst) = 1;
        }
      }
    }
    or_into(knowledge, bool_multiply(knowledge, delivered_stage));
  }
}

std::string StallReport::describe() const {
  std::ostringstream os;
  std::size_t stuck = 0;
  for (const RankStall& stall : per_rank) {
    stuck += stall.finished ? 0 : 1;
  }
  if (!stalled) {
    os << "no stall: all " << ranks << " ranks completed " << stages
       << " stages\n";
    return os.str();
  }
  os << "stall report: " << stuck << "/" << ranks << " ranks stuck, "
     << pending_edges.size() << " signals pending\n";
  for (const RankStall& stall : per_rank) {
    if (stall.finished) {
      continue;
    }
    os << "  rank " << stall.rank;
    if (stall.crashed) {
      os << ": crashed entering stage " << stall.stage_reached;
    } else {
      os << ": stuck at stage " << stall.stage_reached;
      if (!stall.pending_recv_from.empty()) {
        os << ", no signal from rank ";
        list_ranks(os, stall.pending_recv_from);
      }
      if (!stall.pending_put_from.empty()) {
        os << ", no one-sided flag from rank ";
        list_ranks(os, stall.pending_put_from);
      }
      if (!stall.pending_send_to.empty()) {
        os << ", unacked send to rank ";
        list_ranks(os, stall.pending_send_to);
      }
    }
    if (stall.last_heard_from != kNone) {
      os << "; last heard from rank " << stall.last_heard_from;
    } else {
      os << "; never heard from any peer";
    }
    os << "\n";
  }
  for (const SignalEdge& edge : pending_edges) {
    os << "  lost signal: stage " << edge.stage << " " << edge.src << " -> "
       << edge.dst << "\n";
  }
  // Which arrival facts never propagated (Eq. 3 zero cells).
  std::size_t missing = 0;
  std::size_t example_src = 0;
  std::size_t example_dst = 0;
  for (std::size_t i = 0; i < knowledge.rows(); ++i) {
    for (std::size_t j = 0; j < knowledge.cols(); ++j) {
      if (!knowledge(i, j)) {
        if (missing == 0) {
          example_src = i;
          example_dst = j;
        }
        ++missing;
      }
    }
  }
  if (missing > 0) {
    os << "  knowledge: " << missing << "/"
       << knowledge.rows() * knowledge.cols()
       << " arrival facts never propagated (e.g. rank " << example_src
       << "'s arrival never reached rank " << example_dst << ")\n";
  }
  return os.str();
}

}  // namespace optibar::simmpi
