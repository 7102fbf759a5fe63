// Parity suite for the compiled cost-model kernel: the compiled
// evaluator, the predict() wrapper and the incremental prefix evaluator
// must match the reference implementation bit for bit — same
// critical_path, rank_completion and stage_increment — across random
// schedules, profiles and every PredictOptions combination. This is the
// guarantee that lets the tuning engine switch kernels without changing
// a single tuned plan.
#include "barrier/compiled_schedule.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "barrier/algorithms.hpp"
#include "barrier/blocked_schedule.hpp"
#include "barrier/cost_model.hpp"
#include "core/hierarchical.hpp"
#include "netsim/engine.hpp"
#include "support/reference.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace optibar {
namespace {

/// Random stage sequence (not necessarily a barrier — the predictor does
/// not require one) with random per-rank fan-out, including empty stages
/// and empty schedules.
Schedule random_schedule(std::size_t p, Rng& rng) {
  Schedule s(p);
  const std::size_t stages = rng.next_below(6);
  for (std::size_t st = 0; st < stages; ++st) {
    StageMatrix m(p, p, 0);
    for (std::size_t i = 0; i < p; ++i) {
      const std::size_t fan_out = rng.next_below(4);
      for (std::size_t k = 0; k < fan_out; ++k) {
        const std::size_t j = rng.next_below(p);
        if (j != i) {
          m(i, j) = 1;
        }
      }
    }
    s.append_stage(std::move(m));
  }
  return s;
}

/// Random asymmetric profile with realistic magnitudes.
TopologyProfile random_profile(std::size_t p, Rng& rng) {
  Matrix<double> o(p, p, 0.0);
  Matrix<double> l(p, p, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      if (i == j) {
        o(i, j) = rng.uniform(1e-7, 2e-6);
      } else {
        o(i, j) = rng.uniform(1e-6, 1e-4);
        l(i, j) = rng.uniform(1e-7, 1e-5);
      }
    }
  }
  return TopologyProfile(std::move(o), std::move(l));
}

/// Random option set exercising every combination knob: awaited flags
/// (shorter, equal or longer than the schedule), entry skew, receiver
/// processing, and a non-contiguous egress resource assignment.
PredictOptions random_options(std::size_t p, std::size_t stages, Rng& rng) {
  PredictOptions options;
  if (rng.next_below(2)) {
    const std::size_t n = rng.next_below(stages + 3);
    for (std::size_t s = 0; s < n; ++s) {
      options.awaited_stages.push_back(rng.next_below(2) != 0);
    }
  }
  if (rng.next_below(2)) {
    for (std::size_t i = 0; i < p; ++i) {
      options.entry_times.push_back(rng.uniform(0.0, 1e-4));
    }
  }
  options.receiver_processing = rng.next_below(2) != 0;
  if (rng.next_below(2)) {
    // Sparse ids (multiples of 3) exercise the dense-id remap.
    const std::size_t resources = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < p; ++i) {
      options.egress_resource_of.push_back(3 * rng.next_below(resources));
    }
  }
  return options;
}

void expect_identical(const Prediction& a, const Prediction& b) {
  EXPECT_EQ(a.critical_path, b.critical_path);
  EXPECT_EQ(a.rank_completion, b.rank_completion);
  EXPECT_EQ(a.stage_increment, b.stage_increment);
}

TEST(CompiledPredict, RandomizedParityWithReference) {
  PredictWorkspace workspace;  // deliberately shared across iterations
  CompiledSchedule compiled;
  Prediction via_kernel;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const std::size_t p = 2 + rng.next_below(13);
    const Schedule schedule = random_schedule(p, rng);
    const TopologyProfile profile = random_profile(p, rng);
    const PredictOptions options =
        random_options(p, schedule.stage_count(), rng);

    const Prediction reference = predict_reference(schedule, profile, options);
    // Wrapper path (thread-local kernel state).
    expect_identical(predict(schedule, profile, options), reference);
    // Explicit compiled path with a reused workspace.
    compiled.compile(schedule, profile);
    predict_into(compiled, options, workspace, via_kernel);
    expect_identical(via_kernel, reference);
    EXPECT_EQ(predicted_time(compiled, options, workspace),
              reference.critical_path);
  }
}

TEST(CompiledPredict, ParityOnTunedStructures) {
  // The shapes the engine actually prices: classic algorithms on the
  // paper's machines, all stages awaited/not, contended and not.
  for (const std::size_t p : {8UL, 24UL, 64UL}) {
    const MachineSpec machine = quad_cluster();
    const Mapping mapping = round_robin_mapping(machine, p);
    const TopologyProfile profile = generate_profile(machine, mapping);
    for (const Schedule& s :
         {linear_barrier(p), dissemination_barrier(p), tree_barrier(p)}) {
      PredictOptions contended;
      contended.egress_resource_of = node_egress_resources(machine, mapping);
      for (const PredictOptions& options : {PredictOptions{}, contended}) {
        expect_identical(predict(s, profile, options),
                         predict_reference(s, profile, options));
      }
    }
  }
}

TEST(CompiledPredict, SpanAccessorsMatchScheduleAdjacency) {
  Rng rng(7);
  const std::size_t p = 9;
  const Schedule schedule = random_schedule(p, rng);
  const TopologyProfile profile = random_profile(p, rng);
  const CompiledSchedule compiled(schedule, profile);
  ASSERT_EQ(compiled.ranks(), p);
  ASSERT_EQ(compiled.stage_count(), schedule.stage_count());
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    for (std::size_t i = 0; i < p; ++i) {
      const std::vector<std::size_t> targets = schedule.targets_of(i, s);
      const std::span<const std::size_t> span = compiled.targets(i, s);
      ASSERT_EQ(std::vector<std::size_t>(span.begin(), span.end()), targets);
      const std::span<const double> l = compiled.target_latency(i, s);
      const std::span<const double> o = compiled.target_overhead(i, s);
      ASSERT_EQ(l.size(), targets.size());
      for (std::size_t k = 0; k < targets.size(); ++k) {
        EXPECT_EQ(l[k], profile.l(i, targets[k]));
        EXPECT_EQ(o[k], profile.o(i, targets[k]));
      }
      EXPECT_EQ(compiled.batch_cost(i, s, false),
                step_cost(profile, i, targets, false));
      EXPECT_EQ(compiled.batch_cost(i, s, true),
                step_cost(profile, i, targets, true));
      const std::vector<std::size_t> sources = schedule.sources_of(i, s);
      const std::span<const std::size_t> src = compiled.sources(i, s);
      ASSERT_EQ(std::vector<std::size_t>(src.begin(), src.end()), sources);
    }
  }
}

TEST(CompiledPredict, CompileRebindReusesStorage) {
  // One kernel object across wildly different sizes must keep matching.
  CompiledSchedule compiled;
  PredictWorkspace workspace;
  Prediction out;
  for (const std::size_t p : {12UL, 3UL, 16UL, 2UL, 9UL}) {
    Rng rng(p);
    const Schedule schedule = random_schedule(p, rng);
    const TopologyProfile profile = random_profile(p, rng);
    compiled.compile(schedule, profile);
    predict_into(compiled, {}, workspace, out);
    expect_identical(out, predict_reference(schedule, profile, {}));
  }
}

/// Bitwise equality of doubles: parity here means the same bits, not
/// values within a tolerance.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

template <class Span>
std::vector<typename Span::value_type> as_vector(Span span) {
  return {span.begin(), span.end()};
}

/// Field-for-field CSR equality per (rank, stage): targets, sources,
/// per-edge L/O/R and transport tags, batch cost terms and receiver
/// row sums.
void expect_same_csr(const CompiledSchedule& a, const CompiledSchedule& b) {
  ASSERT_EQ(a.ranks(), b.ranks());
  ASSERT_EQ(a.stage_count(), b.stage_count());
  for (std::size_t s = 0; s < a.stage_count(); ++s) {
    for (std::size_t i = 0; i < a.ranks(); ++i) {
      SCOPED_TRACE("stage " + std::to_string(s) + ", rank " +
                   std::to_string(i));
      EXPECT_EQ(as_vector(a.targets(i, s)), as_vector(b.targets(i, s)));
      EXPECT_EQ(as_vector(a.sources(i, s)), as_vector(b.sources(i, s)));
      EXPECT_EQ(as_vector(a.target_one_sided(i, s)),
                as_vector(b.target_one_sided(i, s)));
      EXPECT_EQ(as_vector(a.source_one_sided(i, s)),
                as_vector(b.source_one_sided(i, s)));
      const auto equal_bits = [](std::span<const double> x,
                                 std::span<const double> y) {
        return std::equal(x.begin(), x.end(), y.begin(), y.end(), same_bits);
      };
      EXPECT_TRUE(equal_bits(a.target_latency(i, s), b.target_latency(i, s)));
      EXPECT_TRUE(
          equal_bits(a.target_overhead(i, s), b.target_overhead(i, s)));
      EXPECT_TRUE(equal_bits(a.target_rma_latency(i, s),
                             b.target_rma_latency(i, s)));
      for (const bool awaited : {false, true}) {
        EXPECT_TRUE(same_bits(a.batch_cost(i, s, awaited),
                              b.batch_cost(i, s, awaited)));
      }
      EXPECT_TRUE(same_bits(a.recv_processing(i, s), b.recv_processing(i, s)));
    }
  }
}

/// Whether every stage of `plan` enumerates its edges in (src, dst)
/// order — the case in which compile_blocked skips its sort.
bool enumerates_sorted(const BlockedSchedule& plan) {
  for (std::size_t s = 0; s < plan.stage_count(); ++s) {
    std::vector<std::pair<std::size_t, std::size_t>> edges;
    plan.for_each_edge(s, [&](std::size_t src, std::size_t dst) {
      edges.emplace_back(src, dst);
    });
    if (!std::is_sorted(edges.begin(), edges.end())) {
      return false;
    }
  }
  return true;
}

TEST(CompiledPredict, BlockedCompileMatchesDenseCompile) {
  // Both compile paths must build the same CSR: compile_blocked straight
  // from the blocked plan on the tiled costs, and the dense compile of
  // the densified plan on the symmetrized dense profile. The block
  // mapping enumerates in order (sort skipped); round-robin interleaves
  // the clusters (sort taken).
  const MachineSpec machine = hex_cluster(3);
  const std::size_t p = 36;
  for (const bool interleaved : {false, true}) {
    SCOPED_TRACE(interleaved ? "round-robin mapping" : "block mapping");
    const Mapping mapping = interleaved ? round_robin_mapping(machine, p)
                                        : block_mapping(machine, p);
    const TopologyProfile profile = generate_profile(machine, mapping);
    const HierarchicalTuneResult hier = tune_hierarchical(profile);
    ASSERT_FALSE(hier.used_dense_fallback) << hier.fallback_reason;
    EXPECT_EQ(enumerates_sorted(hier.blocked), !interleaved);

    CompiledSchedule blocked;
    compile_blocked(hier.blocked, hier.tiled, blocked);
    const CompiledSchedule dense(hier.blocked.to_dense(),
                                 profile.symmetrized());
    expect_same_csr(blocked, dense);
  }
}

TEST(CompiledPredict, CountingSortSourceRowsMatchComparisonSort) {
  // compile_edges' source rows (a counting sort by dst) against the
  // comparison-sort reference, over random stages that include empty
  // stages, ranks with no edges, mixed transports and P = 1.
  Rng rng(20240607);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t p = trial == 0 ? 1 : 1 + rng.next_below(24);
    const std::size_t stages = rng.next_below(5);
    std::vector<std::vector<CompiledEdge>> stage_edges(stages);
    for (auto& edges : stage_edges) {
      if (rng.next_below(4) == 0) {
        continue;  // empty stage
      }
      for (std::size_t i = 0; i < p; ++i) {
        if (rng.next_below(3) == 0) {
          continue;  // a rank that sends nothing
        }
        for (std::size_t j = 0; j < p; ++j) {
          if (j == i || rng.next_below(4) != 0) {
            continue;
          }
          CompiledEdge e{i, j, rng.uniform(1e-7, 1e-5),
                         rng.uniform(1e-6, 1e-4)};
          e.one_sided = rng.next_below(3) == 0;
          e.r = e.one_sided ? rng.uniform(1e-7, 1e-6) : 0.0;
          edges.push_back(e);
        }
      }
    }
    std::vector<double> self(p);
    for (double& o : self) {
      o = rng.uniform(1e-7, 2e-6);
    }
    CompiledSchedule compiled;
    compiled.compile_edges(p, stage_edges, self);
    ASSERT_EQ(compiled.stage_count(), stages);
    for (std::size_t s = 0; s < stages; ++s) {
      const ReferenceSourceRows reference =
          source_rows_reference(p, stage_edges[s]);
      for (std::size_t j = 0; j < p; ++j) {
        SCOPED_TRACE("trial " + std::to_string(trial) + ", stage " +
                     std::to_string(s) + ", rank " + std::to_string(j));
        EXPECT_EQ(as_vector(compiled.sources(j, s)), reference.sources[j]);
        EXPECT_EQ(as_vector(compiled.source_one_sided(j, s)),
                  reference.one_sided[j]);
        EXPECT_TRUE(same_bits(compiled.recv_processing(j, s),
                              reference.recv_l[j]));
      }
    }
  }
}

TEST(CompiledPredict, EmptyAndTrivialSchedules) {
  Rng rng1(1);
  const TopologyProfile one = random_profile(1, rng1);
  // p = 1, zero stages.
  Prediction out;
  PredictWorkspace ws;
  predict_into(CompiledSchedule(Schedule(1), one), {}, ws, out);
  expect_identical(out, predict_reference(Schedule(1), one, {}));
  // Zero-stage schedule over several ranks with entry skew.
  Rng rng(2);
  const TopologyProfile profile = random_profile(5, rng);
  PredictOptions options;
  options.entry_times = {0.5, 0.1, 0.9, 0.0, 0.3};
  predict_into(CompiledSchedule(Schedule(5), profile), options, ws, out);
  expect_identical(out, predict_reference(Schedule(5), profile, options));
  EXPECT_EQ(out.critical_path, 0.0);
}

TEST(CompiledPredict, MismatchesThrow) {
  Rng rng(3);
  const TopologyProfile profile = random_profile(4, rng);
  EXPECT_THROW(CompiledSchedule(tree_barrier(5), profile), Error);
  PredictWorkspace ws;
  Prediction out;
  const CompiledSchedule compiled(tree_barrier(4), profile);
  PredictOptions bad_entry;
  bad_entry.entry_times = {0.0, 0.0};
  EXPECT_THROW(predict_into(compiled, bad_entry, ws, out), Error);
  PredictOptions bad_egress;
  bad_egress.egress_resource_of = {0, 1};
  EXPECT_THROW(predict_into(compiled, bad_egress, ws, out), Error);
}

TEST(IncrementalPredictor, MatchesFullPredictUnderPushPop) {
  // Random push/pop walks: after every operation the predictor's ready
  // vector must equal a from-scratch reference prediction of the
  // current prefix.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    Rng rng(seed + 1000);
    const std::size_t p = 2 + rng.next_below(7);
    const TopologyProfile profile = random_profile(p, rng);
    IncrementalPredictor predictor(profile);
    Schedule prefix(p);
    for (std::size_t step = 0; step < 40; ++step) {
      if (predictor.depth() > 0 && rng.next_below(3) == 0) {
        predictor.pop_stage();
        prefix.pop_stage();
      } else {
        StageMatrix m(p, p, 0);
        for (std::size_t i = 0; i < p; ++i) {
          const std::size_t fan_out = rng.next_below(3);
          for (std::size_t k = 0; k < fan_out; ++k) {
            const std::size_t j = rng.next_below(p);
            if (j != i) {
              m(i, j) = 1;
            }
          }
        }
        predictor.push_stage(m);
        prefix.append_stage(std::move(m));
      }
      ASSERT_EQ(predictor.depth(), prefix.stage_count());
      const Prediction full = predict_reference(prefix, profile, {});
      ASSERT_EQ(predictor.ready(), full.rank_completion);
      EXPECT_EQ(predictor.max_ready(),
                full.critical_path);  // zero entry: origin is 0
    }
  }
}

TEST(IncrementalPredictor, AwaitedStagesAndEntryTimes) {
  Rng rng(42);
  const std::size_t p = 6;
  const TopologyProfile profile = random_profile(p, rng);
  const Schedule schedule = tree_barrier(p);
  PredictOptions options;
  options.entry_times = {0.1, 0.0, 0.05, 0.2, 0.0, 0.15};
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    options.awaited_stages.push_back(s % 2 == 0);
  }
  IncrementalPredictor predictor(profile);
  predictor.reset(options.entry_times);
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    predictor.push_stage(schedule.stage(s), options.awaited_stages[s]);
  }
  const Prediction full = predict_reference(schedule, profile, options);
  EXPECT_EQ(predictor.ready(), full.rank_completion);
}

TEST(IncrementalPredictor, ReceiverProcessingToggle) {
  Rng rng(5);
  const std::size_t p = 5;
  const TopologyProfile profile = random_profile(p, rng);
  const Schedule schedule = dissemination_barrier(p);
  PredictOptions sender_only;
  sender_only.receiver_processing = false;
  IncrementalPredictor predictor(profile, /*receiver_processing=*/false);
  for (std::size_t s = 0; s < schedule.stage_count(); ++s) {
    predictor.push_stage(schedule.stage(s));
  }
  EXPECT_EQ(predictor.ready(),
            predict_reference(schedule, profile, sender_only).rank_completion);
}

TEST(CompiledPredict, EightThreadStressParity) {
  // Hammer the thread-local wrapper path from 8 threads at once; every
  // thread must reproduce the reference bit for bit on its own mix of
  // schedules.
  std::vector<Schedule> schedules;
  std::vector<TopologyProfile> profiles;
  std::vector<PredictOptions> options;
  std::vector<Prediction> expected;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    Rng rng(seed + 99);
    const std::size_t p = 2 + rng.next_below(11);
    schedules.push_back(random_schedule(p, rng));
    profiles.push_back(random_profile(p, rng));
    options.push_back(random_options(p, schedules.back().stage_count(), rng));
    expected.push_back(
        predict_reference(schedules.back(), profiles.back(), options.back()));
  }
  std::vector<std::thread> threads;
  std::vector<std::size_t> mismatches(8, 0);
  for (std::size_t t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t iter = 0; iter < 200; ++iter) {
        const std::size_t k = (iter * 7 + t) % schedules.size();
        const Prediction got = predict(schedules[k], profiles[k], options[k]);
        if (got.critical_path != expected[k].critical_path ||
            got.rank_completion != expected[k].rank_completion ||
            got.stage_increment != expected[k].stage_increment) {
          ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (std::size_t t = 0; t < 8; ++t) {
    EXPECT_EQ(mismatches[t], 0u) << "thread " << t;
  }
}

}  // namespace
}  // namespace optibar
