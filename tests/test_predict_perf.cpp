// Throughput smoke test for the compiled cost-model kernel (CTest label
// `perf`). Asserts the compiled path is at least as fast as the
// reference on a fixed workload — a deliberately loose 1.0x bound (the
// observed ratio is an order of magnitude) so scheduler noise and
// sanitizer builds can never flake it — and that both paths agree bit
// for bit while doing so.
#include <gtest/gtest.h>

#include <chrono>

#include "barrier/algorithms.hpp"
#include "barrier/compiled_schedule.hpp"
#include "barrier/cost_model.hpp"
#include "netsim/engine.hpp"
#include "support/reference.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"

namespace optibar {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

TEST(PredictPerf, CompiledKernelIsNotSlowerThanReference) {
  // Fixed workload: the hex cluster at P=120 with a dissemination
  // pattern (the densest classic schedule) and full options.
  const MachineSpec machine = hex_cluster();
  const Mapping mapping = round_robin_mapping(machine, 120);
  const TopologyProfile profile = generate_profile(machine, mapping);
  const Schedule schedule = dissemination_barrier(120);
  PredictOptions options;
  options.egress_resource_of = node_egress_resources(machine, mapping);
  const int iterations = 60;

  const Prediction expected = predict_reference(schedule, profile, options);

  // Warm both paths (page-in, branch predictors, workspace growth).
  CompiledSchedule compiled(schedule, profile);
  PredictWorkspace workspace;
  (void)predicted_time(compiled, options, workspace);
  (void)predict_reference(schedule, profile, options);

  const auto ref_start = std::chrono::steady_clock::now();
  double ref_sink = 0.0;
  for (int i = 0; i < iterations; ++i) {
    ref_sink += predict_reference(schedule, profile, options).critical_path;
  }
  const double reference_seconds = seconds_since(ref_start);

  const auto compiled_start = std::chrono::steady_clock::now();
  double compiled_sink = 0.0;
  for (int i = 0; i < iterations; ++i) {
    compiled_sink += predicted_time(compiled, options, workspace);
  }
  const double compiled_seconds = seconds_since(compiled_start);

  EXPECT_EQ(compiled_sink, ref_sink);
  Prediction out;
  predict_into(compiled, options, workspace, out);
  EXPECT_EQ(out.critical_path, expected.critical_path);
  EXPECT_EQ(out.rank_completion, expected.rank_completion);

  EXPECT_LE(compiled_seconds, reference_seconds)
      << "compiled kernel slower than reference: " << compiled_seconds
      << " s vs " << reference_seconds << " s over " << iterations
      << " evaluations";
}

}  // namespace
}  // namespace optibar
