#include "barrier/cost_model.hpp"

#include <algorithm>

#include "barrier/compiled_schedule.hpp"
#include "util/error.hpp"

namespace optibar {

double step_cost(const TopologyProfile& profile, std::size_t sender,
                 const std::vector<std::size_t>& targets, bool awaited) {
  if (targets.empty()) {
    return 0.0;
  }
  double latency_sum = 0.0;
  double overhead = awaited ? profile.o(sender, sender) : 0.0;
  for (std::size_t t : targets) {
    latency_sum += profile.l(sender, t);
    if (!awaited) {
      overhead = std::max(overhead, profile.o(sender, t));
    }
  }
  return overhead + latency_sum;
}

Prediction predict(const Schedule& schedule, const TopologyProfile& profile,
                   const PredictOptions& options) {
  // Compile-and-evaluate through thread-local reused storage: the CSR
  // arrays and the workspace grow once per thread to the largest problem
  // seen, after which only the returned Prediction allocates.
  thread_local CompiledSchedule compiled;
  thread_local PredictWorkspace workspace;
  compiled.compile(schedule, profile);
  Prediction out;
  predict_into(compiled, options, workspace, out);
  return out;
}

double predicted_time(const Schedule& schedule, const TopologyProfile& profile,
                      const PredictOptions& options) {
  thread_local CompiledSchedule compiled;
  thread_local PredictWorkspace workspace;
  compiled.compile(schedule, profile);
  return predicted_time(compiled, options, workspace);
}

double arrival_cost(const Schedule& arrival, const TopologyProfile& profile) {
  return predicted_time(arrival, profile);
}

}  // namespace optibar
