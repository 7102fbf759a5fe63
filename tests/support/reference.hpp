// Reference oracles for the parity suites and the oracle-vs-production
// benches. Test-only: nothing in src/ calls them.
//
//   predict_reference()  — the direct (uncompiled) Section VI
//                          recurrence; predict() must match it bit for
//                          bit (test_compiled_predict).
//   simulate_reference() — the original netsim engine (std::function
//                          events on a binary-heap EventQueue, per-stage
//                          adjacency vectors); simulate() must match it
//                          bit for bit (test_netsim_parity).
//   source_rows_reference() — receiver-side CSR rows of one stage by a
//                          comparison sort into (dst, src) order; the
//                          counting sort of compile_edges() must match
//                          it (test_compiled_predict).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "barrier/compiled_schedule.hpp"
#include "barrier/cost_model.hpp"
#include "netsim/engine.hpp"

namespace optibar {

/// The direct implementation of the Section VI recurrence; re-derives
/// the stage adjacency on every call.
Prediction predict_reference(const Schedule& schedule,
                             const TopologyProfile& profile,
                             const PredictOptions& options = {});

/// The original netsim engine, kept verbatim as simulate()'s oracle.
SimResult simulate_reference(const Schedule& schedule,
                             const TopologyProfile& profile,
                             const SimOptions& options = {});

/// Per receiver: its sources in ascending order, their one-sided tags,
/// and the sum of L over its two-sided sources in that order.
struct ReferenceSourceRows {
  std::vector<std::vector<std::size_t>> sources;
  std::vector<std::vector<std::uint8_t>> one_sided;
  std::vector<double> recv_l;
};

/// Source rows of one stage's (src, dst)-sorted edges over `ranks`
/// ranks, built by comparison-sorting an index permutation.
ReferenceSourceRows source_rows_reference(
    std::size_t ranks, const std::vector<CompiledEdge>& edges);

}  // namespace optibar
