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
#pragma once

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

}  // namespace optibar
