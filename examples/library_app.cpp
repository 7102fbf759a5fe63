// Using optibar as a runtime library (Section VIII's proposed design).
//
// An "application" that knows nothing about topology-aware barriers:
// it loads the machine profile the admin installed, asks the
// BarrierLibrary for barriers — for the world and for a sub-communicator
// — and just calls them. Behind the scenes each request is tuned once
// and cached; repeated use costs a lookup.
//
// The second half shows the dynamic layer: the application reports its
// own observed pairwise costs, and the AdaptiveBarrierController decides
// when re-tuning amortizes.
#include <chrono>
#include <filesystem>
#include <iostream>

#include "core/library.hpp"
#include "core/retune.hpp"
#include "netsim/engine.hpp"
#include "simmpi/runtime.hpp"
#include "topology/generate.hpp"
#include "topology/machine.hpp"
#include "topology/mapping.hpp"

int main() {
  using namespace optibar;

  // --- Installation step (once per machine): profile to disk. ---
  const MachineSpec machine = quad_cluster(4);
  const std::size_t world = 32;
  const Mapping mapping = block_mapping(machine, world);
  const auto profile_path =
      std::filesystem::temp_directory_path() / "machine_profile.txt";
  generate_profile(machine, mapping).save_file(profile_path.string());
  std::cout << "installed machine profile at " << profile_path << "\n";

  // --- Application start-up: open the library. ---
  BarrierLibrary library =
      BarrierLibrary::from_profile_file(profile_path.string());
  std::cout << "library opened for " << library.ranks() << " ranks\n";

  // World barrier: tuned on first request, cached afterwards.
  const auto t0 = std::chrono::steady_clock::now();
  const LibraryEntry& world_barrier = library.full_barrier();
  const auto first = std::chrono::steady_clock::now() - t0;
  const auto t1 = std::chrono::steady_clock::now();
  library.full_barrier();
  const auto second = std::chrono::steady_clock::now() - t1;
  std::cout << "world barrier: "
            << world_barrier.stored.schedule.stage_count() << " stages, "
            << "first request "
            << std::chrono::duration<double, std::milli>(first).count()
            << " ms, cached request "
            << std::chrono::duration<double, std::micro>(second).count()
            << " us\n";

  // A sub-communicator: the ranks of node 2 only.
  const std::vector<std::size_t> node2{16, 17, 18, 19, 20, 21, 22, 23};
  const LibraryEntry& node_barrier = library.subset_plan(node2);
  std::cout.setf(std::ios::scientific);
  std::cout << "node-2 sub-barrier: predicted "
            << node_barrier.predicted_cost << " s vs world "
            << world_barrier.predicted_cost << " s\n";

  // Execute both on rank threads (local rank numbering for the subset).
  simmpi::Communicator world_comm(world);
  simmpi::run_ranks(world_comm, [&](simmpi::RankContext& ctx) {
    world_barrier.compiled.execute(ctx);
  });
  simmpi::Communicator node_comm(node2.size());
  simmpi::run_ranks(node_comm, [&](simmpi::RankContext& ctx) {
    node_barrier.compiled.execute(ctx);
  });
  std::cout << "executed world and sub-communicator barriers ("
            << library.cache_size() << " cached tunings)\n";

  // --- Dynamic layer: conditions change at run time. ---
  ControllerOptions controller_options;
  // Our observations below are exact link measurements, so adopt them
  // outright instead of easing in with the default EWMA weight.
  controller_options.alpha = 1.0;
  AdaptiveBarrierController controller(library.profile(), controller_options);
  // The scheduler re-placed our ranks round-robin; report what we see.
  const TopologyProfile drifted =
      generate_profile(machine, round_robin_mapping(machine, world));
  for (std::size_t i = 0; i < world; ++i) {
    for (std::size_t j = i + 1; j < world; ++j) {
      controller.monitor().observe_overhead(i, j, drifted.o(i, j));
      controller.monitor().observe_latency(i, j, drifted.l(i, j));
    }
  }
  const bool retuned = controller.reevaluate(/*expected_calls=*/1e6);
  std::cout << "after placement drift: drift="
            << controller.monitor().max_drift() << ", retuned="
            << (retuned ? "yes" : "no") << ", new predicted cost "
            << controller.predicted_cost() << " s\n";
  const double before =
      simulate(library.full_barrier().stored.schedule, drifted).barrier_time();
  const double after = simulate(controller.schedule(), drifted).barrier_time();
  std::cout << "simulated on the drifted machine: stale schedule " << before
            << " s, adapted schedule " << after << " s\n";

  std::filesystem::remove(profile_path);
  return 0;
}
