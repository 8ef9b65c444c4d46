#include "inference/map.h"

#include <cmath>

#include "inference/gibbs.h"
#include "util/rng.h"

namespace dd {

Result<MapResult> MapInference(const FactorGraph& graph, const MapOptions& options) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("MapInference requires a finalized graph");
  }
  if (options.sweeps < 1 || options.restarts < 1) {
    return Status::InvalidArgument("sweeps and restarts must be >= 1");
  }
  if (options.initial_temperature <= 0 || options.final_temperature <= 0) {
    return Status::InvalidArgument("temperatures must be positive");
  }

  DD_ASSIGN_OR_RETURN(const std::vector<uint32_t> free_vars,
                      FreeVariables(graph, options.clamp_evidence, nullptr));

  MapResult best;
  best.log_potential = -1e300;
  const double decay =
      options.sweeps > 1
          ? std::pow(options.final_temperature / options.initial_temperature,
                     1.0 / (options.sweeps - 1))
          : 1.0;

  for (int restart = 0; restart < options.restarts; ++restart) {
    Rng rng(options.seed + 0x9e3779b9ULL * restart);
    std::vector<uint8_t> assignment;
    InitChain(graph, free_vars, &rng, &assignment);
    double temperature = options.initial_temperature;
    for (int sweep = 0; sweep < options.sweeps; ++sweep) {
      for (uint32_t v : free_vars) {
        double delta = graph.PotentialDeltaCompiled(v, assignment.data());
        assignment[v] = rng.NextBernoulli(Sigmoid(delta / temperature)) ? 1 : 0;
      }
      temperature *= decay;
    }
    // Final greedy pass: deterministic local optimum.
    bool improved = true;
    while (improved) {
      improved = false;
      for (uint32_t v : free_vars) {
        double delta = graph.PotentialDeltaCompiled(v, assignment.data());
        uint8_t want = delta > 0 ? 1 : 0;
        if (assignment[v] != want) {
          assignment[v] = want;
          improved = true;
        }
      }
    }
    double log_potential = graph.LogPotential(assignment.data());
    if (log_potential > best.log_potential) {
      best.log_potential = log_potential;
      best.assignment = assignment;
    }
  }
  return best;
}

}  // namespace dd
