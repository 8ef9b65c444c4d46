#ifndef DEEPDIVE_INFERENCE_INCREMENTAL_H_
#define DEEPDIVE_INFERENCE_INCREMENTAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "factor/graph.h"
#include "util/result.h"

namespace dd {

struct GraphSnapshot;

/// The two approximate-inference materialization strategies of §4.2.
enum class MaterializationStrategy {
  kSampling,    ///< store chain state + marginal tallies (MCDB-style)
  kVariational, ///< store mean-field marginals (graphical-model relaxation)
};

const char* StrategyName(MaterializationStrategy strategy);

struct IncrementalOptions {
  // Sampling strategy knobs.
  int full_burn_in = 300;     ///< burn-in for the initial materialization
  int update_burn_in = 30;    ///< warm-start burn-in after a delta
  int num_samples = 1000;
  // Variational strategy knobs.
  int mf_max_iterations = 200;
  double mf_tolerance = 1e-4;
  double mf_damping = 0.2;
  uint64_t seed = 7;
  /// When false, evidence variables are sampled like query variables —
  /// the mode DeepDive uses after training so that labeled candidates
  /// also receive calibrated probabilities (Fig. 5's train histogram).
  bool clamp_evidence = true;
  /// Durability: when non-empty, Materialize() writes its state
  /// (sampling: chain, tallies, RNG, sweep counter; variational: final
  /// marginals) to this file every `checkpoint_interval` sweeps plus at
  /// completion, and resumes from an existing checkpoint — a run killed
  /// mid-sampling continues to bit-identical marginals.
  std::string checkpoint_path;
  int checkpoint_interval = 100;
};

/// Incremental maintenance of inference results. Materialize() runs full
/// inference on the current graph and stores reusable state; Update()
/// moves to a *new version* of the graph (produced by incremental
/// grounding) given the set of variables whose factor neighborhood
/// changed, reusing the materialized state so the work is far below a
/// from-scratch run. `work_units` counts variable-update operations —
/// the hardware-independent cost measure the strategy optimizer reasons
/// about.
class IncrementalInference {
 public:
  IncrementalInference(const FactorGraph* graph, MaterializationStrategy strategy,
                       const IncrementalOptions& options);
  ~IncrementalInference();

  /// Weight-oblivious warm-up that a scheduler may overlap with weight
  /// learning on the same graph: reserves result buffers and prefetches
  /// the materialization checkpoint (if any) from disk. Reads no weight
  /// values and writes nothing, so running it while the learner mutates
  /// weights is race-free; Materialize() afterwards produces the same
  /// bytes as without the warm-up.
  Status Prewarm();

  /// Full inference + state materialization on the current graph.
  Status Materialize();

  /// Switch to `new_graph` (a superset/modification of the old one whose
  /// unchanged variable ids keep their meaning); `changed_vars` lists
  /// ids whose adjacent factors or evidence changed, including brand-new
  /// ids (each below new_graph's size, else InvalidArgument). Returns
  /// marginals for every variable of the new graph; sampling resamples
  /// only the components the update touches (DESIGN.md §4).
  Result<std::vector<double>> Update(const FactorGraph* new_graph,
                                     const std::vector<uint32_t>& changed_vars);

  /// Marginals from the last Materialize()/Update().
  const std::vector<double>& marginals() const { return marginals_; }

  /// Work spent by the last operation (variable updates performed).
  uint64_t last_work_units() const { return last_work_units_; }

  MaterializationStrategy strategy() const { return strategy_; }

 private:
  Status MaterializeSampling();
  Status MaterializeVariational();
  /// Attempt to restore from options_.checkpoint_path; outputs the number
  /// of sweeps already performed (0 when starting fresh).
  Status TryRestoreSampling(class GibbsSampler* sampler, uint64_t* sweeps_done);
  Status WriteSamplingCheckpoint(const class GibbsSampler& sampler,
                                 uint64_t sweeps_done) const;

  const FactorGraph* graph_;
  MaterializationStrategy strategy_;
  IncrementalOptions options_;
  std::vector<double> marginals_;
  std::vector<uint8_t> chain_state_;  // sampling strategy
  std::unordered_map<std::string, double> sampled_weights_;  // sampling strategy
  /// Checkpoint prefetched by Prewarm(), consumed by the next restore.
  std::unique_ptr<GraphSnapshot> prewarmed_;
  uint64_t last_work_units_ = 0;
  bool materialized_ = false;
};

/// The paper's "simple rule-based optimizer": pick a materialization
/// strategy from the factor graph's size, its density (edges per
/// variable), and the anticipated number of future update batches.
/// Dense graphs make mean-field both slow (big cascades) and inaccurate,
/// so sampling wins; both update locally, but for many small updates on
/// sparse graphs a mean-field cascade is smaller than a touched component.
MaterializationStrategy ChooseStrategy(size_t num_variables, double avg_degree,
                                       int anticipated_changes);

}  // namespace dd

#endif  // DEEPDIVE_INFERENCE_INCREMENTAL_H_
