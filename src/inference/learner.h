#ifndef DEEPDIVE_INFERENCE_LEARNER_H_
#define DEEPDIVE_INFERENCE_LEARNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "factor/graph.h"
#include "inference/gibbs.h"
#include "util/result.h"

namespace dd {

struct LearnOptions {
  int epochs = 200;
  double learning_rate = 0.1;
  double decay = 0.99;        ///< learning rate multiplier per epoch
  double l2 = 0.01;           ///< L2 regularization strength
  int sweeps_per_epoch = 1;   ///< Gibbs sweeps of each chain per epoch
  uint64_t seed = 1234;
  /// Durability: when non-empty, Learn() writes `learn.snap` into this
  /// directory every `checkpoint_interval` epochs (weights, both chain
  /// states, RNG states, epoch counter, learning rate) plus once at the
  /// end, and automatically resumes from an existing checkpoint — the
  /// resumed run is bit-identical to an uninterrupted one.
  std::string checkpoint_dir;
  int checkpoint_interval = 10;
};

/// The chain pair of contrastive divergence: `positive` clamps evidence
/// (the data term), `negative` leaves every variable free (the model
/// term).
struct CdChains {
  CdChains(const FactorGraph* graph, uint64_t positive_seed, uint64_t negative_seed);
  Status Init();
  /// `sweeps` sweeps of each chain, positive first.
  void Sweep(int sweeps);

  GibbsSampler positive;
  GibbsSampler negative;
};

/// Calls visit(f, w, h_f(positive) − h_f(negative)) for every factor f
/// whose weight w is unfixed and whose first literal is a variable below
/// `num_owned`: the per-factor terms of the CD gradient.
template <typename Visit>
void ForEachCdTerm(const FactorGraph& graph, const CdChains& chains,
                   uint32_t num_owned, Visit&& visit) {
  const uint8_t* pos = chains.positive.assignment().data();
  const uint8_t* neg = chains.negative.assignment().data();
  const bool filter = num_owned < graph.num_variables();
  for (uint32_t f = 0; f < graph.num_factors(); ++f) {
    size_t arity = 0;
    const Literal* lits = filter ? graph.factor_literals(f, &arity) : nullptr;
    if (arity > 0 && lits[0].var >= num_owned) continue;
    const uint32_t w = graph.factor_weight(f);
    if (graph.weight(w).is_fixed) continue;
    visit(f, w, graph.EvalFactor(f, pos) - graph.EvalFactor(f, neg));
  }
}

struct CdStepOptions {
  double learning_rate = 0.1;
  double l2 = 0.01;
  int epoch = 0;  ///< named in the divergence report
  /// ForEachCdTerm's filter: a shard skips its replicated cut factors,
  /// whose first literal is a ghost (id >= num_owned).
  uint32_t num_owned = UINT32_MAX;
  /// Multiplies the summed gradient (×N for N model-averaged shards).
  double gradient_scale = 1.0;
};

/// The one contrastive-divergence step, on `weights` (the graph's model
/// or a replica of it; the chains sample under the graph's weights).
/// For every unfixed weight w:
///     g = scale · Σ_{f with weight w} [h_f(positive) − h_f(negative)] − l2 · w
///     w ← w + lr · g
/// A non-finite g or update fails with LearningDiverged. Returns ‖g‖.
Result<double> CdStep(const FactorGraph& graph, const CdChains& chains,
                      const CdStepOptions& options, std::vector<double>* weights);

/// The InvalidArgument every learner returns when weight w stops being
/// finite at `epoch`.
Status LearningDiverged(const FactorGraph& graph, int epoch, uint32_t w,
                        double value, double gradient, double lr);

/// Contrastive-divergence-style weight learning, as in the DimmWitted
/// engine: maximize the likelihood of the evidence variables by SGD.
/// Every epoch sweeps the CdChains and takes one CdStep, whose gradient
/// Σ_f [h_f(positive) − h_f(negative)] estimates E_data[Σh] − E_model[Σh]
/// from single samples. Fixed weights (Weight::is_fixed) are never updated.
class Learner {
 public:
  explicit Learner(FactorGraph* graph) : graph_(graph) {}

  /// Run SGD; on success the graph's weights hold the learned values.
  /// Detects divergence (non-finite gradient or weight) and reports it
  /// as InvalidArgument naming the offending weight instead of letting
  /// the sampler run on garbage.
  Status Learn(const LearnOptions& options);

  /// Gradient norm history for diagnostics — one entry per epoch this
  /// Learn() call executed (a resumed run only records the epochs it
  /// actually ran).
  const std::vector<double>& gradient_norms() const { return gradient_norms_; }

  /// First epoch the last Learn() actually executed (> 0 after a resume).
  int resumed_from_epoch() const { return resumed_from_epoch_; }

 private:
  FactorGraph* graph_;
  std::vector<double> gradient_norms_;
  int resumed_from_epoch_ = 0;
};

}  // namespace dd

#endif  // DEEPDIVE_INFERENCE_LEARNER_H_
