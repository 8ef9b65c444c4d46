#ifndef DEEPDIVE_TESTDATA_SYNTHETIC_GRAPHS_H_
#define DEEPDIVE_TESTDATA_SYNTHETIC_GRAPHS_H_

#include <cstdint>

#include "factor/graph.h"

namespace dd {

/// Synthetic factor graphs for the sampler/learner benchmarks (the
/// stand-ins for the paper's paleobiology-scale graphs, §4.2).
struct SyntheticGraphOptions {
  size_t num_variables = 1000;
  /// Average factors per variable (graph density knob for EXP-INC).
  double factors_per_variable = 2.0;
  /// Fraction of variables clamped as evidence.
  double evidence_fraction = 0.1;
  /// Weight magnitude scale.
  double weight_scale = 1.0;
  /// Number of distinct (tied) weights.
  size_t num_weights = 64;
  uint64_t seed = 123;
};

/// Random pairwise-imply/istrue graph with tied weights — the shape
/// grounded DeepDive programs produce.
FactorGraph MakeRandomGraph(const SyntheticGraphOptions& options);

/// Feature-heavy graph in the shape KBC grounding produces (the spouse
/// application's): every variable first gets `factors_per_variable`
/// unary factors on tied feature weights, then one imply per variable
/// links it to a random other variable. So each variable's kernel is a
/// run of learned unary ops followed by about two one-literal guards.
FactorGraph MakeFeatureHeavyGraph(const SyntheticGraphOptions& options);

/// A chain of implications v0 -> v1 -> ... -> v(n-1) with unary priors;
/// high correlation, used to stress statistical efficiency.
FactorGraph MakeChainGraph(size_t num_variables, double coupling, uint64_t seed);

/// Copy `base` and append `extra_vars` new variables, each attached to
/// the existing graph by `factors_per_new_var` imply/istrue factors.
/// Models the output of incremental grounding: surviving variable ids
/// keep their meaning, new ids extend the space. `changed` receives the
/// new variable ids plus the existing attachment endpoints (whose factor
/// neighborhoods changed).
FactorGraph ExtendGraph(const FactorGraph& base, size_t extra_vars,
                        double factors_per_new_var, uint64_t seed,
                        std::vector<uint32_t>* changed);

/// Binary-classification graph with planted weights: `num_items`
/// labeled variables, each with `features_per_item` istrue factors whose
/// weights are shared across items. Used by the learner benchmarks.
FactorGraph MakeClassificationGraph(size_t num_items, size_t num_features,
                                    size_t features_per_item, uint64_t seed);

}  // namespace dd

#endif  // DEEPDIVE_TESTDATA_SYNTHETIC_GRAPHS_H_
