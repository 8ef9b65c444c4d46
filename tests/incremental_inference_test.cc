#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "inference/exact.h"
#include "inference/incremental.h"
#include "testdata/synthetic_graphs.h"

namespace dd {
namespace {

double MaxDiff(const std::vector<double>& a, const std::vector<double>& b) {
  double out = 0;
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) out = std::max(out, std::fabs(a[i] - b[i]));
  return out;
}

/// Small base graph plus a two-variable extension, exactly checkable.
struct VersionedGraphs {
  FactorGraph base;
  FactorGraph extended;
  std::vector<uint32_t> changed;

  explicit VersionedGraphs(uint64_t seed) {
    SyntheticGraphOptions options;
    options.num_variables = 12;
    options.factors_per_variable = 1.5;
    options.evidence_fraction = 0.0;
    options.seed = seed;
    base = MakeRandomGraph(options);
    extended = ExtendGraph(base, 2, 1.0, seed + 1, &changed);
  }
};

class IncrementalStrategyTest
    : public ::testing::TestWithParam<MaterializationStrategy> {};

TEST_P(IncrementalStrategyTest, UpdateTracksExactMarginals) {
  VersionedGraphs graphs(101);
  IncrementalOptions options;
  options.full_burn_in = 500;
  options.num_samples = 20000;
  options.update_burn_in = 500;
  options.mf_max_iterations = 300;
  options.mf_tolerance = 1e-7;
  options.mf_damping = 0.3;

  IncrementalInference engine(&graphs.base, GetParam(), options);
  ASSERT_TRUE(engine.Materialize().ok());
  auto exact_base = ExactMarginals(graphs.base);
  ASSERT_TRUE(exact_base.ok());
  double tolerance =
      GetParam() == MaterializationStrategy::kSampling ? 0.03 : 0.15;
  EXPECT_LT(MaxDiff(*exact_base, engine.marginals()), tolerance);

  auto updated = engine.Update(&graphs.extended, graphs.changed);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  auto exact_extended = ExactMarginals(graphs.extended);
  ASSERT_TRUE(exact_extended.ok());
  EXPECT_LT(MaxDiff(*exact_extended, *updated), tolerance);
  EXPECT_GT(engine.last_work_units(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothStrategies, IncrementalStrategyTest,
                         ::testing::Values(MaterializationStrategy::kSampling,
                                           MaterializationStrategy::kVariational));

TEST(IncrementalInferenceTest, UpdateBeforeMaterializeFails) {
  VersionedGraphs graphs(102);
  IncrementalOptions options;
  IncrementalInference engine(&graphs.base, MaterializationStrategy::kSampling,
                              options);
  auto result = engine.Update(&graphs.extended, graphs.changed);
  EXPECT_FALSE(result.ok());
}

TEST(IncrementalInferenceTest, ShrinkingGraphRejected) {
  VersionedGraphs graphs(103);
  IncrementalOptions options;
  options.num_samples = 50;
  options.full_burn_in = 10;
  IncrementalInference engine(&graphs.extended, MaterializationStrategy::kSampling,
                              options);
  ASSERT_TRUE(engine.Materialize().ok());
  auto result = engine.Update(&graphs.base, {});
  EXPECT_FALSE(result.ok());
}

/// A large sparse graph plus a two-variable extension: an update must
/// touch far fewer variables than a full run.
struct SparseGraphs {
  FactorGraph base;
  FactorGraph extended;
  std::vector<uint32_t> changed;

  SparseGraphs() {
    SyntheticGraphOptions options;
    options.num_variables = 5000;
    options.factors_per_variable = 1.0;
    options.evidence_fraction = 0.0;
    options.seed = 104;
    base = MakeRandomGraph(options);
    extended = ExtendGraph(base, 2, 1.0, 105, &changed);
  }
};

TEST(IncrementalInferenceTest, VariationalUpdateIsLocalized) {
  SparseGraphs graphs;
  IncrementalOptions inc_options;
  inc_options.mf_tolerance = 1e-3;
  inc_options.mf_damping = 0.2;
  IncrementalInference engine(&graphs.base, MaterializationStrategy::kVariational,
                              inc_options);
  ASSERT_TRUE(engine.Materialize().ok());
  uint64_t full_work = engine.last_work_units();

  auto updated = engine.Update(&graphs.extended, graphs.changed);
  ASSERT_TRUE(updated.ok());
  EXPECT_LT(engine.last_work_units(), full_work / 10)
      << "warm-started update should be far cheaper than materialization";
}

/// Connected-component label of every variable, by depth-first search
/// over var_factors — independent of the union-find inside Update.
std::vector<uint32_t> ComponentLabels(const FactorGraph& graph) {
  const uint32_t unlabeled = UINT32_MAX;
  std::vector<uint32_t> label(graph.num_variables(), unlabeled);
  for (uint32_t start = 0; start < label.size(); ++start) {
    if (label[start] != unlabeled) continue;
    std::vector<uint32_t> stack = {start};
    label[start] = start;
    while (!stack.empty()) {
      const uint32_t v = stack.back();
      stack.pop_back();
      size_t nf = 0;
      const uint32_t* factors = graph.var_factors(v, &nf);
      for (size_t i = 0; i < nf; ++i) {
        size_t nl = 0;
        const Literal* lits = graph.factor_literals(factors[i], &nl);
        for (size_t j = 0; j < nl; ++j) {
          if (label[lits[j].var] == unlabeled) {
            label[lits[j].var] = start;
            stack.push_back(lits[j].var);
          }
        }
      }
    }
  }
  return label;
}

IncrementalOptions ShortSamplingOptions() {
  IncrementalOptions options;
  options.full_burn_in = 50;
  options.update_burn_in = 10;
  options.num_samples = 200;
  options.seed = 11;
  return options;
}

TEST(IncrementalInferenceTest, SamplingUpdateKeepsUntouchedComponents) {
  SparseGraphs graphs;
  IncrementalInference engine(&graphs.base, MaterializationStrategy::kSampling,
                              ShortSamplingOptions());
  ASSERT_TRUE(engine.Materialize().ok());
  const std::vector<double> before = engine.marginals();
  auto updated = engine.Update(&graphs.extended, graphs.changed);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  ASSERT_EQ(updated->size(), graphs.extended.num_variables());

  // The extension adds one weight and leaves the others alone, so the
  // touched components are exactly those holding a changed variable.
  const std::vector<uint32_t> label = ComponentLabels(graphs.extended);
  std::vector<uint8_t> touched(label.size(), 0);
  for (uint32_t v : graphs.changed) touched[label[v]] = 1;
  size_t kept = 0;
  for (uint32_t v = 0; v < before.size(); ++v) {
    if (touched[label[v]]) continue;
    ++kept;
    EXPECT_EQ(std::memcmp(&(*updated)[v], &before[v], sizeof(double)), 0)
        << "variable " << v << " is outside the delta's components";
  }
  EXPECT_GT(kept, before.size() / 2);
}

TEST(IncrementalInferenceTest, SamplingUpdateIsLocalized) {
  SparseGraphs graphs;
  IncrementalInference engine(&graphs.base, MaterializationStrategy::kSampling,
                              IncrementalOptions());
  ASSERT_TRUE(engine.Materialize().ok());
  const uint64_t full_work = engine.last_work_units();
  auto updated = engine.Update(&graphs.extended, graphs.changed);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_LT(engine.last_work_units(), full_work / 10)
      << "a two-variable delta should resample only its components";
}

TEST(IncrementalInferenceTest, WeightChangeResamplesWholeGraph) {
  // Every variable gets a factor, so every component holds a weight.
  SyntheticGraphOptions options;
  options.num_variables = 300;
  options.factors_per_variable = 0.8;
  options.evidence_fraction = 0.2;
  options.seed = 106;
  FactorGraph base = MakeRandomGraph(options);
  const uint32_t prior = base.AddWeight(0.3, false, "prior");
  for (uint32_t v = 0; v < base.num_variables(); ++v) {
    ASSERT_TRUE(base.AddFactor(FactorFunc::kIsTrue, prior, {{v, true}}).ok());
  }
  ASSERT_TRUE(base.Finalize().ok());
  std::vector<uint32_t> changed;
  FactorGraph relearned = ExtendGraph(base, 3, 1.0, 107, &changed);
  for (uint32_t w = 0; w < relearned.num_weights(); ++w) {
    relearned.set_weight_value(w, relearned.weight_value(w) + 0.25);
  }
  std::vector<uint32_t> every_var(relearned.num_variables());
  for (uint32_t v = 0; v < every_var.size(); ++v) every_var[v] = v;

  auto run = [&](const std::vector<uint32_t>& update_changed) {
    IncrementalInference engine(&base, MaterializationStrategy::kSampling,
                                ShortSamplingOptions());
    EXPECT_TRUE(engine.Materialize().ok());
    auto updated = engine.Update(&relearned, update_changed);
    EXPECT_TRUE(updated.ok()) << updated.status().ToString();
    return updated.ok() ? *updated : std::vector<double>();
  };
  const std::vector<double> whole = run(every_var);
  ASSERT_EQ(whole.size(), relearned.num_variables());
  // No changed variable at all: the moved weights alone must scope the
  // update to the whole graph.
  const std::vector<double> scoped = run({});
  ASSERT_EQ(scoped.size(), whole.size());
  EXPECT_EQ(std::memcmp(scoped.data(), whole.data(), whole.size() * sizeof(double)), 0);
}

TEST(IncrementalInferenceTest, ChangedVarOutOfRangeRejected) {
  VersionedGraphs graphs(108);
  IncrementalOptions options;
  options.num_samples = 50;
  options.full_burn_in = 10;
  IncrementalInference engine(&graphs.base, MaterializationStrategy::kSampling,
                              options);
  ASSERT_TRUE(engine.Materialize().ok());
  auto result = engine.Update(
      &graphs.extended, {static_cast<uint32_t>(graphs.extended.num_variables())});
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ChooseStrategyTest, OptimizerRules) {
  // Dense graphs -> sampling regardless of changes.
  EXPECT_EQ(ChooseStrategy(100000, 10.0, 100), MaterializationStrategy::kSampling);
  // Few anticipated changes -> sampling.
  EXPECT_EQ(ChooseStrategy(100000, 2.0, 1), MaterializationStrategy::kSampling);
  // Tiny graphs -> sampling.
  EXPECT_EQ(ChooseStrategy(100, 2.0, 100), MaterializationStrategy::kSampling);
  // Large, sparse, many changes -> variational.
  EXPECT_EQ(ChooseStrategy(100000, 2.0, 50), MaterializationStrategy::kVariational);
}

TEST(StrategyNameTest, Names) {
  EXPECT_STREQ(StrategyName(MaterializationStrategy::kSampling), "sampling");
  EXPECT_STREQ(StrategyName(MaterializationStrategy::kVariational), "variational");
}

}  // namespace
}  // namespace dd
