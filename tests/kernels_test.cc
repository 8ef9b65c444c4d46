#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "factor/graph.h"
#include "inference/gibbs.h"
#include "inference/hogwild.h"
#include "inference/numa.h"
#include "util/rng.h"

namespace dd {
namespace {

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

/// Random graph stressing every compiled-op shape: all five factor
/// functions, mixed polarities, variables repeated inside one factor
/// (including both polarities, the provably-zero drop cases, and v in
/// both body and head of an imply), fixed weights, and exact-zero
/// weights.
FactorGraph AdversarialGraph(uint64_t seed, int num_vars, int num_factors) {
  Rng rng(seed);
  FactorGraph g;
  for (int v = 0; v < num_vars; ++v) {
    g.AddVariable(rng.NextBernoulli(0.15), rng.NextBernoulli(0.5));
  }
  int num_weights = 4 + static_cast<int>(rng.NextBounded(5));
  for (int w = 0; w < num_weights; ++w) {
    double value = rng.NextBernoulli(0.15) ? 0.0 : rng.NextGaussian() * 1.5;
    g.AddWeight(value, rng.NextBernoulli(0.3), "w" + std::to_string(w));
  }
  const FactorFunc funcs[] = {FactorFunc::kIsTrue, FactorFunc::kAnd, FactorFunc::kOr,
                              FactorFunc::kImply, FactorFunc::kEqual};
  for (int f = 0; f < num_factors; ++f) {
    FactorFunc func = funcs[rng.NextBounded(5)];
    size_t arity = func == FactorFunc::kIsTrue ? 1
                   : func == FactorFunc::kEqual ? 2
                                                : 1 + rng.NextBounded(4);
    std::vector<Literal> lits;
    for (size_t i = 0; i < arity; ++i) {
      uint32_t var = static_cast<uint32_t>(rng.NextBounded(num_vars));
      // Frequently reuse an earlier literal's variable so one factor
      // holds the same variable several times, with independent
      // polarities (the kernel compiler's drop/fallback cases).
      if (i > 0 && rng.NextBernoulli(0.35)) {
        lits.push_back({lits[rng.NextBounded(i)].var, rng.NextBernoulli(0.5)});
      } else {
        lits.push_back({var, rng.NextBernoulli(0.7)});
      }
    }
    EXPECT_TRUE(
        g.AddFactor(func, static_cast<uint32_t>(rng.NextBounded(num_weights)), lits)
            .ok());
  }
  EXPECT_TRUE(g.Finalize().ok());
  return g;
}

class CompiledKernelProperty : public ::testing::TestWithParam<uint64_t> {};

/// The tentpole invariant: for every variable and random assignment, the
/// compiled stream produces the exact bit pattern of the interpreted
/// CSR walk. EXPECT_EQ on doubles would accept -0.0 == 0.0 and miss
/// rounding drift; comparing bit patterns does not.
TEST_P(CompiledKernelProperty, DeltaMatchesInterpretedBitForBit) {
  const uint64_t seed = GetParam();
  FactorGraph g = AdversarialGraph(seed, 24, 160);
  Rng rng(seed ^ 0xabcdef);
  const size_t nv = g.num_variables();
  std::vector<uint8_t> assignment(nv);
  for (int round = 0; round < 50; ++round) {
    for (size_t v = 0; v < nv; ++v) assignment[v] = rng.NextBernoulli(0.5) ? 1 : 0;
    for (uint32_t v = 0; v < nv; ++v) {
      const double interpreted = g.PotentialDelta(v, assignment.data());
      const double compiled = g.PotentialDeltaCompiled(v, assignment.data());
      ASSERT_EQ(Bits(interpreted), Bits(compiled))
          << "seed=" << seed << " v=" << v << " round=" << round
          << " interpreted=" << interpreted << " compiled=" << compiled;
    }
  }
}

/// Mutating weights after Finalize (what every learning epoch does) must
/// keep the compiled stream in sync — including weights that were folded
/// into a variable's bias constant.
TEST_P(CompiledKernelProperty, DeltaMatchesAfterWeightUpdates) {
  const uint64_t seed = GetParam();
  FactorGraph g = AdversarialGraph(seed, 24, 160);
  Rng rng(seed ^ 0x5eed);
  const size_t nv = g.num_variables();
  std::vector<uint8_t> assignment(nv);
  for (int round = 0; round < 10; ++round) {
    for (uint32_t w = 0; w < g.num_weights(); ++w) {
      g.set_weight_value(w, rng.NextGaussian());
    }
    for (size_t v = 0; v < nv; ++v) assignment[v] = rng.NextBernoulli(0.5) ? 1 : 0;
    for (uint32_t v = 0; v < nv; ++v) {
      ASSERT_EQ(Bits(g.PotentialDelta(v, assignment.data())),
                Bits(g.PotentialDeltaCompiled(v, assignment.data())))
          << "seed=" << seed << " v=" << v << " round=" << round;
    }
  }
}

/// The same, with each round's weights installed in bulk: every changed
/// value is written first and the folded biases are refolded once.
TEST_P(CompiledKernelProperty, DeltaMatchesAfterBulkWeightUpdates) {
  const uint64_t seed = GetParam();
  FactorGraph g = AdversarialGraph(seed, 24, 160);
  Rng rng(seed ^ 0xb0b);
  const size_t nv = g.num_variables();
  std::vector<uint8_t> assignment(nv);
  std::vector<double> weights = g.weight_values();
  for (int round = 0; round < 10; ++round) {
    // Leave some weights unchanged so the install writes a subset.
    for (double& w : weights) {
      if (rng.NextBernoulli(0.7)) w = rng.NextBernoulli(0.1) ? 0.0 : rng.NextGaussian();
    }
    g.set_weight_values(weights);
    ASSERT_EQ(g.weight_values(), weights);
    for (size_t v = 0; v < nv; ++v) assignment[v] = rng.NextBernoulli(0.5) ? 1 : 0;
    for (uint32_t v = 0; v < nv; ++v) {
      ASSERT_EQ(Bits(g.PotentialDelta(v, assignment.data())),
                Bits(g.PotentialDeltaCompiled(v, assignment.data())))
          << "seed=" << seed << " v=" << v << " round=" << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledKernelProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(CompiledKernels, SetWeightValueSyncsColdMirror) {
  FactorGraph g;
  g.AddVariable();
  uint32_t w = g.AddWeight(1.0, false, "learned");
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w, {{0, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());
  g.set_weight_value(w, -2.5);
  EXPECT_EQ(g.weight_value(w), -2.5);
  EXPECT_EQ(g.weight(w).value, -2.5);  // io/diagnostics read the struct
  EXPECT_EQ(g.weight_values()[w], -2.5);
}

/// Every assignment of a graph with `nv` variables agrees bit for bit.
void ExpectAllDeltasMatch(const FactorGraph& g) {
  const uint32_t nv = static_cast<uint32_t>(g.num_variables());
  std::vector<uint8_t> a(nv);
  for (uint32_t bits = 0; bits < (1u << nv); ++bits) {
    for (uint32_t v = 0; v < nv; ++v) a[v] = (bits >> v) & 1u;
    for (uint32_t v = 0; v < nv; ++v) {
      ASSERT_EQ(Bits(g.PotentialDelta(v, a.data())),
                Bits(g.PotentialDeltaCompiled(v, a.data())))
          << "v=" << v << " assignment=" << bits;
    }
  }
}

TEST(CompiledKernels, UnaryOnlyVariableFoldsAndRefolds) {
  // v0's whole adjacency is unary factors, fixed and learned, so its
  // delta folds to a constant and its stream is empty. Overwriting any
  // of those weights must refold the bias, not leave it stale.
  FactorGraph g;
  g.AddVariable();
  uint32_t w0 = g.AddWeight(0.75, true, "prior0");
  uint32_t w1 = g.AddWeight(-0.25, true, "prior1");
  uint32_t w2 = g.AddWeight(0.5, false, "learned");
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w0, {{0, true}}).ok());
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w1, {{0, false}}).ok());
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w2, {{0, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());
  uint8_t assignment = 0;
  EXPECT_EQ(g.kernel_stream_words(), 0u);
  EXPECT_EQ(Bits(g.PotentialDeltaCompiled(0, &assignment)),
            Bits(g.PotentialDelta(0, &assignment)));
  g.set_weight_value(w0, 3.5);
  EXPECT_EQ(Bits(g.PotentialDeltaCompiled(0, &assignment)),
            Bits(g.PotentialDelta(0, &assignment)));
  EXPECT_EQ(g.PotentialDeltaCompiled(0, &assignment), 3.5 + 0.25 + 0.5);
  g.set_weight_values({3.5, -0.25, -1.5});
  EXPECT_EQ(Bits(g.PotentialDeltaCompiled(0, &assignment)),
            Bits(g.PotentialDelta(0, &assignment)));
  EXPECT_EQ(g.PotentialDeltaCompiled(0, &assignment), 3.5 + 0.25 - 1.5);
}

TEST(CompiledKernels, LearnedUnaryPrefixFoldsIntoBias) {
  // v0: two learned unary factors, then a guard (AND with v1). The
  // unary prefix folds; only the guard stays in v0's stream.
  FactorGraph g;
  g.AddVariable();
  g.AddVariable();
  uint32_t w0 = g.AddWeight(0.1, false, "feat0");
  uint32_t w1 = g.AddWeight(0.7, false, "feat1");
  uint32_t w2 = g.AddWeight(-1.3, false, "pair");
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w0, {{0, true}}).ok());
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w1, {{0, false}}).ok());
  ASSERT_TRUE(g.AddFactor(FactorFunc::kAnd, w2, {{0, true}, {1, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());
  // Unfolded: v0 = 2 unary ops (2 words each) + 1 guard (3 words), v1 =
  // 1 guard. Folded: just the two guards.
  EXPECT_EQ(g.kernel_stream_words(), 6u);
  EXPECT_EQ(g.kernel_offsets()[1] - g.kernel_offsets()[0], 3u);
  EXPECT_EQ(Bits(g.var_bias()[0]), Bits(0.0 + 0.1 - 0.7));
  EXPECT_EQ(Bits(g.var_bias()[1]), Bits(0.0));
  ExpectAllDeltasMatch(g);

  // Learning installs new values: the bias follows, bit for bit.
  g.set_weight_values({-2.25, 0.3125, 0.5});
  EXPECT_EQ(Bits(g.var_bias()[0]), Bits(0.0 - 2.25 - 0.3125));
  ExpectAllDeltasMatch(g);
  g.set_weight_value(w1, 4.0);
  EXPECT_EQ(Bits(g.var_bias()[0]), Bits(0.0 - 2.25 - 4.0));
  ExpectAllDeltasMatch(g);
}

TEST(CompiledKernels, UnaryAfterGuardStaysInStream) {
  // v0: a guard first, then a unary factor. Folding the unary would add
  // it before the guard's term and reassociate the sum, so it stays.
  FactorGraph g;
  g.AddVariable();
  g.AddVariable();
  uint32_t w0 = g.AddWeight(0.1, false, "feat0");
  uint32_t w2 = g.AddWeight(-1.3, false, "pair");
  ASSERT_TRUE(g.AddFactor(FactorFunc::kAnd, w2, {{0, true}, {1, true}}).ok());
  ASSERT_TRUE(g.AddFactor(FactorFunc::kIsTrue, w0, {{0, true}}).ok());
  ASSERT_TRUE(g.Finalize().ok());
  // v0 = guard (3 words) + unary (2 words); v1 = guard (3 words).
  EXPECT_EQ(g.kernel_stream_words(), 8u);
  EXPECT_EQ(g.kernel_offsets()[1] - g.kernel_offsets()[0], 5u);
  EXPECT_EQ(Bits(g.var_bias()[0]), Bits(0.0));
  ExpectAllDeltasMatch(g);
  g.set_weight_values({0.2, 3.0});
  ExpectAllDeltasMatch(g);
}

// --- End-to-end: the sampler's chain equals an interpreted reference ---

FactorGraph SamplerGraph(uint64_t seed) {
  return AdversarialGraph(seed, 40, 200);
}

/// Test-local interpreted reference chain: GibbsSampler's init order and
/// RNG stream, but every delta from the interpreted CSR oracle.
std::vector<double> InterpretedMarginals(const FactorGraph& g, const GibbsOptions& opts) {
  Rng rng(opts.seed);
  const size_t nv = g.num_variables();
  std::vector<uint8_t> a(nv);
  std::vector<uint32_t> free_vars;
  for (uint32_t v = 0; v < nv; ++v) {
    if (opts.clamp_evidence && g.is_evidence(v)) {
      a[v] = g.evidence_value(v) ? 1 : 0;
    } else {
      a[v] = rng.NextBernoulli(0.5) ? 1 : 0;
      free_vars.push_back(v);
    }
  }
  std::vector<uint64_t> counts(nv, 0);
  for (int sweep = 0; sweep < opts.burn_in + opts.num_samples; ++sweep) {
    for (uint32_t v : free_vars) {
      a[v] = rng.NextBernoulli(Sigmoid(g.PotentialDelta(v, a.data()))) ? 1 : 0;
    }
    if (sweep < opts.burn_in) continue;
    for (size_t v = 0; v < nv; ++v) counts[v] += a[v];
  }
  std::vector<double> marginals(nv);
  for (size_t v = 0; v < nv; ++v) {
    marginals[v] = static_cast<double>(counts[v]) / opts.num_samples;
  }
  return marginals;
}

TEST(CompiledSampler, GibbsMatchesInterpretedReferenceChain) {
  for (bool clamp : {true, false}) {
    FactorGraph g = SamplerGraph(7);
    GibbsOptions opts;
    opts.burn_in = 20;
    opts.num_samples = 80;
    opts.seed = 99;
    opts.clamp_evidence = clamp;
    auto marginals = GibbsSampler(&g, opts).RunMarginals();
    ASSERT_TRUE(marginals.ok()) << marginals.status().ToString();
    // Same RNG stream + bit-identical deltas => bit-identical chains.
    const std::vector<double> reference = InterpretedMarginals(g, opts);
    ASSERT_EQ(marginals->size(), reference.size());
    for (size_t v = 0; v < reference.size(); ++v) {
      EXPECT_EQ(Bits((*marginals)[v]), Bits(reference[v]))
          << "variable " << v << ", clamp_evidence=" << clamp;
    }
  }
}

// --- Satellite guards: num_samples == 0 must be rejected, not divide ---

TEST(SamplerGuards, ZeroSamplesRejectedEverywhere) {
  FactorGraph g = SamplerGraph(23);
  ParallelGibbsOptions popts;
  popts.num_samples = 0;
  EXPECT_FALSE(HogwildSampler(&g, popts).RunMarginals().ok());
  EXPECT_FALSE(LockingSampler(&g, popts).RunMarginals().ok());
  NumaTopology topo;
  NumaSampler numa(&g, topo, 10, 0, 4);
  EXPECT_FALSE(numa.RunAware().ok());
  EXPECT_FALSE(numa.RunUnaware().ok());
}

TEST(SamplerGuards, NumaAwareHonorsSampleBudgetWithRemainder) {
  // 10 samples over 4 nodes: nodes get 3/3/2/2. Every node pays its own
  // burn-in, so total steps = (nodes * burn_in + num_samples) * nfree.
  FactorGraph g = SamplerGraph(29);
  size_t nfree = 0;
  for (uint32_t v = 0; v < g.num_variables(); ++v) {
    if (!g.is_evidence(v)) ++nfree;
  }
  NumaTopology topo;
  topo.num_nodes = 4;
  const int burn_in = 5, num_samples = 10;
  NumaSampler sampler(&g, topo, burn_in, num_samples, 4);
  auto stats = sampler.RunAware();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->steps,
            static_cast<uint64_t>(topo.num_nodes * burn_in + num_samples) * nfree);
}

TEST(SamplerGuards, NumaAwareMoreNodesThanSamples) {
  // 2 samples over 4 nodes: two nodes get one sample each, two sit idle.
  FactorGraph g = SamplerGraph(31);
  size_t nfree = 0;
  for (uint32_t v = 0; v < g.num_variables(); ++v) {
    if (!g.is_evidence(v)) ++nfree;
  }
  NumaTopology topo;
  topo.num_nodes = 4;
  NumaSampler sampler(&g, topo, /*burn_in=*/5, /*num_samples=*/2, 4);
  auto stats = sampler.RunAware();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->steps, static_cast<uint64_t>(2 * 5 + 2) * nfree);
  for (double m : stats->marginals) {
    EXPECT_GE(m, 0.0);
    EXPECT_LE(m, 1.0);
  }
}

}  // namespace
}  // namespace dd
