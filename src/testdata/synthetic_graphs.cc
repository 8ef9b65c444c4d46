#include "testdata/synthetic_graphs.h"

#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dd {

FactorGraph MakeRandomGraph(const SyntheticGraphOptions& options) {
  Rng rng(options.seed);
  FactorGraph graph;
  for (size_t v = 0; v < options.num_variables; ++v) {
    bool evidence = rng.NextDouble() < options.evidence_fraction;
    graph.AddVariable(evidence, rng.NextBernoulli(0.5));
  }
  for (size_t w = 0; w < options.num_weights; ++w) {
    graph.AddWeight(rng.NextGaussian() * options.weight_scale, false,
                    StrFormat("w%zu", w));
  }
  const size_t num_factors = static_cast<size_t>(
      options.factors_per_variable * static_cast<double>(options.num_variables));
  for (size_t f = 0; f < num_factors; ++f) {
    uint32_t weight = static_cast<uint32_t>(rng.NextBounded(options.num_weights));
    double dice = rng.NextDouble();
    uint32_t a = static_cast<uint32_t>(rng.NextBounded(options.num_variables));
    if (dice < 0.4) {
      DD_CHECK(graph.AddFactor(FactorFunc::kIsTrue, weight, {{a, true}}).ok());
    } else {
      uint32_t b = static_cast<uint32_t>(rng.NextBounded(options.num_variables));
      FactorFunc func = dice < 0.8 ? FactorFunc::kImply : FactorFunc::kAnd;
      DD_CHECK(graph.AddFactor(func, weight, {{a, true}, {b, true}}).ok());
    }
  }
  DD_CHECK(graph.Finalize().ok());
  return graph;
}

FactorGraph MakeFeatureHeavyGraph(const SyntheticGraphOptions& options) {
  Rng rng(options.seed);
  FactorGraph graph;
  const size_t nv = options.num_variables;
  for (size_t v = 0; v < nv; ++v) {
    bool evidence = rng.NextDouble() < options.evidence_fraction;
    graph.AddVariable(evidence, rng.NextBernoulli(0.5));
  }
  for (size_t w = 0; w < options.num_weights; ++w) {
    graph.AddWeight(rng.NextGaussian() * options.weight_scale, false,
                    StrFormat("feat%zu", w));
  }
  const uint32_t link = graph.AddWeight(rng.NextGaussian(), false, "link");
  const size_t unary = static_cast<size_t>(options.factors_per_variable + 0.5);
  for (uint32_t v = 0; v < nv; ++v) {
    for (size_t k = 0; k < unary; ++k) {
      const uint32_t weight = static_cast<uint32_t>(rng.NextBounded(options.num_weights));
      DD_CHECK(graph.AddFactor(FactorFunc::kIsTrue, weight, {{v, rng.NextBernoulli(0.8)}})
                   .ok());
    }
  }
  for (uint32_t v = 0; v < nv; ++v) {
    uint32_t u = static_cast<uint32_t>(rng.NextBounded(nv));
    if (u == v) u = static_cast<uint32_t>((u + 1) % nv);
    DD_CHECK(graph.AddFactor(FactorFunc::kImply, link, {{u, true}, {v, true}}).ok());
  }
  DD_CHECK(graph.Finalize().ok());
  return graph;
}

FactorGraph MakeChainGraph(size_t num_variables, double coupling, uint64_t seed) {
  Rng rng(seed);
  FactorGraph graph;
  for (size_t v = 0; v < num_variables; ++v) graph.AddVariable();
  uint32_t couple = graph.AddWeight(coupling, false, "couple");
  uint32_t prior = graph.AddWeight(rng.NextGaussian() * 0.5, false, "prior");
  for (uint32_t v = 0; v + 1 < num_variables; ++v) {
    DD_CHECK(
        graph.AddFactor(FactorFunc::kImply, couple, {{v, true}, {v + 1, true}}).ok());
  }
  for (uint32_t v = 0; v < num_variables; ++v) {
    if (v % 7 == 0) {
      DD_CHECK(graph.AddFactor(FactorFunc::kIsTrue, prior, {{v, true}}).ok());
    }
  }
  DD_CHECK(graph.Finalize().ok());
  return graph;
}

FactorGraph ExtendGraph(const FactorGraph& base, size_t extra_vars,
                        double factors_per_new_var, uint64_t seed,
                        std::vector<uint32_t>* changed) {
  Rng rng(seed);
  FactorGraph graph = base;  // value copy; CSR is rebuilt by Finalize below
  changed->clear();
  const size_t base_vars = base.num_variables();
  uint32_t weight = graph.AddWeight(rng.NextGaussian(), false, "ext");
  for (size_t k = 0; k < extra_vars; ++k) {
    uint32_t v = graph.AddVariable();
    changed->push_back(v);
    int attach = static_cast<int>(factors_per_new_var + 0.5);
    if (attach < 1) attach = 1;
    for (int f = 0; f < attach; ++f) {
      if (base_vars > 0 && rng.NextBernoulli(0.7)) {
        uint32_t u = static_cast<uint32_t>(rng.NextBounded(base_vars));
        DD_CHECK(
            graph.AddFactor(FactorFunc::kImply, weight, {{u, true}, {v, true}}).ok());
        changed->push_back(u);
      } else {
        DD_CHECK(graph.AddFactor(FactorFunc::kIsTrue, weight, {{v, true}}).ok());
      }
    }
  }
  DD_CHECK(graph.Finalize().ok());
  return graph;
}

FactorGraph MakeClassificationGraph(size_t num_items, size_t num_features,
                                    size_t features_per_item, uint64_t seed) {
  Rng rng(seed);
  FactorGraph graph;
  // Planted feature weights decide the labels.
  std::vector<double> planted(num_features);
  std::vector<uint32_t> weight_ids(num_features);
  for (size_t f = 0; f < num_features; ++f) {
    planted[f] = rng.NextGaussian() * 1.5;
    weight_ids[f] = graph.AddWeight(0.0, false, StrFormat("feat%zu", f));
  }
  for (size_t i = 0; i < num_items; ++i) {
    // Item's features and planted score.
    double score = 0.0;
    std::vector<size_t> features;
    for (size_t k = 0; k < features_per_item; ++k) {
      size_t f = rng.NextBounded(num_features);
      features.push_back(f);
      score += planted[f];
    }
    bool label = rng.NextDouble() < 1.0 / (1.0 + std::exp(-score));
    uint32_t v = graph.AddVariable(true, label);
    for (size_t f : features) {
      DD_CHECK(graph.AddFactor(FactorFunc::kIsTrue, weight_ids[f], {{v, true}}).ok());
    }
  }
  DD_CHECK(graph.Finalize().ok());
  return graph;
}

}  // namespace dd
