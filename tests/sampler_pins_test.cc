// Output pins for every sampler and learner: each pin is the CRC32C of
// the raw double bits a fixed-seed run produces. The other sampler tests
// compare the engine with itself (one sampler against another, one shard
// against a single node); these compare it with recorded outputs, so a
// refactor that changes any chain, weight or marginal bit fails here
// even when every sampler changed the same way.
//
// A pin that moves is a behavior change, never a number to refresh in
// passing: re-record pins only together with a deliberate change to the
// sampling math, and say so in the change description.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "dist/coordinator.h"
#include "factor/graph.h"
#include "inference/gibbs.h"
#include "inference/hogwild.h"
#include "inference/incremental.h"
#include "inference/learner.h"
#include "inference/map.h"
#include "inference/numa.h"
#include "testdata/synthetic_graphs.h"
#include "util/crc32c.h"

namespace dd {
namespace {

uint32_t Pin(const std::vector<double>& values) {
  return Crc32c(values.data(), values.size() * sizeof(double));
}

std::vector<double> Weights(const FactorGraph& graph) {
  std::vector<double> out(graph.num_weights());
  for (uint32_t w = 0; w < graph.num_weights(); ++w) out[w] = graph.weight_value(w);
  return out;
}

/// Evidence-bearing random graph with tied weights, the shape grounding
/// produces (imply + istrue factors).
FactorGraph PinGraph() {
  SyntheticGraphOptions options;
  options.num_variables = 60;
  options.factors_per_variable = 2.5;
  options.evidence_fraction = 0.3;
  options.weight_scale = 0.8;
  options.num_weights = 6;
  options.seed = 2024;
  return MakeRandomGraph(options);
}

GibbsOptions PinGibbsOptions() {
  GibbsOptions options;
  options.burn_in = 20;
  options.num_samples = 120;
  options.seed = 31;
  return options;
}

std::vector<double> GibbsMarginals(const FactorGraph& graph,
                                   const GibbsOptions& options) {
  GibbsSampler sampler(&graph, options);
  auto marginals = sampler.RunMarginals();
  EXPECT_TRUE(marginals.ok()) << marginals.status().ToString();
  return marginals.ok() ? *marginals : std::vector<double>{};
}

TEST(SamplerPins, GibbsClampOn) {
  const FactorGraph graph = PinGraph();
  EXPECT_EQ(Pin(GibbsMarginals(graph, PinGibbsOptions())), 2040805639u);
}

TEST(SamplerPins, GibbsClampOff) {
  const FactorGraph graph = PinGraph();
  GibbsOptions options = PinGibbsOptions();
  options.clamp_evidence = false;
  EXPECT_EQ(Pin(GibbsMarginals(graph, options)), 802128300u);
}

TEST(SamplerPins, GibbsFreeSetSubset) {
  const FactorGraph graph = PinGraph();
  std::vector<uint32_t> free_set;
  for (uint32_t v = 0; v < graph.num_variables(); v += 3) free_set.push_back(v);
  GibbsOptions options = PinGibbsOptions();
  options.free_set = &free_set;
  EXPECT_EQ(Pin(GibbsMarginals(graph, options)), 92255899u);
}

ParallelGibbsOptions PinParallelOptions() {
  ParallelGibbsOptions options;
  options.num_threads = 1;  // one thread: no races, a deterministic chain
  options.burn_in = 20;
  options.num_samples = 120;
  options.seed = 37;
  return options;
}

TEST(SamplerPins, HogwildOneThread) {
  const FactorGraph graph = PinGraph();
  auto marginals = HogwildSampler(&graph, PinParallelOptions()).RunMarginals();
  ASSERT_TRUE(marginals.ok()) << marginals.status().ToString();
  EXPECT_EQ(Pin(*marginals), 3426415266u);
}

TEST(SamplerPins, LockingOneThread) {
  const FactorGraph graph = PinGraph();
  auto marginals = LockingSampler(&graph, PinParallelOptions()).RunMarginals();
  ASSERT_TRUE(marginals.ok()) << marginals.status().ToString();
  EXPECT_EQ(Pin(*marginals), 3426415266u);
}

TEST(SamplerPins, NumaAwareThreeNodes) {
  const FactorGraph graph = PinGraph();
  NumaTopology topology;
  topology.num_nodes = 3;
  auto stats = NumaSampler(&graph, topology, 20, 120, 41).RunAware();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(Pin(stats->marginals), 1320807834u);
}

TEST(SamplerPins, NumaUnawareOneNode) {
  const FactorGraph graph = PinGraph();
  NumaTopology topology;
  topology.num_nodes = 1;
  auto stats = NumaSampler(&graph, topology, 20, 120, 43).RunUnaware();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(Pin(stats->marginals), 2483210681u);
}

LearnOptions PinLearnOptions() {
  LearnOptions options;
  options.epochs = 12;
  options.learning_rate = 0.05;
  options.seed = 53;
  return options;
}

TEST(SamplerPins, LearnerWeights) {
  FactorGraph graph = PinGraph();
  ASSERT_TRUE(Learner(&graph).Learn(PinLearnOptions()).ok());
  EXPECT_EQ(Pin(Weights(graph)), 898184754u);
}

TEST(SamplerPins, LearnerWeightsAfterResume) {
  const std::string dir = ::testing::TempDir() + "sampler_pins_learner";
  ASSERT_TRUE(RunDirectory(dir).Create().ok());
  ASSERT_TRUE(RunDirectory(dir).Clear().ok());
  LearnOptions options = PinLearnOptions();
  options.checkpoint_dir = dir;
  options.checkpoint_interval = 4;

  // Stop after 6 epochs (the final checkpoint lands at epoch 6), then a
  // fresh learner on a fresh graph resumes it to the full schedule.
  LearnOptions first_half = options;
  first_half.epochs = 6;
  FactorGraph graph = PinGraph();
  ASSERT_TRUE(Learner(&graph).Learn(first_half).ok());
  FactorGraph resumed = PinGraph();
  Learner learner(&resumed);
  ASSERT_TRUE(learner.Learn(options).ok());
  EXPECT_EQ(learner.resumed_from_epoch(), 6);
  EXPECT_EQ(Pin(Weights(resumed)), 898184754u);
}

TEST(SamplerPins, NumaLearnerAwareFourNodes) {
  FactorGraph graph = PinGraph();
  NumaTopology topology;
  topology.num_nodes = 4;
  auto stats = NumaLearner(&graph, topology).Learn(PinLearnOptions(), true);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(Pin(Weights(graph)), 2959156886u);
}

TEST(SamplerPins, NumaLearnerUnawareOneNode) {
  FactorGraph graph = PinGraph();
  NumaTopology topology;
  topology.num_nodes = 1;
  auto stats = NumaLearner(&graph, topology).Learn(PinLearnOptions(), false);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(Pin(Weights(graph)), 3935761839u);
}

TEST(SamplerPins, MapInference) {
  const FactorGraph graph = PinGraph();
  MapOptions options;
  options.sweeps = 60;
  options.restarts = 2;
  options.seed = 59;
  auto map = MapInference(graph, options);
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  std::vector<double> out(map->assignment.begin(), map->assignment.end());
  out.push_back(map->log_potential);
  EXPECT_EQ(Pin(out), 3288732371u);
}

TEST(SamplerPins, IncrementalMaterializeAndUpdate) {
  const FactorGraph base = PinGraph();
  std::vector<uint32_t> changed;
  const FactorGraph extended = ExtendGraph(base, 8, 1.5, 61, &changed);
  std::vector<uint32_t> every_var(extended.num_variables());
  for (uint32_t v = 0; v < every_var.size(); ++v) every_var[v] = v;
  IncrementalOptions options;
  options.full_burn_in = 30;
  options.update_burn_in = 10;
  options.num_samples = 120;
  options.seed = 67;
  // Listing every variable touches every component: the whole-graph
  // update. The delta's own changed set resamples only its components.
  for (const auto& [update_changed, pin] :
       {std::make_pair(every_var, 3404453759u), std::make_pair(changed, 85806650u)}) {
    IncrementalInference engine(&base, MaterializationStrategy::kSampling, options);
    ASSERT_TRUE(engine.Materialize().ok());
    EXPECT_EQ(Pin(engine.marginals()), 75096527u);
    auto updated = engine.Update(&extended, update_changed);
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(Pin(*updated), pin);
  }
}

DistributedOptions PinDistOptions(int num_shards) {
  DistributedOptions options;
  options.num_shards = num_shards;
  options.launch = DistLaunchMode::kThreads;
  options.epochs = 6;
  options.learning_rate = 0.05;
  options.learn_seed = 71;
  options.burn_in = 16;
  options.num_samples = 48;
  options.inference_seed = 73;
  options.sweeps_per_exchange = 8;
  return options;
}

TEST(SamplerPins, DistributedOneShard) {
  FactorGraph graph = PinGraph();
  auto result = RunDistributed(&graph, PinDistOptions(1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Pin(result->marginals), 1858929173u);
  EXPECT_EQ(Pin(result->weights), 3529460676u);
}

TEST(SamplerPins, DistributedTwoShards) {
  FactorGraph graph = PinGraph();
  auto result = RunDistributed(&graph, PinDistOptions(2));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(Pin(result->marginals), 3376617372u);
  EXPECT_EQ(Pin(result->weights), 2462263883u);
}

}  // namespace
}  // namespace dd
