#ifndef DEEPDIVE_INFERENCE_HOGWILD_H_
#define DEEPDIVE_INFERENCE_HOGWILD_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "factor/graph.h"
#include "inference/gibbs.h"
#include "util/result.h"
#include "util/rng.h"

namespace dd {

struct ParallelGibbsOptions {
  int num_threads = 4;
  int burn_in = 100;
  int num_samples = 1000;
  uint64_t seed = 42;
  bool clamp_evidence = true;
};

/// One driver thread's view of a sweep: its share of the free variables
/// plus the one Gibbs step bound to the shared assignment, the thread's
/// own RNG stream and its own tallies. Cache-line aligned so threads
/// stepping their RNGs never share a line.
struct alignas(64) SweepThread {
  size_t index;                              ///< thread number t
  const FactorGraph* graph;
  uint8_t* assignment;                       ///< shared by every thread
  const std::vector<uint32_t>* free_vars;    ///< every free variable, ascending
  Rng rng;
  std::vector<uint32_t> part;                ///< this thread's partition
  std::vector<uint64_t> counts;              ///< per-variable true tallies
  bool counting = false;                     ///< past burn-in

  /// GibbsStep on v; past burn-in, tallies v's new value.
  void Step(uint32_t v) {
    GibbsStep(*graph, v, assignment, &rng);
    if (counting) counts[v] += assignment[v];
  }
};

/// Thread that owns the i-th free variable `v`.
using SweepPartition = std::function<size_t(uint32_t v, size_t i)>;
/// One thread's work in sweep `sweep`: Step every variable it resamples.
using SweepBody = std::function<void(SweepThread* thread, int sweep)>;

struct ParallelRun {
  std::vector<double> marginals;  ///< P(v = 1); clamped evidence is 0/1
  uint64_t steps = 0;             ///< variable resampling steps
};

/// The parallel-sweep driver behind every multi-threaded sampler. It
/// initializes one shared chain with InitChain (RNG seeded `seed`),
/// splits the free variables by `partition`, and starts `num_threads`
/// threads, thread t drawing from its own stream seeded
/// `seed + 0x9e3779b9·(t+1)`. Each runs `body` for burn_in + num_samples
/// sweeps with a barrier after every sweep: inside a sweep threads race
/// freely, but no thread runs ahead against stale neighbor state. Counted
/// sweeps tally through SweepThread::Step; the driver then assembles the
/// marginals and records the dd.sampler.* metrics under `span_name`.
Result<ParallelRun> RunParallelSweeps(const FactorGraph& graph,
                                      const ParallelGibbsOptions& options,
                                      const char* span_name,
                                      const SweepPartition& partition,
                                      const SweepBody& body);

/// Hogwild-style lock-free parallel Gibbs (DimmWitted's execution model,
/// after Niu et al. [41]): the driver with a round-robin partition, every
/// thread resampling its partition against the shared assignment with
/// no synchronization inside a sweep. Races on neighboring variables are
/// benign for marginal estimation.
class HogwildSampler {
 public:
  HogwildSampler(const FactorGraph* graph, const ParallelGibbsOptions& options);

  /// Run burn_in + num_samples parallel sweeps; return P(v=1) estimates.
  Result<std::vector<double>> RunMarginals();

  /// Variable resampling steps performed by the last RunMarginals.
  uint64_t num_steps() const { return num_steps_; }

 private:
  const FactorGraph* graph_;
  ParallelGibbsOptions options_;
  uint64_t num_steps_ = 0;
};

/// Baseline modeling GraphLab's edge-consistency engine: identical
/// sampling math, but each variable update acquires the locks of the
/// variable and every variable sharing a factor with it (in id order, to
/// avoid deadlock). The contention and lock traffic — not the arithmetic —
/// is what the paper's 3.7× DimmWitted-vs-GraphLab comparison measures.
class LockingSampler {
 public:
  LockingSampler(const FactorGraph* graph, const ParallelGibbsOptions& options);

  Result<std::vector<double>> RunMarginals();

  uint64_t num_steps() const { return num_steps_; }

 private:
  const FactorGraph* graph_;
  ParallelGibbsOptions options_;
  uint64_t num_steps_ = 0;
};

}  // namespace dd

#endif  // DEEPDIVE_INFERENCE_HOGWILD_H_
