#ifndef DEEPDIVE_INFERENCE_NUMA_H_
#define DEEPDIVE_INFERENCE_NUMA_H_

#include <cstdint>
#include <vector>

#include "factor/graph.h"
#include "inference/learner.h"
#include "util/result.h"

namespace dd {

/// Simulated NUMA machine. The paper's DimmWitted engine ran on a
/// 4-socket machine; this host may not be NUMA at all, so the NUMA
/// effects are modeled explicitly: variables (and weights) are block-
/// partitioned across `num_nodes` memory nodes, every access from a
/// thread pinned to a different node counts as remote, and each remote
/// access optionally pays `remote_penalty_iters` spin iterations of
/// simulated interconnect latency. DESIGN.md §5 documents why this
/// substitution preserves the paper's claim (communication volume across
/// sockets is the quantity of interest).
struct NumaTopology {
  int num_nodes = 4;
  uint64_t remote_penalty_iters = 0;
};

struct NumaRunStats {
  std::vector<double> marginals;
  uint64_t total_accesses = 0;
  uint64_t remote_accesses = 0;
  uint64_t steps = 0;  ///< variable resampling steps
};

/// Gibbs sampling under the two memory strategies of §4.2:
///
/// * RunAware — DimmWitted's NUMA-aware mode: each node runs an
///   independent full-graph chain against its local replica and the
///   per-node marginal estimates are averaged (model averaging [57]).
///   No cross-node traffic during sampling.
/// * RunUnaware — the parallel-sweep driver over one shared chain with
///   an owner-block partition: threads on every node sample the
///   variables their node owns, so reads of neighbor state and writes
///   of sampled values constantly cross node boundaries.
///
/// Both produce `num_samples` counted sweeps in total (the aware mode
/// splits them across nodes), matching the paper's "1,000 samples for
/// all variables" accounting.
class NumaSampler {
 public:
  NumaSampler(const FactorGraph* graph, const NumaTopology& topology, int burn_in,
              int num_samples, uint64_t seed);

  Result<NumaRunStats> RunAware();
  Result<NumaRunStats> RunUnaware();

 private:
  Status CheckRun() const;

  const FactorGraph* graph_;
  NumaTopology topology_;
  int burn_in_;
  int num_samples_;
  uint64_t seed_;
};

struct NumaLearnStats {
  uint64_t total_accesses = 0;
  uint64_t remote_accesses = 0;
};

/// Weight learning under the two strategies, one CdChains pair per node:
/// NUMA-aware keeps a weight replica per node, takes a CdStep on it, and
/// averages replicas after every epoch (Zinkevich model averaging); the
/// unaware baseline shares one weight vector that every node hammers
/// remotely with racy per-factor writes. Both report divergence the way
/// Learner::Learn does.
class NumaLearner {
 public:
  NumaLearner(FactorGraph* graph, const NumaTopology& topology)
      : graph_(graph), topology_(topology) {}

  Result<NumaLearnStats> Learn(const LearnOptions& options, bool numa_aware);

 private:
  FactorGraph* graph_;
  NumaTopology topology_;
};

}  // namespace dd

#endif  // DEEPDIVE_INFERENCE_NUMA_H_
