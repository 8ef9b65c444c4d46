#ifndef DEEPDIVE_INFERENCE_GIBBS_H_
#define DEEPDIVE_INFERENCE_GIBBS_H_

#include <cstdint>
#include <vector>

#include "factor/graph.h"
#include "util/result.h"
#include "util/rng.h"

namespace dd {

struct GraphSnapshot;

/// sigmoid(x) = 1 / (1 + e^-x), the Gibbs conditional for Boolean
/// variables under log-linear factors.
double Sigmoid(double x);

/// The one Gibbs step every sampler takes: resample v from its
/// conditional given the rest of `a` (compiled delta kernel, sigmoid,
/// one Bernoulli draw from `rng`). FactorGraph::PotentialDelta is the
/// interpreted oracle the tests hold this kernel to, not a runtime path.
inline void GibbsStep(const FactorGraph& graph, uint32_t v, uint8_t* a, Rng* rng) {
  a[v] = rng->NextBernoulli(Sigmoid(graph.PotentialDeltaCompiled(v, a))) ? 1 : 0;
}

/// The variables a chain resamples, ascending: exactly `free_set` when
/// given (it must be strictly ascending and in range, else
/// InvalidArgument), otherwise every variable except clamped evidence.
Result<std::vector<uint32_t>> FreeVariables(const FactorGraph& graph,
                                            bool clamp_evidence,
                                            const std::vector<uint32_t>* free_set);

/// The one chain init: every variable outside `free_vars` is pinned at
/// its evidence value (0 when it is not evidence), then every free
/// variable is drawn uniformly in ascending id order, one draw each.
void InitChain(const FactorGraph& graph, const std::vector<uint32_t>& free_vars,
               Rng* rng, std::vector<uint8_t>* assignment);

struct GibbsOptions {
  int burn_in = 100;          ///< sweeps discarded before counting
  int num_samples = 1000;     ///< counted sweeps
  uint64_t seed = 42;
  bool clamp_evidence = true; ///< keep evidence variables at their values
  /// Optional explicit free set (strictly ascending variable ids below
  /// num_variables, else Init/RestoreState fail; owned by the caller,
  /// must outlive the sampler). When set it overrides
  /// clamp_evidence entirely: exactly these variables are resampled;
  /// every other variable is pinned — at its evidence value if it is an
  /// evidence variable, otherwise at 0 until the caller pokes the
  /// assignment. The distributed shards use this to sweep only the
  /// variables they own while ghost replicas stay pinned at the values
  /// exchanged with their owners. With free_set covering every variable
  /// the chain is bit-identical to clamp_evidence = false.
  const std::vector<uint32_t>* free_set = nullptr;
};

/// Sequential Gibbs sampler over a finalized FactorGraph. One "sweep"
/// resamples every free variable once (scan order). The schedule is
/// sweeps 0 .. burn_in + num_samples - 1, and sweep s is counted
/// (followed by Accumulate) when s >= burn_in. Marginals are
/// empirical frequencies over the counted sweeps — exactly the
/// probabilities DeepDive writes back into the database (§3.4).
class GibbsSampler {
 public:
  /// The graph must outlive the sampler and be finalized (Init checks).
  GibbsSampler(const FactorGraph* graph, const GibbsOptions& options);

  /// Reset the chain with InitChain over the configured free variables.
  Status Init();

  /// Resample every free variable once.
  void Sweep();

  /// Record the current assignment into the marginal accumulators.
  void Accumulate();

  /// Sweeps [from, to) of the schedule, each preceded by the
  /// inference.sweep failpoint (an injected fault stops the run there).
  /// Every sampling loop — RunMarginals, the sampling materialization
  /// and its updates, the shard worker's rounds — runs through this.
  Status RunSweeps(uint64_t from, uint64_t to);

  /// burn_in + num_samples, the schedule's length.
  uint64_t total_sweeps() const {
    return static_cast<uint64_t>(options_.burn_in) + options_.num_samples;
  }

  /// The whole schedule (Init first if needed); returns the estimated
  /// P(v = 1) for every variable.
  Result<std::vector<double>> RunMarginals();

  /// Current chain state (one byte per variable).
  const std::vector<uint8_t>& assignment() const { return assignment_; }
  std::vector<uint8_t>* mutable_assignment() { return &assignment_; }

  /// Chain persistence (checkpoint/recovery). The RNG state plus the
  /// assignment and accumulator state fully determine the chain's
  /// future, so restoring them resumes the chain bit-identically.
  RngState rng_state() const { return rng_.state(); }
  const std::vector<uint64_t>& true_counts() const { return true_counts_; }

  /// Restore a checkpointed chain: replaces Init(). `true_counts` may be
  /// empty (accumulation not yet started); otherwise it must match the
  /// variable count, as must `assignment`.
  Status RestoreState(const std::vector<uint8_t>& assignment,
                      const std::vector<uint64_t>& true_counts,
                      uint64_t num_accumulated, const RngState& rng_state);

  /// Marginals accumulated so far (error if none).
  Result<std::vector<double>> Marginals() const;

  uint64_t num_accumulated() const { return num_accumulated_; }

  /// Total variable resampling steps performed (for throughput metrics).
  uint64_t num_steps() const { return num_steps_; }

 private:
  const FactorGraph* graph_;
  GibbsOptions options_;
  Rng rng_;
  std::vector<uint8_t> assignment_;
  std::vector<uint32_t> free_vars_;
  std::vector<uint64_t> true_counts_;
  uint64_t num_accumulated_ = 0;
  uint64_t num_steps_ = 0;
  bool initialized_ = false;
};

/// The chain half of the checkpoint codec (factor/io.h): appends each
/// chain's assignment and RNG state to CHNS/RNGS, in order; with
/// `tallies`, the last chain's tallies go to CNTS and its sample count
/// to META "num_accumulated".
void SaveChains(const std::vector<const GibbsSampler*>& chains, bool tallies,
                GraphSnapshot* snap);

/// The inverse, through RestoreState: `snap` must carry exactly one
/// chain and RNG state per sampler (else InvalidArgument); with
/// `tallies` the last sampler gets CNTS and "num_accumulated".
Status RestoreChains(const GraphSnapshot& snap, bool tallies,
                     const std::vector<GibbsSampler*>& chains);

}  // namespace dd

#endif  // DEEPDIVE_INFERENCE_GIBBS_H_
