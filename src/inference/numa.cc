#include "inference/numa.h"

#include <atomic>
#include <cmath>
#include <functional>
#include <thread>

#include "inference/hogwild.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace dd {

namespace {

/// Simulated interconnect latency for one remote access.
inline void SpinPenalty(uint64_t iters) {
  volatile uint64_t sink = 0;
  for (uint64_t i = 0; i < iters; ++i) sink = sink + i;
}

/// Variables touched when resampling v: v plus all variables sharing a
/// factor with v. (Weight reads are attributed to the factor's owner.)
std::vector<std::vector<uint32_t>> BuildScopes(const FactorGraph& graph) {
  const size_t nv = graph.num_variables();
  std::vector<std::vector<uint32_t>> scope(nv);
  for (uint32_t v = 0; v < nv; ++v) {
    size_t nfac = 0;
    const uint32_t* factors = graph.var_factors(v, &nfac);
    auto& s = scope[v];
    s.push_back(v);
    for (size_t i = 0; i < nfac; ++i) {
      size_t nlit = 0;
      const Literal* lits = graph.factor_literals(factors[i], &nlit);
      for (size_t j = 0; j < nlit; ++j) {
        if (lits[j].var != v) s.push_back(lits[j].var);
      }
    }
  }
  return scope;
}

/// Node owning variable v when nv variables are block-partitioned
/// across `nodes` memory nodes.
int BlockOwner(uint32_t v, size_t nv, int nodes) {
  size_t block = (nv + nodes - 1) / nodes;
  if (block == 0) block = 1;
  const int n = static_cast<int>(v / block);
  return n >= nodes ? nodes - 1 : n;
}

/// One unaware-learner epoch on node `node`: sweep the node's chains
/// under the graph's weights, then a Hogwild-style racy update of the
/// shared weight vector per factor while other nodes write it too (the
/// paper's baseline, so it deliberately bypasses CdStep's replica).
/// `local_lr` is the epoch's rate split across nodes so the combined
/// step matches. The graph itself is only written at the epoch barrier,
/// where the shared vector is installed in bulk.
void RacyUnawareEpoch(const FactorGraph& graph, const NumaTopology& topology,
                      CdChains* chains, int node, int sweeps, double local_lr,
                      std::vector<double>* shared, std::atomic<uint64_t>* total_acc,
                      std::atomic<uint64_t>* remote_acc) {
  chains->Sweep(sweeps);
  // Factor f is owned by the node owning its first literal's variable;
  // weight w by node w % nodes (weights are shared model state).
  const int nodes = topology.num_nodes;
  uint64_t acc = 0, remote = 0;
  ForEachCdTerm(graph, *chains, UINT32_MAX, [&](uint32_t f, uint32_t w, double term) {
    ++acc;
    const bool weight_remote = static_cast<int>(w % nodes) != node;
    size_t nlit = 0;
    const Literal* lits = graph.factor_literals(f, &nlit);
    if (nlit > 0 && BlockOwner(lits[0].var, graph.num_variables(), nodes) != node) {
      ++remote;  // factor fetch
    }
    if (weight_remote) {
      ++remote;
      SpinPenalty(topology.remote_penalty_iters);
    }
    if (term != 0.0) {
      (*shared)[w] += local_lr * term;
      if (weight_remote) {
        ++remote;
        SpinPenalty(topology.remote_penalty_iters);
      }
    }
  });
  total_acc->fetch_add(acc, std::memory_order_relaxed);
  remote_acc->fetch_add(remote, std::memory_order_relaxed);
}

}  // namespace

NumaSampler::NumaSampler(const FactorGraph* graph, const NumaTopology& topology,
                         int burn_in, int num_samples, uint64_t seed)
    : graph_(graph),
      topology_(topology),
      burn_in_(burn_in),
      num_samples_(num_samples),
      seed_(seed) {}

Status NumaSampler::CheckRun() const {
  if (!graph_->finalized()) {
    return Status::InvalidArgument("NumaSampler requires a finalized graph");
  }
  if (topology_.num_nodes < 1) return Status::InvalidArgument("num_nodes must be >= 1");
  if (num_samples_ < 1) return Status::InvalidArgument("num_samples must be >= 1");
  return Status::OK();
}

Result<NumaRunStats> NumaSampler::RunAware() {
  DD_RETURN_IF_ERROR(CheckRun());
  const int nodes = topology_.num_nodes;
  DD_TRACE_SPAN_VAR(run_span, "numa.run_aware");
  const size_t nv = graph_->num_variables();
  // Split the sample budget across nodes, spreading the remainder over
  // the first num_samples_ % nodes nodes so the requested budget is
  // honored exactly; every node burns in separately. Nodes left with a
  // zero share (more nodes than samples) sit the run out.
  std::vector<int> node_samples(nodes, num_samples_ / nodes);
  for (int n = 0; n < num_samples_ % nodes; ++n) node_samples[n] += 1;

  std::vector<std::vector<double>> node_marginals(nodes);
  std::vector<Status> node_status(nodes, Status::OK());
  std::atomic<uint64_t> steps{0};
  std::vector<std::thread> threads;
  for (int n = 0; n < nodes; ++n) {
    if (node_samples[n] == 0) continue;
    threads.emplace_back([&, n] {
      // Local replica chain: all state owned by node n; zero remote traffic.
      GibbsOptions opts;
      opts.burn_in = burn_in_;
      opts.num_samples = node_samples[n];
      opts.seed = seed_ + 0x51ed270bULL * static_cast<uint64_t>(n + 1);
      GibbsSampler chain(graph_, opts);
      auto result = chain.RunMarginals();
      if (result.ok()) {
        node_marginals[n] = std::move(result).value();
      } else {
        node_status[n] = result.status();
      }
      steps.fetch_add(chain.num_steps(), std::memory_order_relaxed);
    });
  }
  for (auto& th : threads) th.join();
  for (const Status& st : node_status) DD_RETURN_IF_ERROR(st);

  NumaRunStats stats;
  stats.marginals.assign(nv, 0.0);
  // Sample-weighted model averaging: a node's estimate counts in
  // proportion to the samples it actually drew.
  for (int n = 0; n < nodes; ++n) {
    if (node_samples[n] == 0) continue;
    for (size_t v = 0; v < nv; ++v) {
      stats.marginals[v] += node_marginals[n][v] * node_samples[n];
    }
  }
  for (double& m : stats.marginals) m /= num_samples_;
  stats.steps = steps.load();
  stats.total_accesses = stats.steps;  // local accesses only, one owner touch per step
  stats.remote_accesses = 0;
  DD_COUNTER_ADD("dd.numa.total_accesses", stats.total_accesses);
  run_span.Attr("nodes", static_cast<double>(nodes));
  run_span.Attr("steps", static_cast<double>(stats.steps));
  return stats;
}

Result<NumaRunStats> NumaSampler::RunUnaware() {
  DD_RETURN_IF_ERROR(CheckRun());
  const auto scopes = BuildScopes(*graph_);
  const size_t nv = graph_->num_variables();
  const int nodes = topology_.num_nodes;
  // Each node's thread samples the variables it owns on the shared
  // chain, but must read (and count) neighbor state on other nodes.
  std::atomic<uint64_t> total_acc{0}, remote_acc{0};
  ParallelGibbsOptions options;
  options.num_threads = nodes;
  options.burn_in = burn_in_;
  options.num_samples = num_samples_;
  options.seed = seed_;
  DD_ASSIGN_OR_RETURN(
      ParallelRun run,
      RunParallelSweeps(
          *graph_, options, "numa.run_unaware",
          [&](uint32_t v, size_t) { return static_cast<size_t>(BlockOwner(v, nv, nodes)); },
          [&](SweepThread* thread, int) {
            const int node = static_cast<int>(thread->index);
            uint64_t total = 0, remote = 0;
            for (uint32_t v : thread->part) {
              for (uint32_t u : scopes[v]) {
                ++total;
                if (BlockOwner(u, nv, nodes) != node) {
                  ++remote;
                  SpinPenalty(topology_.remote_penalty_iters);
                }
              }
              thread->Step(v);
            }
            total_acc.fetch_add(total, std::memory_order_relaxed);
            remote_acc.fetch_add(remote, std::memory_order_relaxed);
          }));

  NumaRunStats stats;
  stats.marginals = std::move(run.marginals);
  stats.steps = run.steps;
  stats.total_accesses = total_acc.load();
  stats.remote_accesses = remote_acc.load();
  DD_COUNTER_ADD("dd.numa.total_accesses", stats.total_accesses);
  DD_COUNTER_ADD("dd.numa.remote_accesses", stats.remote_accesses);
  return stats;
}

Result<NumaLearnStats> NumaLearner::Learn(const LearnOptions& options, bool numa_aware) {
  DD_RETURN_IF_ERROR(graph_->Finalize());
  const int nodes = topology_.num_nodes;
  if (nodes < 1) return Status::InvalidArgument("num_nodes must be >= 1");
  const size_t nw = graph_->num_weights();
  std::vector<CdChains> chains;
  chains.reserve(nodes);
  for (int n = 0; n < nodes; ++n) {
    chains.emplace_back(graph_, options.seed + 2 * n, options.seed + 2 * n + 1);
    DD_RETURN_IF_ERROR(chains.back().Init());
  }
  // Runs `work(n)` on one thread per node and joins them.
  auto on_every_node = [nodes](const std::function<void(int)>& work) {
    std::vector<std::thread> threads;
    for (int n = 0; n < nodes; ++n) threads.emplace_back(work, n);
    for (auto& th : threads) th.join();
  };

  NumaLearnStats stats;
  double lr = options.learning_rate;
  if (numa_aware) {
    // Per-node weight replicas: each node sweeps its own full-graph
    // chains and takes a CdStep on its replica; the replicas are
    // averaged per epoch. Chains sample under the graph's weights, which
    // only change at the averaging barrier, so every per-epoch access is
    // node-local.
    std::vector<double> averaged = graph_->weight_values();
    std::vector<std::vector<double>> replicas(nodes, averaged);
    uint64_t learnable_factors = 0;  // one local replica access each per step
    for (uint32_t f = 0; f < graph_->num_factors(); ++f) {
      if (!graph_->weight(graph_->factor_weight(f)).is_fixed) ++learnable_factors;
    }
    for (int epoch = 0; epoch < options.epochs; ++epoch) {
      std::vector<Status> node_status(nodes);
      on_every_node([&](int n) {
        chains[n].Sweep(options.sweeps_per_epoch);
        node_status[n] =
            CdStep(*graph_, chains[n], {lr, options.l2, epoch}, &replicas[n]).status();
      });
      for (const Status& st : node_status) DD_RETURN_IF_ERROR(st);

      // Model averaging at the epoch barrier (the only cross-node step;
      // nw remote accesses per node).
      for (uint32_t w = 0; w < nw; ++w) {
        if (graph_->weight(w).is_fixed) continue;
        double sum = 0.0;
        for (int n = 0; n < nodes; ++n) sum += replicas[n][w];
        averaged[w] = sum / nodes;
        for (int n = 0; n < nodes; ++n) replicas[n][w] = averaged[w];
      }
      graph_->set_weight_values(averaged);
      stats.remote_accesses += static_cast<uint64_t>(nw) * (nodes - 1);
      lr *= options.decay;
    }
    stats.total_accesses = learnable_factors * nodes * options.epochs +
                           stats.remote_accesses;
    return stats;
  }

  // Non-NUMA-aware: one shared weight vector; every node's gradient pass
  // reads and writes weights wherever they live.
  std::atomic<uint64_t> total_acc{0}, remote_acc{0};
  std::vector<double> shared = graph_->weight_values();
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    on_every_node([&](int n) {
      RacyUnawareEpoch(*graph_, topology_, &chains[n], n, options.sweeps_per_epoch,
                       lr / nodes, &shared, &total_acc, &remote_acc);
    });
    // L2 + decay applied once per epoch on the shared model; the racy
    // per-factor writes above skip the divergence check, so it lands here.
    for (uint32_t w = 0; w < nw; ++w) {
      if (graph_->weight(w).is_fixed) continue;
      const double value = shared[w];
      const double updated = value - lr * options.l2 * value;
      if (!std::isfinite(updated)) {
        return LearningDiverged(*graph_, epoch, w, updated, -options.l2 * value, lr);
      }
      shared[w] = updated;
    }
    graph_->set_weight_values(shared);
    lr *= options.decay;
  }
  stats.total_accesses = total_acc.load();
  stats.remote_accesses = remote_acc.load();
  return stats;
}

}  // namespace dd
