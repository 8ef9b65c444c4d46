#include "inference/hogwild.h"

#include <algorithm>
#include <barrier>
#include <memory>
#include <mutex>
#include <thread>

#include "util/metrics.h"
#include "util/rng.h"
#include "util/timer.h"
#include "util/trace.h"

namespace dd {

Result<ParallelRun> RunParallelSweeps(const FactorGraph& graph,
                                      const ParallelGibbsOptions& options,
                                      const char* span_name,
                                      const SweepPartition& partition,
                                      const SweepBody& body) {
  if (!graph.finalized()) {
    return Status::InvalidArgument("parallel sampler requires a finalized graph");
  }
  if (options.num_threads < 1) {
    return Status::InvalidArgument("num_threads must be >= 1");
  }
  if (options.num_samples < 1) {
    return Status::InvalidArgument("num_samples must be >= 1");
  }
  DD_TRACE_SPAN_VAR(run_span, span_name);
  Stopwatch run_watch;
  DD_ASSIGN_OR_RETURN(const std::vector<uint32_t> free_vars,
                      FreeVariables(graph, options.clamp_evidence, nullptr));
  std::vector<uint8_t> assignment;
  Rng init_rng(options.seed);
  InitChain(graph, free_vars, &init_rng, &assignment);

  const size_t nv = graph.num_variables();
  const size_t num_threads = static_cast<size_t>(options.num_threads);
  std::vector<SweepThread> workers;
  workers.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    workers.push_back({t, &graph, assignment.data(), &free_vars,
                       Rng(options.seed + 0x9e3779b9ULL * (t + 1)), {},
                       std::vector<uint64_t>(nv, 0), false});
  }
  for (size_t i = 0; i < free_vars.size(); ++i) {
    workers[partition(free_vars[i], i)].part.push_back(free_vars[i]);
  }

  const int total_sweeps = options.burn_in + options.num_samples;
  std::barrier sweep_barrier(static_cast<std::ptrdiff_t>(num_threads));
  std::vector<std::thread> threads;
  threads.reserve(num_threads);
  for (size_t t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      for (int sweep = 0; sweep < total_sweeps; ++sweep) {
        workers[t].counting = sweep >= options.burn_in;
        body(&workers[t], sweep);
        sweep_barrier.arrive_and_wait();
      }
    });
  }
  for (auto& th : threads) th.join();

  ParallelRun run;
  run.steps = static_cast<uint64_t>(total_sweeps) * free_vars.size();
  DD_COUNTER_ADD("dd.sampler.sweeps", static_cast<uint64_t>(total_sweeps));
  DD_COUNTER_ADD("dd.sampler.deltas", run.steps);
  const double seconds = run_watch.Seconds();
  if (seconds > 0) {
    DD_GAUGE_SET("dd.sampler.deltas_per_sec",
                 static_cast<double>(run.steps) / seconds);
  }
  run_span.Attr("threads", static_cast<double>(num_threads));
  run_span.Attr("deltas", static_cast<double>(run.steps));

  run.marginals.assign(nv, 0.0);
  for (uint32_t v : free_vars) {
    uint64_t total = 0;
    for (const SweepThread& worker : workers) total += worker.counts[v];
    run.marginals[v] = static_cast<double>(total) / options.num_samples;
  }
  for (uint32_t v = 0; v < nv; ++v) {
    if (options.clamp_evidence && graph.is_evidence(v)) {
      run.marginals[v] = graph.evidence_value(v) ? 1.0 : 0.0;
    }
  }
  return run;
}

HogwildSampler::HogwildSampler(const FactorGraph* graph,
                               const ParallelGibbsOptions& options)
    : graph_(graph), options_(options) {}

Result<std::vector<double>> HogwildSampler::RunMarginals() {
  const size_t num_threads = static_cast<size_t>(options_.num_threads);
  DD_ASSIGN_OR_RETURN(
      ParallelRun run,
      RunParallelSweeps(
          *graph_, options_, "hogwild.run_marginals",
          [num_threads](uint32_t, size_t i) { return i % num_threads; },
          [](SweepThread* thread, int) {
            for (uint32_t v : thread->part) thread->Step(v);
          }));
  num_steps_ = run.steps;
  return std::move(run.marginals);
}

LockingSampler::LockingSampler(const FactorGraph* graph,
                               const ParallelGibbsOptions& options)
    : graph_(graph), options_(options) {}

Result<std::vector<double>> LockingSampler::RunMarginals() {
  if (!graph_->finalized()) {
    return Status::InvalidArgument("LockingSampler requires a finalized graph");
  }
  const size_t nv = graph_->num_variables();
  // Per-variable locks (edge-consistency scope: variable + factor neighbors).
  std::unique_ptr<std::mutex[]> locks(new std::mutex[nv]);

  // Precompute each variable's sorted lock scope.
  std::vector<std::vector<uint32_t>> scope(nv);
  for (uint32_t v = 0; v < nv; ++v) {
    size_t nfac = 0;
    const uint32_t* factors = graph_->var_factors(v, &nfac);
    std::vector<uint32_t>& s = scope[v];
    s.push_back(v);
    for (size_t i = 0; i < nfac; ++i) {
      size_t nlit = 0;
      const Literal* lits = graph_->factor_literals(factors[i], &nlit);
      for (size_t j = 0; j < nlit; ++j) s.push_back(lits[j].var);
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
  }

  // GraphLab-style shared scheduler: every vertex update is dispensed
  // through one global queue (here a mutex-protected cursor over the
  // free-variable list; sweep s dispenses cursor values [s·n, (s+1)·n)).
  // The per-update scheduler round-trip plus the neighborhood locking is
  // the engine cost DimmWitted avoids.
  std::mutex scheduler_mu;
  uint64_t scheduler_cursor = 0;
  DD_ASSIGN_OR_RETURN(
      ParallelRun run,
      RunParallelSweeps(
          *graph_, options_, "locking.run_marginals",
          // The scheduler, not the partition, hands out the variables.
          [](uint32_t, size_t) { return size_t{0}; },
          [&](SweepThread* thread, int sweep) {
            const std::vector<uint32_t>& free_vars = *thread->free_vars;
            const uint64_t begin = static_cast<uint64_t>(sweep) * free_vars.size();
            while (true) {
              uint32_t v;
              {
                std::lock_guard<std::mutex> sched_lock(scheduler_mu);
                if (scheduler_cursor >= begin + free_vars.size()) break;
                v = free_vars[scheduler_cursor++ - begin];
              }
              // Lock the neighborhood in id order (deadlock-free).
              for (uint32_t u : scope[v]) locks[u].lock();
              thread->Step(v);
              for (auto it = scope[v].rbegin(); it != scope[v].rend(); ++it) {
                locks[*it].unlock();
              }
            }
          }));
  num_steps_ = run.steps;
  return std::move(run.marginals);
}

}  // namespace dd
