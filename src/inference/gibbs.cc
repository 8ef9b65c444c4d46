#include "inference/gibbs.h"

#include <cmath>

#include "factor/io.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace dd {

double Sigmoid(double x) {
  if (x >= 0) {
    double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(x);
  return e / (1.0 + e);
}

Result<std::vector<uint32_t>> FreeVariables(const FactorGraph& graph,
                                            bool clamp_evidence,
                                            const std::vector<uint32_t>* free_set) {
  const size_t nv = graph.num_variables();
  if (free_set != nullptr) {
    for (size_t i = 0; i < free_set->size(); ++i) {
      const uint32_t v = (*free_set)[i];
      if (v >= nv || (i > 0 && v <= (*free_set)[i - 1])) {
        return Status::InvalidArgument(StrFormat(
            "free set must be strictly ascending ids below %zu; entry %zu is %u",
            nv, i, v));
      }
    }
    return *free_set;
  }
  std::vector<uint32_t> free_vars;
  for (uint32_t v = 0; v < nv; ++v) {
    if (!(clamp_evidence && graph.is_evidence(v))) free_vars.push_back(v);
  }
  return free_vars;
}

void InitChain(const FactorGraph& graph, const std::vector<uint32_t>& free_vars,
               Rng* rng, std::vector<uint8_t>* assignment) {
  const size_t nv = graph.num_variables();
  assignment->resize(nv);
  for (uint32_t v = 0; v < nv; ++v) {
    (*assignment)[v] = graph.is_evidence(v) && graph.evidence_value(v) ? 1 : 0;
  }
  for (uint32_t v : free_vars) (*assignment)[v] = rng->NextBernoulli(0.5) ? 1 : 0;
}

GibbsSampler::GibbsSampler(const FactorGraph* graph, const GibbsOptions& options)
    : graph_(graph), options_(options), rng_(options.seed) {}

Status GibbsSampler::Init() {
  if (!graph_->finalized()) {
    return Status::InvalidArgument("GibbsSampler requires a finalized graph");
  }
  DD_ASSIGN_OR_RETURN(free_vars_, FreeVariables(*graph_, options_.clamp_evidence,
                                                options_.free_set));
  InitChain(*graph_, free_vars_, &rng_, &assignment_);
  true_counts_.assign(graph_->num_variables(), 0);
  num_accumulated_ = 0;
  num_steps_ = 0;
  initialized_ = true;
  return Status::OK();
}

Status GibbsSampler::RestoreState(const std::vector<uint8_t>& assignment,
                                  const std::vector<uint64_t>& true_counts,
                                  uint64_t num_accumulated,
                                  const RngState& rng_state) {
  if (!graph_->finalized()) {
    return Status::InvalidArgument("GibbsSampler requires a finalized graph");
  }
  const size_t nv = graph_->num_variables();
  if (assignment.size() != nv) {
    return Status::InvalidArgument(
        StrFormat("checkpointed assignment has %zu variables, graph has %zu",
                  assignment.size(), nv));
  }
  if (!true_counts.empty() && true_counts.size() != nv) {
    return Status::InvalidArgument(
        StrFormat("checkpointed tallies have %zu variables, graph has %zu",
                  true_counts.size(), nv));
  }
  DD_ASSIGN_OR_RETURN(free_vars_, FreeVariables(*graph_, options_.clamp_evidence,
                                                options_.free_set));
  assignment_ = assignment;
  // Re-clamp evidence in case the snapshot was taken under different
  // clamp settings. Pinned values under a free set (ghost replicas)
  // travel verbatim; the caller re-pins them from the next exchange.
  if (options_.free_set == nullptr && options_.clamp_evidence) {
    for (uint32_t v = 0; v < nv; ++v) {
      if (graph_->is_evidence(v)) assignment_[v] = graph_->evidence_value(v) ? 1 : 0;
    }
  }
  true_counts_ = true_counts.empty() ? std::vector<uint64_t>(nv, 0) : true_counts;
  num_accumulated_ = num_accumulated;
  num_steps_ = 0;
  rng_.set_state(rng_state);
  initialized_ = true;
  return Status::OK();
}

void GibbsSampler::Sweep() {
  uint8_t* a = assignment_.data();
  for (uint32_t v : free_vars_) GibbsStep(*graph_, v, a, &rng_);
  num_steps_ += free_vars_.size();
}

void GibbsSampler::Accumulate() {
  const size_t nv = assignment_.size();
  for (size_t v = 0; v < nv; ++v) {
    true_counts_[v] += assignment_[v];
  }
  ++num_accumulated_;
}

Status GibbsSampler::RunSweeps(uint64_t from, uint64_t to) {
  for (uint64_t s = from; s < to; ++s) {
    Status injected;
    DD_FAILPOINT(failpoints::kInferenceSweep, &injected);
    DD_RETURN_IF_ERROR(injected);
    Sweep();
    if (s >= static_cast<uint64_t>(options_.burn_in)) Accumulate();
  }
  return Status::OK();
}

Result<std::vector<double>> GibbsSampler::RunMarginals() {
  if (!initialized_) DD_RETURN_IF_ERROR(Init());
  DD_TRACE_SPAN_VAR(span, "gibbs.run_marginals");
  Stopwatch watch;
  const uint64_t steps_before = num_steps_;
  const uint64_t sweeps = total_sweeps();
  DD_RETURN_IF_ERROR(RunSweeps(0, sweeps));
  // Throughput accounting happens once per run, not per step — the sweep
  // loop itself stays untouched (see BENCH_kernels.json's ns/delta).
  const uint64_t steps = num_steps_ - steps_before;
  DD_COUNTER_ADD("dd.sampler.sweeps", sweeps);
  DD_COUNTER_ADD("dd.sampler.deltas", steps);
  const double seconds = watch.Seconds();
  if (seconds > 0) {
    DD_GAUGE_SET("dd.sampler.deltas_per_sec",
                 static_cast<double>(steps) / seconds);
    DD_GAUGE_SET("dd.sampler.sweeps_per_sec",
                 static_cast<double>(sweeps) / seconds);
  }
  span.Attr("sweeps", static_cast<double>(sweeps));
  span.Attr("deltas", static_cast<double>(steps));
  return Marginals();
}

Result<std::vector<double>> GibbsSampler::Marginals() const {
  if (num_accumulated_ == 0) {
    return Status::Internal("no samples accumulated");
  }
  std::vector<double> out(true_counts_.size());
  for (size_t v = 0; v < out.size(); ++v) {
    out[v] = static_cast<double>(true_counts_[v]) / num_accumulated_;
  }
  return out;
}

void SaveChains(const std::vector<const GibbsSampler*>& chains, bool tallies,
                GraphSnapshot* snap) {
  for (const GibbsSampler* chain : chains) {
    snap->chains.push_back(chain->assignment());
    snap->rng_states.push_back(chain->rng_state());
  }
  if (tallies) {
    snap->counts = chains.back()->true_counts();
    snap->meta["num_accumulated"] = std::to_string(chains.back()->num_accumulated());
  }
}

Status RestoreChains(const GraphSnapshot& snap, bool tallies,
                     const std::vector<GibbsSampler*>& chains) {
  if (snap.chains.size() != chains.size() || snap.rng_states.size() != chains.size()) {
    return Status::InvalidArgument(StrFormat(
        "checkpoint carries %zu chains and %zu RNG states, expected %zu",
        snap.chains.size(), snap.rng_states.size(), chains.size()));
  }
  uint64_t num_accumulated = 0;
  if (tallies) {
    DD_ASSIGN_OR_RETURN(num_accumulated, MetaU64(snap.meta, "num_accumulated"));
  }
  for (size_t i = 0; i < chains.size(); ++i) {
    const bool last = tallies && i + 1 == chains.size();
    DD_RETURN_IF_ERROR(chains[i]->RestoreState(
        snap.chains[i], last ? snap.counts : std::vector<uint64_t>{},
        last ? num_accumulated : 0, snap.rng_states[i]));
  }
  return Status::OK();
}

}  // namespace dd
