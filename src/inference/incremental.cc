#include "inference/incremental.h"

#include <algorithm>
#include <cmath>

#include "factor/io.h"
#include "inference/gibbs.h"
#include "inference/meanfield.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace dd {

namespace {
constexpr char kSamplingKind[] = "inference-sampling";
constexpr char kVariationalKind[] = "inference-variational";
// A sampling checkpoint continues only the same chain: same seed, same
// schedule (a resume under another one would mix two schedules' tallies).
CheckpointIdentity SamplingIdentity(const IncrementalOptions& options) {
  return {{"seed", options.seed},
          {"full_burn_in", static_cast<uint64_t>(options.full_burn_in)},
          {"num_samples", static_cast<uint64_t>(options.num_samples)}};
}
// Weight values by description (ids change on every rebuild); one shared
// by different values maps to NaN, so its factors always count as moved.
std::unordered_map<std::string, double> WeightValues(const FactorGraph& graph) {
  std::unordered_map<std::string, double> values;
  for (uint32_t w = 0; w < graph.num_weights(); ++w) {
    auto [it, fresh] = values.emplace(graph.weight(w).description, graph.weight_value(w));
    if (!fresh && it->second != graph.weight_value(w)) it->second = std::nan("");
  }
  return values;
}
}  // namespace

const char* StrategyName(MaterializationStrategy strategy) {
  switch (strategy) {
    case MaterializationStrategy::kSampling: return "sampling";
    case MaterializationStrategy::kVariational: return "variational";
  }
  return "?";
}

IncrementalInference::IncrementalInference(const FactorGraph* graph,
                                           MaterializationStrategy strategy,
                                           const IncrementalOptions& options)
    : graph_(graph), strategy_(strategy), options_(options) {}

IncrementalInference::~IncrementalInference() = default;

Status IncrementalInference::Prewarm() {
  marginals_.reserve(graph_->num_variables());
  chain_state_.reserve(graph_->num_variables());
  if (strategy_ == MaterializationStrategy::kSampling &&
      !options_.checkpoint_path.empty() && FileExists(options_.checkpoint_path)) {
    Result<GraphSnapshot> snap = ReadGraphSnapshot(options_.checkpoint_path);
    // A corrupt or foreign snapshot is not an error here: the restore in
    // Materialize() re-reads the file and reports it exactly as it would
    // without the warm-up.
    if (snap.ok()) {
      prewarmed_ = std::make_unique<GraphSnapshot>(std::move(*snap));
    }
  }
  return Status::OK();
}

Status IncrementalInference::Materialize() {
  switch (strategy_) {
    case MaterializationStrategy::kSampling:
      DD_RETURN_IF_ERROR(MaterializeSampling());
      break;
    case MaterializationStrategy::kVariational:
      DD_RETURN_IF_ERROR(MaterializeVariational());
      break;
  }
  materialized_ = true;
  return Status::OK();
}

Status IncrementalInference::WriteSamplingCheckpoint(const GibbsSampler& sampler,
                                                     uint64_t sweeps_done) const {
  GraphSnapshot snap;
  StampCheckpoint(kSamplingKind, SamplingIdentity(options_), &snap);
  SaveChains({&sampler}, true, &snap);
  snap.meta["sweeps"] = std::to_string(sweeps_done);
  return WriteGraphSnapshot(snap, options_.checkpoint_path);
}

Status IncrementalInference::TryRestoreSampling(GibbsSampler* sampler,
                                                uint64_t* sweeps_done) {
  *sweeps_done = 0;
  // Consume the snapshot Prewarm() already read off disk, if any.
  std::unique_ptr<GraphSnapshot> snap = std::move(prewarmed_);
  if (options_.checkpoint_path.empty()) return Status::OK();
  if (snap == nullptr) {
    if (!FileExists(options_.checkpoint_path)) return Status::OK();
    DD_ASSIGN_OR_RETURN(GraphSnapshot read, ReadGraphSnapshot(options_.checkpoint_path));
    snap = std::make_unique<GraphSnapshot>(std::move(read));
  }
  DD_RETURN_IF_ERROR(CheckCheckpoint(*snap, kSamplingKind, SamplingIdentity(options_)));
  DD_ASSIGN_OR_RETURN(*sweeps_done, MetaU64(snap->meta, "sweeps"));
  return RestoreChains(*snap, true, {sampler});
}

Status IncrementalInference::MaterializeSampling() {
  DD_TRACE_SPAN_VAR(span, "inference.materialize");
  GibbsOptions opts;
  opts.burn_in = options_.full_burn_in;
  opts.num_samples = options_.num_samples;
  opts.seed = options_.seed;
  opts.clamp_evidence = options_.clamp_evidence;
  GibbsSampler sampler(graph_, opts);
  DD_RETURN_IF_ERROR(sampler.Init());

  // The sampler's schedule, run one checkpoint interval at a time so a
  // killed run resumes mid-stream.
  const uint64_t total_sweeps = sampler.total_sweeps();
  uint64_t done = 0;
  DD_RETURN_IF_ERROR(TryRestoreSampling(&sampler, &done));
  const bool durable = !options_.checkpoint_path.empty();
  const uint64_t interval = durable && options_.checkpoint_interval > 0
                                ? options_.checkpoint_interval
                                : total_sweeps;
  const uint64_t resumed_at = done;
  while (done < total_sweeps) {
    const uint64_t next = std::min(total_sweeps, (done / interval + 1) * interval);
    DD_RETURN_IF_ERROR(sampler.RunSweeps(done, next));
    done = next;
    if (done < total_sweeps) DD_RETURN_IF_ERROR(WriteSamplingCheckpoint(sampler, done));
  }
  DD_ASSIGN_OR_RETURN(marginals_, sampler.Marginals());
  chain_state_ = sampler.assignment();
  last_work_units_ = sampler.num_steps();
  sampled_weights_ = WeightValues(*graph_);
  if (durable) DD_RETURN_IF_ERROR(WriteSamplingCheckpoint(sampler, total_sweeps));
  DD_COUNTER_ADD("dd.inference.sweeps", total_sweeps - resumed_at);
  DD_COUNTER_ADD("dd.inference.work_units", last_work_units_);
  span.Attr("sweeps", static_cast<double>(total_sweeps - resumed_at));
  span.Attr("resumed_at", static_cast<double>(resumed_at));
  return Status::OK();
}

Status IncrementalInference::MaterializeVariational() {
  // The variational materialization is deterministic and cheap relative
  // to sampling, so durability only persists (and reuses) the final
  // marginals rather than checkpointing mid-relaxation.
  if (!options_.checkpoint_path.empty() && FileExists(options_.checkpoint_path)) {
    DD_ASSIGN_OR_RETURN(GraphSnapshot snap,
                        ReadGraphSnapshot(options_.checkpoint_path));
    DD_RETURN_IF_ERROR(CheckCheckpoint(snap, kVariationalKind, {}));
    if (snap.marginals.size() != graph_->num_variables()) {
      return Status::InvalidArgument(StrFormat(
          "variational checkpoint has %zu marginals, graph has %zu",
          snap.marginals.size(), graph_->num_variables()));
    }
    marginals_ = std::move(snap.marginals);
    last_work_units_ = 0;
    return Status::OK();
  }
  MeanFieldOptions opts;
  opts.max_iterations = options_.mf_max_iterations;
  opts.tolerance = options_.mf_tolerance;
  opts.damping = options_.mf_damping;
  opts.clamp_evidence = options_.clamp_evidence;
  MeanFieldEngine engine(graph_, opts);
  DD_ASSIGN_OR_RETURN(marginals_, engine.Run());
  last_work_units_ = engine.updates_performed();
  if (!options_.checkpoint_path.empty()) {
    GraphSnapshot snap;
    StampCheckpoint(kVariationalKind, {}, &snap);
    snap.marginals = marginals_;
    DD_RETURN_IF_ERROR(WriteGraphSnapshot(snap, options_.checkpoint_path));
  }
  return Status::OK();
}

Result<std::vector<double>> IncrementalInference::Update(
    const FactorGraph* new_graph, const std::vector<uint32_t>& changed_vars) {
  if (!materialized_) {
    return Status::Internal("Update() before Materialize()");
  }
  if (!new_graph->finalized()) {
    return Status::InvalidArgument("Update requires a finalized graph");
  }
  if (new_graph->num_variables() < graph_->num_variables()) {
    return Status::InvalidArgument(
        "new graph must preserve existing variable ids (got fewer variables)");
  }
  const size_t nv = new_graph->num_variables();
  for (uint32_t v : changed_vars) {
    if (v >= nv) return Status::InvalidArgument(StrFormat("changed var %u out of range", v));
  }
  DD_TRACE_SPAN_VAR(span, "inference.update");
  span.Attr("changed_vars", static_cast<double>(changed_vars.size()));

  if (strategy_ == MaterializationStrategy::kSampling) {
    // Resample only the components (union-find over factor literals) the
    // delta touches; the rest keep chain bytes and marginals (DESIGN.md §4).
    std::vector<uint32_t> root(nv);
    for (uint32_t v = 0; v < nv; ++v) root[v] = v;
    auto find = [&root](uint32_t v) {
      while (root[v] != v) v = root[v] = root[root[v]];
      return v;
    };
    std::vector<uint8_t> moved(new_graph->num_weights());
    for (uint32_t w = 0; w < moved.size(); ++w) {
      auto it = sampled_weights_.find(new_graph->weight(w).description);
      moved[w] = it == sampled_weights_.end() || it->second != new_graph->weight_value(w);
    }
    std::vector<uint8_t> touched(nv, 0);
    for (uint32_t v : changed_vars) touched[v] = 1;
    for (size_t v = chain_state_.size(); v < nv; ++v) touched[v] = 1;
    for (uint32_t f = 0; f < new_graph->num_factors(); ++f) {
      size_t n = 0;
      const Literal* lits = new_graph->factor_literals(f, &n);
      touched[lits[0].var] |= moved[new_graph->factor_weight(f)];
      for (size_t i = 1; i < n; ++i) root[find(lits[i].var)] = find(lits[0].var);
    }
    for (uint32_t v = 0; v < nv; ++v) touched[find(v)] |= touched[v];
    std::vector<uint32_t> scope;  // the free set: touched, minus clamped evidence
    uint64_t scope_vars = 0, components = 0;
    for (uint32_t v = 0; v < nv; ++v) {
      touched[v] = touched[find(v)];
      components += touched[v] && root[v] == v;
      scope_vars += touched[v];
      if (!touched[v] || (options_.clamp_evidence && new_graph->is_evidence(v))) continue;
      scope.push_back(v);
    }
    span.Attr("scope_vars", static_cast<double>(scope_vars));
    span.Attr("components_touched", static_cast<double>(components));
    DD_COUNTER_ADD("dd.inference.vars_resampled", scope.size());

    // Warm start: reuse the stored chain state for surviving variables,
    // random-init the new ones, then run a short burn-in instead of the
    // full one — the stored state is already near the stationary
    // distribution everywhere the graph did not change.
    GibbsOptions opts;
    opts.burn_in = options_.update_burn_in;
    opts.num_samples = options_.num_samples;
    opts.seed = options_.seed + 1;
    opts.clamp_evidence = options_.clamp_evidence;
    opts.free_set = &scope;
    GibbsSampler sampler(new_graph, opts);
    DD_RETURN_IF_ERROR(sampler.Init());
    Rng rng(options_.seed + 2);
    std::vector<uint8_t>* state = sampler.mutable_assignment();
    uint64_t reused = 0, recomputed = 0;
    for (uint32_t v = 0; v < nv; ++v) {
      if (options_.clamp_evidence && new_graph->is_evidence(v)) {
        continue;  // already clamped by Init
      }
      if (v < chain_state_.size()) {
        (*state)[v] = chain_state_[v];
        ++reused;
      } else {
        (*state)[v] = rng.NextBernoulli(0.5) ? 1 : 0;
        ++recomputed;
      }
    }
    DD_COUNTER_ADD("dd.inference.vars_reused", reused);
    DD_COUNTER_ADD("dd.inference.vars_recomputed", recomputed);
    span.Attr("vars_reused", static_cast<double>(reused));
    span.Attr("vars_recomputed", static_cast<double>(recomputed));
    DD_RETURN_IF_ERROR(sampler.RunSweeps(0, sampler.total_sweeps()));
    DD_ASSIGN_OR_RETURN(std::vector<double> drawn, sampler.Marginals());
    marginals_.resize(nv);
    for (uint32_t v = 0; v < nv; ++v) marginals_[v] = touched[v] ? drawn[v] : marginals_[v];
    chain_state_ = sampler.assignment();
    last_work_units_ = sampler.num_steps();
    DD_COUNTER_ADD("dd.inference.work_units", last_work_units_);
    graph_ = new_graph;
    sampled_weights_ = WeightValues(*graph_);
    return marginals_;
  }

  // Variational: warm-start μ from the materialized values and only
  // relax the changed region (MeanFieldEngine cascades as needed).
  std::vector<double> mu(nv, 0.5);
  for (uint32_t v = 0; v < nv && v < marginals_.size(); ++v) mu[v] = marginals_[v];
  {
    const uint64_t reused = std::min<uint64_t>(nv, marginals_.size());
    DD_COUNTER_ADD("dd.inference.vars_reused", reused);
    DD_COUNTER_ADD("dd.inference.vars_recomputed", nv - reused);
    span.Attr("vars_reused", static_cast<double>(reused));
    span.Attr("vars_recomputed", static_cast<double>(nv - reused));
  }
  if (options_.clamp_evidence) {
    for (uint32_t v = 0; v < nv; ++v) {
      if (new_graph->is_evidence(v)) mu[v] = new_graph->evidence_value(v) ? 1.0 : 0.0;
    }
  }
  MeanFieldOptions opts;
  opts.max_iterations = options_.mf_max_iterations;
  opts.tolerance = options_.mf_tolerance;
  opts.damping = options_.mf_damping;
  opts.clamp_evidence = options_.clamp_evidence;
  MeanFieldEngine engine(new_graph, opts);
  DD_ASSIGN_OR_RETURN(marginals_, engine.RunFrom(std::move(mu), changed_vars));
  last_work_units_ = engine.updates_performed();
  DD_COUNTER_ADD("dd.inference.work_units", last_work_units_);
  graph_ = new_graph;
  return marginals_;
}

MaterializationStrategy ChooseStrategy(size_t num_variables, double avg_degree,
                                       int anticipated_changes) {
  // Dense correlation structure: mean-field cascades touch everything and
  // its independence assumption bites — sample.
  if (avg_degree > 6.0) return MaterializationStrategy::kSampling;
  // Few (or no) anticipated changes: the materialization will rarely be
  // reused, and sampling gives the calibrated probabilities DeepDive
  // needs for its debugging loop — sample.
  if (anticipated_changes <= 2) return MaterializationStrategy::kSampling;
  // Tiny graphs: full re-sampling is cheap regardless.
  if (num_variables < 256) return MaterializationStrategy::kSampling;
  // Large sparse graphs with many future deltas: localized variational
  // updates amortize best.
  return MaterializationStrategy::kVariational;
}

}  // namespace dd
