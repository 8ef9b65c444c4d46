#include "inference/learner.h"

#include <cmath>

#include "factor/io.h"
#include "inference/gibbs.h"
#include "util/failpoint.h"
#include "util/metrics.h"
#include "util/string_util.h"
#include "util/timer.h"
#include "util/trace.h"

namespace dd {

namespace {

constexpr char kLearnSnapshotName[] = "learn.snap";
constexpr char kSnapshotKind[] = "learner";

std::string CheckpointPath(const LearnOptions& options) {
  return options.checkpoint_dir + "/" + kLearnSnapshotName;
}

Status WriteLearnerCheckpoint(const LearnOptions& options, const FactorGraph& graph,
                              const CdChains& chains, int next_epoch, double lr) {
  GraphSnapshot snap;
  StampCheckpoint(kSnapshotKind, {{"seed", options.seed}}, &snap);
  snap.weights = graph.weight_values();
  SaveChains({&chains.positive, &chains.negative}, false, &snap);
  snap.meta["epoch"] = std::to_string(next_epoch);
  snap.meta["lr"] = FormatExactDouble(lr);
  return WriteGraphSnapshot(snap, CheckpointPath(options));
}

/// Restore a checkpoint into the graph/samplers. Outputs the epoch to
/// continue from and the learning rate at that point.
Status RestoreLearnerCheckpoint(const LearnOptions& options, FactorGraph* graph,
                                CdChains* chains, int* start_epoch, double* lr) {
  DD_ASSIGN_OR_RETURN(GraphSnapshot snap,
                      ReadGraphSnapshot(CheckpointPath(options)));
  DD_RETURN_IF_ERROR(CheckCheckpoint(snap, kSnapshotKind, {{"seed", options.seed}}));
  DD_ASSIGN_OR_RETURN(uint64_t epoch, MetaU64(snap.meta, "epoch"));
  DD_ASSIGN_OR_RETURN(*lr, MetaExactDouble(snap.meta, "lr"));
  DD_RETURN_IF_ERROR(RestoreWeights(snap, graph));
  DD_RETURN_IF_ERROR(RestoreChains(snap, false, {&chains->positive, &chains->negative}));
  *start_epoch = static_cast<int>(epoch);
  return Status::OK();
}

}  // namespace

CdChains::CdChains(const FactorGraph* graph, uint64_t positive_seed,
                   uint64_t negative_seed)
    : positive(graph, {.seed = positive_seed, .clamp_evidence = true}),
      negative(graph, {.seed = negative_seed, .clamp_evidence = false}) {}

Status CdChains::Init() {
  DD_RETURN_IF_ERROR(positive.Init());
  return negative.Init();
}

void CdChains::Sweep(int sweeps) {
  for (int s = 0; s < sweeps; ++s) {
    positive.Sweep();
    negative.Sweep();
  }
}

Status LearningDiverged(const FactorGraph& graph, int epoch, uint32_t w,
                        double value, double gradient, double lr) {
  return Status::InvalidArgument(StrFormat(
      "learning diverged at epoch %d: weight %u ('%s') became non-finite "
      "(value=%g, gradient=%g, lr=%g) — reduce learning_rate or increase l2",
      epoch, w, graph.weight(w).description.c_str(), value, gradient, lr));
}

Result<double> CdStep(const FactorGraph& graph, const CdChains& chains,
                      const CdStepOptions& options, std::vector<double>* weights) {
  std::vector<double> gradient(graph.num_weights(), 0.0);
  ForEachCdTerm(graph, chains, options.num_owned, [&](uint32_t, uint32_t w, double term) {
    if (term != 0.0) gradient[w] += term;
  });
  double norm = 0.0;
  for (uint32_t w = 0; w < graph.num_weights(); ++w) {
    if (graph.weight(w).is_fixed) continue;
    const double value = (*weights)[w];
    const double g = options.gradient_scale * gradient[w] - options.l2 * value;
    const double updated = value + options.learning_rate * g;
    if (!std::isfinite(g) || !std::isfinite(updated)) {
      return LearningDiverged(graph, options.epoch, w, updated, g,
                              options.learning_rate);
    }
    (*weights)[w] = updated;
    norm += g * g;
  }
  return std::sqrt(norm);
}

Status Learner::Learn(const LearnOptions& options) {
  DD_RETURN_IF_ERROR(graph_->Finalize());
  DD_TRACE_SPAN_VAR(learn_span, "learner.learn");
  gradient_norms_.clear();
  resumed_from_epoch_ = 0;

  CdChains chains(graph_, options.seed, options.seed ^ 0x5bd1e995);
  DD_RETURN_IF_ERROR(chains.Init());

  const bool durable = !options.checkpoint_dir.empty();
  int start_epoch = 0;
  double lr = options.learning_rate;
  if (durable && FileExists(CheckpointPath(options))) {
    DD_RETURN_IF_ERROR(
        RestoreLearnerCheckpoint(options, graph_, &chains, &start_epoch, &lr));
    resumed_from_epoch_ = start_epoch;
  }

  std::vector<double> weights = graph_->weight_values();
  for (int epoch = start_epoch; epoch < options.epochs; ++epoch) {
    Stopwatch epoch_watch;
    Status injected;
    DD_FAILPOINT(failpoints::kLearnerEpoch, &injected);
    if (!injected.ok()) return injected;

    chains.Sweep(options.sweeps_per_epoch);
    DD_ASSIGN_OR_RETURN(const double norm,
                        CdStep(*graph_, chains, {lr, options.l2, epoch}, &weights));
    graph_->set_weight_values(weights);
    gradient_norms_.push_back(norm);
    DD_COUNTER_ADD("dd.learner.epochs", 1);
    DD_HISTOGRAM_OBSERVE("dd.learner.epoch_seconds", epoch_watch.Seconds());
    DD_HISTOGRAM_OBSERVE("dd.learner.gradient_norm", norm);
    lr *= options.decay;

    if (durable && options.checkpoint_interval > 0 &&
        (epoch + 1) % options.checkpoint_interval == 0 &&
        epoch + 1 < options.epochs) {
      DD_RETURN_IF_ERROR(
          WriteLearnerCheckpoint(options, *graph_, chains, epoch + 1, lr));
    }
  }
  if (durable) {
    DD_RETURN_IF_ERROR(
        WriteLearnerCheckpoint(options, *graph_, chains, options.epochs, lr));
  }
  learn_span.Attr("epochs_run",
                  static_cast<double>(options.epochs - start_epoch));
  learn_span.Attr("resumed_from", static_cast<double>(resumed_from_epoch_));
  return Status::OK();
}

}  // namespace dd
