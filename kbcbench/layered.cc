#include "layered.h"

#include "core/calibration.h"
#include "ddlog/parser.h"
#include "inference/learner.h"
#include "serve/epoch.h"
#include "stream/stream.h"
#include "util/parallel.h"

namespace kbcbench {

using dd::Status;

namespace {

/// Mirrors the pipeline's stream bridge: every merged tuple becomes one
/// QueueDelta call, in record order.
class QueueDeltaSink : public dd::StreamSink {
 public:
  explicit QueueDeltaSink(LayeredKbc* kbc) : kbc_(kbc) {}
  Status Apply(dd::ChunkResult&& result) override {
    for (auto& [relation, tuple] : result.tuples) {
      kbc_->QueueDelta(relation, std::move(tuple), 1);
    }
    return Status::OK();
  }

 private:
  LayeredKbc* kbc_;
};

}  // namespace

LayeredKbc::LayeredKbc(dd::PipelineOptions options, Ledger* ledger)
    : options_(std::move(options)), ledger_(ledger) {}

LayeredKbc::~LayeredKbc() = default;

Status LayeredKbc::LoadProgram(std::string_view ddlog_source) {
  DD_ASSIGN_OR_RETURN(program_, dd::ParseDdlog(ddlog_source));
  return dd::AnalyzeProgram(program_);
}

void LayeredKbc::RegisterExtractor(dd::Extractor extractor) {
  extractors_.push_back(std::move(extractor));
}

void LayeredKbc::QueueDelta(const std::string& relation, dd::Tuple tuple,
                            int64_t count) {
  queued_deltas_[relation][std::move(tuple)] += count;
}

Status LayeredKbc::AddDocument(std::string id, const std::string& text) {
  {
    // DeepDivePipeline::AddDocument scans every earlier id before
    // annotating; the replay does the same work in its own span.
    Ledger::Span span(ledger_, "core.dedup");
    for (const dd::Document& doc : documents_) {
      if (doc.id == id) return Status::AlreadyExists("duplicate document id: " + id);
    }
  }
  Ledger::Span span(ledger_, "nlp.annotate");
  documents_.push_back(
      dd::AnnotateDocument(std::move(id), text, options_.html_documents));
  ++counts_.docs;
  return Status::OK();
}

Status LayeredKbc::IngestStream(const dd::StreamOptions& options,
                                dd::StreamExtractor extractor,
                                std::string_view bytes, dd::IngestStats* stats) {
  Ledger::Span span(ledger_, "stream.ingest");
  dd::StreamIngester ingester(options, std::move(extractor));
  dd::StringSource source(bytes);
  QueueDeltaSink sink(this);
  Status status = ingester.Ingest(&source, &sink);
  if (stats != nullptr) *stats = ingester.stats();
  return status;
}

Status LayeredKbc::RunExtraction(std::map<std::string, dd::DeltaSet>* deltas) {
  const size_t batch_size = documents_.size() - next_document_;
  size_t quarantined = 0;
  Status first_error;
  for (; next_document_ < documents_.size(); ++next_document_) {
    const dd::Document& doc = documents_[next_document_];
    Ledger::Span span(ledger_, "core.extract");
    // Same hardening as the pipeline: one retry on a fresh emitter, then
    // quarantine.
    dd::TupleEmitter emitter;
    Status status;
    for (int attempt = 0; attempt < 2; ++attempt) {
      emitter = dd::TupleEmitter();
      status = Status::OK();
      for (const dd::Extractor& extractor : extractors_) {
        status = extractor(doc, &emitter);
        if (!status.ok()) break;
      }
      if (status.ok()) break;
    }
    if (!status.ok()) {
      if (quarantined++ == 0) first_error = status;
      continue;
    }
    for (const auto& [relation, tuples] : emitter.emitted()) {
      for (const dd::Tuple& t : tuples) {
        (*deltas)[relation][t] += 1;
        ++counts_.tuples;
      }
    }
  }
  counts_.quarantined += quarantined;
  if (quarantined > 0 && static_cast<double>(quarantined) >
                             options_.max_quarantine_fraction *
                                 static_cast<double>(batch_size)) {
    return first_error;
  }
  for (auto& [relation, delta] : queued_deltas_) {
    for (auto& [tuple, count] : delta) (*deltas)[relation][tuple] += count;
  }
  queued_deltas_.clear();
  return Status::OK();
}

void LayeredKbc::DropDeltas(std::map<std::string, dd::DeltaSet>* deltas) {
  // Freeing the extracted batch (~10^5 tuples on the spouse corpus) is
  // extraction's cost; the pipeline pays it when Run() returns.
  Ledger::Span span(ledger_, "core.extract");
  deltas->clear();
}

Status LayeredKbc::RunGrounding(const std::map<std::string, dd::DeltaSet>& deltas,
                                bool use_pool) {
  if (has_run_) {
    if (deltas.empty()) return Status::OK();
    Ledger::Span span(ledger_, "grounding.delta");
    DD_RETURN_IF_ERROR(grounder_->ApplyDeltas(deltas));
    counts_.changed_vars += grounder_->changed_vars().size();
    return Status::OK();
  }
  {
    Ledger::Span span(ledger_, "storage.load");
    for (const auto& [relation, delta] : deltas) {
      const dd::RelationDecl* decl = program_.FindDecl(relation);
      if (decl == nullptr) {
        return Status::NotFound("extractor emitted into undeclared relation: " +
                                relation);
      }
      DD_ASSIGN_OR_RETURN(dd::Table * table,
                          catalog_.GetOrCreateTable(relation, decl->schema));
      for (const auto& [tuple, count] : delta) {
        if (count <= 0) continue;
        DD_RETURN_IF_ERROR(table->Insert(tuple).status());
        ++counts_.rows;
      }
    }
  }
  Ledger::Span span(ledger_, "grounding.ground");
  dd::GroundingOptions grounding_options;
  grounding_options.holdout_fraction = options_.holdout_fraction;
  grounding_options.pool = use_pool ? pool_.get() : nullptr;
  if (grounding_options.pool == nullptr) grounding_options.num_threads = 1;
  grounder_ = std::make_unique<dd::Grounder>(&catalog_, &program_, &udfs_,
                                             grounding_options);
  return grounder_->Initialize();
}

Status LayeredKbc::RunCalibration() {
  Ledger::Span span(ledger_, "core.calibrate");
  const auto& vars = grounder_->var_info();
  const dd::FactorGraph& graph = grounder_->graph();
  for (const dd::RelationDecl& decl : program_.declarations) {
    if (!decl.is_query) continue;
    std::vector<double> test_probs, train_probs;
    std::vector<int> test_truth, train_truth;
    for (const auto& [var, label] : grounder_->holdout()) {
      if (var >= marginals_.size() || vars[var].relation != decl.name) continue;
      test_probs.push_back(marginals_[var]);
      test_truth.push_back(label ? 1 : 0);
    }
    for (uint32_t v = 0; v < graph.num_variables() && v < marginals_.size(); ++v) {
      if (!vars[v].live || vars[v].relation != decl.name) continue;
      if (!graph.is_evidence(v)) continue;
      train_probs.push_back(marginals_[v]);
      train_truth.push_back(graph.evidence_value(v) ? 1 : 0);
    }
    dd::CalibrationReport::Build(test_probs, test_truth);
    dd::CalibrationReport::Build(train_probs, train_truth);
  }
  return Status::OK();
}

Status LayeredKbc::Run() {
  const size_t threads =
      options_.num_threads == 0 ? dd::HardwareThreads() : options_.num_threads;
  if (threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<dd::ThreadPool>(threads);
  }
  std::map<std::string, dd::DeltaSet> deltas;
  DD_RETURN_IF_ERROR(RunExtraction(&deltas));
  DD_RETURN_IF_ERROR(RunGrounding(deltas, /*use_pool=*/true));

  if (!has_run_ || options_.relearn_on_update) {
    Ledger::Span span(ledger_, "inference.learn");
    dd::Learner learner(grounder_->mutable_graph());
    DD_RETURN_IF_ERROR(learner.Learn(options_.learn));
    grounder_->SaveWeights();
  }
  if (inference_ == nullptr) {
    Ledger::Span span(ledger_, "inference.materialize");
    if (options_.strategy != dd::PipelineOptions::Strategy::kSampling) {
      return Status::InvalidArgument("replay supports the sampling strategy only");
    }
    dd::IncrementalOptions opts = options_.inference;
    opts.clamp_evidence = false;
    inference_ = std::make_unique<dd::IncrementalInference>(
        &grounder_->graph(), dd::MaterializationStrategy::kSampling, opts);
    DD_RETURN_IF_ERROR(inference_->Prewarm());
    DD_RETURN_IF_ERROR(inference_->Materialize());
    marginals_ = inference_->marginals();
  } else {
    Ledger::Span span(ledger_, "inference.update");
    DD_ASSIGN_OR_RETURN(marginals_, inference_->Update(&grounder_->graph(),
                                                       grounder_->changed_vars()));
  }
  counts_.work_units += inference_->last_work_units();
  has_run_ = true;
  DropDeltas(&deltas);
  return RunCalibration();
}

dd::Result<dd::DistributedResult> LayeredKbc::RunDistributed(
    const dd::DistributedOptions& dist) {
  if (has_run_) return Status::InvalidArgument("replay: distributed first run only");
  std::map<std::string, dd::DeltaSet> deltas;
  DD_RETURN_IF_ERROR(RunExtraction(&deltas));
  // The pipeline's distributed path grounds without its phase pool.
  DD_RETURN_IF_ERROR(RunGrounding(deltas, /*use_pool=*/false));

  dd::DistributedOptions opts = dist;
  opts.epochs = options_.learn.epochs;
  opts.learning_rate = options_.learn.learning_rate;
  opts.decay = options_.learn.decay;
  opts.l2 = options_.learn.l2;
  opts.sweeps_per_epoch = options_.learn.sweeps_per_epoch;
  opts.learn_seed = options_.learn.seed;
  opts.burn_in = options_.inference.full_burn_in;
  opts.num_samples = options_.inference.num_samples;
  opts.inference_seed = options_.inference.seed;

  {
    Ledger::Span span(ledger_, "dist.run");
    dd::FactorGraph* graph = grounder_->mutable_graph();
    DD_RETURN_IF_ERROR(graph->Finalize());
    DD_ASSIGN_OR_RETURN(last_dist_, dd::RunDistributed(graph, opts));
    grounder_->SaveWeights();
  }
  marginals_ = last_dist_.marginals;
  has_run_ = true;
  DropDeltas(&deltas);
  DD_RETURN_IF_ERROR(RunCalibration());
  return last_dist_;
}

Status LayeredKbc::PublishEpoch(const std::string& dir) {
  Ledger::Span span(ledger_, "serve.publish");
  const dd::FactorGraph& graph = grounder_->graph();
  if (marginals_.size() != graph.num_variables()) {
    return Status::Internal("marginals do not cover the grounded graph");
  }
  std::vector<dd::EpochVarEntry> vars;
  vars.reserve(grounder_->var_info().size());
  for (const dd::VarInfo& v : grounder_->var_info()) {
    vars.push_back(dd::EpochVarEntry{v.relation, v.row_id, v.live});
  }
  dd::EpochDirectory epochs(dir);
  DD_RETURN_IF_ERROR(epochs.Create());
  uint64_t next_id = 1;
  dd::Result<uint64_t> current = epochs.CurrentEpochId();
  if (current.ok()) {
    next_id = *current + 1;
  } else if (current.status().code() != dd::StatusCode::kNotFound) {
    return current.status();
  }
  last_epoch_bytes_ = dd::EncodeEpochSnapshot(graph, marginals_, vars, next_id);
  DD_RETURN_IF_ERROR(epochs.Publish(next_id, last_epoch_bytes_));
  last_epoch_id_ = next_id;
  counts_.epoch_bytes += last_epoch_bytes_.size();
  return Status::OK();
}

Status LayeredKbc::LoadAndSwap(dd::KbcServer* server, const std::string& dir) {
  Ledger::Span span(ledger_, "serve.load");
  DD_ASSIGN_OR_RETURN(dd::ServingEpoch epoch,
                      dd::ServingEpoch::Load(
                          dd::EpochDirectory(dir).EpochFilePath(last_epoch_id_)));
  return server->SwapTo(std::make_shared<const dd::ServingEpoch>(std::move(epoch)));
}

}  // namespace kbcbench
