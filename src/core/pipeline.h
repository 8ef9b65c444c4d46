#ifndef DEEPDIVE_CORE_PIPELINE_H_
#define DEEPDIVE_CORE_PIPELINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/calibration.h"
#include "core/checkpoint.h"
#include "core/udf.h"
#include "ddlog/ast.h"
#include "dist/coordinator.h"
#include "grounding/grounder.h"
#include "inference/incremental.h"
#include "inference/learner.h"
#include "nlp/document.h"
#include "storage/catalog.h"
#include "util/result.h"

namespace dd {

class StreamIngester;  // stream/ingester.h
class ByteSource;      // stream/stream.h

/// Collects the tuples a candidate-generation extractor produces. On the
/// first Run() emissions are bulk-loaded; on later runs they become
/// base-relation deltas for incremental grounding (§4.1).
class TupleEmitter {
 public:
  /// Queue an insertion into `relation`. Type checking happens when the
  /// batch is applied.
  void Emit(const std::string& relation, Tuple tuple);

  const std::map<std::string, std::vector<Tuple>>& emitted() const { return emitted_; }

 private:
  std::map<std::string, std::vector<Tuple>> emitted_;
};

/// A candidate-generation / supervision UDF (§3 phase 1 and 2): reads an
/// annotated document, writes tuples. Must be deterministic.
using Extractor = std::function<Status(const Document&, TupleEmitter*)>;

/// Per-phase wall-clock breakdown (the quantities of Figure 2).
struct PhaseTimings {
  double extraction_seconds = 0;  ///< candidate generation + feature extraction UDFs
  double grounding_seconds = 0;   ///< datalog evaluation + factor-graph build
  double learning_seconds = 0;
  double inference_seconds = 0;
  double calibration_seconds = 0;  ///< Fig. 5 probability bucketing per query relation

  double total_seconds() const {
    return extraction_seconds + grounding_seconds + learning_seconds +
           inference_seconds + calibration_seconds;
  }
};

/// One document whose extractors failed twice (initial run + one retry)
/// and was therefore skipped rather than allowed to kill the run.
struct QuarantinedDocument {
  std::string document_id;
  Status error;  ///< the second (post-retry) failure
};

/// Robustness counters for the last Run() (§3's observation that UDFs
/// are the least reliable part of a KBC system).
struct RunStats {
  size_t documents_processed = 0;   ///< documents whose extractors succeeded
  size_t documents_quarantined = 0;
  size_t extractor_retries = 0;     ///< documents that needed a second attempt
  std::vector<QuarantinedDocument> quarantined;
};

struct PipelineOptions {
  LearnOptions learn;
  IncrementalOptions inference;
  /// Output threshold (§3.4): tuples with marginal >= threshold go into
  /// the output database.
  double threshold = 0.9;
  /// Hint for the materialization-strategy optimizer (§4.2): how many
  /// future update batches the developer anticipates.
  int anticipated_changes = 0;
  /// Fraction of labeled candidates held out of training for Fig. 5's
  /// test-set calibration (0 = train on all labels).
  double holdout_fraction = 0.0;
  /// Force a strategy instead of consulting the optimizer.
  enum class Strategy { kAuto, kSampling, kVariational };
  Strategy strategy = Strategy::kAuto;
  /// Re-run weight learning on incremental updates (full runs always
  /// learn). Off by default: incremental updates reuse learned weights.
  bool relearn_on_update = false;
  bool html_documents = false;
  /// Extractor hardening: a document whose extractors fail is retried
  /// once and then quarantined (skipped, counted, reported). When more
  /// than this fraction of a batch ends up quarantined the run itself
  /// fails with the first quarantine error — a systematically broken
  /// extractor should not silently produce an empty KB.
  double max_quarantine_fraction = 0.5;
  /// Worker threads shared by the run's phase scheduler and the
  /// grounding morsel scans (one pool). 0 = hardware concurrency; 1 =
  /// strictly sequential phases — the oracle the differential tests
  /// compare against. Results (factor-graph bytes, learned weights,
  /// marginals) are byte-identical at every setting.
  size_t num_threads = 0;
};

/// The end-to-end DeepDive system (§3): documents in, probabilistic
/// database out. Usage:
///
///   DeepDivePipeline pipeline(options);
///   pipeline.LoadProgram(ddlog_source);
///   pipeline.RegisterExtractor(my_candidate_extractor);
///   pipeline.AddDocument("doc1", text);
///   pipeline.Run();
///   auto output = pipeline.Extractions("MarriedCandidate");
///
/// Adding more documents (or calling ApplyBaseDeltas) after the first
/// Run() triggers the incremental path: DRed grounding plus warm-started
/// inference, exactly the engineering-loop workflow of §5.
class DeepDivePipeline {
 public:
  explicit DeepDivePipeline(PipelineOptions options = PipelineOptions());
  ~DeepDivePipeline();

  DeepDivePipeline(const DeepDivePipeline&) = delete;
  DeepDivePipeline& operator=(const DeepDivePipeline&) = delete;

  /// Parse + analyze the DDlog program. Must precede Run().
  Status LoadProgram(std::string_view ddlog_source);

  /// Register custom weight UDFs before Run().
  UdfRegistry* udfs() { return &udfs_; }
  /// Direct access to the relational store (e.g. to bulk-load KB tables
  /// used by distant supervision rules).
  Catalog* catalog() { return &catalog_; }

  void RegisterExtractor(Extractor extractor);

  /// Queue a document for (incremental) processing on the next Run().
  Status AddDocument(std::string id, const std::string& text);

  /// Queue raw base-relation deltas (insertions/deletions) for the next
  /// Run() — the path for non-document updates such as a grown KB.
  void QueueDelta(const std::string& relation, Tuple tuple, int64_t count);

  /// Streaming ingestion (DESIGN.md §14): drive `ingester` over `source`
  /// with bounded memory and backpressure, folding every extracted tuple
  /// into the pipeline's queued base-relation deltas. The next Run()
  /// then grounds them exactly as if QueueDelta had been called once per
  /// emission — the batch/stream differential contract.
  Status IngestStream(StreamIngester* ingester, ByteSource* source);

  /// Durability: give the pipeline a run directory. Run() then
  /// checkpoints learning and inference into it (crash-consistent
  /// snapshots + manifest) and starts from a clean slate, clearing any
  /// stale snapshots. Call before Run().
  Status SetRunDirectory(const std::string& dir);

  /// Recovery: like SetRunDirectory, but existing snapshots are kept and
  /// reused, so a run killed mid-learning/mid-inference continues where
  /// it stopped — bit-identical to an uninterrupted run. Set up the same
  /// program/extractors/documents first, then call ResumeFrom() followed
  /// by Run(). The manifest's graph fingerprint is verified once the
  /// graph is grounded; a mismatch fails with InvalidArgument.
  Status ResumeFrom(const std::string& dir);

  /// Execute: extraction -> grounding -> learning -> inference ->
  /// thresholding. First call runs everything; later calls run the
  /// incremental path over queued documents/deltas.
  Status Run();

  /// Like Run(), but learning + inference execute as a sharded
  /// distributed run (DESIGN.md §15): the grounded graph is partitioned,
  /// one worker per shard runs epoch-synchronous learning with model
  /// averaging followed by exchange-synchronous sampling, and the
  /// assembled marginals land exactly where Run()'s would. Only the
  /// topology fields of `dist` are honored (num_shards, launch mode,
  /// endpoint, partition, sweeps_per_exchange, restart budget, fault
  /// specs); the learning/inference schedule always comes from
  /// PipelineOptions, so a num_shards == 1 call is bit-identical to
  /// Run() with the sampling strategy. With a run directory set, shards
  /// checkpoint into it and a killed shard resumes bit-identically.
  /// Learning + inference wall-clock is reported jointly under
  /// timings().inference_seconds.
  Result<DistributedResult> RunDistributed(const DistributedOptions& dist);

  /// Robustness counters for the last Run().
  const RunStats& run_stats() const { return run_stats_; }

  /// Human-readable one-screen report of the last Run(): phase timings,
  /// documents processed/retried/quarantined, and each quarantined
  /// document's error.
  std::string RunSummary() const;

  /// Marginal probability of every live tuple of a query relation.
  Result<std::vector<std::pair<Tuple, double>>> Marginals(
      const std::string& relation) const;

  /// Tuples whose marginal clears the threshold — the output database.
  Result<std::vector<Tuple>> Extractions(const std::string& relation) const;

  /// Marginal of one tuple; NotFound if it is not a live candidate.
  Result<double> ProbabilityOf(const std::string& relation, const Tuple& tuple) const;

  /// Write `<relation>__marginals` tables (schema + prob column) so the
  /// output is queryable like any other relation (§3.4).
  Status WriteMarginalTables();

  /// Publish the last Run()'s graph + marginals as a serving epoch into
  /// `dir` (created if missing). The epoch id is one past the
  /// directory's CURRENT, so repeated runs produce a monotone sequence a
  /// KbcServer can follow. Requires a completed Run().
  Status PublishEpoch(const std::string& dir);

  /// Fig. 5's two diagrams for one query relation: `test` is built from
  /// the held-out labeled candidates (requires holdout_fraction > 0),
  /// `train` from the clamped evidence candidates.
  struct CalibrationPair {
    CalibrationReport test;
    CalibrationReport train;
    size_t num_test = 0;
    size_t num_train = 0;
  };
  Result<CalibrationPair> Calibration(const std::string& relation) const;

  /// Calibration pairs computed by Run()'s calibration phase, one per
  /// query relation (the per-run Fig. 5 inputs).
  const std::map<std::string, CalibrationPair>& run_calibration() const {
    return run_calibration_;
  }

  /// §8 failure-mode scan: features nearly identical to a supervision
  /// rule (training places all weight on them and generalization dies).
  /// Returns the human-readable warning report ("" when clean).
  Result<std::string> SupervisionWarnings() const;

  const PhaseTimings& timings() const { return timings_; }
  const GroundingStats& grounding_stats() const;
  Grounder* grounder() { return grounder_.get(); }
  const std::vector<Document>& documents() const { return documents_; }
  MaterializationStrategy chosen_strategy() const { return chosen_strategy_; }
  bool has_run() const { return has_run_; }

 private:
  Status RunExtraction(std::map<std::string, DeltaSet>* deltas);
  Status ExtractDocument(const Document& doc, TupleEmitter* emitter);
  /// Bulk-load + ground the first batch, or apply deltas incrementally —
  /// the body of Run()'s grounding node, shared with RunDistributed().
  Status RunGrounding(const std::map<std::string, DeltaSet>& deltas);
  Status RunInference();
  Status RunCalibration();
  MaterializationStrategy PickStrategy() const;
  /// Fresh run: reset the run directory; resume: verify the manifest's
  /// graph fingerprint. Called once the graph is grounded.
  Status PrepareRunDirectory();
  Status UpdateManifestPhase(const std::string& phase);

  PipelineOptions options_;
  DdlogProgram program_;
  bool program_loaded_ = false;
  Catalog catalog_;
  UdfRegistry udfs_;
  std::vector<Extractor> extractors_;
  std::vector<Document> documents_;
  std::unordered_set<std::string> document_ids_;  ///< ids of documents_
  size_t next_document_ = 0;  ///< first unprocessed document
  std::map<std::string, DeltaSet> queued_deltas_;
  std::unique_ptr<ThreadPool> pool_;  ///< phase scheduler + grounding morsels
  std::unique_ptr<Grounder> grounder_;
  std::unique_ptr<IncrementalInference> inference_;
  /// True once inference_ holds materialized state for the current
  /// pipeline (gates Materialize-vs-Update; a merely prewarmed instance
  /// is rebuilt freely).
  bool inference_materialized_ = false;
  /// True while the grounder's changed_vars() has not reached inference.
  bool changes_unsampled_ = false;
  /// Changed variables of earlier groundings that no inference has
  /// resampled yet (a Run() that failed in between); ascending.
  std::vector<uint32_t> unsampled_vars_;
  std::vector<double> marginals_;
  MaterializationStrategy chosen_strategy_ = MaterializationStrategy::kSampling;
  PhaseTimings timings_;
  RunStats run_stats_;
  std::map<std::string, CalibrationPair> run_calibration_;
  std::unique_ptr<RunDirectory> run_dir_;
  bool resuming_ = false;
  bool has_run_ = false;
};

}  // namespace dd

#endif  // DEEPDIVE_CORE_PIPELINE_H_
