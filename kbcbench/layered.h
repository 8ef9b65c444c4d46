#ifndef KBCBENCH_LAYERED_H_
#define KBCBENCH_LAYERED_H_

// The traced run's KBC system: the same work DeepDivePipeline::Run,
// RunDistributed, IngestStream and PublishEpoch do, expressed as direct
// calls to each layer's public entry point, each inside a Ledger span.
// It must stay a faithful replay: the benchmark fails the run unless the
// epochs it publishes are byte-identical to the pipeline's.

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.h"
#include "serve/server.h"
#include "stream/ingester.h"
#include "util/thread_pool.h"

#include "ledger.h"

namespace kbcbench {

/// Work counts of the layers, summed over every call since construction.
struct LayerCounts {
  uint64_t docs = 0;
  uint64_t tuples = 0;
  uint64_t quarantined = 0;
  uint64_t rows = 0;
  uint64_t changed_vars = 0;
  uint64_t work_units = 0;
  uint64_t epoch_bytes = 0;
};

class LayeredKbc {
 public:
  explicit LayeredKbc(dd::PipelineOptions options, Ledger* ledger = nullptr);
  ~LayeredKbc();
  LayeredKbc(const LayeredKbc&) = delete;
  LayeredKbc& operator=(const LayeredKbc&) = delete;

  dd::Status LoadProgram(std::string_view ddlog_source);
  void RegisterExtractor(dd::Extractor extractor);
  void QueueDelta(const std::string& relation, dd::Tuple tuple, int64_t count);
  /// nlp layer: AnnotateDocument, after the pipeline's duplicate-id scan.
  dd::Status AddDocument(std::string id, const std::string& text);
  /// stream layer: StreamIngester::Ingest into the queued deltas.
  dd::Status IngestStream(const dd::StreamOptions& options,
                          dd::StreamExtractor extractor, std::string_view bytes,
                          dd::IngestStats* stats);

  /// Replay of DeepDivePipeline::Run: first call grounds and learns,
  /// later calls take the DRed + warm-started update path.
  dd::Status Run();
  /// Replay of DeepDivePipeline::RunDistributed (first run only).
  dd::Result<dd::DistributedResult> RunDistributed(const dd::DistributedOptions& dist);

  /// serve layer, publish half: EncodeEpochSnapshot + EpochDirectory::Publish
  /// with the pipeline's id rule (one past CURRENT).
  dd::Status PublishEpoch(const std::string& dir);
  /// serve layer, load half: ServingEpoch::Load of the last published
  /// epoch + KbcServer::SwapTo.
  dd::Status LoadAndSwap(dd::KbcServer* server, const std::string& dir);

  /// Spans go to `ledger`; null records nothing (untraced set-up).
  void set_ledger(Ledger* ledger) { ledger_ = ledger; }
  const dd::Grounder* grounder() const { return grounder_.get(); }
  dd::Catalog* catalog() { return &catalog_; }
  const dd::DistributedResult& last_distributed() const { return last_dist_; }
  const std::string& last_epoch_bytes() const { return last_epoch_bytes_; }
  const std::vector<double>& marginals() const { return marginals_; }
  const LayerCounts& counts() const { return counts_; }

 private:
  dd::Status RunExtraction(std::map<std::string, dd::DeltaSet>* deltas);
  dd::Status RunGrounding(const std::map<std::string, dd::DeltaSet>& deltas,
                          bool use_pool);
  dd::Status RunCalibration();
  void DropDeltas(std::map<std::string, dd::DeltaSet>* deltas);

  dd::PipelineOptions options_;
  Ledger* ledger_;
  dd::DdlogProgram program_;
  dd::Catalog catalog_;
  dd::UdfRegistry udfs_;
  std::vector<dd::Extractor> extractors_;
  std::vector<dd::Document> documents_;
  size_t next_document_ = 0;
  std::map<std::string, dd::DeltaSet> queued_deltas_;
  std::unique_ptr<dd::ThreadPool> pool_;
  std::unique_ptr<dd::Grounder> grounder_;
  std::unique_ptr<dd::IncrementalInference> inference_;
  std::vector<double> marginals_;
  dd::DistributedResult last_dist_;
  uint64_t last_epoch_id_ = 0;
  std::string last_epoch_bytes_;
  LayerCounts counts_;
  bool has_run_ = false;
};

}  // namespace kbcbench

#endif  // KBCBENCH_LAYERED_H_
