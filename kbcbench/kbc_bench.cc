// End-to-end KBC benchmark: corpus bytes -> extraction -> grounding ->
// learning/inference -> published epoch -> KbcServer answering queries.
//
//   kbc_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale full|smoke] [--workdir <dir>]
//
// --trace 0 drives the user-facing DeepDivePipeline API and prints the
// end-to-end metrics. --trace 1 runs the same work twice, once through
// the pipeline and once as direct layer calls inside benchmark spans
// (layered.h), checks that both publish byte-identical epochs, and
// prints the per-layer metrics and the ledger. The last stdout line is
// the result object; NOTES.md documents every metric and workload.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/calibration.h"
#include "core/checkpoint.h"
#include "core/error_analysis.h"
#include "core/pipeline.h"
#include "serve/epoch.h"
#include "serve/server.h"
#include "stream/ingester.h"
#include "stream/stream.h"
#include "testdata/corpus_logs.h"
#include "testdata/corpus_spouse.h"
#include "testdata/logs_app.h"
#include "testdata/spouse_app.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

#include "layered.h"
#include "ledger.h"
#include "openloop.h"

namespace kbcbench {
namespace {

using dd::Status;

// ---------------------------------------------------------------------------
// Sizes

struct Scale {
  // Spouse corpus. corruption = 0.3 keeps MarriedPair F1 below 1.0
  // on most seeds (0.82-1.00 at the full size): at 0.0 the app scores
  // F1 = 1.000 and a quality regression would not show in the f1 metric.
  // It is set to expose regressions, never to hide a defect.
  // 1000 documents ground a graph of ~3k variables and ~28k factors, and
  // a repetition takes ~1.3 s, so a run holds many (NOTES.md, Steadiness).
  int spouse_docs = 1000;
  int spouse_persons = 100;
  int spouse_married = 30;
  int spouse_siblings = 15;
  double corruption = 0.3;
  /// spouse_update: the full run covers this share of the documents,
  /// the rest arrives as `update_batches` equal batches.
  double base_fraction = 0.9;
  int update_batches = 4;
  int learn_epochs = 200;
  int burn_in = 200;
  int samples = 800;
  // Logs corpus: INFO filler makes the stream multi-MB while the error
  // events (and so the grounded graph) stay moderate.
  int log_windows = 2000;
  int log_info_lines = 30;
  int fresh_rounds = 30;
  int round_windows = 3;
  // Open-loop query mix.
  double query_rate = 5000;
  double query_seconds = 1.5;
  int shards = 4;
  /// Pipeline worker threads. 1 runs the phases strictly in sequence, as
  /// the traced replay does, so `ledger.overhead_frac` compares like with
  /// like.
  size_t pipeline_threads = 1;
  /// The run, with every thread and shard process it starts, is confined
  /// to this many CPUs. A logs_fresh round is a chain of hand-offs between
  /// threads; spread over every CPU of the shared host, its time followed
  /// whichever CPU the host was slowing (NOTES.md, Steadiness).
  int cpus = 2;
};

Scale SmokeScale() {
  Scale s;
  s.spouse_docs = 200;
  s.spouse_persons = 60;
  s.spouse_married = 20;
  s.spouse_siblings = 10;
  s.update_batches = 2;
  s.learn_epochs = 30;
  s.burn_in = 30;
  s.samples = 100;
  s.log_windows = 200;
  s.log_info_lines = 5;
  s.fresh_rounds = 3;
  s.query_seconds = 0.6;
  s.shards = 2;
  return s;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string workdir = ".bench_run";
};

// ---------------------------------------------------------------------------
// Result bookkeeping

class Checker {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    if (failures_++ < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
  void ExpectOk(const Status& status, const std::string& what) {
    Expect(status.ok(), what + ": " + status.ToString());
  }
  bool ok() const { return failures_ == 0; }

 private:
  int failures_ = 0;
};

struct Metric {
  double value = 0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Returns freed heap to the kernel and resets the RSS high-water mark
/// (VmHWM), so each repetition reports its own peak rather than the
/// process's, or whatever earlier repetitions left cached in malloc.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

/// CPUs this process may run on.
int AllowedCpus() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  }
  return CPU_COUNT(&allowed);
}

/// Confines the calling thread to the first `n` CPUs it may run on.
/// Called before any thread starts, so every thread and forked shard
/// inherits the mask.
void ConfineToCpus(int n) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  cpu_set_t mine;
  CPU_ZERO(&mine);
  for (int c = 0, taken = 0; c < CPU_SETSIZE && taken < n; ++c) {
    if (CPU_ISSET(c, &allowed)) {
      CPU_SET(c, &mine);
      ++taken;
    }
  }
  sched_setaffinity(0, sizeof(mine), &mine);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void RemoveTree(const std::string& path) {
  // Epoch directories hold plain files only (epoch snapshots + CURRENT).
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
}

// ---------------------------------------------------------------------------
// App set-up, shared by the pipeline and the layered replay

dd::SpouseCorpusOptions SpouseCorpusOptionsFor(const Scale& s, uint64_t seed) {
  dd::SpouseCorpusOptions o;
  o.num_documents = s.spouse_docs;
  o.num_persons = s.spouse_persons;
  o.num_married_pairs = s.spouse_married;
  o.num_sibling_pairs = s.spouse_siblings;
  o.corruption = s.corruption;
  o.seed = seed;
  return o;
}

dd::PipelineOptions SpousePipelineOptions(const Scale& s) {
  dd::PipelineOptions o;
  o.learn.epochs = s.learn_epochs;
  o.learn.learning_rate = 0.05;
  o.inference.full_burn_in = s.burn_in;
  o.inference.num_samples = s.samples;
  o.threshold = 0.7;
  o.holdout_fraction = 0.2;  // Fig. 5 test set
  o.strategy = dd::PipelineOptions::Strategy::kSampling;
  o.num_threads = s.pipeline_threads;
  return o;
}

dd::LogsCorpusOptions LogsCorpusOptionsFor(const Scale& s, uint64_t seed) {
  dd::LogsCorpusOptions o;
  o.num_services = 12;
  o.num_hosts = 8;
  o.num_windows = s.log_windows;
  o.num_causal_pairs = 8;
  o.num_kb_negatives = 40;
  o.info_lines_per_window = s.log_info_lines;
  o.seed = seed;
  return o;
}

dd::PipelineOptions LogsPipelineOptions(const Scale& s) {
  dd::PipelineOptions o;
  o.learn.epochs = s.learn_epochs;
  o.learn.learning_rate = 0.05;
  o.inference.full_burn_in = s.burn_in / 2;
  o.inference.num_samples = s.samples / 2;
  o.threshold = 0.7;
  o.strategy = dd::PipelineOptions::Strategy::kSampling;
  o.num_threads = s.pipeline_threads;
  return o;
}

dd::StreamOptions LogsStreamOptions() {
  dd::StreamOptions o;
  o.chunk_bytes = 64 * 1024;
  o.byte_budget = 1 << 20;  // below the stream size, so backpressure engages
  o.num_workers = 2;
  return o;
}

/// One freshness round of log lines: `windows` windows after the base
/// timeline, each with INFO filler from known services and a cascade
/// from a service pair that first appears in this round, so the planted
/// Causes(up, down) fact is new to the KB when the round lands.
struct FreshRound {
  std::string bytes;
  dd::Tuple fact;
};

FreshRound MakeFreshRound(const dd::LogsCorpus& corpus,
                          const dd::LogsCorpusOptions& o, int round,
                          int windows, uint64_t seed) {
  dd::Rng rng(seed * 1000003ULL + static_cast<uint64_t>(round));
  const std::string up = dd::StrFormat("fresh%02d-up", round);
  const std::string down = dd::StrFormat("fresh%02d-down", round);
  static const char* const kUpCodes[] = {"E500", "E404", "E429", "E503"};
  static const char* const kDownCodes[] = {"E503", "E504"};
  FreshRound out;
  for (int j = 0; j < windows; ++j) {
    const int64_t w = o.num_windows + static_cast<int64_t>(round) * windows + j;
    int64_t ts = w * o.window_seconds;
    auto emit = [&](const std::string& service, const char* level,
                    const char* code, const std::string& msg) {
      dd::LogLine line;
      line.ts = ts;
      ts += 1 + static_cast<int64_t>(rng.NextBounded(3));
      line.host = corpus.hosts[rng.NextBounded(corpus.hosts.size())];
      line.service = service;
      line.level = level;
      line.code = code;
      line.msg = msg;
      out.bytes += line.Format();
      out.bytes += '\n';
    };
    for (int i = 0; i < o.info_lines_per_window; ++i) {
      emit(corpus.services[rng.NextBounded(corpus.services.size())], "INFO", "-",
           "heartbeat ok");
    }
    emit(up, "ERROR", kUpCodes[rng.NextBounded(4)], "request failed");
    emit(down, "ERROR", kDownCodes[rng.NextBounded(2)], "upstream timeout from " + up);
  }
  out.fact = dd::Tuple({dd::Value::String(up), dd::Value::String(down)});
  return out;
}

// Overloads that let one templated step run either system.

void LoadKb(dd::DeepDivePipeline* p, const dd::SpouseCorpus& corpus) {
  dd::LoadSpouseKb(p, corpus, dd::SpouseAppOptions());
}
void LoadKb(LayeredKbc* k, const dd::SpouseCorpus& corpus) {
  for (const auto& [a, b] : corpus.kb_married) {
    k->QueueDelta("KbMarried", dd::Tuple({dd::Value::String(a), dd::Value::String(b)}), 1);
  }
  for (const auto& [a, b] : corpus.kb_siblings) {
    k->QueueDelta("KbSiblings", dd::Tuple({dd::Value::String(a), dd::Value::String(b)}), 1);
  }
}
void LoadKb(dd::DeepDivePipeline* p, const dd::LogsCorpus& corpus) {
  dd::LoadLogsKb(p, corpus);
}
void LoadKb(LayeredKbc* k, const dd::LogsCorpus& corpus) {
  for (const auto& [a, b] : corpus.kb_causes) {
    k->QueueDelta("KbCauses", dd::Tuple({dd::Value::String(a), dd::Value::String(b)}), 1);
  }
  for (const auto& [a, b] : corpus.kb_not_causes) {
    k->QueueDelta("KbNotCauses", dd::Tuple({dd::Value::String(a), dd::Value::String(b)}), 1);
  }
}

Status Ingest(dd::DeepDivePipeline* p, std::string_view bytes, dd::IngestStats* stats) {
  dd::StreamIngester ingester(LogsStreamOptions(), dd::MakeLogsStreamExtractor());
  dd::StringSource source(bytes);
  Status status = p->IngestStream(&ingester, &source);
  *stats = ingester.stats();
  return status;
}
Status Ingest(LayeredKbc* k, std::string_view bytes, dd::IngestStats* stats) {
  return k->IngestStream(LogsStreamOptions(), dd::MakeLogsStreamExtractor(), bytes,
                         stats);
}

Status SwapIn(dd::DeepDivePipeline*, dd::KbcServer* server, const std::string& dir) {
  return server->LoadCurrent(dd::EpochDirectory(dir));
}
Status SwapIn(LayeredKbc* k, dd::KbcServer* server, const std::string& dir) {
  return k->LoadAndSwap(server, dir);
}

/// Everything a timed step needs: the KBC system, its server, and the
/// epoch directory they share.
template <class Kbc>
struct Stack {
  std::unique_ptr<Kbc> kbc;
  std::unique_ptr<dd::KbcServer> server;
  std::string dir;
  ~Stack() {
    if (server != nullptr) server->Stop();
    if (!dir.empty()) RemoveTree(dir);
  }
};

std::unique_ptr<dd::KbcServer> StartServer(Checker* check) {
  dd::ServerOptions options;
  options.num_workers = 2;
  auto server = std::make_unique<dd::KbcServer>(options);
  check->ExpectOk(server->Start(), "server start");
  return server;
}

template <class Kbc>
void InitStack(Stack<Kbc>* s, const dd::PipelineOptions& options,
               const std::string& dir, Checker* check) {
  s->kbc = std::make_unique<Kbc>(options);
  s->server = StartServer(check);
  s->dir = dir;
  RemoveTree(dir);
}

/// Answers `relation`/`tuple` from the server and checks the answer came
/// from the epoch just swapped in.
Status AnswerFact(dd::KbcServer* server, const dd::Grounder& grounder,
                  const std::string& relation, const dd::Tuple& tuple) {
  const int64_t var = grounder.VarIdFor(relation, tuple);
  if (var < 0) return Status::NotFound("fact is not a candidate: " + tuple.ToString());
  dd::QueryRequest request;
  request.kind = dd::QueryKind::kMarginal;
  request.relation = relation;
  request.row = grounder.var_info()[static_cast<size_t>(var)].row_id;
  DD_ASSIGN_OR_RETURN(dd::QueryResponse response, server->Query(request));
  if (response.epoch != server->current_epoch_id()) {
    return Status::Internal("fact answered from a stale epoch");
  }
  return Status::OK();
}

/// The newest live fact of a spouse query relation (highest variable id):
/// on an update batch, a fact the batch itself created.
std::pair<std::string, dd::Tuple> NewestSpouseFact(const dd::Grounder& grounder,
                                                   dd::Catalog* catalog) {
  const auto& vars = grounder.var_info();
  for (size_t v = vars.size(); v-- > 0;) {
    if (!vars[v].live) continue;
    auto table = catalog->GetTable(vars[v].relation);
    if (!table.ok()) continue;
    return {vars[v].relation, (*table)->row(vars[v].row_id)};
  }
  return {"", dd::Tuple()};
}

/// One timed step: hand `feed` its input, run, publish, swap the epoch in,
/// and answer `fact()` from it. Returns wall seconds.
template <class Kbc, class Feed, class Fact>
dd::Result<double> TimedStep(Stack<Kbc>* s, Feed feed, Fact fact,
                             const dd::DistributedOptions* dist, Ledger* ledger) {
  const Clock::time_point t0 = Clock::now();
  DD_RETURN_IF_ERROR(feed(s->kbc.get()));
  if (dist != nullptr) {
    DD_RETURN_IF_ERROR(s->kbc->RunDistributed(*dist).status());
  } else {
    DD_RETURN_IF_ERROR(s->kbc->Run());
  }
  DD_RETURN_IF_ERROR(s->kbc->PublishEpoch(s->dir));
  DD_RETURN_IF_ERROR(SwapIn(s->kbc.get(), s->server.get(), s->dir));
  {
    Ledger::Span span(ledger, "serve.query");
    const auto [relation, tuple] = fact(s->kbc.get());
    DD_RETURN_IF_ERROR(AnswerFact(s->server.get(), *s->kbc->grounder(), relation, tuple));
  }
  return SecondsBetween(t0, Clock::now());
}

/// Served answers for a sample of facts must equal ProbabilityOf bit for
/// bit, from the current epoch.
void CheckServedSample(dd::DeepDivePipeline* p, dd::KbcServer* server,
                       const std::vector<std::string>& relations, Checker* check) {
  for (const std::string& relation : relations) {
    auto marginals = p->Marginals(relation);
    check->ExpectOk(marginals.status(), "marginals of " + relation);
    if (!marginals.ok() || marginals->empty()) continue;
    const size_t stride = std::max<size_t>(1, marginals->size() / 32);
    for (size_t i = 0; i < marginals->size(); i += stride) {
      const dd::Tuple& tuple = (*marginals)[i].first;
      auto expected = p->ProbabilityOf(relation, tuple);
      const int64_t var = p->grounder()->VarIdFor(relation, tuple);
      check->Expect(expected.ok() && var >= 0, "ProbabilityOf " + tuple.ToString());
      if (!expected.ok() || var < 0) continue;
      dd::QueryRequest request;
      request.relation = relation;
      request.row = p->grounder()->var_info()[static_cast<size_t>(var)].row_id;
      auto served = server->Query(request);
      check->Expect(served.ok() && served->epoch == server->current_epoch_id() &&
                        std::memcmp(&served->probability, &*expected,
                                    sizeof(double)) == 0,
                    "served " + relation + tuple.ToString() + " == ProbabilityOf");
    }
  }
}

// ---------------------------------------------------------------------------
// Quality

double SpouseF1(dd::DeepDivePipeline* p, const dd::SpouseCorpus& corpus) {
  auto extracted = p->Extractions("MarriedPair");
  if (!extracted.ok()) return 0;
  return dd::Evaluate(*extracted, dd::SpouseTruthTuples(corpus)).f1;
}

/// Fig. 5 calibration gap, |bucket accuracy - bucket midpoint|, maximised
/// over buckets holding at least kMinBucketLabels labels.
/// CalibrationReport::MaxCalibrationGap also counts buckets with one or
/// two labels, whose gap reaches 0.95 by chance alone, so its maximum
/// measures bucket sparsity more than calibration.
constexpr size_t kMinBucketLabels = 20;

double CalibGap(const dd::CalibrationReport& report) {
  double gap = 0;
  for (const dd::CalibrationBucket& b : report.buckets()) {
    if (b.num_with_truth < kMinBucketLabels) continue;
    gap = std::max(gap, std::abs(b.Accuracy() - (b.lo + b.hi) / 2));
  }
  return gap;
}

/// Largest test-set gap over the spouse query relations.
double SpouseCalibGap(dd::DeepDivePipeline* p) {
  double gap = 0;
  for (const auto& [relation, pair] : p->run_calibration()) {
    gap = std::max(gap, CalibGap(pair.test));
  }
  return gap;
}

/// Causes scored against the planted pairs: F1 of the extractions, and
/// the calibration gap of every Causes candidate with planted truth as
/// its label. The KB labels are too few for a Fig. 5 test set, and with
/// ~130 candidates the maximum over buckets swings with single facts, so
/// this is the label-weighted mean gap over buckets instead.
void LogsQuality(dd::DeepDivePipeline* p, const dd::LogsCorpus& corpus, double threshold,
                 double* f1, double* gap) {
  const std::set<std::pair<std::string, std::string>> truth(
      corpus.causal_pairs.begin(), corpus.causal_pairs.end());
  const auto extracted = dd::ExtractedCauses(*p, threshold);
  size_t tp = 0;
  for (const auto& pair : extracted) tp += truth.count(pair);
  const double precision = extracted.empty() ? 0 : double(tp) / extracted.size();
  const double recall = truth.empty() ? 0 : double(tp) / truth.size();
  *f1 = precision + recall == 0 ? 0 : 2 * precision * recall / (precision + recall);
  std::vector<double> probs;
  std::vector<int> labels;
  auto marginals = p->Marginals("Causes");
  if (marginals.ok()) {
    for (const auto& [tuple, prob] : *marginals) {
      probs.push_back(prob);
      labels.push_back(truth.count({tuple.at(0).AsString(), tuple.at(1).AsString()}) ? 1 : 0);
    }
  }
  const dd::CalibrationReport report = dd::CalibrationReport::Build(probs, labels);
  double weighted = 0;
  for (const dd::CalibrationBucket& b : report.buckets()) {
    if (b.num_with_truth == 0) continue;
    weighted += b.num_with_truth * std::abs(b.Accuracy() - (b.lo + b.hi) / 2);
  }
  *gap = probs.empty() ? 0 : weighted / static_cast<double>(probs.size());
}

// ---------------------------------------------------------------------------
// Workloads

/// What one run of a workload measured, before reduction to metrics.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> run_s;     ///< one per timed sequence
  std::vector<double> update_s;  ///< one per incremental batch / round
  std::vector<double> fresh_ms;  ///< one per planted-fact arrival
  std::vector<double> peak_rss_mb;  ///< one per untraced repetition
  double f1 = 0;
  double calib_gap = 0;
  OpenLoopReport queries;
  /// Latency quantiles of each kQueryWindowSeconds window of the query mix.
  std::vector<double> window_p50_us;
  std::vector<double> window_p99_us;
  // Traced runs only.
  std::vector<std::map<std::string, double>> layers;  ///< one per traced sequence
  std::vector<double> unattributed_frac;
  std::vector<double> overhead_frac;
  std::map<std::string, double> counts;

  /// The first repetition warms the process (heap, string dictionary,
  /// page cache) and is not measured; its set-up time and checks stay.
  void DiscardWarmup() {
    run_s.clear();
    update_s.clear();
    fresh_ms.clear();
    peak_rss_mb.clear();
    window_p50_us.clear();
    window_p99_us.clear();
    layers.clear();
    unattributed_frac.clear();
    overhead_frac.clear();
  }
};

const std::vector<std::string> kSpouseRelations = {"MarriedMention", "MarriedPair"};
const std::vector<std::string> kLogsRelations = {"Causes", "CoOccurs"};

// Query latency is summarised per window, then as the median over
// windows: on a shared host a multi-millisecond stall of the whole
// machine lands in some windows and would otherwise set the p99 of a
// whole run. A window needs 1000 answers so its p99 has 10 beyond it.
constexpr double kQueryWindowSeconds = 0.5;
constexpr size_t kMinWindowAnswers = 1000;

void AddQueries(const OpenLoopReport& report, Samples* out) {
  std::map<int64_t, std::vector<double>> windows;
  for (size_t i = 0; i < report.latency_us.size(); ++i) {
    windows[static_cast<int64_t>(report.due_s[i] / kQueryWindowSeconds)].push_back(
        report.latency_us[i]);
  }
  for (const auto& [index, latencies] : windows) {
    if (latencies.size() < kMinWindowAnswers) continue;
    out->window_p50_us.push_back(Quantile(latencies, 0.5));
    out->window_p99_us.push_back(Quantile(latencies, 0.99));
  }
  out->queries.Merge(report);
}

/// Records the ledger of one traced sequence against the untraced one.
void RecordTrace(const Ledger& ledger, double traced_wall, double untraced_wall,
                 Samples* out) {
  out->layers.push_back(ledger.LayerSeconds());
  out->unattributed_frac.push_back(1.0 - ledger.CoveredSeconds() / traced_wall);
  out->overhead_frac.push_back(traced_wall / untraced_wall - 1.0);
}

/// Compares the epochs both systems published, in order.
void CheckSameEpochs(const std::vector<std::string>& untraced,
                     const std::vector<std::string>& traced, Checker* check) {
  check->Expect(untraced.size() == traced.size() && !traced.empty(),
                "traced and untraced runs published the same number of epochs");
  for (size_t i = 0; i < std::min(untraced.size(), traced.size()); ++i) {
    check->Expect(untraced[i] == traced[i],
                  dd::StrFormat("epoch %zu: traced bytes (graph + marginals) "
                                "identical to untraced", i + 1));
  }
}

std::string CurrentEpochBytes(const std::string& dir) {
  auto file = dd::EpochDirectory(dir).CurrentEpochFile();
  return file.ok() ? ReadFile(*file) : std::string();
}

class Bench {
 public:
  Bench(const Args& args, const Scale& scale) : args_(args), scale_(scale) {}

  Samples Run(Checker* check) {
    return args_.workload == "spouse_update" ? Spouse(check) : Logs(check);
  }

 private:
  /// Repeats until the time is used, and at least a warm-up repetition
  /// plus two measured ones untraced, or one measured one traced.
  bool TimeLeft(int reps, double reserve) const {
    if (reps < (args_.trace ? 2 : 3)) return true;
    return SecondsBetween(start_, Clock::now()) + reserve < args_.seconds;
  }

  std::string Dir(const std::string& name) const {
    return args_.workdir + "/" + name;
  }

  /// spouse_update.
  Samples Spouse(Checker* check) {
    Samples out;
    const dd::PipelineOptions options = SpousePipelineOptions(scale_);

    std::unique_ptr<Stack<dd::DeepDivePipeline>> user;
    dd::SpouseCorpus corpus;
    for (int rep = 0; TimeLeft(rep, scale_.query_seconds); ++rep) {
      // Set-up: corpus generation, program load, server start.
      user.reset();
      ResetPeakRss();
      const Clock::time_point t0 = Clock::now();
      corpus = dd::GenerateSpouseCorpus(SpouseCorpusOptionsFor(scale_, args_.seed));
      user = std::make_unique<Stack<dd::DeepDivePipeline>>();
      InitStack(user.get(), options, Dir("user"), check);
      SpouseProgram(user->kbc.get(), corpus, check);
      out.setup_s.push_back(SecondsBetween(t0, Clock::now()));

      // Timed: a full run, then the incremental batches.
      const std::vector<std::pair<size_t, size_t>> steps = Steps(corpus.documents.size());
      std::vector<std::string> user_epochs;
      double sequence = 0;
      for (size_t i = 0; i < steps.size(); ++i) {
        auto seconds = SpouseStep(user.get(), corpus, steps[i].first, steps[i].second,
                                  nullptr, nullptr);
        check->ExpectOk(seconds.status(), "spouse step");
        if (!seconds.ok()) return out;
        sequence += *seconds;
        if (i == 0) {
          out.run_s.push_back(*seconds);
        } else {
          out.update_s.push_back(*seconds);
          out.fresh_ms.push_back(*seconds * 1e3);
        }
        if (args_.trace) user_epochs.push_back(CurrentEpochBytes(user->dir));
        CheckServedSample(user->kbc.get(), user->server.get(),
                          kSpouseRelations, check);
      }
      out.peak_rss_mb.push_back(PeakRssMb());
      out.f1 = SpouseF1(user->kbc.get(), corpus);
      out.calib_gap = SpouseCalibGap(user->kbc.get());

      if (args_.trace) {
        // Same work through the layers, inside benchmark spans.
        Stack<LayeredKbc> layered;
        InitStack(&layered, options, Dir("layered"), check);
        SpouseProgram(layered.kbc.get(), corpus, check);
        Ledger ledger;
        layered.kbc->set_ledger(&ledger);
        std::vector<std::string> traced_epochs;
        double traced = 0;
        for (const auto& [b, e] : steps) {
          auto seconds = SpouseStep(&layered, corpus, b, e, nullptr, &ledger);
          check->ExpectOk(seconds.status(), "layered spouse step");
          if (!seconds.ok()) return out;
          traced += *seconds;
          traced_epochs.push_back(layered.kbc->last_epoch_bytes());
        }
        layered.kbc->set_ledger(nullptr);
        CheckSameEpochs(user_epochs, traced_epochs, check);
        check->Expect(dd::GraphFingerprint(user->kbc->grounder()->graph()) ==
                          dd::GraphFingerprint(layered.kbc->grounder()->graph()),
                      "traced graph CRC == untraced graph CRC");
        RecordTrace(ledger, traced, sequence, &out);
        RecordCounts(*layered.kbc, &out);
        ShardedProbe(corpus, options, check, &out);
      }
      if (rep == 0) out.DiscardWarmup();
    }
    // Read-only open-loop query mix against the last epoch.
    OpenLoop load(user->server.get(), QueryOptions(user.get(), kSpouseRelations));
    std::this_thread::sleep_for(std::chrono::duration<double>(scale_.query_seconds));
    AddQueries(load.Stop(), &out);
    out.counts["serve.cache_hits"] = user->server->stats().cache_hits;
    out.counts["serve.cache_lookups"] =
        user->server->stats().cache_hits + user->server->stats().cache_misses;
    out.counts["serve.shed_total"] = user->server->stats().shed_queue_full +
                                     user->server->stats().shed_queue_budget;
    return out;
  }

  template <class Kbc>
  void SpouseProgram(Kbc* kbc, const dd::SpouseCorpus& corpus, Checker* check) {
    const dd::SpouseAppOptions app;
    check->ExpectOk(kbc->LoadProgram(dd::SpouseDdlog(app)), "load spouse program");
    kbc->RegisterExtractor(dd::MakeSpouseExtractor(app));
    LoadKb(kbc, corpus);
  }

  /// src/dist, traced runs only: the whole corpus once more as one
  /// full run sharded by RunDistributed, through the pipeline and
  /// through the layers. Their epochs must match; the run gives the dist.*
  /// metrics and stays out of the ledger of the timed steps. Sharded
  /// runs have no end-to-end metric of their own (NOTES.md, Workloads).
  void ShardedProbe(const dd::SpouseCorpus& corpus, const dd::PipelineOptions& options,
                    Checker* check, Samples* out) {
    dd::DistributedOptions dist;
    dist.num_shards = std::min(scale_.shards, AllowedCpus());
    dist.launch = dd::DistLaunchMode::kForkedProcesses;
    const size_t n = corpus.documents.size();
    Stack<dd::DeepDivePipeline> user;
    InitStack(&user, options, Dir("user_sharded"), check);
    SpouseProgram(user.kbc.get(), corpus, check);
    check->ExpectOk(SpouseStep(&user, corpus, 0, n, &dist, nullptr).status(),
                    "sharded step");
    Stack<LayeredKbc> layered;
    InitStack(&layered, options, Dir("layered_sharded"), check);
    SpouseProgram(layered.kbc.get(), corpus, check);
    Ledger ledger;
    layered.kbc->set_ledger(&ledger);
    check->ExpectOk(SpouseStep(&layered, corpus, 0, n, &dist, &ledger).status(),
                    "layered sharded step");
    layered.kbc->set_ledger(nullptr);
    CheckSameEpochs({CurrentEpochBytes(user.dir)}, {layered.kbc->last_epoch_bytes()},
                    check);
    out->layers.back()["dist.run"] = ledger.LayerSeconds()["dist.run"];
    const dd::DistributedResult& d = layered.kbc->last_distributed();
    out->counts["dist.cut_edges"] = static_cast<double>(d.cut_edges);
    out->counts["dist.boundary_vars"] = static_cast<double>(d.boundary_vars);
    out->counts["dist.restarts"] = static_cast<double>(d.restarts);
  }

  /// The timed steps as document ranges: one full run over the
  /// first `base_fraction` of the corpus, then `update_batches` equal
  /// batches of the rest.
  std::vector<std::pair<size_t, size_t>> Steps(size_t n) const {
    const size_t base = static_cast<size_t>(scale_.base_fraction * n);
    std::vector<std::pair<size_t, size_t>> out = {{0, base}};
    const size_t k = static_cast<size_t>(scale_.update_batches);
    for (size_t i = 0; i < k; ++i) {
      out.emplace_back(base + (n - base) * i / k, base + (n - base) * (i + 1) / k);
    }
    return out;
  }

  template <class Kbc>
  dd::Result<double> SpouseStep(Stack<Kbc>* s, const dd::SpouseCorpus& corpus,
                                size_t begin, size_t end,
                                const dd::DistributedOptions* dist, Ledger* ledger) {
    auto feed = [&](Kbc* kbc) -> Status {
      for (size_t i = begin; i < end; ++i) {
        DD_RETURN_IF_ERROR(
            kbc->AddDocument(corpus.documents[i].first, corpus.documents[i].second));
      }
      return Status::OK();
    };
    auto fact = [](Kbc* kbc) {
      return NewestSpouseFact(*kbc->grounder(), kbc->catalog());
    };
    return TimedStep(s, feed, fact, dist, ledger);
  }

  /// logs_fresh.
  Samples Logs(Checker* check) {
    Samples out;
    const dd::PipelineOptions options = LogsPipelineOptions(scale_);
    const dd::LogsCorpusOptions corpus_options = LogsCorpusOptionsFor(scale_, args_.seed);
    std::unique_ptr<Stack<dd::DeepDivePipeline>> user;
    for (int rep = 0; TimeLeft(rep, 0); ++rep) {
      // Set-up: corpus and round generation, program load, server start.
      user.reset();
      ResetPeakRss();
      const Clock::time_point t0 = Clock::now();
      const dd::LogsCorpus corpus = dd::GenerateLogsCorpus(corpus_options);
      std::vector<FreshRound> rounds;
      for (int r = 0; r < scale_.fresh_rounds; ++r) {
        rounds.push_back(MakeFreshRound(corpus, corpus_options, r,
                                        scale_.round_windows, args_.seed));
      }
      user = std::make_unique<Stack<dd::DeepDivePipeline>>();
      InitStack(user.get(), options, Dir("user"), check);
      LogsProgram(user->kbc.get(), corpus, check);
      out.setup_s.push_back(SecondsBetween(t0, Clock::now()));

      const dd::Tuple planted({dd::Value::String(corpus.causal_pairs[0].first),
                               dd::Value::String(corpus.causal_pairs[0].second)});
      std::vector<std::string> user_epochs;
      dd::IngestStats stats;
      auto run = LogsStep(user.get(), corpus.text, planted, nullptr, &stats, check);
      if (!run.ok()) return out;
      out.run_s.push_back(*run);
      if (args_.trace) user_epochs.push_back(CurrentEpochBytes(user->dir));
      LogsQuality(user->kbc.get(), corpus, options.threshold, &out.f1, &out.calib_gap);
      CheckServedSample(user->kbc.get(), user->server.get(), kLogsRelations, check);

      // Freshness rounds, with the open-loop mix reading throughout.
      double untraced_wall = *run;
      {
        OpenLoop load(user->server.get(), QueryOptions(user.get(), kLogsRelations));
        for (const FreshRound& round : rounds) {
          auto seconds = LogsStep(user.get(), round.bytes, round.fact, nullptr, &stats, check);
          if (!seconds.ok()) return out;
          untraced_wall += *seconds;
          out.update_s.push_back(*seconds);
          out.fresh_ms.push_back(*seconds * 1e3);
          if (args_.trace) user_epochs.push_back(CurrentEpochBytes(user->dir));
        }
        AddQueries(load.Stop(), &out);
      }
      CheckServedSample(user->kbc.get(), user->server.get(), kLogsRelations, check);
      out.peak_rss_mb.push_back(PeakRssMb());

      if (args_.trace) {
        Stack<LayeredKbc> layered;
        InitStack(&layered, options, Dir("layered"), check);
        LogsProgram(layered.kbc.get(), corpus, check);
        Ledger ledger;
        layered.kbc->set_ledger(&ledger);
        std::vector<std::string> traced_epochs;
        dd::IngestStats traced_stats;
        double traced_wall = 0;
        uint64_t records = 0, quarantined = 0, bytes_in = 0;
        size_t peak = 0;
        auto step = [&](std::string_view bytes, const dd::Tuple& fact) -> bool {
          auto seconds = LogsStep(&layered, bytes, fact, &ledger, &traced_stats, check);
          if (!seconds.ok()) return false;
          traced_wall += *seconds;
          traced_epochs.push_back(layered.kbc->last_epoch_bytes());
          records += traced_stats.records;
          quarantined += traced_stats.records_quarantined;
          bytes_in += traced_stats.bytes_in;
          peak = std::max(peak, traced_stats.peak_in_flight_bytes);
          return true;
        };
        if (!step(corpus.text, planted)) return out;
        {
          OpenLoop load(layered.server.get(), QueryOptions(&layered, kLogsRelations));
          for (const FreshRound& round : rounds) {
            if (!step(round.bytes, round.fact)) return out;
          }
          AddQueries(load.Stop(), &out);
        }
        layered.kbc->set_ledger(nullptr);
        CheckSameEpochs(user_epochs, traced_epochs, check);
        check->Expect(dd::GraphFingerprint(user->kbc->grounder()->graph()) ==
                          dd::GraphFingerprint(layered.kbc->grounder()->graph()),
                      "traced graph CRC == untraced graph CRC");
        RecordTrace(ledger, traced_wall, untraced_wall, &out);
        RecordCounts(*layered.kbc, &out);
        out.counts["stream.records"] = static_cast<double>(records);
        out.counts["stream.quarantined"] = static_cast<double>(quarantined);
        out.counts["stream.bytes"] = static_cast<double>(bytes_in);
        out.counts["stream.peak_in_flight_bytes"] = static_cast<double>(peak);
        const dd::ServerStats st = layered.server->stats();
        out.counts["serve.cache_hits"] = st.cache_hits;
        out.counts["serve.cache_lookups"] = st.cache_hits + st.cache_misses;
        out.counts["serve.shed_total"] = st.shed_queue_full + st.shed_queue_budget;
      }
      if (rep == 0) out.DiscardWarmup();
    }
    return out;
  }

  template <class Kbc>
  void LogsProgram(Kbc* kbc, const dd::LogsCorpus& corpus, Checker* check) {
    check->ExpectOk(kbc->LoadProgram(dd::LogsDdlog()), "load logs program");
    LoadKb(kbc, corpus);
  }

  template <class Kbc>
  dd::Result<double> LogsStep(Stack<Kbc>* s, std::string_view bytes,
                              const dd::Tuple& planted, Ledger* ledger,
                              dd::IngestStats* stats, Checker* check) {
    auto feed = [&](Kbc* kbc) { return Ingest(kbc, bytes, stats); };
    auto fact = [&](Kbc*) { return std::make_pair(std::string("Causes"), planted); };
    auto seconds = TimedStep(s, feed, fact, nullptr, ledger);
    check->ExpectOk(seconds.status(), "logs step");
    check->Expect(stats->peak_in_flight_bytes <= stats->byte_budget,
                  dd::StrFormat("stream peak in flight %zu <= budget %zu",
                                stats->peak_in_flight_bytes, stats->byte_budget));
    return seconds;
  }

  /// The query mix over `relations`, with row spaces from the served epoch.
  template <class Kbc>
  OpenLoopOptions QueryOptions(Stack<Kbc>* s, const std::vector<std::string>& relations) {
    OpenLoopOptions o;
    o.rate_qps = scale_.query_rate;
    o.seed = args_.seed;
    auto epoch = s->server->current_epoch();
    for (const std::string& relation : relations) {
      int64_t rows = 1;
      for (uint32_t v = 0; epoch != nullptr && v < epoch->num_variables(); ++v) {
        if (epoch->var_relation(v) == relation) rows = std::max(rows, epoch->var_row(v) + 1);
      }
      o.targets.push_back(QueryTarget{relation, rows});
    }
    return o;
  }

  static void RecordCounts(const LayeredKbc& kbc, Samples* out) {
    const LayerCounts& c = kbc.counts();
    out->counts["nlp.docs"] = static_cast<double>(c.docs);
    out->counts["core.tuples"] = static_cast<double>(c.tuples);
    out->counts["core.quarantined"] = static_cast<double>(c.quarantined);
    out->counts["storage.rows"] = static_cast<double>(c.rows);
    out->counts["grounding.variables"] = kbc.grounder()->stats().num_variables;
    out->counts["grounding.factors"] = kbc.grounder()->stats().num_factors;
    out->counts["grounding.changed_vars"] = static_cast<double>(c.changed_vars);
    out->counts["inference.work_units"] = static_cast<double>(c.work_units);
    out->counts["serve.epoch_bytes"] = static_cast<double>(c.epoch_bytes);
  }

  const Args args_;
  const Scale scale_;
  const Clock::time_point start_ = Clock::now();
};

// ---------------------------------------------------------------------------
// Reduction to the printed metrics

void CheckQueries(const OpenLoopReport& q, Checker* check) {
  check->Expect(q.issued > 0, "query mix issued requests");
  check->Expect(q.Accounted(),
                dd::StrFormat("issued %llu == ok + not_found + shed + deadline + errors",
                              static_cast<unsigned long long>(q.issued)));
  check->Expect(q.epochs_monotone, "epoch ids seen by each client never go backwards");
}

MetricMap EndToEnd(const Samples& s, Checker* check) {
  MetricMap m;
  CheckQueries(s.queries, check);
  m["setup_s"] = {Median(s.setup_s), "s"};
  m["run_s"] = {Median(s.run_s), "s"};
  m["update_s"] = {Median(s.update_s), "s"};
  m["fresh_p50_ms"] = {Median(s.fresh_ms), "ms"};
  m["query_ok_frac"] = {s.queries.issued == 0 ? 0
                                              : double(s.queries.answered()) / s.queries.issued,
                        "fraction"};
  m["f1"] = {s.f1, "fraction"};
  m["calib_gap"] = {s.calib_gap, "fraction"};
  m["peak_rss_mb"] = {Median(s.peak_rss_mb), "MB"};
  return m;
}

MetricMap PerLayer(const Samples& s, Checker* check) {
  MetricMap m;
  CheckQueries(s.queries, check);
  auto layer = [&](const char* span) {
    std::vector<double> v;
    for (const auto& layers : s.layers) {
      auto it = layers.find(span);
      v.push_back(it == layers.end() ? 0.0 : it->second);
    }
    return Median(v);
  };
  auto count = [&](const char* name) {
    auto it = s.counts.find(name);
    return it == s.counts.end() ? 0.0 : it->second;
  };
  const double ingest = layer("stream.ingest");
  m["stream.ingest_s"] = {ingest, "s"};
  m["stream.mbps"] = {ingest > 0 ? count("stream.bytes") / 1e6 / ingest : 0, "MB/s"};
  m["stream.records"] = {count("stream.records"), "count"};
  m["stream.peak_in_flight_bytes"] = {count("stream.peak_in_flight_bytes"), "bytes"};
  m["stream.quarantined"] = {count("stream.quarantined"), "count"};
  m["nlp.annotate_s"] = {layer("nlp.annotate"), "s"};
  m["nlp.docs"] = {count("nlp.docs"), "count"};
  m["core.dedup_s"] = {layer("core.dedup"), "s"};
  m["core.extract_s"] = {layer("core.extract"), "s"};
  m["core.tuples"] = {count("core.tuples"), "count"};
  m["core.quarantined"] = {count("core.quarantined"), "count"};
  m["core.calibrate_s"] = {layer("core.calibrate"), "s"};
  m["storage.load_s"] = {layer("storage.load"), "s"};
  m["storage.rows"] = {count("storage.rows"), "count"};
  m["grounding.ground_s"] = {layer("grounding.ground"), "s"};
  m["grounding.delta_s"] = {layer("grounding.delta"), "s"};
  m["grounding.variables"] = {count("grounding.variables"), "count"};
  m["grounding.factors"] = {count("grounding.factors"), "count"};
  m["grounding.changed_vars"] = {count("grounding.changed_vars"), "count"};
  const double materialize = layer("inference.materialize");
  const double update = layer("inference.update");
  const double units = count("inference.work_units");
  m["inference.learn_s"] = {layer("inference.learn"), "s"};
  m["inference.materialize_s"] = {materialize, "s"};
  m["inference.update_s"] = {update, "s"};
  m["inference.work_units"] = {units, "count"};
  m["inference.ns_per_update"] = {units > 0 ? (materialize + update) * 1e9 / units : 0, "ns"};
  m["dist.run_s"] = {layer("dist.run"), "s"};
  m["dist.cut_edges"] = {count("dist.cut_edges"), "count"};
  m["dist.boundary_vars"] = {count("dist.boundary_vars"), "count"};
  m["dist.restarts"] = {count("dist.restarts"), "count"};
  m["serve.publish_s"] = {layer("serve.publish"), "s"};
  m["serve.epoch_bytes"] = {count("serve.epoch_bytes"), "bytes"};
  m["serve.load_s"] = {layer("serve.load"), "s"};
  m["serve.query_s"] = {layer("serve.query"), "s"};
  const double lookups = count("serve.cache_lookups");
  m["serve.cache_hit_frac"] = {lookups > 0 ? count("serve.cache_hits") / lookups : 0,
                               "fraction"};
  m["serve.shed"] = {count("serve.shed_total"), "count"};
  m["query_p50_us"] = {Median(s.window_p50_us), "us"};
  m["query_p99_us"] = {Median(s.window_p99_us), "us"};
  m["serve.gen_late_ms"] = {Quantile(s.queries.late_us, 0.5) / 1e3, "ms"};
  const OpenLoopReport& q = s.queries;
  m["query_fail_frac"] = {q.issued == 0 ? 0 : 1.0 - double(q.answered()) / q.issued,
                          "fraction"};
  m["ledger.unattributed_frac"] = {Median(s.unattributed_frac), "fraction"};
  m["ledger.overhead_frac"] = {Median(s.overhead_frac), "fraction"};
  return m;
}

std::string Json(bool correct, uint64_t attempted, uint64_t failed, const MetricMap& m) {
  std::string out = dd::StrFormat(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed));
  bool first = true;
  for (const auto& [name, metric] : m) {
    // JSON has no NaN/Inf; a non-finite value has already failed the run.
    const double v = std::isfinite(metric.value) ? metric.value : 0;
    out += dd::StrFormat("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                         first ? "" : ", ", name.c_str(), v, metric.unit.c_str());
    first = false;
  }
  return out + "}}";
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--scale") {
      args->smoke = value == "smoke";
    } else if (key == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  static const std::set<std::string> kWorkloads = {"spouse_update", "logs_fresh"};
  return kWorkloads.count(args->workload) > 0 && args->seconds > 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kbc_bench --workload spouse_update|logs_fresh "
                 "--seed N --seconds S --trace 0|1 "
                 "[--scale full|smoke] [--workdir DIR]\n");
    return 2;
  }
  dd::SetLogLevel(dd::LogLevel::kWarning);
  const Scale scale = args.smoke ? SmokeScale() : Scale();
  std::filesystem::create_directories(args.workdir);
  ConfineToCpus(scale.cpus);

  // Host and build facts, so numbers from different hosts or builds are
  // never compared unknowingly.
  std::printf("{\"host\": {\"hardware_concurrency\": %u, \"cpus\": %d, "
              "\"build_type\": \"%s\", \"DD_METRICS_OFF\": %s, \"seed\": %llu, "
              "\"workload\": \"%s\", \"trace\": %d, \"scale\": \"%s\"}}\n",
              std::thread::hardware_concurrency(), AllowedCpus(), KBCBENCH_BUILD_TYPE,
              KBCBENCH_METRICS_OFF ? "true" : "false",
              static_cast<unsigned long long>(args.seed), args.workload.c_str(),
              args.trace ? 1 : 0, args.smoke ? "smoke" : "full");

  Checker check;
  Bench bench(args, scale);
  const Samples samples = bench.Run(&check);
  // Raw samples behind the medians, for diagnosing spread.
  auto dump = [](const char* name, const std::vector<double>& v) {
    std::fprintf(stderr, "samples %s:", name);
    for (double x : v) std::fprintf(stderr, " %.6g", x);
    std::fprintf(stderr, "\n");
  };
  dump("setup_s", samples.setup_s);
  dump("window_p50_us", samples.window_p50_us);
  dump("window_p99_us", samples.window_p99_us);
  dump("run_s", samples.run_s);
  dump("update_s", samples.update_s);
  dump("unattributed_frac", samples.unattributed_frac);
  dump("overhead_frac", samples.overhead_frac);
  const MetricMap metrics = args.trace ? PerLayer(samples, &check) : EndToEnd(samples, &check);
  for (const auto& [name, metric] : metrics) {
    check.Expect(std::isfinite(metric.value), name + " is finite");
  }
  const uint64_t attempted = samples.queries.issued + samples.update_s.size() + samples.run_s.size();
  const uint64_t failed = samples.queries.issued - samples.queries.answered();
  std::printf("%s\n", Json(check.ok(), attempted, failed, metrics).c_str());
  std::fflush(stdout);
  return check.ok() ? 0 : 1;
}

}  // namespace
}  // namespace kbcbench

int main(int argc, char** argv) { return kbcbench::Main(argc, argv); }
