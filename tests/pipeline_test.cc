#include <gtest/gtest.h>

#include "core/calibration.h"
#include "core/error_analysis.h"
#include "core/pipeline.h"
#include "testdata/spouse_app.h"
#include "util/failpoint.h"

namespace dd {
namespace {

PipelineOptions FastOptions() {
  PipelineOptions options;
  options.learn.epochs = 150;
  options.learn.learning_rate = 0.05;
  options.learn.decay = 0.99;
  options.learn.l2 = 0.005;
  options.inference.full_burn_in = 100;
  options.inference.num_samples = 400;
  options.threshold = 0.7;
  options.strategy = PipelineOptions::Strategy::kSampling;
  return options;
}

TEST(PipelineTest, SpouseEndToEndQuality) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 120;
  corpus_opts.seed = 11;
  SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);

  SpouseAppOptions app;
  auto pipeline = MakeSpousePipeline(corpus, app, FastOptions());
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ASSERT_TRUE((*pipeline)->Run().ok());

  auto extractions = (*pipeline)->Extractions("MarriedPair");
  ASSERT_TRUE(extractions.ok()) << extractions.status().ToString();
  auto truth = SpouseTruthTuples(corpus);
  EvaluationResult metrics = Evaluate(*extractions, truth);

  // The paper's claim: with features + distant supervision the system
  // reaches high quality. On the synthetic corpus (complete truth) we
  // demand strong precision and recall.
  EXPECT_GT(metrics.precision, 0.8) << "precision too low";
  EXPECT_GT(metrics.recall, 0.6) << "recall too low";
  EXPECT_GT(metrics.f1, 0.7);

  // Phase timings were recorded (Figure 2's quantities).
  const PhaseTimings& t = (*pipeline)->timings();
  EXPECT_GT(t.extraction_seconds, 0.0);
  EXPECT_GT(t.grounding_seconds, 0.0);
  EXPECT_GT(t.learning_seconds, 0.0);
  EXPECT_GT(t.inference_seconds, 0.0);
}

TEST(PipelineTest, MarginalsAreProbabilities) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 40;
  corpus_opts.seed = 12;
  SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);
  auto pipeline = MakeSpousePipeline(corpus, SpouseAppOptions(), FastOptions());
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Run().ok());
  auto marginals = (*pipeline)->Marginals("MarriedMention");
  ASSERT_TRUE(marginals.ok());
  EXPECT_FALSE(marginals->empty());
  for (const auto& [tuple, p] : *marginals) {
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(PipelineTest, IncrementalUpdateAddsDocuments) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 60;
  corpus_opts.seed = 13;
  SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);

  // First run with the first 40 documents.
  PipelineOptions options = FastOptions();
  options.anticipated_changes = 10;
  auto pipeline = std::make_unique<DeepDivePipeline>(options);
  SpouseAppOptions app;
  ASSERT_TRUE(pipeline->LoadProgram(SpouseDdlog(app)).ok());
  pipeline->RegisterExtractor(MakeSpouseExtractor(app));
  LoadSpouseKb(pipeline.get(), corpus, app);
  for (size_t d = 0; d < 40; ++d) {
    ASSERT_TRUE(
        pipeline->AddDocument(corpus.documents[d].first, corpus.documents[d].second)
            .ok());
  }
  ASSERT_TRUE(pipeline->Run().ok());
  size_t factors_before = pipeline->grounding_stats().num_factors;

  // Incremental run over the remaining documents.
  for (size_t d = 40; d < corpus.documents.size(); ++d) {
    ASSERT_TRUE(
        pipeline->AddDocument(corpus.documents[d].first, corpus.documents[d].second)
            .ok());
  }
  ASSERT_TRUE(pipeline->Run().ok());
  EXPECT_GT(pipeline->grounding_stats().num_factors, factors_before);

  // Marginals exist for candidates from the new documents too.
  auto marginals = pipeline->Marginals("MarriedMention");
  ASSERT_TRUE(marginals.ok());
  EXPECT_FALSE(marginals->empty());
}

TEST(PipelineTest, WriteMarginalTables) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 30;
  corpus_opts.seed = 14;
  SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);
  auto pipeline = MakeSpousePipeline(corpus, SpouseAppOptions(), FastOptions());
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->Run().ok());
  ASSERT_TRUE((*pipeline)->WriteMarginalTables().ok());
  auto table = (*pipeline)->catalog()->GetTable("MarriedPair__marginals");
  ASSERT_TRUE(table.ok());
  EXPECT_GT((*table)->size(), 0u);
  // prob column is a double in [0, 1].
  for (const Tuple& row : (*table)->Scan()) {
    const Value& prob = row.at(row.size() - 1);
    ASSERT_EQ(prob.type(), ValueType::kDouble);
    EXPECT_GE(prob.AsDouble(), 0.0);
    EXPECT_LE(prob.AsDouble(), 1.0);
  }
}

TEST(PipelineTest, DuplicateDocumentIdRejectedBeforeAndAfterRun) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 12;
  corpus_opts.seed = 15;
  SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);
  auto pipeline = MakeSpousePipeline(corpus, SpouseAppOptions(), FastOptions());
  ASSERT_TRUE(pipeline.ok());
  DeepDivePipeline& p = **pipeline;
  const auto& [first_id, first_text] = corpus.documents.front();
  EXPECT_EQ(p.AddDocument(first_id, first_text).code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(p.Run().ok());
  // Processed documents stay registered: re-adding one after the run is
  // still rejected, and so is a second copy of a freshly queued one.
  EXPECT_EQ(p.AddDocument(first_id, "other text").code(), StatusCode::kAlreadyExists);
  ASSERT_TRUE(p.AddDocument("fresh", first_text).ok());
  EXPECT_EQ(p.AddDocument("fresh", first_text).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(p.documents().size(), corpus.documents.size() + 1);
}

TEST(PipelineTest, FailedRunChangesAreResampledByNextRun) {
  // Each candidate Q(i) is its own component; Strong(i) adds a fixed
  // factor of weight 4 (marginal ~0.98), without it the marginal is 0.5.
  PipelineOptions options = FastOptions();
  options.num_threads = 1;
  DeepDivePipeline pipeline(options);
  ASSERT_TRUE(pipeline
                  .LoadProgram(R"(
    Cand(id: int).
    Strong(id: int).
    Q?(id: int).
    Q(id) :- Cand(id).
    Q(id) :- Cand(id), Strong(id) weight = 4.0.
  )")
                  .ok());
  for (int i = 0; i < 4; ++i) {
    pipeline.QueueDelta("Cand", Tuple({Value::Int(i)}), 1);
    pipeline.QueueDelta("Strong", Tuple({Value::Int(i)}), 1);
  }
  ASSERT_TRUE(pipeline.Run().ok());
  auto before = pipeline.ProbabilityOf("Q", Tuple({Value::Int(1)}));
  ASSERT_TRUE(before.ok());
  EXPECT_GT(*before, 0.9);
  auto kept = pipeline.ProbabilityOf("Q", Tuple({Value::Int(0)}));
  ASSERT_TRUE(kept.ok());

  // The first delta is grounded, then the run fails before inference.
  pipeline.QueueDelta("Strong", Tuple({Value::Int(1)}), -1);
  FailpointConfig fail;
  fail.max_hits = 1;
  Failpoints::Instance().Enable(failpoints::kPipelinePhase, fail);
  const Status failed = pipeline.Run();
  Failpoints::Instance().Reset();
  ASSERT_FALSE(failed.ok());

  // The next run grounds an unrelated delta; Q(1)'s component, changed
  // only by the failed run's delta, must still be resampled.
  pipeline.QueueDelta("Cand", Tuple({Value::Int(9)}), 1);
  ASSERT_TRUE(pipeline.Run().ok());
  auto after = pipeline.ProbabilityOf("Q", Tuple({Value::Int(1)}));
  ASSERT_TRUE(after.ok());
  EXPECT_NEAR(*after, 0.5, 0.15);
  auto untouched = pipeline.ProbabilityOf("Q", Tuple({Value::Int(0)}));
  ASSERT_TRUE(untouched.ok());
  EXPECT_EQ(*untouched, *kept);
}

TEST(PipelineTest, ErrorsBeforeRun) {
  DeepDivePipeline pipeline;
  EXPECT_FALSE(pipeline.Run().ok());  // no program
  EXPECT_FALSE(pipeline.Marginals("X").ok());
  EXPECT_FALSE(pipeline.ProbabilityOf("X", Tuple()).ok());
}

TEST(PipelineTest, DuplicateDocumentRejected) {
  DeepDivePipeline pipeline;
  ASSERT_TRUE(pipeline.AddDocument("d1", "Some text.").ok());
  EXPECT_EQ(pipeline.AddDocument("d1", "Other text.").code(),
            StatusCode::kAlreadyExists);
}

TEST(CalibrationTest, PerfectPredictionsCalibrate) {
  std::vector<double> probs;
  std::vector<int> truth;
  // 100 items at p=0.95 of which 95 true; 100 at p=0.05 of which 5 true.
  for (int i = 0; i < 100; ++i) {
    probs.push_back(0.95);
    truth.push_back(i < 95 ? 1 : 0);
    probs.push_back(0.05);
    truth.push_back(i < 5 ? 1 : 0);
  }
  auto report = CalibrationReport::Build(probs, truth, 10);
  EXPECT_LT(report.MaxCalibrationGap(), 0.05);
  EXPECT_DOUBLE_EQ(report.ExtremeMassFraction(), 1.0);  // perfect U-shape
  EXPECT_FALSE(report.ToText().empty());
}

TEST(CalibrationTest, MiscalibratedDetected) {
  std::vector<double> probs(100, 0.9);
  std::vector<int> truth(100, 0);  // all wrong
  auto report = CalibrationReport::Build(probs, truth, 10);
  EXPECT_GT(report.MaxCalibrationGap(), 0.8);
}

TEST(CalibrationTest, UnknownTruthIgnored) {
  std::vector<double> probs = {0.5, 0.5, 0.5};
  std::vector<int> truth = {-1, -1, -1};
  auto report = CalibrationReport::Build(probs, truth, 10);
  EXPECT_DOUBLE_EQ(report.MaxCalibrationGap(), 0.0);  // no labeled buckets
}

TEST(ErrorAnalysisTest, MetricsAndBuckets) {
  std::unordered_set<Tuple, TupleHash> truth;
  truth.insert(Tuple({Value::Int(1)}));
  truth.insert(Tuple({Value::Int(2)}));
  truth.insert(Tuple({Value::Int(3)}));

  std::vector<std::pair<Tuple, double>> marginals = {
      {Tuple({Value::Int(1)}), 0.95},  // TP
      {Tuple({Value::Int(2)}), 0.40},  // FN (below threshold)
      {Tuple({Value::Int(9)}), 0.99},  // FP
  };
  // Int(3) never became a candidate -> FN via candidate-generation miss.
  auto analysis = ErrorAnalysis::Build(
      marginals, 0.9, truth,
      [](const Tuple&, bool is_fp) {
        return is_fp ? std::string("bad extraction") : std::string("missed");
      });
  EXPECT_EQ(analysis.metrics().true_positives, 1u);
  EXPECT_EQ(analysis.metrics().false_positives, 1u);
  EXPECT_EQ(analysis.metrics().false_negatives, 2u);
  ASSERT_EQ(analysis.buckets().size(), 2u);
  EXPECT_EQ(analysis.buckets()[0].tag, "missed");  // 2 errors, sorted first
  EXPECT_EQ(analysis.buckets()[0].count, 2u);
  EXPECT_FALSE(analysis.ToText().empty());
}

TEST(ErrorAnalysisTest, PerfectExtractionHasNoBuckets) {
  std::unordered_set<Tuple, TupleHash> truth;
  truth.insert(Tuple({Value::Int(1)}));
  std::vector<std::pair<Tuple, double>> marginals = {{Tuple({Value::Int(1)}), 0.99}};
  auto analysis = ErrorAnalysis::Build(marginals, 0.9, truth,
                                       [](const Tuple&, bool) { return "x"; });
  EXPECT_DOUBLE_EQ(analysis.metrics().f1, 1.0);
  EXPECT_TRUE(analysis.buckets().empty());
}

}  // namespace
}  // namespace dd
