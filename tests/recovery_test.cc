#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/pipeline.h"
#include "core/udf.h"
#include "factor/io.h"
#include "inference/incremental.h"
#include "inference/learner.h"
#include "testdata/spouse_app.h"
#include "testdata/synthetic_graphs.h"
#include "util/crc32c.h"
#include "util/failpoint.h"

namespace dd {
namespace {

// ---- CRC32C -----------------------------------------------------------

TEST(Crc32cTest, KnownVector) {
  // The iSCSI/RFC 3720 check value for "123456789".
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t chained = Crc32cExtend(0, data.data(), 10);
  chained = Crc32cExtend(chained, data.data() + 10, data.size() - 10);
  EXPECT_EQ(chained, Crc32c(data.data(), data.size()));
}

// ---- Exact double metadata round trip ---------------------------------

TEST(ExactDoubleTest, RoundTripsBitExactly) {
  for (double v : {0.0, 1.0, -1.0, 0.1, 3.14159265358979, -1e-300, 1e300,
                   0.05 * 0.99 * 0.99}) {
    auto parsed = ParseExactDouble(FormatExactDouble(v));
    ASSERT_TRUE(parsed.ok()) << FormatExactDouble(v);
    EXPECT_EQ(*parsed, v);
  }
  EXPECT_FALSE(ParseExactDouble("not a number").ok());
  EXPECT_FALSE(ParseExactDouble("1.5 trailing").ok());
}

// ---- Snapshot container -----------------------------------------------

TEST(SnapshotContainerTest, RoundTrip) {
  SnapshotWriter writer;
  writer.AddSection("AAAA", "first payload");
  writer.AddSection("BBBB", std::string("\x00\x01\x02", 3));
  const std::string bytes = writer.Encode();
  auto reader = SnapshotView::Parse(bytes);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->Has("AAAA"));
  ASSERT_TRUE(reader->Section("AAAA").ok());
  EXPECT_EQ(*reader->Section("AAAA"), "first payload");
  EXPECT_EQ(reader->Section("BBBB")->size(), 3u);
  EXPECT_FALSE(reader->Has("CCCC"));
  EXPECT_FALSE(reader->Section("CCCC").ok());
}

GraphSnapshot MakeTestSnapshot(uint64_t seed) {
  SyntheticGraphOptions options;
  options.num_variables = 12;
  options.factors_per_variable = 2.0;
  options.evidence_fraction = 0.25;
  options.num_weights = 6;
  options.seed = seed;

  GraphSnapshot snap;
  snap.has_graph = true;
  snap.graph = MakeRandomGraph(options);
  snap.weights = {0.5, -1.25, 3.0, 0.0, 1e-12, -7.5};
  snap.chains = {{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 0, 1},
                 {0, 0, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1}};
  snap.counts = {4, 0, 9, 2, 7, 1, 3, 8, 5, 6, 0, 9};
  snap.marginals = {0.1, 0.9, 0.5, 0.25, 0.75, 0.0,
                    1.0, 0.33, 0.66, 0.2, 0.8, 0.4};
  snap.rng_states = {{123, 456}, {789, 1011}};
  snap.meta["epoch"] = "17";
  snap.meta["lr"] = FormatExactDouble(0.05 * 0.99);
  return snap;
}

void ExpectSnapshotsEqual(const GraphSnapshot& a, const GraphSnapshot& b) {
  EXPECT_EQ(a.has_graph, b.has_graph);
  if (a.has_graph && b.has_graph) {
    EXPECT_EQ(SerializeGraph(a.graph), SerializeGraph(b.graph));
  }
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.chains, b.chains);
  EXPECT_EQ(a.counts, b.counts);
  EXPECT_EQ(a.marginals, b.marginals);
  ASSERT_EQ(a.rng_states.size(), b.rng_states.size());
  for (size_t i = 0; i < a.rng_states.size(); ++i) {
    EXPECT_EQ(a.rng_states[i].s0, b.rng_states[i].s0);
    EXPECT_EQ(a.rng_states[i].s1, b.rng_states[i].s1);
  }
  EXPECT_EQ(a.meta, b.meta);
}

TEST(GraphSnapshotTest, RoundTripBitExact) {
  GraphSnapshot snap = MakeTestSnapshot(3);
  auto decoded = DecodeGraphSnapshot(EncodeGraphSnapshot(snap));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSnapshotsEqual(snap, *decoded);
}

// ---- Corruption sweeps -------------------------------------------------
//
// The recovery invariant: a damaged snapshot either decodes bit-exactly
// (impossible here — every mutation changes bytes under CRC) or fails
// with Corruption. It must never crash, loop, or silently succeed.

class CorruptionSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorruptionSweepTest, TruncationAtEveryByteIsCorruption) {
  std::string bytes = EncodeGraphSnapshot(MakeTestSnapshot(GetParam()));
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    auto decoded = DecodeGraphSnapshot(bytes.substr(0, cut));
    ASSERT_FALSE(decoded.ok()) << "truncation at " << cut << " accepted";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << "truncation at " << cut << ": " << decoded.status().ToString();
  }
}

TEST_P(CorruptionSweepTest, BitFlipAtEveryByteIsCorruption) {
  const std::string bytes = EncodeGraphSnapshot(MakeTestSnapshot(GetParam()));
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
    auto decoded = DecodeGraphSnapshot(flipped);
    ASSERT_FALSE(decoded.ok()) << "bit flip at byte " << i << " accepted";
    EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption)
        << "bit flip at byte " << i << ": " << decoded.status().ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionSweepTest, ::testing::Values(1, 2, 7));

// ---- File-level durability --------------------------------------------

class RecoveryFileTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().Reset(); }

  std::string TempPath(const std::string& name) {
    std::string path = ::testing::TempDir() + name;
    std::remove(path.c_str());
    return path;
  }
};

TEST_F(RecoveryFileTest, WriteReadRoundTrip) {
  std::string path = TempPath("snap_roundtrip.snap");
  GraphSnapshot snap = MakeTestSnapshot(4);
  ASSERT_TRUE(WriteGraphSnapshot(snap, path).ok());
  auto loaded = ReadGraphSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectSnapshotsEqual(snap, *loaded);
  // No temp file left behind.
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

TEST_F(RecoveryFileTest, MissingFileIsError) {
  EXPECT_FALSE(ReadGraphSnapshot(TempPath("never_written.snap")).ok());
}

TEST_F(RecoveryFileTest, TruncatedFileIsCorruption) {
  std::string path = TempPath("snap_truncated.snap");
  std::string bytes = EncodeGraphSnapshot(MakeTestSnapshot(5));
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
  std::fclose(f);
  auto loaded = ReadGraphSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(RecoveryFileTest, ShortWriteFailpointYieldsDetectablyTornFile) {
  std::string path = TempPath("snap_torn.snap");
  ASSERT_TRUE(Failpoints::Instance()
                  .Configure("factor_io.write=short_write(keep=0.5,hits=1)")
                  .ok());
  // The simulated half-persisted buffer reaches disk...
  ASSERT_TRUE(WriteGraphSnapshot(MakeTestSnapshot(6), path).ok());
  Failpoints::Instance().Reset();
  // ...and the reader refuses it instead of crashing.
  auto loaded = ReadGraphSnapshot(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kCorruption);
}

TEST_F(RecoveryFileTest, RenameFailpointLeavesNoFile) {
  std::string path = TempPath("snap_rename_fail.snap");
  ASSERT_TRUE(
      Failpoints::Instance().Configure("factor_io.rename=ioerror(hits=1)").ok());
  Status status = WriteGraphSnapshot(MakeTestSnapshot(6), path);
  Failpoints::Instance().Reset();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_FALSE(FileExists(path));
  EXPECT_FALSE(FileExists(path + ".tmp"));
}

// ---- Run directory / manifest -----------------------------------------

TEST_F(RecoveryFileTest, RunDirectoryManifestRoundTrip) {
  RunDirectory dir(::testing::TempDir() + "run_dir_test");
  ASSERT_TRUE(dir.Create().ok());
  ASSERT_TRUE(dir.Create().ok());  // idempotent
  ASSERT_TRUE(dir.Clear().ok());
  EXPECT_FALSE(dir.HasManifest());
  ASSERT_TRUE(dir.WriteManifest({{"graph_crc", "42"}, {"phase", "learned"}}).ok());
  ASSERT_TRUE(dir.HasManifest());
  auto manifest = dir.ReadManifest();
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ((*manifest)["graph_crc"], "42");
  EXPECT_EQ((*manifest)["phase"], "learned");
  ASSERT_TRUE(dir.Clear().ok());
  EXPECT_FALSE(dir.HasManifest());
}

// ---- Learner: divergence + resume -------------------------------------

FactorGraph MakeLearnGraph() {
  SyntheticGraphOptions options;
  options.num_variables = 24;
  options.factors_per_variable = 2.5;
  options.evidence_fraction = 0.4;
  options.num_weights = 8;
  options.seed = 5;
  return MakeRandomGraph(options);
}

TEST(LearnerDivergenceTest, ExplodingStepSizeIsReported) {
  FactorGraph graph = MakeLearnGraph();
  LearnOptions options;
  options.epochs = 50;
  options.learning_rate = 1e300;  // guaranteed overflow on any gradient
  options.seed = 77;
  Status status = Learner(&graph).Learn(options);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("diverged"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("weight"), std::string::npos);
}

class LearnerResumeTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().Reset(); }
};

TEST_F(LearnerResumeTest, InterruptedRunResumesBitIdentically) {
  LearnOptions options;
  options.epochs = 40;
  options.seed = 99;
  options.checkpoint_interval = 7;

  // Reference: uninterrupted, no durability.
  FactorGraph reference = MakeLearnGraph();
  ASSERT_TRUE(Learner(&reference).Learn(options).ok());

  std::string dir = ::testing::TempDir() + "learner_resume";
  ASSERT_TRUE(RunDirectory(dir).Create().ok());
  ASSERT_TRUE(RunDirectory(dir).Clear().ok());
  LearnOptions durable = options;
  durable.checkpoint_dir = dir;

  // Interrupted run: epochs 0..22 execute, epoch 23 dies.
  ASSERT_TRUE(
      Failpoints::Instance().Configure("learner.epoch=error(skip=23)").ok());
  FactorGraph interrupted = MakeLearnGraph();
  Status status = Learner(&interrupted).Learn(durable);
  Failpoints::Instance().Reset();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);

  // "Process restart": a fresh graph + learner resume from the last
  // checkpoint (epoch 21) and finish.
  FactorGraph resumed = MakeLearnGraph();
  Learner learner(&resumed);
  ASSERT_TRUE(learner.Learn(durable).ok());
  EXPECT_EQ(learner.resumed_from_epoch(), 21);

  ASSERT_EQ(resumed.num_weights(), reference.num_weights());
  for (uint32_t w = 0; w < reference.num_weights(); ++w) {
    EXPECT_EQ(resumed.weight_value(w), reference.weight_value(w))
        << "weight " << w << " differs after resume";
  }
}

TEST_F(LearnerResumeTest, CheckpointFromAnotherSeedIsRejected) {
  std::string dir = ::testing::TempDir() + "learner_foreign";
  ASSERT_TRUE(RunDirectory(dir).Create().ok());
  ASSERT_TRUE(RunDirectory(dir).Clear().ok());
  LearnOptions options;
  options.epochs = 10;
  options.seed = 99;
  options.checkpoint_dir = dir;
  FactorGraph first = MakeLearnGraph();
  ASSERT_TRUE(Learner(&first).Learn(options).ok());

  // learn.snap now holds seed 99's chains; another seed must not adopt them.
  options.seed = 100;
  FactorGraph second = MakeLearnGraph();
  Status status = Learner(&second).Learn(options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

// ---- Incremental inference: materialization resume --------------------

class InferenceResumeTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().Reset(); }
};

TEST_F(InferenceResumeTest, SamplingMaterializationResumesBitIdentically) {
  FactorGraph graph = MakeLearnGraph();
  IncrementalOptions options;
  options.full_burn_in = 50;
  options.num_samples = 100;
  options.seed = 31;
  options.checkpoint_interval = 20;

  IncrementalInference reference(&graph, MaterializationStrategy::kSampling,
                                 options);
  ASSERT_TRUE(reference.Materialize().ok());

  std::string path = ::testing::TempDir() + "sampling_resume.snap";
  std::remove(path.c_str());
  IncrementalOptions durable = options;
  durable.checkpoint_path = path;

  // Die at sweep 70 (after the checkpoint at sweep 60).
  ASSERT_TRUE(
      Failpoints::Instance().Configure("inference.sweep=error(skip=70)").ok());
  IncrementalInference interrupted(&graph, MaterializationStrategy::kSampling,
                                   durable);
  ASSERT_FALSE(interrupted.Materialize().ok());
  Failpoints::Instance().Reset();

  IncrementalInference resumed(&graph, MaterializationStrategy::kSampling,
                               durable);
  ASSERT_TRUE(resumed.Materialize().ok());

  ASSERT_EQ(resumed.marginals().size(), reference.marginals().size());
  for (size_t v = 0; v < reference.marginals().size(); ++v) {
    EXPECT_EQ(resumed.marginals()[v], reference.marginals()[v])
        << "marginal " << v << " differs after resume";
  }
  std::remove(path.c_str());
}

// A checkpoint taken past burn-in resumes only under the schedule that
// wrote it: another num_samples would mix two schedules' tallies.
TEST_F(InferenceResumeTest, SamplingResumeUnderAnotherScheduleIsRejected) {
  FactorGraph graph = MakeLearnGraph();
  IncrementalOptions options;
  options.full_burn_in = 50;
  options.num_samples = 100;
  options.seed = 31;
  options.checkpoint_interval = 20;
  IncrementalInference reference(&graph, MaterializationStrategy::kSampling,
                                 options);
  ASSERT_TRUE(reference.Materialize().ok());

  IncrementalOptions durable = options;
  durable.checkpoint_path = ::testing::TempDir() + "sampling_schedule.snap";
  std::remove(durable.checkpoint_path.c_str());
  // Die at sweep 70: the last checkpoint (sweep 60) is past burn-in.
  ASSERT_TRUE(
      Failpoints::Instance().Configure("inference.sweep=error(skip=70)").ok());
  ASSERT_FALSE(IncrementalInference(&graph, MaterializationStrategy::kSampling,
                                    durable)
                   .Materialize()
                   .ok());
  Failpoints::Instance().Reset();

  for (auto change : {&IncrementalOptions::num_samples,
                      &IncrementalOptions::full_burn_in}) {
    IncrementalOptions other = durable;
    other.*change += 20;
    Status status = IncrementalInference(&graph, MaterializationStrategy::kSampling,
                                         other)
                        .Materialize();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
  }

  IncrementalInference resumed(&graph, MaterializationStrategy::kSampling,
                               durable);
  ASSERT_TRUE(resumed.Materialize().ok());
  EXPECT_EQ(resumed.marginals(), reference.marginals());
  std::remove(durable.checkpoint_path.c_str());
}

TEST_F(InferenceResumeTest, ForeignSamplingCheckpointIsRejected) {
  FactorGraph graph = MakeLearnGraph();
  IncrementalOptions options;
  options.full_burn_in = 10;
  options.num_samples = 20;
  options.checkpoint_path = ::testing::TempDir() + "sampling_foreign.snap";
  std::remove(options.checkpoint_path.c_str());
  ASSERT_TRUE(IncrementalInference(&graph, MaterializationStrategy::kSampling,
                                   options)
                  .Materialize()
                  .ok());
  auto valid = ReadGraphSnapshot(options.checkpoint_path);
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  auto materialize = [&](const GraphSnapshot& snap) {
    EXPECT_TRUE(WriteGraphSnapshot(snap, options.checkpoint_path).ok());
    return IncrementalInference(&graph, MaterializationStrategy::kSampling, options)
        .Materialize();
  };
  EXPECT_TRUE(materialize(*valid).ok());

  // Another kind of checkpoint at the path is foreign: InvalidArgument.
  GraphSnapshot wrong_kind = *valid;
  wrong_kind.meta["kind"] = "learner";
  Status status = materialize(wrong_kind);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();

  // A counter that is not a number is damage: Corruption.
  GraphSnapshot bad_sweeps = *valid;
  bad_sweeps.meta["sweeps"] = "12x";
  status = materialize(bad_sweeps);
  EXPECT_EQ(status.code(), StatusCode::kCorruption) << status.ToString();
  std::remove(options.checkpoint_path.c_str());
}

TEST_F(InferenceResumeTest, VariationalCheckpointIsReused) {
  FactorGraph graph = MakeLearnGraph();
  IncrementalOptions options;
  options.checkpoint_path = ::testing::TempDir() + "variational.snap";
  std::remove(options.checkpoint_path.c_str());

  IncrementalInference first(&graph, MaterializationStrategy::kVariational,
                             options);
  ASSERT_TRUE(first.Materialize().ok());
  EXPECT_GT(first.last_work_units(), 0u);

  IncrementalInference second(&graph, MaterializationStrategy::kVariational,
                              options);
  ASSERT_TRUE(second.Materialize().ok());
  EXPECT_EQ(second.last_work_units(), 0u);  // loaded, not recomputed
  EXPECT_EQ(second.marginals(), first.marginals());
  std::remove(options.checkpoint_path.c_str());
}

// ---- Extractor quarantine ---------------------------------------------

constexpr char kTinyProgram[] = "T(x: int).\nQ?(x: int).\nQ(x) :- T(x).";

class QuarantineTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().Reset(); }
};

TEST_F(QuarantineTest, FlakyExtractorIsRetriedOnce) {
  DeepDivePipeline pipeline;
  ASSERT_TRUE(pipeline.LoadProgram(kTinyProgram).ok());
  auto failures = std::make_shared<int>(0);
  pipeline.RegisterExtractor(
      [failures](const Document& doc, TupleEmitter* emitter) -> Status {
        if (doc.id == "flaky" && (*failures)++ == 0) {
          return Status::Internal("transient failure");
        }
        emitter->Emit("T", Tuple({Value::Int(1)}));
        return Status::OK();
      });
  ASSERT_TRUE(pipeline.AddDocument("ok", "text").ok());
  ASSERT_TRUE(pipeline.AddDocument("flaky", "text").ok());
  ASSERT_TRUE(pipeline.Run().ok());
  EXPECT_EQ(pipeline.run_stats().documents_processed, 2u);
  EXPECT_EQ(pipeline.run_stats().extractor_retries, 1u);
  EXPECT_EQ(pipeline.run_stats().documents_quarantined, 0u);
}

TEST_F(QuarantineTest, PersistentFailureIsQuarantinedAndReported) {
  DeepDivePipeline pipeline;
  ASSERT_TRUE(pipeline.LoadProgram(kTinyProgram).ok());
  pipeline.RegisterExtractor(
      [](const Document& doc, TupleEmitter* emitter) -> Status {
        if (doc.id == "bad") return Status::Internal("udf bug");
        emitter->Emit("T", Tuple({Value::Int(doc.id == "a" ? 1 : 2)}));
        return Status::OK();
      });
  ASSERT_TRUE(pipeline.AddDocument("a", "text").ok());
  ASSERT_TRUE(pipeline.AddDocument("bad", "text").ok());
  ASSERT_TRUE(pipeline.AddDocument("c", "text").ok());
  ASSERT_TRUE(pipeline.Run().ok());  // 1/3 quarantined is below the threshold

  const RunStats& stats = pipeline.run_stats();
  EXPECT_EQ(stats.documents_processed, 2u);
  EXPECT_EQ(stats.documents_quarantined, 1u);
  ASSERT_EQ(stats.quarantined.size(), 1u);
  EXPECT_EQ(stats.quarantined[0].document_id, "bad");
  EXPECT_EQ(stats.quarantined[0].error.code(), StatusCode::kInternal);

  std::string summary = pipeline.RunSummary();
  EXPECT_NE(summary.find("quarantined 'bad'"), std::string::npos) << summary;
  EXPECT_NE(summary.find("udf bug"), std::string::npos) << summary;
}

TEST_F(QuarantineTest, MajorityFailureFailsTheRun) {
  DeepDivePipeline pipeline;
  ASSERT_TRUE(pipeline.LoadProgram(kTinyProgram).ok());
  pipeline.RegisterExtractor(
      [](const Document&, TupleEmitter*) -> Status {
        return Status::Internal("systematically broken");
      });
  ASSERT_TRUE(pipeline.AddDocument("a", "text").ok());
  ASSERT_TRUE(pipeline.AddDocument("b", "text").ok());
  Status status = pipeline.Run();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("systematically broken"), std::string::npos);
}

TEST_F(QuarantineTest, ExtractorFailpointDrivesRetry) {
  ASSERT_TRUE(
      Failpoints::Instance().Configure("pipeline.extractor=error(hits=1)").ok());
  DeepDivePipeline pipeline;
  ASSERT_TRUE(pipeline.LoadProgram(kTinyProgram).ok());
  pipeline.RegisterExtractor(
      [](const Document&, TupleEmitter* emitter) -> Status {
        emitter->Emit("T", Tuple({Value::Int(1)}));
        return Status::OK();
      });
  ASSERT_TRUE(pipeline.AddDocument("a", "text").ok());
  ASSERT_TRUE(pipeline.Run().ok());  // injected failure absorbed by the retry
  EXPECT_EQ(pipeline.run_stats().extractor_retries, 1u);
  EXPECT_EQ(pipeline.run_stats().documents_quarantined, 0u);
}

// ---- UDF error messages -----------------------------------------------

TEST(UdfMessageTest, NotFoundNamesUdfAndArity) {
  UdfRegistry registry;
  auto missing = registry.Call("phrase", {Value::Int(1), Value::Int(2)});
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
  EXPECT_NE(missing.status().message().find("phrase"), std::string::npos);
  EXPECT_NE(missing.status().message().find("2 args"), std::string::npos);
}

TEST(UdfMessageTest, UdfErrorsAreWrappedWithNameAndArity) {
  UdfRegistry registry;
  auto bad_arity = registry.Call("identity", {});
  ASSERT_FALSE(bad_arity.ok());
  EXPECT_EQ(bad_arity.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_arity.status().message().find("UDF 'identity' (0 args)"),
            std::string::npos)
      << bad_arity.status().ToString();
}

// ---- Pipeline: kill-and-resume ----------------------------------------

PipelineOptions RecoveryPipelineOptions() {
  PipelineOptions options;
  options.learn.epochs = 60;
  options.learn.learning_rate = 0.05;
  options.learn.checkpoint_interval = 10;
  options.inference.full_burn_in = 60;
  options.inference.num_samples = 200;
  options.inference.checkpoint_interval = 50;
  options.threshold = 0.7;
  options.strategy = PipelineOptions::Strategy::kSampling;
  return options;
}

SpouseCorpus RecoveryCorpus() {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 30;
  corpus_opts.seed = 21;
  return GenerateSpouseCorpus(corpus_opts);
}

TEST(PipelineRecoveryDeathTest, KillAndResumeIsBitIdentical) {
  SpouseCorpus corpus = RecoveryCorpus();
  PipelineOptions options = RecoveryPipelineOptions();

  // Reference: uninterrupted run, no durability.
  auto reference = MakeSpousePipeline(corpus, SpouseAppOptions(), options);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ASSERT_TRUE((*reference)->Run().ok());
  auto ref_marginals = (*reference)->Marginals("MarriedMention");
  ASSERT_TRUE(ref_marginals.ok());
  ASSERT_FALSE(ref_marginals->empty());

  std::string dir = ::testing::TempDir() + "pipeline_kill";
  ASSERT_TRUE(RunDirectory(dir).Create().ok());
  ASSERT_TRUE(RunDirectory(dir).Clear().ok());

  // Child process: same pipeline with a run directory, killed abruptly
  // mid-learning by the crash failpoint. _Exit(42) models kill -9 while
  // keeping the exit observable.
  EXPECT_EXIT(
      {
        ASSERT_TRUE(Failpoints::Instance()
                        .Configure("learner.epoch=crash(skip=35)")
                        .ok());
        auto victim = MakeSpousePipeline(corpus, SpouseAppOptions(), options);
        ASSERT_TRUE(victim.ok());
        ASSERT_TRUE((*victim)->SetRunDirectory(dir).ok());
        (void)(*victim)->Run();  // never returns: dies at epoch 35
        std::_Exit(1);
      },
      ::testing::ExitedWithCode(kFailpointCrashExitCode), "crash injected");

  // Parent: rebuild the same pipeline, resume, finish.
  auto resumed = MakeSpousePipeline(corpus, SpouseAppOptions(), options);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE((*resumed)->ResumeFrom(dir).ok());
  ASSERT_TRUE((*resumed)->Run().ok()) << (*resumed)->RunSummary();

  auto res_marginals = (*resumed)->Marginals("MarriedMention");
  ASSERT_TRUE(res_marginals.ok());
  ASSERT_EQ(res_marginals->size(), ref_marginals->size());
  for (size_t i = 0; i < ref_marginals->size(); ++i) {
    EXPECT_EQ((*res_marginals)[i].second, (*ref_marginals)[i].second)
        << "marginal " << i << " differs after kill + resume";
  }
}

TEST(PipelineRecoveryTest, ResumeFromForeignRunDirectoryIsRejected) {
  SpouseCorpus corpus = RecoveryCorpus();
  std::string dir = ::testing::TempDir() + "foreign_run";
  ASSERT_TRUE(RunDirectory(dir).Create().ok());
  ASSERT_TRUE(RunDirectory(dir).Clear().ok());
  // A manifest from some other pipeline's graph.
  ASSERT_TRUE(RunDirectory(dir)
                  .WriteManifest({{"graph_crc", "12345"}, {"phase", "learned"}})
                  .ok());

  auto pipeline =
      MakeSpousePipeline(corpus, SpouseAppOptions(), RecoveryPipelineOptions());
  ASSERT_TRUE(pipeline.ok());
  ASSERT_TRUE((*pipeline)->ResumeFrom(dir).ok());
  Status status = (*pipeline)->Run();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("different pipeline"), std::string::npos);
}

}  // namespace
}  // namespace dd
