#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.h"
#include "factor/graph.h"
#include "factor/io.h"
#include "serve/epoch.h"
#include "serve/loadgen.h"
#include "serve/server.h"
#include "testdata/spouse_app.h"
#include "util/failpoint.h"

namespace dd {
namespace {

// ---- Deterministic epoch fixtures ----------------------------------------

constexpr int kNumRelations = 2;

// Bitwise-deterministic marginal per (epoch, var): pure integer mixing
// then one division, so every thread/machine computes the identical
// double. A reader that observes a response where probability !=
// ExpectedMarginal(response.epoch, var) has seen a torn epoch.
double ExpectedMarginal(uint64_t epoch, uint32_t var) {
  uint64_t h = epoch * 1000003ULL + var * 2654435761ULL;
  h ^= h >> 13;
  h *= 0x9e3779b97f4a7c15ULL;
  h ^= h >> 29;
  return static_cast<double>(h % 100000ULL) / 99999.0;
}

std::string RelationName(int idx) { return "rel" + std::to_string(idx); }

bool VarLive(uint32_t var) { return var % 17 != 3; }

// Variables interleave relations: var v belongs to relation v %
// kNumRelations at row v / kNumRelations.
std::string BuildEpochBytes(uint64_t epoch_id, size_t num_vars) {
  FactorGraph graph;
  uint32_t weight = graph.AddWeight(1.0, false, "serving-test-weight");
  for (size_t v = 0; v < num_vars; ++v) {
    uint32_t id = graph.AddVariable(v % 5 == 0, v % 2 == 0);
    EXPECT_TRUE(graph.AddFactor(FactorFunc::kIsTrue, weight, {{id, true}}).ok());
  }
  EXPECT_TRUE(graph.Finalize().ok());
  std::vector<double> marginals(num_vars);
  std::vector<EpochVarEntry> vars(num_vars);
  for (uint32_t v = 0; v < num_vars; ++v) {
    marginals[v] = ExpectedMarginal(epoch_id, v);
    vars[v] = EpochVarEntry{RelationName(v % kNumRelations),
                            static_cast<int64_t>(v / kNumRelations),
                            VarLive(v)};
  }
  return EncodeEpochSnapshot(graph, marginals, vars, epoch_id);
}

std::string WriteEpochFile(const std::string& name, uint64_t epoch_id,
                           size_t num_vars) {
  std::string path = ::testing::TempDir() + name;
  EXPECT_TRUE(WriteBytesAtomic(BuildEpochBytes(epoch_id, num_vars), path).ok());
  return path;
}

// Epoch directories accumulate state by design (CURRENT survives
// restarts), so directory tests must start from scratch.
std::string FreshDir(const std::string& name) {
  std::string path = ::testing::TempDir() + name;
  std::filesystem::remove_all(path);
  return path;
}

class ServingTest : public ::testing::Test {
 protected:
  void TearDown() override { Failpoints::Instance().Reset(); }
};

// ---- Epoch format ---------------------------------------------------------

TEST_F(ServingTest, EncodeLoadRoundTrip) {
  std::string path = WriteEpochFile("epoch_roundtrip.snap", 3, 64);
  auto epoch = ServingEpoch::Load(path);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(epoch->epoch(), 3u);
  EXPECT_EQ(epoch->num_variables(), 64u);
  EXPECT_EQ(epoch->num_factors(), 64u);
  ASSERT_EQ(epoch->relations().size(), static_cast<size_t>(kNumRelations));
  for (uint32_t v = 0; v < 64; ++v) {
    EXPECT_EQ(epoch->marginal(v), ExpectedMarginal(3, v));  // bitwise
    EXPECT_EQ(epoch->var_live(v), VarLive(v));
    EXPECT_EQ(epoch->var_relation(v), RelationName(v % kNumRelations));
    EXPECT_EQ(epoch->var_row(v), static_cast<int64_t>(v / kNumRelations));
  }
  // Live facts resolve; dead ones are NotFound even though the slot exists.
  for (uint32_t v = 0; v < 64; ++v) {
    auto found = epoch->FindVar(RelationName(v % kNumRelations),
                                static_cast<int64_t>(v / kNumRelations));
    if (VarLive(v)) {
      ASSERT_TRUE(found.ok());
      EXPECT_EQ(*found, v);
    } else {
      EXPECT_EQ(found.status().code(), StatusCode::kNotFound);
    }
  }
  EXPECT_EQ(epoch->FindVar("no_such_relation", 0).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(epoch->FindVar(RelationName(0), 1 << 20).status().code(),
            StatusCode::kNotFound);
}

TEST_F(ServingTest, LoadRejectsNonEpochSnapshot) {
  // A valid DDSN container that is not a serving epoch (a pipeline-style
  // snapshot with META only).
  GraphSnapshot snapshot;
  snapshot.meta["kind"] = "pipeline-manifest";
  std::string path = ::testing::TempDir() + "not_an_epoch.snap";
  ASSERT_TRUE(WriteGraphSnapshot(snapshot, path).ok());
  auto epoch = ServingEpoch::Load(path);
  ASSERT_FALSE(epoch.ok());
  EXPECT_EQ(epoch.status().code(), StatusCode::kCorruption);
}

// Flip every byte of a valid epoch file (one at a time): the loader must
// reject every mutant with an error — never crash, never accept — and a
// server pointed at the mutant must keep serving its current epoch.
TEST_F(ServingTest, EveryByteCorruptionRejectedAndPreviousEpochKeepsServing) {
  const std::string good = BuildEpochBytes(1, 16);
  std::string good_path = ::testing::TempDir() + "corrupt_base.snap";
  ASSERT_TRUE(WriteBytesAtomic(good, good_path).ok());

  KbcServer server;
  ASSERT_TRUE(server.LoadAndSwap(good_path).ok());
  ASSERT_EQ(server.current_epoch_id(), 1u);

  std::string mutant_path = ::testing::TempDir() + "corrupt_mutant.snap";
  for (size_t i = 0; i < good.size(); ++i) {
    std::string mutant = good;
    mutant[i] = static_cast<char>(mutant[i] ^ 0xFF);
    ASSERT_TRUE(WriteBytesAtomic(mutant, mutant_path).ok());
    Status st = server.LoadAndSwap(mutant_path);
    ASSERT_FALSE(st.ok()) << "byte " << i << " flip was accepted";
    ASSERT_EQ(server.current_epoch_id(), 1u)
        << "byte " << i << " flip displaced the serving epoch";
  }
  // Truncations at a few boundaries are rejected too.
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, good.size() / 2,
                     good.size() - 1}) {
    ASSERT_TRUE(WriteBytesAtomic(good.substr(0, len), mutant_path).ok());
    EXPECT_FALSE(server.LoadAndSwap(mutant_path).ok()) << "len " << len;
    EXPECT_EQ(server.current_epoch_id(), 1u);
  }
  EXPECT_GE(server.stats().swap_rejected_invalid, good.size());
}

// Re-encode the epoch `good` with some section contents replaced. CRCs
// are recomputed, so only the loader's semantic checks can reject the
// result (the every-byte sweep above never gets past the section CRC).
std::string RebuildEpoch(const std::string& good,
                         const std::map<std::string, std::string>& replace) {
  auto view = SnapshotView::Parse(good);
  EXPECT_TRUE(view.ok()) << view.status().ToString();
  SnapshotWriter writer;
  for (const char* tag : {"META", "GRBN", "VARS", "PROB", "DICT"}) {
    const bool aligned = std::string(tag) != "META";
    std::string content(aligned ? *view->AlignedSection(tag) : *view->Section(tag));
    if (replace.count(tag) > 0) content = replace.at(tag);
    if (aligned) {
      writer.AddAlignedSection(tag, content);
    } else {
      writer.AddSection(tag, content);
    }
  }
  return writer.Encode();
}

TEST_F(ServingTest, SemanticDefectsRejectedAndPreviousEpochKeepsServing) {
  KbcServer server;
  const std::string current_path = WriteEpochFile("semantic_current.snap", 1, 13);
  ASSERT_TRUE(server.LoadAndSwap(current_path).ok());

  // 13 variables: one liveness word, 52 bytes of relation ids, so VARS
  // carries 4 row-id pad bytes. Layout: count @0, liveness @8, relation
  // ids @16, pad @68, row ids @72; PROB: count @0, marginals @8.
  constexpr size_t kVars = 13;
  const std::string good = BuildEpochBytes(2, kVars);
  auto view = SnapshotView::Parse(good);
  ASSERT_TRUE(view.ok());
  const std::string vars(*view->AlignedSection("VARS"));
  const std::string prob(*view->AlignedSection("PROB"));
  ASSERT_EQ(vars.size(), 72 + 8 * kVars);
  ASSERT_EQ(prob.size(), 8 + 8 * kVars);

  std::string mutant_path = ::testing::TempDir() + "semantic_mutant.snap";
  auto load = [&](const std::map<std::string, std::string>& replace) {
    EXPECT_TRUE(WriteBytesAtomic(RebuildEpoch(good, replace), mutant_path).ok());
    return ServingEpoch::Load(mutant_path).status();
  };
  // The unmodified rebuild loads: the rejections below are each caused by
  // the one defect they plant.
  ASSERT_TRUE(load({}).ok()) << load({}).ToString();

  auto with = [](std::string bytes, size_t at, const std::string& patch) {
    bytes.replace(at, patch.size(), patch);
    return bytes;
  };
  auto u64 = [](uint64_t v) { return std::string(reinterpret_cast<char*>(&v), 8); };
  auto f64 = [](double d) { return std::string(reinterpret_cast<char*>(&d), 8); };
  uint64_t live = 0;
  std::memcpy(&live, vars.data() + 8, 8);
  const std::vector<std::pair<const char*, std::map<std::string, std::string>>>
      defects = {
          {"VARS count != graph variables", {{"VARS", with(vars, 0, u64(kVars + 1))}}},
          {"liveness bit past the count",
           {{"VARS", with(vars, 8, u64(live | 1ull << 20))}}},
          {"nonzero row-id pad byte", {{"VARS", with(vars, 68, "\x01")}}},
          {"relation id >= pool size",
           {{"VARS", with(vars, 16, std::string("\xff\xff\x00\x00", 4))}}},
          {"trailing bytes in VARS", {{"VARS", vars + std::string(1, '\0')}}},
          {"trailing bytes in PROB", {{"PROB", prob + std::string(1, '\0')}}},
          {"PROB count mismatch", {{"PROB", with(prob, 0, u64(kVars - 1))}}},
          {"NaN marginal", {{"PROB", with(prob, 8 + 8 * 4, f64(std::nan("")))}}},
          {"marginal 1.5", {{"PROB", with(prob, 8 + 8 * 4, f64(1.5))}}},
          // Variables 0 and 2 are both live rows of rel0 (rows 0 and 1).
          {"duplicate live (relation, row)",
           {{"VARS", with(vars, 72 + 8 * 2, u64(0))}}},
          {"META variables != graph",
           {{"META", "kind=serving-epoch\nepoch=2\nvariables=14\n"}}},
      };
  for (const auto& [what, replace] : defects) {
    Status st = load(replace);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << what << ": " << st.ToString();
    EXPECT_EQ(server.LoadAndSwap(mutant_path).code(), StatusCode::kCorruption)
        << what;
    EXPECT_EQ(server.current_epoch_id(), 1u) << what << " displaced the epoch";
  }
}

// ---- Epoch directories ----------------------------------------------------

TEST_F(ServingTest, PublishAndCurrentRoundTrip) {
  EpochDirectory dir(FreshDir("epochs_roundtrip"));
  ASSERT_TRUE(dir.Create().ok());
  ASSERT_TRUE(dir.Create().ok());  // idempotent
  EXPECT_EQ(dir.CurrentEpochId().status().code(), StatusCode::kNotFound);

  ASSERT_TRUE(dir.Publish(1, BuildEpochBytes(1, 32)).ok());
  ASSERT_TRUE(dir.Publish(2, BuildEpochBytes(2, 32)).ok());
  auto current = dir.CurrentEpochId();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 2u);

  // Stale and duplicate publishes are refused.
  EXPECT_EQ(dir.Publish(2, BuildEpochBytes(2, 32)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(dir.Publish(1, BuildEpochBytes(1, 32)).code(),
            StatusCode::kInvalidArgument);

  auto file = dir.CurrentEpochFile();
  ASSERT_TRUE(file.ok());
  auto epoch = ServingEpoch::Load(*file);
  ASSERT_TRUE(epoch.ok());
  EXPECT_EQ(epoch->epoch(), 2u);
}

TEST_F(ServingTest, PublishFailpointLeavesPreviousCurrent) {
  EpochDirectory dir(FreshDir("epochs_pubfail"));
  ASSERT_TRUE(dir.Create().ok());
  ASSERT_TRUE(dir.Publish(1, BuildEpochBytes(1, 32)).ok());

  FailpointConfig config;
  config.code = StatusCode::kIoError;
  Failpoints::Instance().Enable(failpoints::kServePublish, config);
  EXPECT_FALSE(dir.Publish(2, BuildEpochBytes(2, 32)).ok());
  Failpoints::Instance().Reset();

  // CURRENT still names epoch 1 and it still loads; the orphaned epoch-2
  // file is harmless and the id can be reused.
  auto current = dir.CurrentEpochId();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 1u);
  ASSERT_TRUE(ServingEpoch::Load(*dir.CurrentEpochFile()).ok());
  EXPECT_TRUE(dir.Publish(2, BuildEpochBytes(2, 32)).ok());
}

// ---- Failpoints on the load/swap path -------------------------------------

TEST_F(ServingTest, LoadFailpointsRejectSwapAndKeepServing) {
  std::string epoch1 = WriteEpochFile("fp_epoch1.snap", 1, 32);
  std::string epoch2 = WriteEpochFile("fp_epoch2.snap", 2, 32);

  for (const char* site :
       {failpoints::kServeEpochLoad, failpoints::kFactorIoRead,
        failpoints::kSnapshotValidate, failpoints::kServeEpochSwap}) {
    SCOPED_TRACE(site);
    ServerOptions options;
    options.load_retry.max_attempts = 1;  // test the sites, not the retry
    KbcServer server(options);
    ASSERT_TRUE(server.Start().ok());
    ASSERT_TRUE(server.LoadAndSwap(epoch1).ok());

    FailpointConfig config;
    config.code = StatusCode::kIoError;
    Failpoints::Instance().Enable(site, config);
    EXPECT_FALSE(server.LoadAndSwap(epoch2).ok());
    Failpoints::Instance().Reset();

    // Still serving epoch 1, and queries still answer.
    EXPECT_EQ(server.current_epoch_id(), 1u);
    QueryRequest request;
    request.relation = RelationName(0);
    request.row = 0;
    auto response = server.Query(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->epoch, 1u);
    EXPECT_EQ(response->probability, ExpectedMarginal(1, 0));

    // Once the fault clears, the swap goes through.
    EXPECT_TRUE(server.LoadAndSwap(epoch2).ok());
    EXPECT_EQ(server.current_epoch_id(), 2u);
    server.Stop();
  }
}

TEST_F(ServingTest, TransientLoadFaultIsRetriedAway) {
  std::string path = WriteEpochFile("fp_retry.snap", 1, 32);
  ServerOptions options;
  options.load_retry.max_attempts = 3;
  options.load_retry.initial_backoff_ms = 0;  // no sleeping in tests
  KbcServer server(options);

  FailpointConfig config;
  config.code = StatusCode::kIoError;
  config.max_hits = 2;  // first two attempts fail, third succeeds
  Failpoints::Instance().Enable(failpoints::kServeEpochLoad, config);
  EXPECT_TRUE(server.LoadAndSwap(path).ok());
  EXPECT_EQ(server.current_epoch_id(), 1u);
}

TEST_F(ServingTest, CorruptionIsNotRetried) {
  std::string path = WriteEpochFile("fp_noretry.snap", 1, 32);
  ServerOptions options;
  options.load_retry.max_attempts = 5;
  options.load_retry.initial_backoff_ms = 0;
  KbcServer server(options);

  FailpointConfig config;
  config.code = StatusCode::kCorruption;
  Failpoints::Instance().Enable(failpoints::kServeEpochLoad, config);
  EXPECT_EQ(server.LoadAndSwap(path).code(), StatusCode::kCorruption);
  // A permanent error burns exactly one attempt.
  EXPECT_EQ(Failpoints::Instance().fired_count(failpoints::kServeEpochLoad), 1u);
}

TEST_F(ServingTest, CrashHookVariantAtEverySite) {
  std::string epoch1 = WriteEpochFile("fp_crash1.snap", 1, 32);
  std::string epoch2 = WriteEpochFile("fp_crash2.snap", 2, 32);
  for (const char* site :
       {failpoints::kServeEpochLoad, failpoints::kServeEpochSwap,
        failpoints::kSnapshotValidate}) {
    SCOPED_TRACE(site);
    std::string crashed_at;
    Failpoints::Instance().SetCrashHook(
        [&](const std::string& name) { crashed_at = name; });
    FailpointConfig config;
    config.action = FailpointAction::kCrash;
    config.max_hits = 1;
    Failpoints::Instance().Enable(site, config);

    KbcServer server;
    ASSERT_TRUE(server.LoadAndSwap(epoch1).ok());
    // The non-fatal hook records the site; the site continues unharmed
    // (the real default hook would have killed the process here, which
    // the recovery tests cover via child processes).
    EXPECT_EQ(crashed_at, site);
    EXPECT_TRUE(server.LoadAndSwap(epoch2).ok());
    Failpoints::Instance().Reset();
  }
}

TEST_F(ServingTest, MmapFailpointFallsBackToHeapAndStillServes) {
  std::string path = WriteEpochFile("fp_mmap.snap", 1, 32);
  FailpointConfig config;
  Failpoints::Instance().Enable(failpoints::kSnapshotMmap, config);
  auto epoch = ServingEpoch::Load(path);
  EXPECT_EQ(Failpoints::Instance().fired_count(failpoints::kSnapshotMmap), 1u);
  Failpoints::Instance().Reset();
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(epoch->marginal(5), ExpectedMarginal(1, 5));
}

// ---- Server behavior ------------------------------------------------------

TEST_F(ServingTest, NoEpochLoadedIsUnavailable) {
  KbcServer server;
  ASSERT_TRUE(server.Start().ok());
  QueryRequest request;
  request.relation = RelationName(0);
  auto response = server.Query(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(server.current_epoch_id(), 0u);
}

TEST_F(ServingTest, QueryKindsAnswerCorrectly) {
  std::string path = WriteEpochFile("kinds.snap", 1, 64);
  KbcServer server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.LoadAndSwap(path).ok());

  // Marginal.
  QueryRequest request;
  request.kind = QueryKind::kMarginal;
  request.relation = RelationName(0);
  request.row = 4;  // var 8
  auto response = server.Query(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->probability, ExpectedMarginal(1, 8));

  // Fact thresholding, both sides.
  request.kind = QueryKind::kFact;
  request.threshold = response->probability;  // inclusive
  auto fact = server.Query(request);
  ASSERT_TRUE(fact.ok());
  EXPECT_TRUE(fact->is_fact);
  request.threshold = response->probability + 1e-9;
  fact = server.Query(request);
  ASSERT_TRUE(fact.ok());
  EXPECT_FALSE(fact->is_fact);

  // Dead rows are NotFound.
  QueryRequest dead;
  dead.relation = RelationName(3 % kNumRelations);
  dead.row = 3 / kNumRelations;  // var 3 is dead (VarLive)
  ASSERT_FALSE(VarLive(3));
  EXPECT_EQ(server.Query(dead).status().code(), StatusCode::kNotFound);

  // Top-k: descending probability, only live vars of the relation,
  // exactly the brute-force answer.
  QueryRequest topk;
  topk.kind = QueryKind::kTopK;
  topk.relation = RelationName(1);
  topk.k = 5;
  auto top = server.Query(topk);
  ASSERT_TRUE(top.ok());
  std::vector<std::pair<double, int64_t>> brute;
  for (uint32_t v = 1; v < 64; v += kNumRelations) {
    if (!VarLive(v)) continue;
    brute.emplace_back(ExpectedMarginal(1, v),
                       static_cast<int64_t>(v / kNumRelations));
  }
  std::sort(brute.begin(), brute.end(), [](const auto& a, const auto& b) {
    return a.first > b.first || (a.first == b.first && a.second < b.second);
  });
  ASSERT_EQ(top->top.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(top->top[i].probability, brute[i].first) << i;
    EXPECT_EQ(top->top[i].row, brute[i].second) << i;
  }
  EXPECT_EQ(server.Query([] {
              QueryRequest r;
              r.kind = QueryKind::kTopK;
              r.relation = "no_such_relation";
              return r;
            }())
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(ServingTest, StaleSwapRefusedLoudly) {
  std::string epoch1 = WriteEpochFile("stale1.snap", 1, 32);
  std::string epoch2 = WriteEpochFile("stale2.snap", 2, 32);
  KbcServer server;
  ASSERT_TRUE(server.LoadAndSwap(epoch2).ok());
  EXPECT_EQ(server.LoadAndSwap(epoch1).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.LoadAndSwap(epoch2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(server.current_epoch_id(), 2u);
  EXPECT_EQ(server.stats().swap_rejected_stale, 2u);
}

TEST_F(ServingTest, CacheHitsStampedByEpochAndInvalidatedOnSwap) {
  std::string epoch1 = WriteEpochFile("cache1.snap", 1, 32);
  std::string epoch2 = WriteEpochFile("cache2.snap", 2, 32);
  KbcServer server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.LoadAndSwap(epoch1).ok());

  QueryRequest request;
  request.relation = RelationName(0);
  request.row = 7;  // var 14
  auto first = server.Query(request);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->from_cache);
  auto second = server.Query(request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->from_cache);
  EXPECT_EQ(second->probability, first->probability);
  EXPECT_EQ(server.stats().cache_hits, 1u);

  ASSERT_TRUE(server.LoadAndSwap(epoch2).ok());
  auto after = server.Query(request);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->from_cache);  // swap invalidated the entry
  EXPECT_EQ(after->epoch, 2u);
  EXPECT_EQ(after->probability, ExpectedMarginal(2, 14));
  EXPECT_NE(after->probability, first->probability);
}

TEST_F(ServingTest, DeadlineExpiredAtAdmissionAndMidExecution) {
  std::string path = WriteEpochFile("deadline.snap", 1, 32);
  ServerOptions options;
  options.synthetic_delay_ms = 20;
  KbcServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.LoadAndSwap(path).ok());

  // Already expired: rejected at admission without queueing.
  QueryRequest request;
  request.relation = RelationName(0);
  request.deadline = Deadline::AfterMillis(0);
  auto response = server.Query(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);

  // Expires during execution (synthetic delay outlives the budget).
  request.deadline = Deadline::AfterMillis(2);
  response = server.Query(request);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_GE(server.stats().deadline_exceeded, 1u);

  // Without a deadline the same query answers fine.
  request.deadline = Deadline();
  response = server.Query(request);
  EXPECT_TRUE(response.ok());
}

TEST_F(ServingTest, QueueBudgetShedsLateRequests) {
  std::string path = WriteEpochFile("budget.snap", 1, 32);
  ServerOptions options;
  options.num_workers = 1;
  options.synthetic_delay_ms = 30;
  options.queue_budget_ms = 5;
  options.max_queue = 16;
  KbcServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.LoadAndSwap(path).ok());

  // Three concurrent requests against one worker burning 30ms each: the
  // ones that sit in the queue blow the 5ms budget and are shed.
  std::atomic<int> ok{0}, shed{0}, other{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 3; ++i) {
    clients.emplace_back([&] {
      QueryRequest request;
      request.relation = RelationName(0);
      request.row = 1;
      auto response = server.Query(request);
      if (response.ok()) {
        ++ok;
      } else if (response.status().code() == StatusCode::kUnavailable) {
        ++shed;
      } else {
        ++other;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok + shed + other, 3);
  EXPECT_EQ(other, 0);
  EXPECT_GE(shed.load(), 1);
  EXPECT_GE(ok.load(), 1);
  EXPECT_EQ(server.stats().shed_queue_budget, static_cast<uint64_t>(shed));
}

TEST_F(ServingTest, StopFailsPendingRequestsWithUnavailable) {
  std::string path = WriteEpochFile("stop.snap", 1, 32);
  ServerOptions options;
  options.num_workers = 1;
  options.synthetic_delay_ms = 25;
  options.queue_budget_ms = 0;  // no budget shedding in this test
  KbcServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.LoadAndSwap(path).ok());

  std::atomic<int> answered{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      QueryRequest request;
      request.relation = RelationName(0);
      auto response = server.Query(request);
      // Every request resolves: a real answer or an explicit Unavailable
      // — never a hang, never a dropped promise.
      EXPECT_TRUE(response.ok() ||
                  response.status().code() == StatusCode::kUnavailable);
      ++answered;
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.Stop();
  for (auto& t : clients) t.join();
  EXPECT_EQ(answered.load(), 4);
  // Queries after Stop are refused outright.
  QueryRequest request;
  request.relation = RelationName(0);
  EXPECT_EQ(server.Query(request).status().code(), StatusCode::kUnavailable);
}

// ---- Chaos: swaps under concurrent load -----------------------------------

// Readers hammer the server while a swapper publishes fresh epochs
// through an EpochDirectory. Every successful response must be exactly
// ExpectedMarginal(response.epoch, var) — bitwise — or a reader saw a
// torn/mixed epoch. Per-reader epoch ids must never go backwards.
TEST_F(ServingTest, SwapsUnderConcurrentLoadServeConsistentEpochs) {
  constexpr size_t kVars = 512;
  constexpr uint64_t kLastEpoch = 5;
  EpochDirectory dir(FreshDir("epochs_chaos"));
  ASSERT_TRUE(dir.Create().ok());
  ASSERT_TRUE(dir.Publish(1, BuildEpochBytes(1, kVars)).ok());

  ServerOptions options;
  options.num_workers = 2;
  options.cache_entries = 128;
  options.queue_budget_ms = 0;  // closed-loop readers; don't shed
  KbcServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.LoadCurrent(dir).ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> verified{0};
  std::atomic<int> torn{0}, regressed{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        uint32_t var = static_cast<uint32_t>(rng.NextBounded(kVars));
        if (!VarLive(var)) continue;
        QueryRequest request;
        request.relation = RelationName(var % kNumRelations);
        request.row = static_cast<int64_t>(var / kNumRelations);
        auto response = server.Query(request);
        if (!response.ok()) continue;  // shed/stopping are fine
        if (response->probability != ExpectedMarginal(response->epoch, var)) {
          ++torn;
        }
        if (response->epoch < last_epoch) ++regressed;
        last_epoch = response->epoch;
        ++verified;
      }
    });
  }

  for (uint64_t e = 2; e <= kLastEpoch; ++e) {
    ASSERT_TRUE(dir.Publish(e, BuildEpochBytes(e, kVars)).ok());
    ASSERT_TRUE(server.LoadCurrent(dir).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
  }
  stop = true;
  for (auto& t : readers) t.join();
  server.Stop();

  EXPECT_EQ(torn.load(), 0) << "a reader observed a torn epoch";
  EXPECT_EQ(regressed.load(), 0) << "a reader saw epochs go backwards";
  EXPECT_GT(verified.load(), 0u);
  EXPECT_EQ(server.current_epoch_id(), kLastEpoch);
  EXPECT_EQ(server.stats().swaps, kLastEpoch);
}

// Saturate a tiny admission queue with the load generator: requests are
// shed with Unavailable (never dropped, never crashed) and the
// accounting identity holds exactly.
TEST_F(ServingTest, AdmissionSaturationShedsWithUnavailable) {
  std::string path = WriteEpochFile("saturate.snap", 1, 128);
  ServerOptions options;
  options.num_workers = 1;
  options.max_queue = 2;
  options.queue_budget_ms = 50;
  options.synthetic_delay_ms = 2;
  KbcServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.LoadAndSwap(path).ok());

  LoadgenOptions load;
  load.num_clients = 4;
  load.duration_ms = 150;
  load.relations = {RelationName(0), RelationName(1)};
  load.row_space = 128;  // includes rows past the epoch: NotFound mixes in
  LoadgenReport report = RunLoadgen(&server, load);
  server.Stop();

  EXPECT_TRUE(report.Accounted())
      << "issued=" << report.issued << " ok=" << report.ok
      << " nf=" << report.not_found << " shed=" << report.shed
      << " dl=" << report.deadline_exceeded << " other=" << report.other_errors;
  EXPECT_GT(report.issued, 0u);
  EXPECT_GT(report.ok, 0u);
  EXPECT_GT(report.shed, 0u);  // 4 clients vs queue of 2: must shed
  EXPECT_EQ(report.other_errors, 0u);
  EXPECT_TRUE(report.epochs_monotone);
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.shed_queue_full + stats.shed_queue_budget, report.shed);
}

// ---- Pipeline integration -------------------------------------------------

TEST_F(ServingTest, PipelinePublishesEpochServedBitIdentically) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 20;
  corpus_opts.seed = 21;
  SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);
  PipelineOptions options;
  options.learn.epochs = 60;
  options.inference.full_burn_in = 50;
  options.inference.num_samples = 150;
  options.strategy = PipelineOptions::Strategy::kSampling;
  auto pipeline = MakeSpousePipeline(corpus, SpouseAppOptions(), options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  ASSERT_TRUE((*pipeline)->Run().ok());

  const std::string dir = FreshDir("epochs_pipeline");
  ASSERT_TRUE((*pipeline)->PublishEpoch(dir).ok());
  EpochDirectory epochs(dir);
  auto current = epochs.CurrentEpochId();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 1u);

  KbcServer server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.LoadCurrent(epochs).ok());
  EXPECT_EQ(server.current_epoch_id(), 1u);

  // Every live query variable answers through the server with exactly
  // the marginal the pipeline computed (multiset comparison avoids
  // depending on row-id assignment details).
  const auto& info = (*pipeline)->grounder()->var_info();
  std::vector<double> served;
  for (const VarInfo& v : info) {
    if (!v.live || v.relation != "MarriedMention") continue;
    QueryRequest request;
    request.relation = v.relation;
    request.row = v.row_id;
    auto response = server.Query(request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    served.push_back(response->probability);
  }
  auto marginals = (*pipeline)->Marginals("MarriedMention");
  ASSERT_TRUE(marginals.ok());
  std::vector<double> computed;
  for (const auto& [tuple, p] : *marginals) computed.push_back(p);
  std::sort(served.begin(), served.end());
  std::sort(computed.begin(), computed.end());
  EXPECT_EQ(served, computed);  // bitwise-exact multiset equality

  // A second publish continues the monotone id sequence.
  ASSERT_TRUE((*pipeline)->PublishEpoch(dir).ok());
  current = epochs.CurrentEpochId();
  ASSERT_TRUE(current.ok());
  EXPECT_EQ(*current, 2u);
  ASSERT_TRUE(server.LoadCurrent(epochs).ok());
  EXPECT_EQ(server.current_epoch_id(), 2u);
  server.Stop();
}

// Extractor retry migrated onto util/retry.h: semantics are unchanged —
// one retry per document on a fresh emitter, then quarantine.
TEST_F(ServingTest, ExtractorRetryOnceSemanticsPreserved) {
  DeepDivePipeline pipeline;
  ASSERT_TRUE(pipeline
                  .LoadProgram("Person(name: text).\n"
                               "Q?(name: text).\n"
                               "Q(n) :- Person(n).")
                  .ok());
  int doc_calls = 0;
  pipeline.RegisterExtractor([&](const Document& doc, TupleEmitter* emitter) {
    ++doc_calls;
    if (doc.id == "flaky" && doc_calls % 2 == 1) {
      // Fails on the first attempt of the doc; the retry emits cleanly.
      return Status::IoError("transient UDF failure");
    }
    emitter->Emit("Person", Tuple({Value::String("p_" + doc.id)}));
    return Status::OK();
  });
  ASSERT_TRUE(pipeline.AddDocument("flaky", "some text here").ok());
  ASSERT_TRUE(pipeline.AddDocument("steady", "other text here").ok());
  ASSERT_TRUE(pipeline.Run().ok());
  EXPECT_EQ(pipeline.run_stats().extractor_retries, 1u);
  EXPECT_EQ(pipeline.run_stats().documents_processed, 2u);
  EXPECT_EQ(pipeline.run_stats().documents_quarantined, 0u);
}

}  // namespace
}  // namespace dd
