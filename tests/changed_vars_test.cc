// Oracle for Grounder::changed_vars(). IncrementalInference::Update
// resamples only the factor-graph components that hold a changed
// variable, so a variable the grounder forgets to report would keep a
// stale marginal. These tests diff consecutive graphs directly: every
// variable whose factor neighbourhood or evidence/holdout state differs
// between two versions must be in changed_vars().

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/pipeline.h"
#include "core/udf.h"
#include "grounding/grounder.h"
#include "storage/catalog.h"
#include "testdata/spouse_app.h"
#include "testdata/synthetic_programs.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dd {
namespace {

/// One string per variable that changes exactly when the variable's
/// Gibbs conditional can: its factors (function, weight description,
/// literal list in order) as a sorted multiset, plus its evidence and
/// holdout state. Weight values are left out on purpose — Update
/// compares those itself.
std::vector<std::string> Signatures(const Grounder& grounder) {
  const FactorGraph& graph = grounder.graph();
  std::map<uint32_t, bool> holdout;
  for (const auto& [v, label] : grounder.holdout()) holdout[v] = label;
  std::vector<std::string> out(graph.num_variables());
  for (uint32_t v = 0; v < graph.num_variables(); ++v) {
    std::vector<std::string> factors;
    size_t nf = 0;
    const uint32_t* ids = graph.var_factors(v, &nf);
    for (size_t i = 0; i < nf; ++i) {
      std::string f = StrFormat("%s|%s|", FactorFuncName(graph.factor_func(ids[i])),
                                graph.weight(graph.factor_weight(ids[i])).description.c_str());
      size_t nl = 0;
      const Literal* lits = graph.factor_literals(ids[i], &nl);
      for (size_t j = 0; j < nl; ++j) {
        f += StrFormat("%c%u,", lits[j].is_positive ? '+' : '-', lits[j].var);
      }
      factors.push_back(std::move(f));
    }
    std::sort(factors.begin(), factors.end());
    std::string& sig = out[v];
    sig = graph.is_evidence(v) ? StrFormat("E%d", graph.evidence_value(v) ? 1 : 0) : "Q";
    auto h = holdout.find(v);
    if (h != holdout.end()) sig += StrFormat("H%d", h->second ? 1 : 0);
    for (const std::string& f : factors) sig += ";" + f;
  }
  return out;
}

/// Every variable whose signature moved (or that is new) must be listed.
/// Returns the number of moved variables, so callers can check that a
/// sequence actually exercised the grounder.
size_t ExpectChangedVarsComplete(const std::vector<std::string>& before,
                                 const Grounder& grounder, const std::string& where) {
  const std::vector<std::string> after = Signatures(grounder);
  const std::unordered_set<uint32_t> listed(grounder.changed_vars().begin(),
                                            grounder.changed_vars().end());
  size_t moved = 0;
  for (uint32_t v = 0; v < after.size(); ++v) {
    if (v < before.size() && before[v] == after[v]) continue;
    ++moved;
    EXPECT_TRUE(listed.count(v) > 0)
        << where << ": variable " << v << " changed but is not in changed_vars()\n"
        << "  before: " << (v < before.size() ? before[v] : "(new)") << "\n"
        << "  after:  " << after[v];
  }
  return moved;
}

/// Random presence delta over the base relations: each live row is
/// deleted with probability `p_delete`, each row an earlier step deleted
/// is re-inserted with probability `p_reinsert`.
std::map<std::string, DeltaSet> RandomDelta(Rng* rng, double p_delete, double p_reinsert,
                                            Catalog* catalog,
                                            std::map<std::string, std::vector<Tuple>>* removed) {
  std::map<std::string, DeltaSet> delta;
  for (const char* relation : {"Token", "Pair", "Link", "Q_Ev"}) {
    std::vector<Tuple>& gone = (*removed)[relation];
    std::vector<Tuple> still_gone;
    for (Tuple& t : gone) {
      if (rng->NextBernoulli(p_reinsert)) {
        delta[relation][t] = 1;
      } else {
        still_gone.push_back(std::move(t));
      }
    }
    gone = std::move(still_gone);
    auto table = catalog->GetTable(relation);
    EXPECT_TRUE(table.ok()) << relation;
    if (!table.ok()) continue;
    for (const Tuple& t : (*table)->Scan()) {
      if (rng->NextBernoulli(p_delete)) {
        delta[relation][t] = -1;
        gone.push_back(t);
      }
    }
  }
  return delta;
}

class SyntheticChangedVarsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SyntheticChangedVarsTest, DredSequenceReportsEveryChangedVariable) {
  SyntheticProgramOptions sopt;
  sopt.seed = GetParam();
  sopt.conflict_fraction = 0.2;
  auto workload = MakeSyntheticWorkload(sopt);
  ASSERT_TRUE(workload.ok()) << workload.status().ToString();
  Catalog catalog;
  ASSERT_TRUE(PopulateCatalog(*workload, &catalog).ok());
  UdfRegistry udfs;
  RegisterBuiltinUdfs(&udfs);
  GroundingOptions gopt;
  gopt.num_threads = 1;
  gopt.holdout_fraction = 0.3;
  Grounder grounder(&catalog, &workload->program, &udfs, gopt);
  ASSERT_TRUE(grounder.Initialize().ok());

  // Step 0 is the workload's own batch (new sentences + pair deletions);
  // later steps delete and re-insert random base rows of every relation,
  // including Link (negation and correlation rules) and Q_Ev (evidence).
  std::map<std::string, std::vector<Tuple>> removed;
  Rng rng(GetParam() * 7919 + 1);
  size_t moved = 0;
  for (int step = 0; step < 6; ++step) {
    const std::vector<std::string> before = Signatures(grounder);
    const std::map<std::string, DeltaSet> delta =
        step == 0 ? workload->delta : RandomDelta(&rng, 0.15, 0.4, &catalog, &removed);
    Status st = grounder.ApplyDeltas(delta);
    ASSERT_TRUE(st.ok()) << st.ToString();
    moved += ExpectChangedVarsComplete(before, grounder, StrFormat("step %d", step));
  }
  EXPECT_GT(moved, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticChangedVarsTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12));

TEST(SpouseChangedVarsTest, DocumentBatchesReportEveryChangedVariable) {
  SpouseCorpusOptions corpus_opts;
  corpus_opts.num_documents = 60;
  corpus_opts.corruption = 0.1;
  corpus_opts.seed = 21;
  const SpouseCorpus corpus = GenerateSpouseCorpus(corpus_opts);
  PipelineOptions options;
  options.learn.epochs = 5;
  options.inference.full_burn_in = 5;
  options.inference.update_burn_in = 2;
  options.inference.num_samples = 10;
  options.holdout_fraction = 0.2;
  options.strategy = PipelineOptions::Strategy::kSampling;
  options.num_threads = 1;
  SpouseCorpus first = corpus;
  first.documents.resize(30);
  auto pipeline = MakeSpousePipeline(first, SpouseAppOptions(), options);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  DeepDivePipeline& p = **pipeline;
  ASSERT_TRUE(p.Run().ok());

  // Batches of new documents, each with KB edits that flip distant
  // labels on existing candidates: one married pair leaves the KB and
  // the one removed before comes back.
  Rng rng(23);
  size_t moved = 0;
  std::vector<std::pair<std::string, std::string>> removed;
  for (size_t next = 30, batch = 0; next < corpus.documents.size(); next += 10, ++batch) {
    const std::vector<std::string> before = Signatures(*p.grounder());
    for (size_t d = next; d < next + 10; ++d) {
      ASSERT_TRUE(p.AddDocument(corpus.documents[d].first, corpus.documents[d].second).ok());
    }
    for (const auto& [a, b] : removed) {
      p.QueueDelta("KbMarried", Tuple({Value::String(a), Value::String(b)}), 1);
    }
    removed = {corpus.kb_married[rng.NextBounded(corpus.kb_married.size())]};
    p.QueueDelta("KbMarried",
                 Tuple({Value::String(removed[0].first), Value::String(removed[0].second)}),
                 -1);
    Status st = p.Run();
    ASSERT_TRUE(st.ok()) << st.ToString();
    moved += ExpectChangedVarsComplete(before, *p.grounder(),
                                       StrFormat("batch %zu", batch));
  }
  EXPECT_GT(moved, 0u);
}

}  // namespace
}  // namespace dd
