#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "query/datalog.h"
#include "query/dred.h"
#include "query/rule.h"
#include "storage/catalog.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace dd {
namespace {

Tuple T2(int64_t a, int64_t b) { return Tuple({Value::Int(a), Value::Int(b)}); }
Tuple T1(int64_t a) { return Tuple({Value::Int(a)}); }
Schema Int2() { return Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}); }
Schema Int1() { return Schema({{"x", ValueType::kInt}}); }

// Q(x) :- R(x, y), S(y).
std::vector<ConjunctiveRule> JoinProgram() {
  std::vector<ConjunctiveRule> rules(1);
  rules[0].head = {"Q", {Term::Var("x")}, false};
  rules[0].body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rules[0].body.push_back({"S", {Term::Var("y")}, false});
  return rules;
}

class DredTest : public ::testing::Test {
 protected:
  void SetUp() override {
    r_ = *catalog_.CreateTable("R", Int2());
    s_ = *catalog_.CreateTable("S", Int1());
    q_ = *catalog_.CreateTable("Q", Int1());
  }
  Catalog catalog_;
  Table* r_;
  Table* s_;
  Table* q_;
};

TEST_F(DredTest, InitializePopulatesDerived) {
  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  ASSERT_TRUE(r_->Insert(T2(2, 20)).ok());
  ASSERT_TRUE(s_->Insert(T1(10)).ok());
  IncrementalEngine engine(&catalog_, JoinProgram());
  ASSERT_TRUE(engine.Initialize().ok());
  EXPECT_EQ(q_->size(), 1u);
  EXPECT_TRUE(q_->Contains(T1(1)));
  EXPECT_EQ(engine.DerivationCount("Q", T1(1)), 1);
}

TEST_F(DredTest, InsertPropagates) {
  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  IncrementalEngine engine(&catalog_, JoinProgram());
  ASSERT_TRUE(engine.Initialize().ok());
  EXPECT_EQ(q_->size(), 0u);

  std::map<std::string, DeltaSet> delta;
  delta["S"][T1(10)] = 1;
  auto result = engine.ApplyDeltas(delta);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(q_->Contains(T1(1)));
  EXPECT_TRUE(s_->Contains(T1(10)));
  ASSERT_TRUE(result->count("Q"));
  EXPECT_EQ(result->at("Q").at(T1(1)), 1);
}

TEST_F(DredTest, DeletePropagates) {
  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  ASSERT_TRUE(s_->Insert(T1(10)).ok());
  IncrementalEngine engine(&catalog_, JoinProgram());
  ASSERT_TRUE(engine.Initialize().ok());
  EXPECT_TRUE(q_->Contains(T1(1)));

  std::map<std::string, DeltaSet> delta;
  delta["S"][T1(10)] = -1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_FALSE(q_->Contains(T1(1)));
  EXPECT_FALSE(s_->Contains(T1(10)));
}

TEST_F(DredTest, MultipleDerivationsSurviveSingleDelete) {
  // Q(1) derivable via y=10 and y=20; deleting one support keeps Q(1).
  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  ASSERT_TRUE(r_->Insert(T2(1, 20)).ok());
  ASSERT_TRUE(s_->Insert(T1(10)).ok());
  ASSERT_TRUE(s_->Insert(T1(20)).ok());
  IncrementalEngine engine(&catalog_, JoinProgram());
  ASSERT_TRUE(engine.Initialize().ok());
  EXPECT_EQ(engine.DerivationCount("Q", T1(1)), 2);

  std::map<std::string, DeltaSet> delta;
  delta["S"][T1(10)] = -1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_TRUE(q_->Contains(T1(1)));  // still one derivation
  EXPECT_EQ(engine.DerivationCount("Q", T1(1)), 1);

  delta.clear();
  delta["S"][T1(20)] = -1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_FALSE(q_->Contains(T1(1)));
}

TEST_F(DredTest, NoOpDeltasIgnored) {
  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  ASSERT_TRUE(s_->Insert(T1(10)).ok());
  IncrementalEngine engine(&catalog_, JoinProgram());
  ASSERT_TRUE(engine.Initialize().ok());

  std::map<std::string, DeltaSet> delta;
  delta["S"][T1(10)] = 1;    // already present
  delta["S"][T1(99)] = -1;   // not present
  auto result = engine.ApplyDeltas(delta);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
  EXPECT_EQ(engine.DerivationCount("Q", T1(1)), 1);
}

TEST_F(DredTest, DeltaOnDerivedRelationRejected) {
  IncrementalEngine engine(&catalog_, JoinProgram());
  ASSERT_TRUE(engine.Initialize().ok());
  std::map<std::string, DeltaSet> delta;
  delta["Q"][T1(1)] = 1;
  EXPECT_FALSE(engine.ApplyDeltas(delta).ok());
}

TEST_F(DredTest, RecursiveProgramRejected) {
  ASSERT_TRUE(catalog_.CreateTable("P", Int2()).ok());
  std::vector<ConjunctiveRule> rules(2);
  rules[0].head = {"P", {Term::Var("x"), Term::Var("y")}, false};
  rules[0].body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rules[1].head = {"P", {Term::Var("x"), Term::Var("z")}, false};
  rules[1].body.push_back({"P", {Term::Var("x"), Term::Var("y")}, false});
  rules[1].body.push_back({"R", {Term::Var("y"), Term::Var("z")}, false});
  IncrementalEngine engine(&catalog_, rules);
  EXPECT_EQ(engine.Initialize().code(), StatusCode::kUnimplemented);
}

TEST_F(DredTest, NegationInsertRemovesDerived) {
  // Q(x) :- R(x, y), !S(y).
  std::vector<ConjunctiveRule> rules(1);
  rules[0].head = {"Q", {Term::Var("x")}, false};
  rules[0].body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rules[0].body.push_back({"S", {Term::Var("y")}, true});
  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  IncrementalEngine engine(&catalog_, rules);
  ASSERT_TRUE(engine.Initialize().ok());
  EXPECT_TRUE(q_->Contains(T1(1)));

  // Inserting S(10) kills the !S(10) support.
  std::map<std::string, DeltaSet> delta;
  delta["S"][T1(10)] = 1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_FALSE(q_->Contains(T1(1)));

  // Deleting it again restores Q(1).
  delta.clear();
  delta["S"][T1(10)] = -1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_TRUE(q_->Contains(T1(1)));
}

TEST_F(DredTest, TwoLevelPropagation) {
  // Q(x) :- R(x, y), S(y).  W(x) :- Q(x), R(x, y).
  ASSERT_TRUE(catalog_.CreateTable("W", Int1()).ok());
  auto rules = JoinProgram();
  ConjunctiveRule r2;
  r2.head = {"W", {Term::Var("x")}, false};
  r2.body.push_back({"Q", {Term::Var("x")}, false});
  r2.body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rules.push_back(r2);

  ASSERT_TRUE(r_->Insert(T2(1, 10)).ok());
  IncrementalEngine engine(&catalog_, rules);
  ASSERT_TRUE(engine.Initialize().ok());
  Table* w = *catalog_.GetTable("W");
  EXPECT_EQ(w->size(), 0u);

  std::map<std::string, DeltaSet> delta;
  delta["S"][T1(10)] = 1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_TRUE(w->Contains(T1(1)));

  delta.clear();
  delta["S"][T1(10)] = -1;
  ASSERT_TRUE(engine.ApplyDeltas(delta).ok());
  EXPECT_FALSE(w->Contains(T1(1)));
}

// Property test: random multi-step insert/delete/re-insert workloads.
// After every step, the derived tables equal a from-scratch evaluation
// of the program on the current base tables, and every derivation count
// equals a brute-force count over the base rows. A re-inserted tuple
// must come back at its old row id (grounding keys variables and cached
// factor drafts by row id). Sweeps several workload lengths.
struct RandomWorkloadParam {
  uint64_t seed;
  int num_ops;
};

class DredPropertyTest : public ::testing::TestWithParam<RandomWorkloadParam> {};

void ExpectMatchesReference(Catalog* inc_catalog, const IncrementalEngine& engine,
                            const std::vector<ConjunctiveRule>& rules, int64_t domain,
                            const std::string& where) {
  const std::vector<Tuple> r_rows = (*inc_catalog->GetTable("R"))->Scan();
  const std::vector<Tuple> s_rows = (*inc_catalog->GetTable("S"))->Scan();

  // Reference tables: evaluate from scratch on copies of the base tables.
  Catalog ref_catalog;
  Table* ref_r = *ref_catalog.CreateTable("R", Int2());
  Table* ref_s = *ref_catalog.CreateTable("S", Int1());
  ASSERT_TRUE(ref_catalog.CreateTable("Q", Int1()).ok());
  ASSERT_TRUE(ref_catalog.CreateTable("W", Int1()).ok());
  for (const Tuple& t : r_rows) ASSERT_TRUE(ref_r->Insert(t).ok());
  for (const Tuple& t : s_rows) ASSERT_TRUE(ref_s->Insert(t).ok());
  DatalogEngine full(&ref_catalog);
  ASSERT_TRUE(full.Evaluate(rules).ok());
  for (const char* rel : {"Q", "W"}) {
    auto inc_rows = (*inc_catalog->GetTable(rel))->Scan();
    auto ref_rows = (*ref_catalog.GetTable(rel))->Scan();
    std::set<Tuple> inc_set(inc_rows.begin(), inc_rows.end());
    std::set<Tuple> ref_set(ref_rows.begin(), ref_rows.end());
    EXPECT_EQ(inc_set, ref_set) << "relation " << rel << " diverged at " << where;
  }

  // Reference counts, by brute force over the base rows:
  //   Q(x) has one derivation per R(x, y) with S(y);
  //   W(x) has one per R(x, y), if Q(x) has none.
  std::set<int64_t> s_set;
  for (const Tuple& t : s_rows) s_set.insert(t.at(0).AsInt());
  std::map<int64_t, int64_t> q_count, w_count;
  for (const Tuple& t : r_rows) {
    if (s_set.count(t.at(1).AsInt()) > 0) ++q_count[t.at(0).AsInt()];
  }
  for (const Tuple& t : r_rows) {
    if (q_count.count(t.at(0).AsInt()) == 0) ++w_count[t.at(0).AsInt()];
  }
  for (int64_t x = -1; x <= domain + 1; ++x) {
    EXPECT_EQ(engine.DerivationCount("Q", T1(x)), q_count.count(x) ? q_count[x] : 0)
        << "Q(" << x << ") at " << where;
    EXPECT_EQ(engine.DerivationCount("W", T1(x)), w_count.count(x) ? w_count[x] : 0)
        << "W(" << x << ") at " << where;
  }
}

TEST_P(DredPropertyTest, MatchesFullEvaluation) {
  const auto param = GetParam();
  Rng rng(param.seed);

  // The same steps drive a serial engine and a morsel-parallel one with
  // one-row morsels; the parallel catalog must match row for row.
  Catalog inc_catalog, par_catalog;
  for (Catalog* catalog : {&inc_catalog, &par_catalog}) {
    ASSERT_TRUE(catalog->CreateTable("R", Int2()).ok());
    ASSERT_TRUE(catalog->CreateTable("S", Int1()).ok());
    ASSERT_TRUE(catalog->CreateTable("Q", Int1()).ok());
    ASSERT_TRUE(catalog->CreateTable("W", Int1()).ok());
  }

  // Program with a join, a negation, and two levels:
  //   Q(x) :- R(x, y), S(y).
  //   W(x) :- R(x, y), !Q(x).
  std::vector<ConjunctiveRule> rules(2);
  rules[0].head = {"Q", {Term::Var("x")}, false};
  rules[0].body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rules[0].body.push_back({"S", {Term::Var("y")}, false});
  rules[1].head = {"W", {Term::Var("x")}, false};
  rules[1].body.push_back({"R", {Term::Var("x"), Term::Var("y")}, false});
  rules[1].body.push_back({"Q", {Term::Var("x")}, true});

  IncrementalEngine engine(&inc_catalog, rules);
  ASSERT_TRUE(engine.Initialize().ok());
  ThreadPool pool(3);
  IncrementalEngine par_engine(&par_catalog, rules, EvalParallelism{&pool, 1});
  ASSERT_TRUE(par_engine.Initialize().ok());

  const int64_t domain = 6;  // small domain to force collisions
  std::vector<std::pair<std::string, Tuple>> removed;  // deleted base tuples
  for (int op = 0; op < param.num_ops; ++op) {
    std::map<std::string, DeltaSet> delta;
    int n_changes = 1 + static_cast<int>(rng.NextBounded(3));
    for (int c = 0; c < n_changes; ++c) {
      if (!removed.empty() && rng.NextBernoulli(0.3)) {
        // Re-insert a tuple an earlier step deleted.
        const size_t i = rng.NextBounded(removed.size());
        delta[removed[i].first][removed[i].second] = 1;
        removed.erase(removed.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      bool on_r = rng.NextBernoulli(0.6);
      bool insert = rng.NextBernoulli(0.55);
      if (on_r) {
        Tuple t = T2(rng.NextInt(0, domain), rng.NextInt(0, domain));
        delta["R"][t] = insert ? 1 : -1;
      } else {
        Tuple t = T1(rng.NextInt(0, domain));
        delta["S"][t] = insert ? 1 : -1;
      }
    }
    // Before applying: which deletions remove a present tuple, and the
    // row id of every tombstoned tuple the step revives.
    std::vector<std::pair<std::string, Tuple>> deleted;
    std::map<std::pair<std::string, Tuple>, int64_t> revived;
    for (const auto& [rel, d] : delta) {
      const Table* table = *inc_catalog.GetTable(rel);
      for (const auto& [t, count] : d) {
        if (count < 0 && table->Contains(t)) deleted.emplace_back(rel, t);
        const int64_t old_row = table->FindIncludingDeleted(t);
        if (count > 0 && old_row >= 0 && !table->Contains(t)) revived[{rel, t}] = old_row;
      }
    }
    auto applied = engine.ApplyDeltas(delta);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    auto par_applied = par_engine.ApplyDeltas(delta);
    ASSERT_TRUE(par_applied.ok()) << par_applied.status().ToString();
    for (const char* rel : {"R", "S", "Q", "W"}) {
      const Table* a = *inc_catalog.GetTable(rel);
      const Table* b = *par_catalog.GetTable(rel);
      ASSERT_EQ(a->capacity(), b->capacity()) << rel;
      for (size_t row = 0; row < a->capacity(); ++row) {
        const int64_t id = static_cast<int64_t>(row);
        EXPECT_EQ(a->row(id), b->row(id)) << rel << " row " << row;
        EXPECT_EQ(a->is_live(id), b->is_live(id)) << rel << " row " << row;
      }
    }
    for (const auto& [key, old_row] : revived) {
      EXPECT_EQ((*inc_catalog.GetTable(key.first))->Find(key.second), old_row)
          << key.first << key.second.ToString() << " revived at a new row id";
    }
    removed.insert(removed.end(), deleted.begin(), deleted.end());
    ExpectMatchesReference(&inc_catalog, engine, rules, domain,
                           "step " + std::to_string(op) + " (seed " +
                               std::to_string(param.seed) + ")");
    if (HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomWorkloads, DredPropertyTest,
    ::testing::Values(RandomWorkloadParam{1, 10}, RandomWorkloadParam{2, 25},
                      RandomWorkloadParam{3, 50}, RandomWorkloadParam{4, 50},
                      RandomWorkloadParam{5, 100}, RandomWorkloadParam{6, 100},
                      RandomWorkloadParam{7, 200}, RandomWorkloadParam{8, 200}));

}  // namespace
}  // namespace dd
