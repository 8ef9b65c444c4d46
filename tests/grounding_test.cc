#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "core/udf.h"
#include "ddlog/parser.h"
#include "grounding/grounder.h"
#include "inference/exact.h"
#include "storage/catalog.h"
#include "util/metrics.h"

namespace dd {
namespace {

constexpr char kProgram[] = R"(
  Token(s: int, t: text).
  Pair(s: int, a: int, b: int).
  Q?(a: int, b: int).
  Q_Ev(a: int, b: int, label: bool).

  # Candidate mapping.
  Q(a, b) :- Pair(s, a, b).

  # Feature rule: one weight per distinct token text in the pair's sentence.
  Q(a, b) :- Pair(s, a, b), Token(s, t) weight = identity(t).
)";

class GrounderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto parsed = ParseDdlog(kProgram);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    program_ = std::move(parsed).value();

    token_ = *catalog_.CreateTable(
        "Token", Schema({{"s", ValueType::kInt}, {"t", ValueType::kString}}));
    pair_ = *catalog_.CreateTable(
        "Pair", Schema({{"s", ValueType::kInt},
                        {"a", ValueType::kInt},
                        {"b", ValueType::kInt}}));
  }

  void AddToken(int64_t s, const std::string& t) {
    ASSERT_TRUE(token_->Insert(Tuple({Value::Int(s), Value::String(t)})).ok());
  }
  void AddPair(int64_t s, int64_t a, int64_t b) {
    ASSERT_TRUE(
        pair_->Insert(Tuple({Value::Int(s), Value::Int(a), Value::Int(b)})).ok());
  }
  void AddLabel(int64_t a, int64_t b, bool label) {
    Table* ev = *catalog_.GetOrCreateTable(
        "Q_Ev", Schema({{"a", ValueType::kInt},
                        {"b", ValueType::kInt},
                        {"label", ValueType::kBool}}));
    ASSERT_TRUE(
        ev->Insert(Tuple({Value::Int(a), Value::Int(b), Value::Bool(label)})).ok());
  }

  /// "relation(tuple)" of every live variable, checking on the way that
  /// the variable's row holds its tuple and that VarIdFor maps it back.
  static std::multiset<std::string> LiveFacts(const Grounder& grounder,
                                              const Catalog& catalog) {
    std::multiset<std::string> facts;
    const auto& vars = grounder.var_info();
    for (uint32_t v = 0; v < vars.size(); ++v) {
      if (!vars[v].live) continue;
      const Table* table = *catalog.GetTable(vars[v].relation);
      EXPECT_LT(static_cast<size_t>(vars[v].row_id), table->capacity()) << "var " << v;
      if (static_cast<size_t>(vars[v].row_id) >= table->capacity()) continue;
      EXPECT_TRUE(table->is_live(vars[v].row_id)) << "var " << v;
      const Tuple tuple = table->row(vars[v].row_id);
      EXPECT_EQ(grounder.VarIdFor(vars[v].relation, tuple), v);
      facts.insert(vars[v].relation + tuple.ToString());
    }
    return facts;
  }

  /// A fresh grounder over copies of the current base tables must see
  /// the same live facts, factors and weights as `grounder`.
  void ExpectMatchesFreshGrounder(const Grounder& grounder) {
    Catalog ref;
    Table* rt = *ref.CreateTable("Token", token_->schema());
    Table* rp = *ref.CreateTable("Pair", pair_->schema());
    for (const Tuple& t : token_->Scan()) ASSERT_TRUE(rt->Insert(t).ok());
    for (const Tuple& t : pair_->Scan()) ASSERT_TRUE(rp->Insert(t).ok());
    Grounder fresh(&ref, &program_, &udfs_);
    ASSERT_TRUE(fresh.Initialize().ok());
    EXPECT_EQ(LiveFacts(grounder, catalog_), LiveFacts(fresh, ref));
    EXPECT_EQ(grounder.stats().num_factors, fresh.stats().num_factors);
    EXPECT_EQ(grounder.stats().num_weights, fresh.stats().num_weights);
  }

  Catalog catalog_;
  DdlogProgram program_;
  UdfRegistry udfs_;
  Table* token_ = nullptr;
  Table* pair_ = nullptr;
};

TEST_F(GrounderTest, BuildsVariablesAndFactors) {
  AddPair(1, 10, 20);
  AddPair(2, 30, 40);
  AddToken(1, "married");
  AddToken(1, "wife");
  AddToken(2, "met");

  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());

  // Two candidates -> two variables.
  EXPECT_EQ(grounder.stats().num_variables, 2u);
  // Factors: (1,10,20) has 2 tokens, (2,30,40) has 1 -> 3 feature factors.
  EXPECT_EQ(grounder.stats().num_factors, 3u);
  // Weights tied by token text: married, wife, met -> 3 weights.
  EXPECT_EQ(grounder.stats().num_weights, 3u);

  // Variable lookup round-trips.
  int64_t var = grounder.VarIdFor("Q", Tuple({Value::Int(10), Value::Int(20)}));
  EXPECT_GE(var, 0);
  EXPECT_EQ(grounder.VarIdFor("Q", Tuple({Value::Int(1), Value::Int(2)})), -1);
}

TEST_F(GrounderTest, WeightTyingSharesWeights) {
  // The same token in two sentences must produce ONE weight, two factors.
  AddPair(1, 10, 20);
  AddPair(2, 30, 40);
  AddToken(1, "married");
  AddToken(2, "married");

  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  EXPECT_EQ(grounder.stats().num_weights, 1u);
  EXPECT_EQ(grounder.stats().num_factors, 2u);
  EXPECT_EQ(grounder.weight_observations()[0], 2u);
  EXPECT_NE(grounder.WeightKey(0).find("married"), std::string::npos);
}

TEST_F(GrounderTest, EvidenceApplied) {
  AddPair(1, 10, 20);
  AddPair(2, 30, 40);
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  EXPECT_EQ(grounder.stats().num_evidence, 0u);

  AddLabel(10, 20, true);
  ASSERT_TRUE(grounder.Reground().ok());
  EXPECT_EQ(grounder.stats().num_evidence, 1u);
  int64_t var = grounder.VarIdFor("Q", Tuple({Value::Int(10), Value::Int(20)}));
  ASSERT_GE(var, 0);
  EXPECT_TRUE(grounder.graph().is_evidence(static_cast<uint32_t>(var)));
  EXPECT_TRUE(grounder.graph().evidence_value(static_cast<uint32_t>(var)));
}

TEST_F(GrounderTest, ConflictingLabelsUnlabeled) {
  AddPair(1, 10, 20);
  AddLabel(10, 20, true);
  AddLabel(10, 20, false);
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  EXPECT_EQ(grounder.stats().num_conflicting_labels, 1u);
  EXPECT_EQ(grounder.stats().num_evidence, 0u);
}

TEST_F(GrounderTest, OrphanEvidenceCounted) {
  AddPair(1, 10, 20);
  AddLabel(99, 98, true);  // no such candidate
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  EXPECT_EQ(grounder.stats().num_orphan_evidence, 1u);
}

TEST_F(GrounderTest, IncrementalMatchesReground) {
  AddPair(1, 10, 20);
  AddToken(1, "married");
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  EXPECT_EQ(grounder.stats().num_variables, 1u);

  // Delta: a new sentence with a pair and two tokens.
  std::map<std::string, DeltaSet> delta;
  delta["Pair"][Tuple({Value::Int(2), Value::Int(30), Value::Int(40)})] = 1;
  delta["Token"][Tuple({Value::Int(2), Value::String("married")})] = 1;
  delta["Token"][Tuple({Value::Int(2), Value::String("divorced")})] = 1;
  ASSERT_TRUE(grounder.ApplyDeltas(delta).ok());

  EXPECT_EQ(grounder.stats().num_factors, 3u);
  EXPECT_EQ(grounder.stats().num_weights, 2u);
  EXPECT_FALSE(grounder.changed_vars().empty());

  // Reference: a fresh grounder over the same final base tables.
  Catalog ref;
  Table* rt = *ref.CreateTable("Token", token_->schema());
  Table* rp = *ref.CreateTable("Pair", pair_->schema());
  for (const Tuple& t : token_->Scan()) ASSERT_TRUE(rt->Insert(t).ok());
  for (const Tuple& t : pair_->Scan()) ASSERT_TRUE(rp->Insert(t).ok());
  Grounder fresh(&ref, &program_, &udfs_);
  ASSERT_TRUE(fresh.Initialize().ok());
  EXPECT_EQ(fresh.stats().num_factors, grounder.stats().num_factors);
  EXPECT_EQ(fresh.stats().num_weights, grounder.stats().num_weights);
  // Live variable count matches (the incremental one has no deletions here).
  EXPECT_EQ(fresh.stats().num_variables, grounder.stats().num_variables);
}

TEST_F(GrounderTest, RegroundRebuildsRegistryByTuple) {
  // Reground renumbers the query rows; the registry must follow the
  // tuples, not the old row ids. Three pairs, delete the one in Q's
  // first row, reground: two live variables over two rows (none past
  // the new capacity), the survivors under their old ids.
  AddPair(1, 10, 20);
  AddPair(2, 30, 40);
  AddPair(3, 50, 60);
  AddToken(1, "married");
  AddToken(2, "wife");
  AddToken(3, "met");
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  const Table* q_table = *catalog_.GetTable("Q");
  const Tuple victim = q_table->row(0);
  Tuple victim_pair;
  std::map<int64_t, Tuple> survivors;  // var id -> tuple
  for (const Tuple& p : pair_->Scan()) {
    const Tuple q({p.at(1), p.at(2)});
    if (q == victim) {
      victim_pair = p;
    } else {
      survivors.emplace(grounder.VarIdFor("Q", q), q);
    }
  }
  ASSERT_EQ(survivors.size(), 2u);

  std::map<std::string, DeltaSet> delta;
  delta["Pair"][victim_pair] = -1;
  ASSERT_TRUE(grounder.ApplyDeltas(delta).ok());
  ASSERT_TRUE(grounder.Reground().ok());
  ExpectMatchesFreshGrounder(grounder);
  EXPECT_EQ(LiveFacts(grounder, catalog_).size(), 2u);
  EXPECT_EQ(grounder.stats().num_factors, 2u);
  EXPECT_EQ(grounder.VarIdFor("Q", victim), -1);
  for (const auto& [var, tuple] : survivors) {
    EXPECT_EQ(grounder.VarIdFor("Q", tuple), var) << tuple.ToString();
  }

  // A deletion straight in the base table, then a new pair: the new
  // tuple gets a new id, the survivor keeps its own.
  const auto [gone_var, gone] = *survivors.begin();
  const auto [kept_var, kept] = *survivors.rbegin();
  for (const Tuple& p : pair_->Scan()) {
    if (Tuple({p.at(1), p.at(2)}) == gone) {
      ASSERT_TRUE(pair_->Erase(p));
    }
  }
  AddPair(4, 70, 80);
  AddToken(4, "married");
  ASSERT_TRUE(grounder.Reground().ok());
  ExpectMatchesFreshGrounder(grounder);
  EXPECT_EQ(grounder.VarIdFor("Q", gone), -1);
  EXPECT_EQ(grounder.VarIdFor("Q", kept), kept_var);
  EXPECT_EQ(grounder.VarIdFor("Q", Tuple({Value::Int(70), Value::Int(80)})),
            static_cast<int64_t>(grounder.var_info().size()) - 1);
  EXPECT_NE(gone_var, kept_var);

  // DRed rounds after a Reground keep matching a fresh grounder.
  delta.clear();
  delta["Pair"][Tuple({Value::Int(5), Value::Int(90), Value::Int(91)})] = 1;
  delta["Pair"][Tuple({Value::Int(4), Value::Int(70), Value::Int(80)})] = -1;
  ASSERT_TRUE(grounder.ApplyDeltas(delta).ok());
  ExpectMatchesFreshGrounder(grounder);
}

TEST_F(GrounderTest, FailedDraftIsRetriedNextRound) {
  // A weight UDF that fails while `down` is set: the round that hits it
  // fails, and the next round must draft the same pseudo rows again.
  bool down = false;
  udfs_.Register("identity", [&down](const std::vector<Value>& args) -> Result<Value> {
    if (down) return Status::Internal("udf down");
    return args.at(0);
  });
  AddPair(1, 10, 20);
  AddToken(1, "married");
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());

  std::map<std::string, DeltaSet> delta;
  delta["Pair"][Tuple({Value::Int(2), Value::Int(30), Value::Int(40)})] = 1;
  delta["Token"][Tuple({Value::Int(2), Value::String("married")})] = 1;
  delta["Token"][Tuple({Value::Int(2), Value::String("divorced")})] = 1;
  down = true;
  EXPECT_FALSE(grounder.ApplyDeltas(delta).ok());
  down = false;
  ASSERT_TRUE(grounder.ApplyDeltas({}).ok());
  EXPECT_EQ(grounder.stats().num_factors, 3u);
  EXPECT_EQ(grounder.stats().num_weights, 2u);
}

TEST_F(GrounderTest, DeletionMakesVariableInert) {
  AddPair(1, 10, 20);
  AddPair(2, 30, 40);
  AddToken(1, "married");
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  int64_t var = grounder.VarIdFor("Q", Tuple({Value::Int(10), Value::Int(20)}));
  ASSERT_GE(var, 0);

  std::map<std::string, DeltaSet> delta;
  delta["Pair"][Tuple({Value::Int(1), Value::Int(10), Value::Int(20)})] = -1;
  ASSERT_TRUE(grounder.ApplyDeltas(delta).ok());

  // The candidate is gone; its variable id persists but is inert.
  EXPECT_EQ(grounder.VarIdFor("Q", Tuple({Value::Int(10), Value::Int(20)})), -1);
  EXPECT_TRUE(grounder.graph().is_evidence(static_cast<uint32_t>(var)));
  // Its factor disappeared with it.
  EXPECT_EQ(grounder.stats().num_factors, 0u);
  // The deleted variable is reported as changed.
  auto& changed = grounder.changed_vars();
  EXPECT_NE(std::find(changed.begin(), changed.end(), static_cast<uint32_t>(var)),
            changed.end());

  // Re-inserting revives the same variable id (stable identity).
  delta.clear();
  delta["Pair"][Tuple({Value::Int(1), Value::Int(10), Value::Int(20)})] = 1;
  ASSERT_TRUE(grounder.ApplyDeltas(delta).ok());
  EXPECT_EQ(grounder.VarIdFor("Q", Tuple({Value::Int(10), Value::Int(20)})), var);
  EXPECT_EQ(grounder.stats().num_factors, 1u);
}

TEST_F(GrounderTest, SavedWeightsSurviveRebuild) {
  AddPair(1, 10, 20);
  AddToken(1, "married");
  Grounder grounder(&catalog_, &program_, &udfs_);
  ASSERT_TRUE(grounder.Initialize().ok());
  ASSERT_EQ(grounder.graph().num_weights(), 1u);
  grounder.mutable_graph()->set_weight_value(0, 2.75);
  grounder.SaveWeights();

  std::map<std::string, DeltaSet> delta;
  delta["Token"][Tuple({Value::Int(1), Value::String("wife")})] = 1;
  ASSERT_TRUE(grounder.ApplyDeltas(delta).ok());
  // The "married" weight kept its learned value across the rebuild.
  bool found = false;
  for (uint32_t w = 0; w < grounder.graph().num_weights(); ++w) {
    if (grounder.WeightKey(w).find("married") != std::string::npos) {
      EXPECT_DOUBLE_EQ(grounder.graph().weight(w).value, 2.75);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(GrounderCorrelationTest, ImplyFactorBetweenQueryRelations) {
  auto program = ParseDdlog(R"(
    Link(x: int, y: int).
    A?(x: int).
    B?(x: int).
    A(x) :- Link(x, y).
    B(y) :- Link(x, y).
    A(x) => B(y) :- Link(x, y) weight = 2.0.
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Catalog catalog;
  Table* link = *catalog.CreateTable(
      "Link", Schema({{"x", ValueType::kInt}, {"y", ValueType::kInt}}));
  ASSERT_TRUE(link->Insert(Tuple({Value::Int(1), Value::Int(2)})).ok());
  UdfRegistry udfs;
  Grounder grounder(&catalog, &*program, &udfs);
  ASSERT_TRUE(grounder.Initialize().ok()) << "init failed";
  EXPECT_EQ(grounder.stats().num_variables, 2u);
  EXPECT_EQ(grounder.stats().num_factors, 1u);
  ASSERT_EQ(grounder.graph().num_factors(), 1u);
  EXPECT_EQ(grounder.graph().factor_func(0), FactorFunc::kImply);
  EXPECT_TRUE(grounder.graph().weight(0).is_fixed);
  EXPECT_DOUBLE_EQ(grounder.graph().weight(0).value, 2.0);

  // The imply factor couples the marginals: P(B) > 0.5 given weight>0.
  auto marginals = ExactMarginals(grounder.graph());
  ASSERT_TRUE(marginals.ok());
  int64_t b_var = grounder.VarIdFor("B", Tuple({Value::Int(2)}));
  ASSERT_GE(b_var, 0);
  EXPECT_GT((*marginals)[static_cast<size_t>(b_var)], 0.5);
}

// Incremental grounding cost follows the delta, not the history: the
// same k-tuple delta applied at base sizes N and 4N drafts the same
// pseudo rows and indexes the same number of rows, at most c·k of each.
// Sentence s has the same content at every size, and every join the
// delta drives is keyed by sentence or by entity pair, so matches do
// not grow with N.
constexpr char kScalingProgram[] = R"(
  Token(s: int, t: text).
  Pair(s: int, a: int, b: int).
  Link(a: int, b: int).
  Q?(s: int, a: int, b: int).
  Q_Ev(s: int, a: int, b: int, label: bool).
  R?(s: int, a: int).

  Q(s, a, b) :- Pair(s, a, b).
  Q(s, a, b) :- Pair(s, a, b), Token(s, t) weight = identity(t).
  Q(s, a, b) :- Pair(s, a, b), !Link(a, b) weight = 0.25.
  R(s, a) :- Pair(s, a, b), Link(a, b).
  Q(s, a, b) => R(s, a) :- Pair(s, a, b), Link(a, b) weight = 0.9.
  Q_Ev(s, a, b, true) :- Pair(s, a, b), Link(b, a).
)";

struct RoundCost {
  uint64_t drafts = 0;
  uint64_t index_rows = 0;
  size_t factors = 0;
};

RoundCost GroundAndApply(int64_t num_sentences, const std::map<std::string, DeltaSet>& delta) {
  auto program = ParseDdlog(kScalingProgram);
  EXPECT_TRUE(program.ok()) << program.status().ToString();
  Catalog catalog;
  Table* token = *catalog.CreateTable(
      "Token", Schema({{"s", ValueType::kInt}, {"t", ValueType::kString}}));
  Table* pair = *catalog.CreateTable(
      "Pair", Schema({{"s", ValueType::kInt}, {"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  Table* link = *catalog.CreateTable(
      "Link", Schema({{"a", ValueType::kInt}, {"b", ValueType::kInt}}));
  for (int64_t s = 0; s < num_sentences; ++s) {
    for (int64_t k = 0; k < 3; ++k) {
      EXPECT_TRUE(token->Insert(Tuple({Value::Int(s), Value::String(
                                           "w" + std::to_string((s * 7 + k) % 11))})).ok());
    }
    EXPECT_TRUE(pair->Insert(Tuple({Value::Int(s), Value::Int(s % 5), Value::Int((s + 1) % 5)}))
                    .ok());
  }
  for (int64_t a = 0; a < 5; ++a) {
    EXPECT_TRUE(link->Insert(Tuple({Value::Int(a), Value::Int((a + 1) % 5)})).ok());
  }
  UdfRegistry udfs;
  RegisterBuiltinUdfs(&udfs);
  GroundingOptions options;
  options.num_threads = 1;
  Grounder grounder(&catalog, &*program, &udfs, options);
  EXPECT_TRUE(grounder.Initialize().ok());

  Counter* drafts = MetricsRegistry::Instance().GetCounter("dd.grounding.drafts_built");
  Counter* index_rows =
      MetricsRegistry::Instance().GetCounter("dd.grounding.index_rows_built");
  RoundCost cost;
  cost.drafts = drafts->Value();
  cost.index_rows = index_rows->Value();
  Status st = grounder.ApplyDeltas(delta);
  EXPECT_TRUE(st.ok()) << st.ToString();
  cost.drafts = drafts->Value() - cost.drafts;
  cost.index_rows = index_rows->Value() - cost.index_rows;
  cost.factors = grounder.stats().num_factors;
  return cost;
}

TEST(IncrementalGroundingCostTest, RoundCostFollowsDeltaNotBase) {
  MetricsRegistry::SetEnabled(true);
  // k = 8 base tuples: a new sentence (3 tokens, 2 pairs), one pair and
  // one token of sentence 3 deleted, one new token for sentence 5.
  std::map<std::string, DeltaSet> delta;
  const int64_t fresh = 1000000;
  for (const char* t : {"w1", "w2", "w3"}) {
    delta["Token"][Tuple({Value::Int(fresh), Value::String(t)})] = 1;
  }
  delta["Pair"][Tuple({Value::Int(fresh), Value::Int(1), Value::Int(2)})] = 1;
  delta["Pair"][Tuple({Value::Int(fresh), Value::Int(2), Value::Int(1)})] = 1;
  delta["Pair"][Tuple({Value::Int(3), Value::Int(3), Value::Int(4)})] = -1;
  delta["Token"][Tuple({Value::Int(3), Value::String("w2")})] = -1;
  delta["Token"][Tuple({Value::Int(5), Value::String("new")})] = 1;
  const size_t k = 8;

  const int64_t n = 200;
  const RoundCost small = GroundAndApply(n, delta);
  const RoundCost large = GroundAndApply(4 * n, delta);
  EXPECT_GT(large.factors, 3 * small.factors);  // the base really grew
  EXPECT_GT(small.drafts, 0u);
  EXPECT_EQ(small.drafts, large.drafts);
  EXPECT_EQ(small.index_rows, large.index_rows);
  constexpr uint64_t c = 8;
  EXPECT_LE(small.drafts, c * k);
  EXPECT_LE(small.index_rows, c * k);
}

TEST(GrounderErrorsTest, MissingUdfFails) {
  auto program = ParseDdlog(R"(
    T(x: int, t: text).
    Q?(x: int).
    Q(x) :- T(x, t) weight = no_such_udf(t).
  )");
  ASSERT_TRUE(program.ok());
  Catalog catalog;
  Table* t = *catalog.CreateTable(
      "T", Schema({{"x", ValueType::kInt}, {"t", ValueType::kString}}));
  ASSERT_TRUE(t->Insert(Tuple({Value::Int(1), Value::String("a")})).ok());
  UdfRegistry udfs;
  Grounder grounder(&catalog, &*program, &udfs);
  Status st = grounder.Initialize();
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
}

TEST(GrounderErrorsTest, InvalidProgramFailsInitialize) {
  auto program = ParseDdlog("Q(x) :- Mystery(x).");
  ASSERT_TRUE(program.ok());
  Catalog catalog;
  UdfRegistry udfs;
  Grounder grounder(&catalog, &*program, &udfs);
  EXPECT_FALSE(grounder.Initialize().ok());
}

}  // namespace
}  // namespace dd
