#ifndef DEEPDIVE_GROUNDING_GROUNDER_H_
#define DEEPDIVE_GROUNDING_GROUNDER_H_

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/udf.h"
#include "ddlog/ast.h"
#include "factor/graph.h"
#include "query/datalog.h"
#include "query/dred.h"
#include "query/source.h"
#include "storage/catalog.h"
#include "util/result.h"

namespace dd {

class TraceSpan;

/// Maps a factor-graph variable back to its database tuple — the link
/// DeepDive maintains so every marginal can be "reloaded into the
/// database" (§3.4) and every decision stays debuggable (§2.5).
struct VarInfo {
  std::string relation;
  int64_t row_id = -1;
  bool live = true;  ///< false once the tuple was deleted by a delta
};

/// Knobs for graph construction.
struct GroundingOptions {
  /// Fraction of labeled candidates held out of training: they keep
  /// their distant label for scoring (Fig. 5's test set) but are NOT
  /// clamped as evidence. Selection is a deterministic hash of the
  /// tuple, so it is stable across incremental rebuilds.
  double holdout_fraction = 0.0;
  uint64_t holdout_seed = 0x5eedULL;
  /// Worker threads for the grounding pipeline: datalog evaluation,
  /// DRed delta joins, the evidence scan, and factor assembly all fan
  /// out morsels onto one shared dd::ThreadPool. 0 = hardware
  /// concurrency; 1 = the legacy single-threaded path, kept reachable as
  /// the oracle for differential testing. The produced FactorGraph —
  /// ids, weights, CSR layout, compiled kernel streams — is byte-
  /// identical at every setting (see DESIGN.md §10 for the merge rule).
  size_t num_threads = 0;
  /// Externally owned pool to share instead of creating one (e.g. the
  /// pipeline's phase-scheduler pool, so grounding morsels and phase
  /// nodes interleave on the same workers). When set, num_threads is
  /// ignored. Must outlive the Grounder.
  ThreadPool* pool = nullptr;
  /// Rows per morsel for parallel scans. 0 (the default) = adaptive
  /// per-operator sizing from the operator's estimated per-item cost
  /// (AdaptiveMorselSize); tests pin small values to exercise multi-
  /// morsel merging on tiny corpora. Either way the decomposition is a
  /// deterministic function of the input, never of thread count.
  size_t morsel_size = 0;
};

/// Summary statistics of a (re-)grounding pass. All fields are exact at
/// any thread count: counts touched by parallel scans are accumulated
/// per morsel and merged on the coordinating thread (never mutated from
/// workers), so the struct itself stays plain ints with no atomics.
struct GroundingStats {
  size_t num_variables = 0;
  size_t num_factors = 0;
  size_t num_weights = 0;
  size_t num_evidence = 0;
  size_t num_conflicting_labels = 0;  ///< tuples with both true and false labels
  size_t num_orphan_evidence = 0;     ///< _Ev rows with no matching candidate
  size_t num_holdout = 0;             ///< labeled candidates held out of training
  /// Time spent evaluating the datalog program vs building the factor
  /// graph from the evaluated tables (registry, evidence, drafting and
  /// assembly). Both are incremental under DRed: evaluation joins only
  /// the delta, drafting touches only new pseudo rows; assembly is the
  /// part that stays proportional to the graph. Under the overlapped
  /// schedule these are sums of per-node execution times, so attribution
  /// stays exact even when eval and build nodes interleave.
  double eval_seconds = 0;
  double build_seconds = 0;
};

/// The grounding engine (§3.3, §4.1). Given a DDlog program, a catalog
/// holding the base relations, and a UDF registry, it:
///
///  1. rewrites every feature/correlation rule into a derivation rule
///     targeting a pseudo-relation `__factors_<i>` whose rows are the
///     rule's groundings — so factor maintenance *is* view maintenance;
///  2. evaluates all derivation rules, incrementally when the program is
///     non-recursive (DRed, §4.1) and by full semi-naive evaluation
///     otherwise;
///  3. builds the explicit factor graph: one Boolean variable per query-
///     relation tuple, one factor per pseudo-relation row, weights tied
///     by (rule, feature value) keys, evidence applied from `X_Ev`
///     tables.
///
/// Execution is structured as a TaskGraph (DESIGN.md §11): registry
/// extension, the evidence scan, and per-rule factor drafting are nodes
/// with explicit dependency edges, and for recursive programs the
/// stratum-evaluation nodes join the same graph — so drafting factors
/// for stratum k's pseudo-relations overlaps with evaluating stratum
/// k+1. The final single-threaded assemble node merges all drafts in
/// deterministic order, keeping the result byte-identical to the serial
/// schedule.
///
/// Variable ids are stable across ApplyDeltas() calls: surviving tuples
/// keep their id, deleted tuples leave an inert variable behind, new
/// tuples extend the id space. That stability is what lets incremental
/// inference warm-start from materialized state.
class Grounder {
 public:
  /// `catalog` must already contain the declared base relations
  /// (populated); derived/query/pseudo tables are created by Initialize.
  /// All pointers must outlive the Grounder.
  Grounder(Catalog* catalog, const DdlogProgram* program, const UdfRegistry* udfs,
           const GroundingOptions& options = GroundingOptions());
  ~Grounder();

  /// Analyze the program, create derived tables, run initial evaluation,
  /// and build the first factor graph.
  Status Initialize();

  /// DRed path: apply base-relation presence deltas, propagate through
  /// candidates and factors, rebuild the graph. Fails with Unimplemented
  /// if the program is recursive (use Reground() instead).
  Status ApplyDeltas(const std::map<std::string, DeltaSet>& base_deltas);

  /// Full re-evaluation from the current base tables (clears derived
  /// state). The baseline the paper compares DRed against.
  Status Reground();

  const FactorGraph& graph() const { return graph_; }
  FactorGraph* mutable_graph() { return &graph_; }
  const std::vector<VarInfo>& var_info() const { return var_info_; }
  const GroundingStats& stats() const { return stats_; }

  /// Variables affected by the most recent ApplyDeltas (new variables,
  /// evidence flips, variables in added/removed factors). Feed to
  /// IncrementalInference::Update.
  const std::vector<uint32_t>& changed_vars() const { return changed_vars_; }

  /// Variable id of a live query tuple, or -1.
  int64_t VarIdFor(const std::string& relation, const Tuple& tuple) const;

  /// Persist learned weights (by tying key) so the next rebuild warm-
  /// starts them. Call after Learner::Learn on mutable_graph().
  void SaveWeights();

  /// Human-readable description of a weight (its tying key).
  const std::string& WeightKey(uint32_t weight_id) const;

  /// Labeled-but-unclamped variables: (var id, distant label). The
  /// calibration test set (empty unless holdout_fraction > 0).
  const std::vector<std::pair<uint32_t, bool>>& holdout() const { return holdout_; }

  /// Observation count of each weight in the current graph (# factors),
  /// surfaced in error analysis (§2.5: "the number of times the feature
  /// was observed in the training data").
  const std::vector<uint64_t>& weight_observations() const {
    return weight_observations_;
  }

 private:
  static constexpr uint32_t kNoVar = 0xffffffffu;

  /// A pseudo-relation row drafted once: its variables resolved and its
  /// weight tying key interned (the expensive part, including the UDF
  /// call). Row ids and registry ids are stable until the derived tables
  /// are cleared, so a draft stays valid across rounds; whether it
  /// yields a factor is decided at assembly from the liveness of the row
  /// and of its variables.
  struct FactorDraft {
    uint32_t head_var = kNoVar;  ///< kNoVar: head or implied tuple had no row yet
    uint32_t implied_var = kNoVar;
    uint32_t key = 0;            ///< index into the rule's interned keys
  };

  /// An interned weight tying key and the learned value SaveWeights kept.
  struct TyingKey {
    std::string text;
    double init = 0.0;
    bool fixed = false;
    bool saved = false;
    double saved_value = 0.0;
  };

  struct FactorRuleMeta {
    size_t rule_index = 0;            ///< index into program_->rules
    std::string pseudo_relation;
    std::string head_relation;        ///< query relation of the (first) head
    size_t head_arity = 0;
    // Correlation rules only:
    std::string implied_relation;
    size_t implied_arity = 0;
    bool is_correlation = false;
    size_t weight_args_begin = 0;     ///< column offset of weight args
    size_t num_weight_args = 0;

    // Draft cache, by pseudo row id: rows [0, drafts.size()) are drafted.
    std::vector<FactorDraft> drafts;
    std::vector<int64_t> unresolved;  ///< drafted rows to retry each round
    // Interned tying keys. Keys embed the rule index, so each rule owns
    // its own and draft nodes of different rules never share one.
    std::vector<TyingKey> keys;
    std::unordered_map<std::string, uint32_t> key_ids;
  };

  /// A `<query>_Ev` row resolved once: the query row its tuple names
  /// (kept when tombstoned) and its label.
  struct EvidenceRow {
    int64_t target_row = -1;  ///< -1: no such query tuple yet (an orphan)
    int8_t label = -1;        ///< -1: malformed row, never evidence
  };

  /// A query relation: its variable registry and its evidence cache.
  struct QueryRelation {
    std::string name;
    /// Stable variable registry: row id -> var id, kNoVar for rows never
    /// live at a registry pass.
    std::vector<uint32_t> row_var;
    size_t rows_seen = 0;  ///< rows [0, rows_seen) visited by a pass
    /// Registered tuples and their var ids, kept while ClearDerivedTables
    /// renumbers the rows; the next registry pass re-binds each tuple
    /// that is back to its old id and marks the others dead.
    std::vector<std::pair<Tuple, uint32_t>> carried;
    std::vector<EvidenceRow> evidence;  ///< by `<name>_Ev` row id
    std::vector<int64_t> orphans;       ///< evidence rows to retry each round
  };

  /// Rewrite program rules: derivations stay, feature/correlation rules
  /// become pseudo-relation derivations. Fills rewritten_rules_ and
  /// factor_rule_meta_.
  Status RewriteRules();
  Status CreateDerivedTables();
  /// Clear every derived table (they must start empty for evaluation),
  /// and with their row ids every draft and evidence cache. The variable
  /// registry is carried over by tuple.
  Status ClearDerivedTables();
  /// Build the factor graph as a TaskGraph of registry / evidence /
  /// draft / assemble nodes. With a non-null `eval_strat` (recursive
  /// programs), stratum-evaluation nodes join the same graph and build
  /// nodes hang off the strata that produce their inputs — eval and
  /// build overlap. `deltas` are the presence deltas of the round (null
  /// after a full evaluation: the registry pass then visits every row).
  /// Sets stats_.build_seconds, and stats_.eval_seconds when eval nodes
  /// ran here (callers overwrite it otherwise).
  Status BuildGraph(const Stratification* eval_strat,
                    const std::map<std::string, DeltaSet>* deltas);
  /// Node bodies of BuildGraph's task graph:
  Status ExtendVarRegistry(const std::map<std::string, DeltaSet>* deltas);
  Status ApplyEvidence(std::vector<int8_t>* evidence,
                       std::vector<uint8_t>* conflict, size_t* orphans);
  /// Draft the pseudo rows of rule `i` appended since the last round and
  /// retry its unresolved ones.
  Status DraftFactors(size_t i);
  /// The single-threaded tail: add variables (evidence/holdout/conflict
  /// policy), emit a factor for every live draft in (rule, row) order,
  /// finalize the graph, fill stats_. The only node that mutates graph_.
  Status AssembleGraph(const std::vector<int8_t>& evidence,
                       const std::vector<uint8_t>& conflict, size_t orphans,
                       TraceSpan* span);
  Status CollectChangedVars(const std::map<std::string, DeltaSet>& deltas);
  const QueryRelation* FindQueryRelation(const std::string& name) const;
  /// Registry lookup: var id of `row` of `relation`, or kNoVar.
  uint32_t VarOf(const std::string& relation, int64_t row) const;
  /// How rule evaluation and graph assembly fan out (pool is null when
  /// num_threads resolves to 1 — the serial oracle path).
  EvalParallelism Parallelism();

  Catalog* catalog_;
  const DdlogProgram* program_;
  const UdfRegistry* udfs_;
  GroundingOptions options_;
  size_t num_threads_ = 1;           ///< resolved worker count
  std::unique_ptr<ThreadPool> pool_; ///< owned pool; null when serial or shared

  std::vector<ConjunctiveRule> rewritten_rules_;
  std::vector<FactorRuleMeta> factor_rule_meta_;
  std::unique_ptr<IncrementalEngine> incremental_;  // null if recursive program
  bool use_incremental_ = false;

  std::vector<QueryRelation> query_relations_;  // declaration order
  std::vector<VarInfo> var_info_;
  std::vector<uint8_t> held_out_;  ///< per var: the deterministic holdout coin

  FactorGraph graph_;
  GroundingStats stats_;
  std::vector<std::pair<uint32_t, bool>> holdout_;
  std::vector<uint32_t> changed_vars_;
  /// weight id -> (factor rule, key) of its tying key
  std::vector<std::pair<uint32_t, uint32_t>> weight_keys_;
  std::vector<uint64_t> weight_observations_;
  bool initialized_ = false;
};

}  // namespace dd

#endif  // DEEPDIVE_GROUNDING_GROUNDER_H_
