#ifndef DEEPDIVE_QUERY_DRED_H_
#define DEEPDIVE_QUERY_DRED_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "query/evaluator.h"
#include "query/rule.h"
#include "query/source.h"
#include "storage/catalog.h"
#include "util/result.h"
#include "util/status.h"

namespace dd {

/// Incremental view maintenance in the style the paper describes (§4.1):
/// each derived relation R_i carries a delta relation with a `count`
/// column recording the number of derivations of each tuple; on an
/// update, delta rules propagate signed count changes through the
/// program, and a tuple's presence flips when its count crosses zero.
///
/// Supported programs: stratified and non-recursive (DeepDive grounding
/// programs are non-recursive in practice). Recursive programs are
/// rejected at Initialize() with Unimplemented; callers fall back to full
/// re-evaluation via DatalogEngine.
class IncrementalEngine {
 public:
  /// The engine takes ownership of the rule list; `catalog` must outlive
  /// the engine. Derived tables must already exist (empty) in the catalog.
  /// `par` controls morsel-parallel join scans (both the initial full
  /// evaluation and every delta join); derivation counts, table contents,
  /// and — crucially for grounding — derived-table row order are
  /// identical to serial evaluation at any thread count.
  IncrementalEngine(Catalog* catalog, std::vector<ConjunctiveRule> rules,
                    const EvalParallelism& par = EvalParallelism())
      : catalog_(catalog), rules_(std::move(rules)), par_(par) {}

  /// Full evaluation: populate derived tables and derivation counts. The
  /// evaluation builds the engine's join indexes, and every index a
  /// delta join will probe is built here too; batches only extend them.
  Status Initialize();

  /// Apply a batch of base-relation presence changes. Positive counts are
  /// insertions, negative deletions; no-op changes (inserting a present
  /// tuple, deleting an absent one) are ignored. On success the catalog —
  /// base and derived tables — reflects the new state, and the returned
  /// map holds the presence delta of every relation that changed
  /// (including the normalized base deltas).
  Result<std::map<std::string, DeltaSet>> ApplyDeltas(
      const std::map<std::string, DeltaSet>& base_deltas);

  /// Number of derivations currently recorded for a derived tuple.
  int64_t DerivationCount(const std::string& relation, const Tuple& tuple) const;

  /// Derived relations in dependency (evaluation) order.
  const std::vector<std::string>& topo_order() const { return topo_order_; }

 private:
  using CountMap = std::unordered_map<Tuple, int64_t, TupleHash>;
  /// New-state views of the relations with a pending delta, built once
  /// per batch (after the relation's delta is final).
  using Overlays = std::map<std::string, std::unique_ptr<OverlaySource>>;

  /// A delta join compiled against its sources.
  struct DeltaPlan {
    std::vector<std::unique_ptr<TupleSource>> owned;
    Atom stripped;  ///< the delta atom with its negation removed
    CompiledConjunction cc;
  };

  /// Compile one rule with the "delta expansion" at body position
  /// `delta_pos`: positions before it read the new state, the delta
  /// position scans `delta`, positions after it read the old state.
  Status PlanDeltaJoin(const ConjunctiveRule& rule, size_t delta_pos,
                       const DeltaSet* delta,
                       const std::map<std::string, DeltaSet>& pending,
                       Overlays* overlays, DeltaPlan* plan);

  /// Evaluate the delta join at `delta_pos`; signed head-count
  /// contributions accumulate into `out`.
  Status DeltaJoin(const ConjunctiveRule& rule, size_t delta_pos,
                   const std::map<std::string, DeltaSet>& pending,
                   Overlays* overlays, CountMap* out);

  Catalog* catalog_;
  std::vector<ConjunctiveRule> rules_;
  EvalParallelism par_;
  std::vector<std::string> topo_order_;
  std::set<std::string> derived_;
  std::map<std::string, std::vector<size_t>> rules_of_;  // head relation -> rule ids
  std::map<std::string, CountMap> counts_;
  /// Join indexes over base and derived tables, kept across batches:
  /// built by Initialize, extended at each commit.
  JoinIndexCache index_cache_;
  bool initialized_ = false;
};

}  // namespace dd

#endif  // DEEPDIVE_QUERY_DRED_H_
