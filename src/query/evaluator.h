#ifndef DEEPDIVE_QUERY_EVALUATOR_H_
#define DEEPDIVE_QUERY_EVALUATOR_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "query/rule.h"
#include "query/source.h"
#include "storage/catalog.h"
#include "util/result.h"
#include "util/status.h"

namespace dd {

/// One body atom paired with the relation view it should read from.
/// Pairing atoms with explicit views (instead of always the catalog) is
/// what lets the same evaluator run full evaluation, semi-naive deltas,
/// and DRed old/new split joins.
struct AtomInput {
  const Atom* atom = nullptr;
  const TupleSource* source = nullptr;
};

/// Callback receiving one satisfying assignment: `slots` holds the value
/// of every variable (indexed by CompiledConjunction::SlotOf), `mult` is
/// the signed multiplicity (product of source counts along the join).
using BindingEmit = std::function<void(const std::vector<Value>& slots, int64_t mult)>;

/// Hash indexes over tables, keyed by (table, key positions) and shared
/// by every join that probes the same table on the same positions. A
/// cache may live one frozen round (DatalogEngine) or across batches
/// (IncrementalEngine): an index lists row ids and keeps tombstoned rows
/// — readers skip rows that are not live — so a table's erasures and
/// revivals need no index update and its growth needs only CatchUp(),
/// which indexes the rows appended since. That is what makes a DRed
/// batch cost O(|delta|) instead of O(|R|) per probed table. Call
/// CatchUp() after mutating an indexed table and before the next probe.
class JoinIndexCache {
 public:
  /// Row ids with one key, ascending (tombstones included).
  using RowList = std::vector<int64_t>;

  struct SharedIndex {
    const Table* table = nullptr;
    std::vector<int> positions;
    size_t rows_indexed = 0;  ///< rows [0, rows_indexed) are in `map`
    std::unordered_map<Tuple, RowList, TupleHash> map;
  };

  /// Index of `table` on `positions` (built on first request).
  const SharedIndex* Get(const Table* table, const std::vector<int>& positions);

  /// Index every row appended to an indexed table since its last build.
  void CatchUp();

 private:
  /// Index rows [rows_indexed, capacity); rebuild if the table shrank
  /// (a Table::Clear renumbers its rows).
  static void Extend(SharedIndex* index);

  std::map<std::pair<const Table*, std::vector<int>>, std::unique_ptr<SharedIndex>>
      cache_;
};

/// A conjunctive body compiled to slot-based form and evaluated with
/// hash-join indexes built lazily per atom position.
///
/// Evaluation order is the given atom order. Positive atoms with unbound
/// variables are enumerated (via an index on their bound positions);
/// fully-bound positive atoms become membership probes; negated atoms
/// must be fully bound at their position and become absence probes.
///
/// Morsel-parallel evaluation (DESIGN.md §10): the outermost loop — the
/// enumeration of the first atom's matching rows — can be split into
/// contiguous slices and run concurrently. Call PrepareIndexes() once
/// (builds every join index on the calling thread), then RunMorsel()
/// from any number of threads; after preparation the conjunction is
/// strictly read-only. RunMorsel(b, e) emits exactly the bindings Run()
/// would emit while enumerating top-level rows [b, e), in the same
/// order, so concatenating morsel outputs in morsel order reproduces the
/// serial emission sequence bit-for-bit.
class CompiledConjunction {
 public:
  /// Compile; fails if a negated atom would be reached with unbound
  /// variables, or a condition references a variable no atom binds.
  /// With a non-null `index_cache`, table-backed atoms reuse shared
  /// indexes instead of building private ones.
  Status Build(std::vector<AtomInput> atoms, const std::vector<Condition>* conditions,
               JoinIndexCache* index_cache = nullptr);

  /// Slot index of a variable, or -1 if the variable never occurs.
  int SlotOf(const std::string& var) const;

  size_t num_slots() const { return slot_names_.size(); }

  /// Enumerate all satisfying bindings. Indexes are built on first use
  /// and reused across the enumeration.
  void Run(const BindingEmit& emit) const;

  /// Build every join index now (on the calling thread). Required before
  /// concurrent RunMorsel calls: afterwards evaluation only reads.
  void PrepareIndexes() const;

  /// Number of top-level enumeration units: the match-list size of the
  /// first atom's index (1 when the first atom is a probe, or the body
  /// is empty — a single indivisible unit). Builds the first index if
  /// needed; call from one thread before fanning out.
  size_t TopLevelSize() const;

  /// Enumerate bindings whose top-level unit lies in [begin, end).
  /// Thread-safe after PrepareIndexes(); each caller passes its own
  /// emit closure (typically appending to a per-morsel buffer).
  void RunMorsel(size_t begin, size_t end, const BindingEmit& emit) const;

  /// Rough cost of expanding one top-level unit, in probe units (one
  /// hash probe ≈ 1): each atom past the first is about one index probe
  /// plus unification, plus one unit per condition. Feeds
  /// EvalParallelism::MorselSizeFor so join-heavy rules split finer.
  double EstimatedUnitCost() const;

 private:
  struct TermPlan {
    bool is_constant = false;
    Value constant;
    int slot = -1;
    bool first_occurrence = false;  // binds the slot (vs. consistency check)
  };
  struct AtomPlan {
    const TupleSource* source = nullptr;
    bool negated = false;
    bool all_bound = false;          // membership probe instead of scan
    std::vector<TermPlan> terms;
    std::vector<int> bound_positions;    // term positions with known value
    std::vector<int> conditions_ready;   // condition ids checkable after this atom
  };
  struct ConditionPlan {
    bool lhs_const = false, rhs_const = false;
    Value lhs_value, rhs_value;
    int lhs_slot = -1, rhs_slot = -1;
    CmpOp op = CmpOp::kEq;
  };
  /// Rows matching one key: zero-copy refs into the source's stable
  /// storage (columnar table rows or delta-map keys).
  using MatchList = std::vector<std::pair<RowRef, int64_t>>;
  /// Hash index on an atom's bound positions: key tuple -> matching rows.
  /// With a shared (cache-owned) index over the source's backing table,
  /// a key's matches are the shared rows that are live and not erased,
  /// then the private `map` rows (the source's inserted rows); without
  /// one, `map` holds every row of the source.
  struct Index {
    bool built = false;
    const JoinIndexCache::SharedIndex* shared = nullptr;
    const std::unordered_set<int64_t>* erased = nullptr;
    std::unordered_map<Tuple, MatchList, TupleHash> map;
  };
  /// One key's matches: the shared row list followed by the private list.
  /// Unit i < shared size is shared row i (skipped unless visible); the
  /// rest index the private list, so [0, size()) is the enumeration order.
  struct Matches {
    const JoinIndexCache::RowList* shared = nullptr;
    const Table* table = nullptr;
    const std::unordered_set<int64_t>* erased = nullptr;
    const MatchList* own = nullptr;

    size_t shared_size() const { return shared == nullptr ? 0 : shared->size(); }
    size_t size() const { return shared_size() + (own == nullptr ? 0 : own->size()); }
  };

  void Recurse(size_t depth, std::vector<Value>& slots, int64_t mult,
               const BindingEmit& emit) const;
  /// Unify one enumerated row at `depth`, check its ready conditions,
  /// and recurse. Shared by Run (all rows) and RunMorsel (a slice).
  void TryRow(size_t depth, const RowRef& row, int64_t count,
              std::vector<Value>& slots, int64_t mult, const BindingEmit& emit) const;
  bool CheckCondition(const ConditionPlan& c, const std::vector<Value>& slots) const;
  const Index& GetIndex(size_t depth) const;
  /// Matches of `key` in the index at `depth` (built on first use).
  Matches Lookup(size_t depth, const Tuple& key) const;
  /// TryRow over match units [begin, end) of `m`, in order.
  void TryMatches(size_t depth, const Matches& m, size_t begin, size_t end,
                  std::vector<Value>& slots, int64_t mult,
                  const BindingEmit& emit) const;
  /// Matches of the first atom (key built from constants only); empty
  /// when the first atom is a probe or the body is empty.
  Matches TopLevelRows() const;

  std::vector<AtomPlan> atoms_;
  std::vector<ConditionPlan> conditions_;
  JoinIndexCache* index_cache_ = nullptr;
  std::vector<std::string> slot_names_;
  std::unordered_map<std::string, int> slot_of_;
  mutable std::vector<Index> indexes_;
};

class ThreadPool;

/// How a query-side scan may fan out. A null pool means strictly serial
/// evaluation (the differential-testing oracle); with a pool, scans are
/// split into morsels and the per-morsel results are merged in morsel
/// order, which makes the parallel result — including emission order —
/// identical to serial at any thread count.
struct EvalParallelism {
  ThreadPool* pool = nullptr;
  /// Rows per morsel. 0 (the default) = adaptive per-operator sizing:
  /// MorselSizeFor picks a deterministic power of two from the
  /// operator's estimated per-item cost (AdaptiveMorselSize). Tests pin
  /// small fixed values to force multi-morsel merges on tiny inputs.
  size_t morsel_size = 0;

  /// Morsel size for a scan whose items cost ~cost_per_item probe units
  /// each: `morsel_size` when pinned, else AdaptiveMorselSize. Pure in
  /// its inputs, so the decomposition the merge depends on never varies
  /// with thread count or machine.
  size_t MorselSizeFor(double cost_per_item) const;
};

/// Convenience: evaluate a validated rule against the current catalog
/// state and emit head tuples (set semantics: duplicates may be emitted;
/// the caller dedups by inserting into a Table).
class RuleEvaluator {
 public:
  explicit RuleEvaluator(const Catalog* catalog) : catalog_(catalog) {}

  /// A rule compiled for repeated or parallel evaluation: the planned
  /// conjunction plus the table sources backing it. Movable. Valid only
  /// while the rule and catalog outlive it, and only until a table it
  /// reads is mutated — fixpoint evaluation recompiles per round against
  /// the round's frozen table state.
  struct CompiledRule {
    const ConjunctiveRule* rule = nullptr;
    CompiledConjunction cc;
    std::vector<std::unique_ptr<TableSource>> sources;
  };

  /// Compile `rule` against current catalog state: validates, orders
  /// atoms positive-first (so negated atoms are fully bound), checks
  /// head slots. With a non-null `cache`, table-backed atoms share
  /// indexes with other rules compiled in the same frozen round.
  Status Compile(const ConjunctiveRule& rule, JoinIndexCache* cache,
                 CompiledRule* out) const;

  /// Evaluate rule body over catalog tables; call emit(head_tuple) once
  /// per derivation. With non-serial `par`, the join runs morsel-
  /// parallel but emit is still called on this thread, in the exact
  /// order the serial evaluation would produce.
  /// A non-null `cache` supplies (and keeps) the join indexes.
  Status Evaluate(const ConjunctiveRule& rule,
                  const std::function<void(const Tuple&)>& emit,
                  const EvalParallelism& par = EvalParallelism(),
                  JoinIndexCache* cache = nullptr) const;

  /// Project a head tuple out of a slot assignment.
  static Tuple ProjectHead(const Atom& head, const CompiledConjunction& cc,
                           const std::vector<Value>& slots);

 private:
  const Catalog* catalog_;
};

}  // namespace dd

#endif  // DEEPDIVE_QUERY_EVALUATOR_H_
