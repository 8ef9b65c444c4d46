#ifndef DEEPDIVE_QUERY_SOURCE_H_
#define DEEPDIVE_QUERY_SOURCE_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/table.h"
#include "storage/tuple.h"

namespace dd {

/// A signed multiset of tuples; the unit of change in incremental
/// maintenance. Positive counts are insertions, negative deletions.
/// Transparent hash/eq let table scans probe by RowRef without
/// materializing a Tuple per row.
using DeltaSet = std::unordered_map<Tuple, int64_t, TupleHash, TupleEq>;

/// Abstract relation view consumed by the join evaluator. A source yields
/// (row, count) pairs; for ordinary tables counts are always 1 (set
/// semantics), for delta views they are signed.
///
/// Rows are handed out as RowRef — a zero-allocation view into columnar
/// table storage or into a delta-map key. The referenced storage is
/// stable for the lifetime of the source's frozen round (tables are not
/// mutated mid-scan, delta-map keys do not move), so the evaluator may
/// retain the refs in join indexes.
///
/// A source with a backing table reads as that table's live rows minus
/// erased_rows(), in ascending row id, followed by the ForEachInserted()
/// rows. The split lets the evaluator answer a probe from an index kept
/// over the whole table (JoinIndexCache) plus a small private index over
/// the inserted rows, so a batch never rescans the table.
class TupleSource {
 public:
  virtual ~TupleSource() = default;

  /// Enumerate every row with its count (count never 0). The default
  /// walks the backing table's visible rows, then the inserted rows.
  virtual void ForEach(const std::function<void(const RowRef&, int64_t)>& fn) const {
    if (const Table* table = backing_table()) {
      const std::unordered_set<int64_t>* erased = erased_rows();
      const size_t n = table->capacity();
      for (size_t i = 0; i < n; ++i) {
        const int64_t id = static_cast<int64_t>(i);
        if (!table->is_live(id) || (erased != nullptr && erased->count(id) > 0)) continue;
        fn(table->ref(id), 1);
      }
    }
    ForEachInserted(fn);
  }

  /// Count of a specific tuple (0 if absent).
  virtual int64_t Count(const Tuple& tuple) const = 0;

  /// The Table whose live rows this source reads (count 1 each), or
  /// nullptr. Non-null lets the evaluator probe shared hash indexes over
  /// the table instead of building a private one per join.
  virtual const Table* backing_table() const { return nullptr; }

  /// Live rows of the backing table the source hides, or nullptr if none.
  virtual const std::unordered_set<int64_t>* erased_rows() const { return nullptr; }

  /// Rows the source adds beyond its backing table, in emission order.
  virtual void ForEachInserted(
      const std::function<void(const RowRef&, int64_t)>& fn) const {
    (void)fn;
  }
};

/// View over a live Table (count 1 per live row).
class TableSource : public TupleSource {
 public:
  explicit TableSource(const Table* table) : table_(table) {}

  int64_t Count(const Tuple& tuple) const override {
    return table_->Contains(tuple) ? 1 : 0;
  }

  const Table* backing_table() const override { return table_; }

 private:
  const Table* table_;
};

/// View over a DeltaSet (signed counts).
class DeltaSource : public TupleSource {
 public:
  explicit DeltaSource(const DeltaSet* delta) : delta_(delta) {}

  void ForEach(const std::function<void(const RowRef&, int64_t)>& fn) const override {
    for (const auto& [tuple, count] : *delta_) {
      if (count != 0) fn(RowRef(&tuple), count);
    }
  }

  int64_t Count(const Tuple& tuple) const override {
    auto it = delta_->find(tuple);
    return it == delta_->end() ? 0 : it->second;
  }

 private:
  const DeltaSet* delta_;
};

/// Presence view of "table after applying delta" without mutating the
/// table. Presence (count 1) iff base + delta > 0. Used as the "new
/// state" view during batch incremental maintenance. Its rows are the
/// table's live rows the delta does not drive to zero, in row order,
/// then the tuples only the delta makes present, in the delta's
/// iteration order — a tombstoned tuple the delta revives is one of
/// those, not a row of the table.
class OverlaySource : public TupleSource {
 public:
  OverlaySource(const Table* table, const DeltaSet* delta)
      : table_(table), delta_(delta) {
    for (const auto& [tuple, count] : *delta_) {
      if (count > 0) {
        if (!table_->Contains(tuple)) inserted_.push_back(&tuple);
      } else if (count < 0) {
        const int64_t row = table_->Find(tuple);
        if (row >= 0) erased_.insert(row);
      }
    }
  }

  int64_t Count(const Tuple& tuple) const override {
    int64_t base = table_->Contains(tuple) ? 1 : 0;
    auto it = delta_->find(tuple);
    int64_t d = it == delta_->end() ? 0 : it->second;
    return base + d > 0 ? 1 : 0;
  }

  const Table* backing_table() const override { return table_; }

  const std::unordered_set<int64_t>* erased_rows() const override {
    return erased_.empty() ? nullptr : &erased_;
  }

  void ForEachInserted(
      const std::function<void(const RowRef&, int64_t)>& fn) const override {
    for (const Tuple* tuple : inserted_) fn(RowRef(tuple), 1);
  }

 private:
  const Table* table_;
  const DeltaSet* delta_;
  std::unordered_set<int64_t> erased_;    ///< live rows the delta deletes
  std::vector<const Tuple*> inserted_;    ///< delta-map keys, in map order
};

}  // namespace dd

#endif  // DEEPDIVE_QUERY_SOURCE_H_
