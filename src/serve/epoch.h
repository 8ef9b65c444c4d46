#ifndef DEEPDIVE_SERVE_EPOCH_H_
#define DEEPDIVE_SERVE_EPOCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "factor/graph.h"
#include "storage/snapshot.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/status.h"

namespace dd {

/// ---- Serving epochs -----------------------------------------------------
///
/// An epoch is one immutable generation of the knowledge base: a factor
/// graph, its materialized marginals, and the variable -> (relation, row)
/// map that makes marginals addressable as facts. On disk it is a DDSN
/// container (factor/io.h envelope: per-section CRC32C, atomic writes)
/// with sections:
///
///   META  key=value lines: kind=serving-epoch, epoch=<id>, variables=<n>
///   GRBN  the factor graph (storage/snapshot.h binary layout)
///   VARS  u64 count, liveness words (Bitmap layout), count u32 relation
///         pool ids, zero-pad to 8, count u64 row ids
///   PROB  u64 count, count IEEE-754 doubles (the marginals)
///   DICT  string pool shared by GRBN weight descriptions and VARS
///         relation names
///
/// VARS and PROB use the same 1-byte-pad alignment protocol as the other
/// binary sections, so a MappedSnapshot exposes them as 8-aligned arrays
/// readable in place: loading an epoch validates everything but
/// materializes only the (relation, row) -> variable index.

/// One variable's database identity, supplied by the publisher.
struct EpochVarEntry {
  std::string relation;
  int64_t row = -1;
  bool live = true;  ///< dead tuples keep their slot but are never served
};

/// Encode a complete serving-epoch container. `marginals` and `vars`
/// must both have exactly graph.num_variables() entries.
std::string EncodeEpochSnapshot(const FactorGraph& graph,
                                const std::vector<double>& marginals,
                                const std::vector<EpochVarEntry>& vars,
                                uint64_t epoch_id);

/// A fully validated, immutable epoch backed by a MappedSnapshot. All
/// query accessors are const and safe for concurrent readers; the mmap
/// lives exactly as long as this object, so the server hands epochs out
/// as shared_ptr<const ServingEpoch> and a reader in flight keeps its
/// epoch mapped until it finishes (refcounted retirement, no
/// use-after-unmap).
class ServingEpoch {
 public:
  /// Open + validate `path` end to end: container CRCs, META kind,
  /// GRBN/VARS/PROB section structure, every relation id in pool range,
  /// every marginal finite and within [0, 1], all counts consistent with
  /// the graph. Any defect is Corruption (or the Status a failpoint
  /// injected) — never a partially usable epoch.
  static Result<ServingEpoch> Load(const std::string& path);

  uint64_t epoch() const { return epoch_; }
  size_t num_variables() const { return num_vars_; }
  size_t num_factors() const { return static_cast<size_t>(graph_.num_factors); }

  double marginal(uint32_t var) const {
    return LoadDouble(prob_content_.data(), prob_off_ + 8 * var);
  }
  bool var_live(uint32_t var) const {
    return (LoadU64(vars_content_.data(), live_off_ + 8 * (var >> 6)) >> (var & 63)) & 1;
  }
  std::string_view var_relation(uint32_t var) const {
    return pool_.String(LoadU32(vars_content_.data(), rel_off_ + 4 * var));
  }
  int64_t var_row(uint32_t var) const {
    return static_cast<int64_t>(LoadU64(vars_content_.data(), row_off_ + 8 * var));
  }

  /// Dense relation index for `name`; -1 if the epoch has no such
  /// relation. Top-k filters compare against RelationOfVar.
  int RelationId(std::string_view name) const;
  int RelationOfVar(uint32_t var) const { return rel_dense_[var]; }
  const std::vector<std::string>& relations() const { return relation_names_; }

  /// Variable serving (relation, row); NotFound for unknown facts and
  /// for dead (tombstoned) rows.
  Result<uint32_t> FindVar(std::string_view relation, int64_t row) const;

 private:
  ServingEpoch() = default;

  MappedSnapshot snap_;
  StringPoolView pool_;
  BinaryGraphView graph_;
  std::string_view vars_content_;  // VARS section content
  std::string_view prob_content_;  // PROB section content
  size_t live_off_ = 0;
  size_t rel_off_ = 0;
  size_t row_off_ = 0;
  size_t prob_off_ = 0;
  size_t num_vars_ = 0;
  uint64_t epoch_ = 0;

  // Materialized at load (the only non-mapped state): dense relation ids
  // per variable, relation name table, and the fact index.
  std::vector<int> rel_dense_;
  std::vector<std::string> relation_names_;
  std::unordered_map<std::string, int> relation_index_;
  std::vector<std::unordered_map<int64_t, uint32_t>> fact_index_;  // per dense rel
};

/// ---- Epoch directories --------------------------------------------------
///
/// The hand-off point between the batch pipeline and the serving daemon:
/// a directory of immutable epoch files plus a CURRENT manifest naming
/// the newest one. Both are written with the crash-consistent snapshot
/// protocol, so a publisher killed at any point leaves either the
/// previous CURRENT (pointing at a fully written epoch) or none — a
/// reader can never observe a torn or half-published epoch.
class EpochDirectory {
 public:
  explicit EpochDirectory(std::string path) : path_(std::move(path)) {}

  /// mkdir if missing (parent must exist). Idempotent.
  Status Create() const;

  const std::string& path() const { return path_; }
  std::string CurrentManifestPath() const { return path_ + "/CURRENT.snap"; }
  std::string EpochFilePath(uint64_t epoch_id) const;

  /// Write `bytes` as the epoch file for `epoch_id`, then atomically
  /// repoint CURRENT. Refuses ids <= the current one.
  Status Publish(uint64_t epoch_id, const std::string& bytes) const;

  /// Epoch id CURRENT points at; NotFound when nothing was published.
  Result<uint64_t> CurrentEpochId() const;
  /// Full path of the epoch file CURRENT points at.
  Result<std::string> CurrentEpochFile() const;

 private:
  std::string path_;
};

}  // namespace dd

#endif  // DEEPDIVE_SERVE_EPOCH_H_
