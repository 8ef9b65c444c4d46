#include "serve/epoch.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "factor/io.h"
#include "storage/column.h"
#include "util/bytes.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dd {

// ---- Encoding -----------------------------------------------------------

std::string EncodeEpochSnapshot(const FactorGraph& graph,
                                const std::vector<double>& marginals,
                                const std::vector<EpochVarEntry>& vars,
                                uint64_t epoch_id) {
  const size_t n = graph.num_variables();
  DD_CHECK(marginals.size() == n);
  DD_CHECK(vars.size() == n);

  SnapshotWriter writer;
  std::string meta;
  meta += "kind=serving-epoch\n";
  meta += StrFormat("epoch=%llu\n", static_cast<unsigned long long>(epoch_id));
  meta += StrFormat("variables=%zu\n", n);
  writer.AddSection("META", std::move(meta));

  StringPoolBuilder pool;
  std::string grbn;
  EncodeBinaryGraph(graph, &pool, &grbn);
  writer.AddAlignedSection("GRBN", grbn);

  // VARS: count, liveness words, relation pool ids, pad, row ids.
  std::string vars_content;
  PutU64(&vars_content, n);
  Bitmap live;
  for (const EpochVarEntry& e : vars) live.PushBack(e.live);
  for (size_t w = 0; w < Bitmap::WordsFor(n); ++w) {
    PutU64(&vars_content, live.words()[w]);
  }
  for (const EpochVarEntry& e : vars) {
    PutU32(&vars_content, pool.IdFor(e.relation));
  }
  PadTo8(&vars_content);
  for (const EpochVarEntry& e : vars) {
    PutU64(&vars_content, static_cast<uint64_t>(e.row));
  }
  writer.AddAlignedSection("VARS", vars_content);

  // PROB: count, doubles.
  std::string prob;
  PutU64(&prob, n);
  for (double m : marginals) PutDouble(&prob, m);
  writer.AddAlignedSection("PROB", prob);

  // DICT last: GRBN and VARS both intern into the shared pool, and the
  // pad prefix depends on the file offset, so it must be appended after
  // every section that references it.
  writer.AddAlignedSection("DICT", pool.EncodeContent());

  return writer.Encode();
}

// ---- Loading ------------------------------------------------------------

Result<ServingEpoch> ServingEpoch::Load(const std::string& path) {
  Status injected;
  DD_FAILPOINT(failpoints::kServeEpochLoad, &injected);
  DD_RETURN_IF_ERROR(injected);

  ServingEpoch epoch;
  DD_ASSIGN_OR_RETURN(epoch.snap_, MappedSnapshot::Open(path));
  const SnapshotView& view = epoch.snap_.view();

  // META first: reject files that are valid containers but not epochs
  // (e.g. a catalog snapshot dropped into the epoch directory).
  DD_ASSIGN_OR_RETURN(std::string_view meta_payload, view.Section("META"));
  DD_ASSIGN_OR_RETURN(auto meta, ParseMeta(meta_payload));
  auto kind = meta.find("kind");
  if (kind == meta.end() || kind->second != "serving-epoch") {
    return Status::Corruption("snapshot is not a serving epoch (kind=" +
                              (kind == meta.end() ? "<absent>" : kind->second) +
                              ")");
  }
  DD_ASSIGN_OR_RETURN(epoch.epoch_, MetaU64(meta, "epoch"));
  DD_ASSIGN_OR_RETURN(uint64_t meta_vars, MetaU64(meta, "variables"));

  // Pool + graph, fully validated by the storage layer.
  DD_ASSIGN_OR_RETURN(epoch.pool_, epoch.snap_.Pool());
  DD_ASSIGN_OR_RETURN(epoch.graph_, epoch.snap_.Graph(epoch.pool_));
  const uint64_t n = epoch.graph_.num_variables;
  if (meta_vars != n) {
    return Status::Corruption(
        StrFormat("epoch META variables=%llu but graph has %llu",
                  static_cast<unsigned long long>(meta_vars),
                  static_cast<unsigned long long>(n)));
  }
  epoch.num_vars_ = static_cast<size_t>(n);

  // VARS.
  DD_ASSIGN_OR_RETURN(epoch.vars_content_, view.AlignedSection("VARS"));
  {
    ByteReader r(epoch.vars_content_);
    uint64_t count = 0;
    DD_RETURN_IF_ERROR(r.U64(&count, "VARS count"));
    if (count != n) {
      return Status::Corruption(
          StrFormat("VARS count %llu does not match graph variables %llu",
                    static_cast<unsigned long long>(count),
                    static_cast<unsigned long long>(n)));
    }
    const size_t words = Bitmap::WordsFor(count);
    DD_RETURN_IF_ERROR(r.Array(8, words, &epoch.live_off_, "VARS liveness words"));
    // Bits past the last variable must be zero so liveness scans can
    // trust whole words.
    if (count % 64 != 0 &&
        (LoadU64(epoch.vars_content_.data(), epoch.live_off_ + 8 * (words - 1)) >>
         (count % 64)) != 0) {
      return Status::Corruption("VARS liveness has bits set past count");
    }
    DD_RETURN_IF_ERROR(r.Array(4, count, &epoch.rel_off_, "VARS relation ids"));
    DD_RETURN_IF_ERROR(r.Pad8("VARS row-id"));
    DD_RETURN_IF_ERROR(r.Array(8, count, &epoch.row_off_, "VARS row ids"));
    DD_RETURN_IF_ERROR(r.Done("VARS"));
  }

  // PROB.
  DD_ASSIGN_OR_RETURN(epoch.prob_content_, view.AlignedSection("PROB"));
  {
    ByteReader r(epoch.prob_content_);
    uint64_t count = 0;
    DD_RETURN_IF_ERROR(r.U64(&count, "PROB count"));
    if (count != n) {
      return Status::Corruption(
          StrFormat("PROB count %llu does not match graph variables %llu",
                    static_cast<unsigned long long>(count),
                    static_cast<unsigned long long>(n)));
    }
    DD_RETURN_IF_ERROR(r.Array(8, count, &epoch.prob_off_, "PROB marginals"));
    DD_RETURN_IF_ERROR(r.Done("PROB"));
  }

  // Semantic validation + index build in one pass over the variables.
  epoch.rel_dense_.resize(epoch.num_vars_, -1);
  for (uint32_t v = 0; v < epoch.num_vars_; ++v) {
    double m = epoch.marginal(v);
    if (!std::isfinite(m) || m < 0.0 || m > 1.0) {
      return Status::Corruption(
          StrFormat("PROB marginal for variable %u is not a probability", v));
    }
    const uint32_t rel = LoadU32(epoch.vars_content_.data(), epoch.rel_off_ + 4 * v);
    if (rel >= epoch.pool_.size()) {
      return Status::Corruption(
          StrFormat("VARS relation id %u out of pool range for variable %u",
                    rel, v));
    }
    std::string name(epoch.pool_.String(rel));
    auto [it, inserted] =
        epoch.relation_index_.try_emplace(name,
                                          static_cast<int>(epoch.relation_names_.size()));
    if (inserted) {
      epoch.relation_names_.push_back(name);
      epoch.fact_index_.emplace_back();
    }
    const int dense = it->second;
    epoch.rel_dense_[v] = dense;
    if (epoch.var_live(v)) {
      auto [fit, fresh] =
          epoch.fact_index_[dense].try_emplace(epoch.var_row(v), v);
      if (!fresh) {
        return Status::Corruption(
            StrFormat("VARS has duplicate live fact (relation '%s', row %lld)",
                      name.c_str(),
                      static_cast<long long>(epoch.var_row(v))));
      }
    }
  }
  return epoch;
}

int ServingEpoch::RelationId(std::string_view name) const {
  auto it = relation_index_.find(std::string(name));
  return it == relation_index_.end() ? -1 : it->second;
}

Result<uint32_t> ServingEpoch::FindVar(std::string_view relation,
                                       int64_t row) const {
  int rel = RelationId(relation);
  if (rel < 0) {
    return Status::NotFound("unknown relation '" + std::string(relation) + "'");
  }
  auto it = fact_index_[rel].find(row);
  if (it == fact_index_[rel].end()) {
    return Status::NotFound(
        StrFormat("no live fact (relation '%s', row %lld) in epoch %llu",
                  std::string(relation).c_str(), static_cast<long long>(row),
                  static_cast<unsigned long long>(epoch_)));
  }
  return it->second;
}

// ---- Epoch directories --------------------------------------------------

Status EpochDirectory::Create() const {
  if (::mkdir(path_.c_str(), 0777) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir failed for epoch directory " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

std::string EpochDirectory::EpochFilePath(uint64_t epoch_id) const {
  return path_ + StrFormat("/epoch-%06llu.snap",
                           static_cast<unsigned long long>(epoch_id));
}

Status EpochDirectory::Publish(uint64_t epoch_id,
                               const std::string& bytes) const {
  Result<uint64_t> current = CurrentEpochId();
  if (current.ok() && *current >= epoch_id) {
    return Status::InvalidArgument(
        StrFormat("refusing to publish epoch %llu: CURRENT is already %llu",
                  static_cast<unsigned long long>(epoch_id),
                  static_cast<unsigned long long>(*current)));
  }
  if (!current.ok() && current.status().code() != StatusCode::kNotFound) {
    return current.status();
  }
  // The epoch file lands (atomically) before CURRENT repoints at it, so
  // a crash between the two writes leaves the previous CURRENT valid
  // and the orphan epoch file harmless.
  DD_RETURN_IF_ERROR(WriteBytesAtomic(bytes, EpochFilePath(epoch_id)));
  Status injected;
  DD_FAILPOINT(failpoints::kServePublish, &injected);
  DD_RETURN_IF_ERROR(injected);
  GraphSnapshot manifest;
  manifest.meta["kind"] = "epoch-manifest";
  manifest.meta["epoch"] =
      StrFormat("%llu", static_cast<unsigned long long>(epoch_id));
  manifest.meta["file"] =
      StrFormat("epoch-%06llu.snap", static_cast<unsigned long long>(epoch_id));
  return WriteGraphSnapshot(manifest, CurrentManifestPath());
}

Result<uint64_t> EpochDirectory::CurrentEpochId() const {
  if (!FileExists(CurrentManifestPath())) {
    return Status::NotFound("no CURRENT manifest in " + path_);
  }
  DD_ASSIGN_OR_RETURN(GraphSnapshot manifest,
                      ReadGraphSnapshot(CurrentManifestPath()));
  auto kind = manifest.meta.find("kind");
  if (kind == manifest.meta.end() || kind->second != "epoch-manifest") {
    return Status::Corruption("CURRENT in " + path_ +
                              " is not an epoch manifest");
  }
  return MetaU64(manifest.meta, "epoch");
}

Result<std::string> EpochDirectory::CurrentEpochFile() const {
  DD_ASSIGN_OR_RETURN(uint64_t id, CurrentEpochId());
  return EpochFilePath(id);
}

}  // namespace dd
