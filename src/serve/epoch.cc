#include "serve/epoch.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cmath>
#include <cstring>

#include "factor/io.h"
#include "storage/column.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dd {

namespace {

void AppendU32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

void AppendU64(std::string* out, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out->append(buf, 8);
}

void AppendDouble(std::string* out, double d) {
  uint64_t bits;
  std::memcpy(&bits, &d, 8);
  AppendU64(out, bits);
}

/// Bounds-checked little-endian cursor over a section's content.
class Cursor {
 public:
  explicit Cursor(std::string_view content) : content_(content) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return content_.size() - pos_; }

  Status Need(size_t n, const char* what) {
    if (remaining() < n) {
      return Status::Corruption(
          StrFormat("epoch section truncated reading %s at offset %zu "
                    "(need %zu bytes, have %zu)",
                    what, pos_, n, remaining()));
    }
    return Status::OK();
  }

  Status ReadU64(uint64_t* v, const char* what) {
    DD_RETURN_IF_ERROR(Need(8, what));
    std::memcpy(v, content_.data() + pos_, 8);
    pos_ += 8;
    return Status::OK();
  }

  Status Skip(size_t n, const char* what) {
    DD_RETURN_IF_ERROR(Need(n, what));
    pos_ += n;
    return Status::OK();
  }

 private:
  std::string_view content_;
  size_t pos_ = 0;
};

}  // namespace

// ---- Encoding -----------------------------------------------------------

std::string EncodeEpochSnapshot(const FactorGraph& graph,
                                const std::vector<double>& marginals,
                                const std::vector<EpochVarEntry>& vars,
                                uint64_t epoch_id) {
  const size_t n = graph.num_variables();
  DD_CHECK(marginals.size() == n);
  DD_CHECK(vars.size() == n);

  SnapshotWriter writer;
  SectionLayout layout;
  auto add_section = [&](const char* tag, std::string payload) {
    layout.Add(payload.size());
    writer.AddSection(tag, std::move(payload));
  };
  auto add_aligned = [&](const char* tag, std::string content) {
    add_section(tag,
                WithAlignmentPad(layout.NextPayloadOffset(), std::move(content)));
  };

  std::string meta;
  meta += "kind=serving-epoch\n";
  meta += StrFormat("epoch=%llu\n", static_cast<unsigned long long>(epoch_id));
  meta += StrFormat("variables=%zu\n", n);
  add_section("META", std::move(meta));

  StringPoolBuilder pool;
  std::string grbn;
  EncodeBinaryGraph(graph, &pool, &grbn);
  add_aligned("GRBN", std::move(grbn));

  // VARS: count, liveness words, relation pool ids, pad, row ids.
  std::string vars_content;
  AppendU64(&vars_content, n);
  Bitmap live;
  for (const EpochVarEntry& e : vars) live.PushBack(e.live);
  for (size_t w = 0; w < Bitmap::WordsFor(n); ++w) {
    AppendU64(&vars_content, live.words()[w]);
  }
  for (const EpochVarEntry& e : vars) {
    AppendU32(&vars_content, pool.IdFor(e.relation));
  }
  while (vars_content.size() % 8 != 0) vars_content.push_back('\0');
  for (const EpochVarEntry& e : vars) {
    AppendU64(&vars_content, static_cast<uint64_t>(e.row));
  }
  add_aligned("VARS", std::move(vars_content));

  // PROB: count, doubles.
  std::string prob;
  AppendU64(&prob, n);
  for (double m : marginals) AppendDouble(&prob, m);
  add_aligned("PROB", std::move(prob));

  // DICT last: GRBN and VARS both intern into the shared pool, and the
  // pad prefix depends on the file offset, so it must be appended after
  // every section that references it.
  add_aligned("DICT", pool.EncodeContent());

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
  DD_ASSIGN_OR_RETURN(SectionSpan meta_span, view.Section("META"));
  DD_ASSIGN_OR_RETURN(auto meta, ParseMeta(meta_span.payload));
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
  DD_ASSIGN_OR_RETURN(SectionSpan vars_span, view.Section("VARS"));
  DD_ASSIGN_OR_RETURN(epoch.vars_content_,
                      StripAlignmentPad(vars_span.offset, vars_span.payload));
  {
    Cursor c(epoch.vars_content_);
    uint64_t count = 0;
    DD_RETURN_IF_ERROR(c.ReadU64(&count, "VARS count"));
    if (count != n) {
      return Status::Corruption(
          StrFormat("VARS count %llu does not match graph variables %llu",
                    static_cast<unsigned long long>(count),
                    static_cast<unsigned long long>(n)));
    }
    const size_t words = Bitmap::WordsFor(count);
    epoch.live_off_ = c.pos();
    DD_RETURN_IF_ERROR(c.Skip(8 * words, "VARS liveness words"));
    // Bits past the last variable must be zero so liveness scans can
    // trust whole words.
    if (count % 64 != 0 && words > 0) {
      uint64_t last;
      std::memcpy(&last,
                  epoch.vars_content_.data() + epoch.live_off_ + 8 * (words - 1),
                  8);
      if ((last >> (count % 64)) != 0) {
        return Status::Corruption("VARS liveness has bits set past count");
      }
    }
    epoch.rel_off_ = c.pos();
    DD_RETURN_IF_ERROR(c.Skip(4 * count, "VARS relation ids"));
    size_t pad = (8 - (c.pos() % 8)) % 8;
    DD_RETURN_IF_ERROR(c.Need(pad, "VARS row-id pad"));
    for (size_t i = 0; i < pad; ++i) {
      if (epoch.vars_content_[c.pos() + i] != '\0') {
        return Status::Corruption("VARS row-id pad bytes must be zero");
      }
    }
    DD_RETURN_IF_ERROR(c.Skip(pad, "VARS row-id pad"));
    epoch.row_off_ = c.pos();
    DD_RETURN_IF_ERROR(c.Skip(8 * count, "VARS row ids"));
    if (c.remaining() != 0) {
      return Status::Corruption(
          StrFormat("VARS has %zu trailing bytes", c.remaining()));
    }
  }

  // PROB.
  DD_ASSIGN_OR_RETURN(SectionSpan prob_span, view.Section("PROB"));
  DD_ASSIGN_OR_RETURN(epoch.prob_content_,
                      StripAlignmentPad(prob_span.offset, prob_span.payload));
  {
    Cursor c(epoch.prob_content_);
    uint64_t count = 0;
    DD_RETURN_IF_ERROR(c.ReadU64(&count, "PROB count"));
    if (count != n) {
      return Status::Corruption(
          StrFormat("PROB count %llu does not match graph variables %llu",
                    static_cast<unsigned long long>(count),
                    static_cast<unsigned long long>(n)));
    }
    epoch.prob_off_ = c.pos();
    DD_RETURN_IF_ERROR(c.Skip(8 * count, "PROB marginals"));
    if (c.remaining() != 0) {
      return Status::Corruption(
          StrFormat("PROB has %zu trailing bytes", c.remaining()));
    }
  }

  // Semantic validation + index build in one pass over the variables.
  epoch.rel_dense_.resize(epoch.num_vars_, -1);
  for (uint32_t v = 0; v < epoch.num_vars_; ++v) {
    double m = epoch.marginal(v);
    if (!std::isfinite(m) || m < 0.0 || m > 1.0) {
      return Status::Corruption(
          StrFormat("PROB marginal for variable %u is not a probability", v));
    }
    uint32_t rel;
    std::memcpy(&rel, epoch.vars_content_.data() + epoch.rel_off_ + 4 * v, 4);
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
