#include "factor/io.h"

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string_view>

#include "storage/snapshot.h"
#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dd {

namespace {

Result<FactorFunc> FuncFromName(const std::string& name) {
  if (name == "istrue") return FactorFunc::kIsTrue;
  if (name == "and") return FactorFunc::kAnd;
  if (name == "or") return FactorFunc::kOr;
  if (name == "imply") return FactorFunc::kImply;
  if (name == "equal") return FactorFunc::kEqual;
  return Status::ParseError("unknown factor function: " + name);
}

}  // namespace

std::string SerializeGraph(const FactorGraph& graph) {
  std::string out;
  out += "ddfg 1\n";
  out += StrFormat("V %zu\n", graph.num_variables());
  for (uint32_t v = 0; v < graph.num_variables(); ++v) {
    if (graph.is_evidence(v)) {
      out += StrFormat("v %u 1 %d\n", v, graph.evidence_value(v) ? 1 : 0);
    }
  }
  out += StrFormat("W %zu\n", graph.num_weights());
  for (uint32_t w = 0; w < graph.num_weights(); ++w) {
    const Weight& weight = graph.weight(w);
    out += StrFormat("w %u %.17g %d %s\n", w, weight.value, weight.is_fixed ? 1 : 0,
                     weight.description.c_str());
  }
  out += StrFormat("F %zu\n", graph.num_factors());
  for (uint32_t f = 0; f < graph.num_factors(); ++f) {
    size_t arity = 0;
    const Literal* literals = graph.factor_literals(f, &arity);
    out += StrFormat("f %s %u %zu", FactorFuncName(graph.factor_func(f)),
                     graph.factor_weight(f), arity);
    for (size_t i = 0; i < arity; ++i) {
      out += StrFormat(" %u %d", literals[i].var, literals[i].is_positive ? 1 : 0);
    }
    out += '\n';
  }
  return out;
}

Result<FactorGraph> DeserializeGraph(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  auto error = [&](const std::string& msg) {
    return Status::ParseError(StrFormat("line %d: %s", lineno, msg.c_str()));
  };

  FactorGraph graph;
  bool header_seen = false;
  size_t declared_vars = 0, declared_weights = 0, declared_factors = 0;
  size_t seen_weights = 0, seen_factors = 0;
  std::vector<std::pair<bool, bool>> evidence;  // (is_evidence, value) per var

  while (std::getline(in, line)) {
    ++lineno;
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    auto fields = SplitWhitespace(trimmed);

    if (!header_seen) {
      if (fields.size() != 2 || fields[0] != "ddfg" || fields[1] != "1") {
        return error("expected header 'ddfg 1'");
      }
      header_seen = true;
      continue;
    }
    const std::string& tag = fields[0];
    if (tag == "V") {
      if (fields.size() != 2) return error("V expects a count");
      declared_vars = std::strtoull(fields[1].c_str(), nullptr, 10);
      evidence.assign(declared_vars, {false, false});
    } else if (tag == "v") {
      if (fields.size() != 4) return error("v expects: id is_evidence value");
      size_t id = std::strtoull(fields[1].c_str(), nullptr, 10);
      if (id >= declared_vars) return error("variable id out of range");
      evidence[id] = {fields[2] == "1", fields[3] == "1"};
    } else if (tag == "W") {
      if (fields.size() != 2) return error("W expects a count");
      declared_weights = std::strtoull(fields[1].c_str(), nullptr, 10);
      // Variables must be materialized before weights/factors reference them.
      for (size_t v = 0; v < declared_vars; ++v) {
        graph.AddVariable(evidence[v].first, evidence[v].second);
      }
    } else if (tag == "w") {
      if (fields.size() < 4) return error("w expects: id value is_fixed desc");
      size_t id = std::strtoull(fields[1].c_str(), nullptr, 10);
      if (id != seen_weights) return error("weights must appear in id order");
      double value = std::strtod(fields[2].c_str(), nullptr);
      bool fixed = fields[3] == "1";
      std::string description;
      for (size_t i = 4; i < fields.size(); ++i) {
        if (i > 4) description += ' ';
        description += fields[i];
      }
      graph.AddWeight(value, fixed, description);
      ++seen_weights;
    } else if (tag == "F") {
      if (fields.size() != 2) return error("F expects a count");
      declared_factors = std::strtoull(fields[1].c_str(), nullptr, 10);
    } else if (tag == "f") {
      if (fields.size() < 4) return error("f expects: func weight arity literals...");
      DD_ASSIGN_OR_RETURN(FactorFunc func, FuncFromName(fields[1]));
      uint32_t weight = static_cast<uint32_t>(std::strtoul(fields[2].c_str(),
                                                           nullptr, 10));
      size_t arity = std::strtoull(fields[3].c_str(), nullptr, 10);
      if (fields.size() != 4 + 2 * arity) return error("literal count mismatch");
      std::vector<Literal> literals;
      for (size_t i = 0; i < arity; ++i) {
        Literal l;
        l.var = static_cast<uint32_t>(
            std::strtoul(fields[4 + 2 * i].c_str(), nullptr, 10));
        l.is_positive = fields[5 + 2 * i] == "1";
        literals.push_back(l);
      }
      Status st = graph.AddFactor(func, weight, std::move(literals));
      if (!st.ok()) return error(st.ToString());
      ++seen_factors;
    } else {
      return error("unknown record tag: " + tag);
    }
  }
  if (!header_seen) return Status::ParseError("empty input (missing header)");
  if (graph.num_variables() != declared_vars) {
    return Status::ParseError("missing W section (variables not materialized)");
  }
  if (seen_weights != declared_weights) {
    return Status::ParseError(StrFormat("declared %zu weights, found %zu",
                                        declared_weights, seen_weights));
  }
  if (seen_factors != declared_factors) {
    return Status::ParseError(StrFormat("declared %zu factors, found %zu",
                                        declared_factors, seen_factors));
  }
  DD_RETURN_IF_ERROR(graph.Finalize());
  return graph;
}

// ---- Binary snapshot container ----------------------------------------

namespace {

constexpr char kMagic[4] = {'D', 'D', 'S', 'N'};
constexpr uint32_t kSnapshotVersion = 1;
constexpr char kEndTag[] = "END.";
constexpr size_t kSectionHeaderBytes = 12;  // tag + u64 payload length

}  // namespace

/// Read a whole file with checked chunked freads (no size assumptions;
/// ferror is surfaced as IoError, never a short silent read).
Result<std::string> ReadFileBytes(const std::string& path) {
  Status injected;
  DD_FAILPOINT(failpoints::kFactorIoRead, &injected);
  if (!injected.ok()) return injected;

  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open '%s' for reading: %s",
                                     path.c_str(), std::strerror(errno)));
  }
  std::string bytes;
  char chunk[1 << 16];
  for (;;) {
    size_t n = std::fread(chunk, 1, sizeof(chunk), f);
    bytes.append(chunk, n);
    if (n < sizeof(chunk)) {
      if (std::ferror(f)) {
        std::fclose(f);
        return Status::IoError(StrFormat("read error on '%s' at offset %zu",
                                         path.c_str(), bytes.size()));
      }
      break;  // EOF
    }
  }
  std::fclose(f);
  return bytes;
}

void SnapshotWriter::AddSection(const std::string& tag, std::string payload) {
  DD_CHECK(tag.size() == 4);
  size_ += kSectionHeaderBytes + payload.size() + 4;
  sections_.emplace_back(tag, std::move(payload));
}

void SnapshotWriter::AddAlignedSection(const std::string& tag,
                                       std::string_view content) {
  AddSection(tag, WithAlignmentPad(size_ + kSectionHeaderBytes, content));
}

std::string SnapshotWriter::Encode() const {
  std::string out;
  out.append(kMagic, 4);
  PutU32(&out, kSnapshotVersion);
  auto append_section = [&out](const std::string& tag, const std::string& payload) {
    const size_t header_at = out.size();
    out += tag;
    PutU64(&out, payload.size());
    uint32_t crc = Crc32c(out.data() + header_at, kSectionHeaderBytes);
    crc = Crc32cExtend(crc, payload.data(), payload.size());
    out += payload;
    PutU32(&out, crc);
  };
  for (const auto& [tag, payload] : sections_) append_section(tag, payload);
  append_section(kEndTag, "");
  return out;
}

/// Durable write protocol shared by every snapshot producer: temp file,
/// full write, fsync, atomic rename. A fired short-write failpoint
/// shrinks the byte count silently (simulating a crash that persisted a
/// partial buffer and still got renamed) so reader-side Corruption
/// detection is exercised end to end.
Status WriteBytesAtomic(const std::string& bytes, const std::string& path) {
  size_t to_write = bytes.size();
  Status injected;
  DD_FAILPOINT_WRITE(failpoints::kFactorIoWrite, to_write, &injected);
  if (!injected.ok()) return injected;

  std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return Status::IoError(StrFormat("cannot open '%s' for writing: %s",
                                     tmp.c_str(), std::strerror(errno)));
  }
  size_t written = std::fwrite(bytes.data(), 1, to_write, f);
  if (written != to_write || std::fflush(f) != 0 || ::fsync(fileno(f)) != 0) {
    std::fclose(f);
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("short write to '%s' (%zu of %zu bytes)",
                                     tmp.c_str(), written, to_write));
  }
  if (std::fclose(f) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("close failed on '%s'", tmp.c_str()));
  }

  DD_FAILPOINT(failpoints::kFactorIoRename, &injected);
  if (!injected.ok()) {
    std::remove(tmp.c_str());
    return injected;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError(StrFormat("rename '%s' -> '%s' failed: %s", tmp.c_str(),
                                     path.c_str(), std::strerror(errno)));
  }
  return Status::OK();
}

Status SnapshotWriter::WriteFile(const std::string& path) const {
  return WriteBytesAtomic(Encode(), path);
}

Result<SnapshotView> SnapshotView::Parse(std::string_view bytes) {
  ByteReader r(bytes);
  std::string_view magic;
  DD_RETURN_IF_ERROR(r.Bytes(4, &magic, "snapshot magic"));
  if (magic != std::string_view(kMagic, 4)) {
    return Status::Corruption("bad magic: not a DDSN snapshot");
  }
  uint32_t version = 0;
  DD_RETURN_IF_ERROR(r.U32(&version, "snapshot version"));
  if (version != kSnapshotVersion) {
    return Status::Corruption(StrFormat("unsupported snapshot version %u", version));
  }

  SnapshotView view;
  view.base_ = bytes.data();
  for (;;) {
    const size_t section_offset = r.offset();
    std::string_view tag, payload;
    uint64_t len = 0;
    uint32_t stored_crc = 0;
    DD_RETURN_IF_ERROR(r.Bytes(4, &tag, "section tag"));
    DD_RETURN_IF_ERROR(r.U64(&len, "section length"));
    DD_RETURN_IF_ERROR(r.Bytes(len, &payload, "section payload"));
    DD_RETURN_IF_ERROR(r.U32(&stored_crc, "section checksum"));
    // The CRC covers the tag and length fields too.
    uint32_t computed = Crc32c(bytes.data() + section_offset, kSectionHeaderBytes);
    computed = Crc32cExtend(computed, payload.data(), payload.size());
    const std::string name(tag);
    if (computed != stored_crc) {
      return Status::Corruption(
          StrFormat("checksum mismatch in section '%s' at offset %zu "
                    "(stored %08x, computed %08x)",
                    name.c_str(), section_offset, stored_crc, computed));
    }
    if (tag == kEndTag) {
      if (len != 0) {
        return Status::Corruption("terminator section carries a payload");
      }
      if (r.remaining() != 0) {
        return Status::Corruption(StrFormat(
            "%zu trailing bytes after terminator at offset %zu", r.remaining(),
            r.offset()));
      }
      break;
    }
    if (!view.sections_.emplace(name, payload).second) {
      return Status::Corruption(StrFormat("duplicate section '%s' at offset %zu",
                                          name.c_str(), section_offset));
    }
  }
  return view;
}

Result<std::string_view> SnapshotView::Section(const std::string& tag) const {
  auto it = sections_.find(tag);
  if (it == sections_.end()) {
    return Status::NotFound("snapshot has no section '" + tag + "'");
  }
  return it->second;
}

Result<std::string_view> SnapshotView::AlignedSection(const std::string& tag) const {
  DD_ASSIGN_OR_RETURN(std::string_view payload, Section(tag));
  return StripAlignmentPad(static_cast<size_t>(payload.data() - base_), payload);
}

// ---- Alignment padding --------------------------------------------------

namespace {

/// Pad length that puts the content (after the 1-byte prefix) of a
/// payload starting at `payload_file_offset` on an 8-byte file offset.
size_t AlignmentPad(size_t payload_file_offset) {
  return (8 - ((payload_file_offset + 1) & 7)) & 7;
}

}  // namespace

std::string WithAlignmentPad(size_t payload_file_offset, std::string_view content) {
  const size_t pad = AlignmentPad(payload_file_offset);
  std::string out;
  out.reserve(1 + pad + content.size());
  out.push_back(static_cast<char>(pad));
  out.append(pad, '\0');
  out += content;
  return out;
}

Result<std::string_view> StripAlignmentPad(size_t payload_file_offset,
                                           std::string_view payload) {
  if (payload.empty()) {
    return Status::Corruption("aligned section payload missing pad prefix");
  }
  const size_t expected = AlignmentPad(payload_file_offset);
  const size_t pad = static_cast<uint8_t>(payload[0]);
  if (pad != expected) {
    return Status::Corruption(
        StrFormat("section pad length %zu does not match file offset %zu "
                  "(expected %zu)",
                  pad, payload_file_offset, expected));
  }
  if (payload.size() < 1 + pad) {
    return Status::Corruption("aligned section shorter than its pad");
  }
  for (size_t i = 0; i < pad; ++i) {
    if (payload[1 + i] != '\0') {
      return Status::Corruption(
          StrFormat("nonzero alignment pad byte at index %zu", i));
    }
  }
  return payload.substr(1 + pad);
}

// ---- Typed graph snapshot ---------------------------------------------

namespace {

/// WGHT/CNTS/MRGN layout: u64 count, then `count` 8-byte LE words.
template <typename T>
std::string EncodeWords(const std::vector<T>& values) {
  std::string payload;
  PutU64(&payload, values.size());
  for (T v : values) PutU64(&payload, std::bit_cast<uint64_t>(v));
  return payload;
}

template <typename T>
Status DecodeWords(const SnapshotView& reader, const char* tag, std::vector<T>* out) {
  if (!reader.Has(tag)) return Status::OK();
  DD_ASSIGN_OR_RETURN(std::string_view payload, reader.Section(tag));
  ByteReader r(payload);
  uint64_t count = 0;
  size_t off = 0;
  DD_RETURN_IF_ERROR(r.U64(&count, tag));
  DD_RETURN_IF_ERROR(r.Array(8, count, &off, tag));
  DD_RETURN_IF_ERROR(r.Done(tag));
  out->resize(static_cast<size_t>(count));
  for (size_t i = 0; i < out->size(); ++i) {
    (*out)[i] = std::bit_cast<T>(LoadU64(payload.data(), off + 8 * i));
  }
  return Status::OK();
}

}  // namespace

std::string EncodeGraphSnapshot(const GraphSnapshot& snapshot) {
  SnapshotWriter writer;
  // GRBN and DICT are binary sections read in place, so their contents
  // are 8-aligned in the file.
  if (snapshot.has_graph) {
    StringPoolBuilder pool;
    std::string grbn;
    EncodeBinaryGraph(snapshot.graph, &pool, &grbn);
    writer.AddAlignedSection("GRBN", grbn);
    writer.AddAlignedSection("DICT", pool.EncodeContent());
  }
  if (!snapshot.weights.empty()) writer.AddSection("WGHT", EncodeWords(snapshot.weights));
  if (!snapshot.chains.empty()) {
    std::string payload;
    PutU64(&payload, snapshot.chains.size());
    for (const auto& chain : snapshot.chains) {
      PutBytes(&payload, std::string_view(reinterpret_cast<const char*>(chain.data()),
                                          chain.size()));
    }
    writer.AddSection("CHNS", std::move(payload));
  }
  if (!snapshot.counts.empty()) writer.AddSection("CNTS", EncodeWords(snapshot.counts));
  if (!snapshot.marginals.empty()) {
    writer.AddSection("MRGN", EncodeWords(snapshot.marginals));
  }
  if (!snapshot.rng_states.empty()) {
    std::string payload;
    PutU64(&payload, snapshot.rng_states.size());
    for (const RngState& st : snapshot.rng_states) {
      PutU64(&payload, st.s0);
      PutU64(&payload, st.s1);
    }
    writer.AddSection("RNGS", std::move(payload));
  }
  if (!snapshot.meta.empty()) {
    std::string payload;
    for (const auto& [key, value] : snapshot.meta) {
      payload += key;
      payload += '=';
      payload += value;
      payload += '\n';
    }
    writer.AddSection("META", std::move(payload));
  }
  return writer.Encode();
}

Result<GraphSnapshot> DecodeGraphSnapshot(const std::string& bytes) {
  DD_ASSIGN_OR_RETURN(SnapshotView reader, SnapshotView::Parse(bytes));
  GraphSnapshot snap;

  if (reader.Has("GRBN")) {
    // Binary graph + its string pool; the pads are validated against the
    // sections' file offsets.
    if (!reader.Has("DICT")) {
      return Status::Corruption("GRBN section without its DICT string pool");
    }
    DD_ASSIGN_OR_RETURN(std::string_view dict_content, reader.AlignedSection("DICT"));
    DD_ASSIGN_OR_RETURN(StringPoolView pool, StringPoolView::Parse(dict_content));
    DD_ASSIGN_OR_RETURN(std::string_view grbn_content, reader.AlignedSection("GRBN"));
    DD_ASSIGN_OR_RETURN(BinaryGraphView view, ParseBinaryGraph(grbn_content, pool));
    DD_ASSIGN_OR_RETURN(snap.graph, GraphFromBinary(view, pool));
    snap.has_graph = true;
  }
  DD_RETURN_IF_ERROR(DecodeWords(reader, "WGHT", &snap.weights));
  if (reader.Has("CHNS")) {
    DD_ASSIGN_OR_RETURN(std::string_view payload, reader.Section("CHNS"));
    ByteReader r(payload);
    uint64_t num_chains = 0;
    DD_RETURN_IF_ERROR(r.U64(&num_chains, "CHNS count"));
    // Each chain needs at least its 8-byte length prefix.
    if (num_chains > r.remaining() / 8) {
      return Status::Corruption(StrFormat("CHNS declares %llu chains in a %zu-byte "
                                          "payload",
                                          static_cast<unsigned long long>(num_chains),
                                          payload.size()));
    }
    snap.chains.resize(static_cast<size_t>(num_chains));
    for (auto& chain : snap.chains) {
      std::string_view bytes;
      DD_RETURN_IF_ERROR(r.LengthPrefixed(UINT64_MAX, &bytes, "chain bytes"));
      chain.assign(bytes.begin(), bytes.end());
      for (uint8_t b : chain) {
        if (b > 1) return Status::Corruption("chain byte outside {0,1}");
      }
    }
    DD_RETURN_IF_ERROR(r.Done("CHNS"));
  }
  DD_RETURN_IF_ERROR(DecodeWords(reader, "CNTS", &snap.counts));
  DD_RETURN_IF_ERROR(DecodeWords(reader, "MRGN", &snap.marginals));
  if (reader.Has("RNGS")) {
    DD_ASSIGN_OR_RETURN(std::string_view payload, reader.Section("RNGS"));
    ByteReader r(payload);
    uint64_t count = 0;
    size_t off = 0;
    DD_RETURN_IF_ERROR(r.U64(&count, "RNGS count"));
    DD_RETURN_IF_ERROR(r.Array(16, count, &off, "RNGS states"));
    DD_RETURN_IF_ERROR(r.Done("RNGS"));
    snap.rng_states.resize(static_cast<size_t>(count));
    for (RngState& st : snap.rng_states) {
      st.s0 = LoadU64(payload.data(), off);
      st.s1 = LoadU64(payload.data(), off + 8);
      off += 16;
    }
  }
  if (reader.Has("META")) {
    DD_ASSIGN_OR_RETURN(std::string_view payload, reader.Section("META"));
    DD_ASSIGN_OR_RETURN(snap.meta, ParseMeta(payload));
  }
  return snap;
}

Result<std::map<std::string, std::string>> ParseMeta(std::string_view payload) {
  std::map<std::string, std::string> meta;
  for (const std::string& line : Split(payload, '\n')) {
    if (line.empty()) continue;
    size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::Corruption("META line without '=': " + line);
    }
    meta[line.substr(0, eq)] = line.substr(eq + 1);
  }
  return meta;
}

Status WriteGraphSnapshot(const GraphSnapshot& snapshot, const std::string& path) {
  return WriteBytesAtomic(EncodeGraphSnapshot(snapshot), path);
}

Result<GraphSnapshot> ReadGraphSnapshot(const std::string& path) {
  DD_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return DecodeGraphSnapshot(bytes);
}

std::string FormatExactDouble(double v) { return StrFormat("%a", v); }

Result<double> ParseExactDouble(const std::string& s) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    return Status::Corruption("not a hex-float value: " + s);
  }
  return v;
}

Result<uint64_t> MetaU64(const std::map<std::string, std::string>& meta,
                         const std::string& key) {
  auto it = meta.find(key);
  if (it == meta.end()) {
    return Status::Corruption("META missing key '" + key + "'");
  }
  if (it->second.empty() || !IsAllDigits(it->second)) {
    return Status::Corruption("META key '" + key + "' is not a number: " +
                              it->second);
  }
  errno = 0;
  uint64_t v = std::strtoull(it->second.c_str(), nullptr, 10);
  if (errno != 0) {
    return Status::Corruption("META key '" + key + "' out of range: " +
                              it->second);
  }
  return v;
}

Result<double> MetaExactDouble(const std::map<std::string, std::string>& meta,
                               const std::string& key) {
  auto it = meta.find(key);
  if (it == meta.end()) {
    return Status::Corruption("META missing key '" + key + "'");
  }
  return ParseExactDouble(it->second);
}

void StampCheckpoint(const std::string& kind, const CheckpointIdentity& identity,
                     GraphSnapshot* snap) {
  snap->meta["kind"] = kind;
  for (const auto& [key, value] : identity) snap->meta[key] = std::to_string(value);
}

Status CheckCheckpoint(const GraphSnapshot& snap, const std::string& kind,
                       const CheckpointIdentity& identity) {
  auto it = snap.meta.find("kind");
  if (it == snap.meta.end() || it->second != kind) {
    return Status::InvalidArgument(StrFormat(
        "snapshot is not a %s checkpoint (kind=%s)", kind.c_str(),
        it == snap.meta.end() ? "<absent>" : it->second.c_str()));
  }
  for (const auto& [key, expected] : identity) {
    DD_ASSIGN_OR_RETURN(uint64_t stored, MetaU64(snap.meta, key));
    if (stored != expected) {
      return Status::InvalidArgument(StrFormat(
          "%s checkpoint was written with a different %s (%llu, expected %llu)",
          kind.c_str(), key.c_str(), static_cast<unsigned long long>(stored),
          static_cast<unsigned long long>(expected)));
    }
  }
  return Status::OK();
}

Status RestoreWeights(const GraphSnapshot& snap, FactorGraph* graph) {
  if (snap.weights.size() != graph->num_weights()) {
    return Status::InvalidArgument(
        StrFormat("checkpoint has %zu weights, graph has %zu", snap.weights.size(),
                  graph->num_weights()));
  }
  graph->set_weight_values(snap.weights);
  return Status::OK();
}

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace dd
