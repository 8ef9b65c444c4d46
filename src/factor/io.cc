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

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/// Bounds-checked sequential reader over a byte buffer. Every extraction
/// verifies the remaining byte count and reports Status::Corruption with
/// the offset on truncation — partial structs are never produced.
class ByteReader {
 public:
  explicit ByteReader(std::string_view buf) : buf_(buf) {}

  size_t offset() const { return pos_; }
  size_t remaining() const { return buf_.size() - pos_; }

  Status ReadBytes(void* out, size_t n, const char* what) {
    if (n > remaining()) {
      return Status::Corruption(
          StrFormat("truncated %s at offset %zu: need %zu bytes, have %zu", what,
                    pos_, n, remaining()));
    }
    std::memcpy(out, buf_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status ReadString(std::string* out, size_t n, const char* what) {
    if (n > remaining()) {
      return Status::Corruption(
          StrFormat("truncated %s at offset %zu: need %zu bytes, have %zu", what,
                    pos_, n, remaining()));
    }
    out->assign(buf_.data() + pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status Skip(size_t n, const char* what) {
    if (n > remaining()) {
      return Status::Corruption(
          StrFormat("truncated %s at offset %zu: need %zu bytes, have %zu", what,
                    pos_, n, remaining()));
    }
    pos_ += n;
    return Status::OK();
  }

  Status ReadU32(uint32_t* out, const char* what) {
    uint8_t b[4];
    DD_RETURN_IF_ERROR(ReadBytes(b, 4, what));
    *out = 0;
    for (int i = 0; i < 4; ++i) *out |= static_cast<uint32_t>(b[i]) << (8 * i);
    return Status::OK();
  }

  Status ReadU64(uint64_t* out, const char* what) {
    uint8_t b[8];
    DD_RETURN_IF_ERROR(ReadBytes(b, 8, what));
    *out = 0;
    for (int i = 0; i < 8; ++i) *out |= static_cast<uint64_t>(b[i]) << (8 * i);
    return Status::OK();
  }

 private:
  std::string_view buf_;
  size_t pos_ = 0;
};

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
  sections_.emplace_back(tag, std::move(payload));
}

std::string SnapshotWriter::Encode() const {
  std::string out;
  out.append(kMagic, 4);
  AppendU32(&out, kSnapshotVersion);
  auto append_section = [&out](const std::string& tag, const std::string& payload) {
    std::string header = tag;
    AppendU64(&header, payload.size());
    uint32_t crc = Crc32c(header.data(), header.size());
    crc = Crc32cExtend(crc, payload.data(), payload.size());
    out += header;
    out += payload;
    AppendU32(&out, crc);
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
  char magic[4];
  DD_RETURN_IF_ERROR(r.ReadBytes(magic, 4, "snapshot magic"));
  if (std::memcmp(magic, kMagic, 4) != 0) {
    return Status::Corruption("bad magic: not a DDSN snapshot");
  }
  uint32_t version = 0;
  DD_RETURN_IF_ERROR(r.ReadU32(&version, "snapshot version"));
  if (version != kSnapshotVersion) {
    return Status::Corruption(StrFormat("unsupported snapshot version %u", version));
  }

  SnapshotView view;
  for (;;) {
    size_t section_offset = r.offset();
    std::string tag;
    DD_RETURN_IF_ERROR(r.ReadString(&tag, 4, "section tag"));
    uint64_t len = 0;
    DD_RETURN_IF_ERROR(r.ReadU64(&len, "section length"));
    if (len > r.remaining()) {
      return Status::Corruption(
          StrFormat("section '%s' at offset %zu declares %llu payload bytes but "
                    "only %zu remain",
                    tag.c_str(), section_offset,
                    static_cast<unsigned long long>(len), r.remaining()));
    }
    size_t payload_offset = r.offset();
    std::string_view payload = bytes.substr(payload_offset,
                                            static_cast<size_t>(len));
    DD_RETURN_IF_ERROR(r.Skip(static_cast<size_t>(len), "section payload"));
    uint32_t stored_crc = 0;
    DD_RETURN_IF_ERROR(r.ReadU32(&stored_crc, "section checksum"));
    std::string header = tag;
    AppendU64(&header, payload.size());
    uint32_t computed = Crc32c(header.data(), header.size());
    computed = Crc32cExtend(computed, payload.data(), payload.size());
    if (computed != stored_crc) {
      return Status::Corruption(
          StrFormat("checksum mismatch in section '%s' at offset %zu "
                    "(stored %08x, computed %08x)",
                    tag.c_str(), section_offset, stored_crc, computed));
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
    if (view.sections_.count(tag) > 0) {
      return Status::Corruption(StrFormat("duplicate section '%s' at offset %zu",
                                          tag.c_str(), section_offset));
    }
    view.sections_.emplace(tag, SectionSpan{payload_offset, payload});
  }
  return view;
}

Result<SectionSpan> SnapshotView::Section(const std::string& tag) const {
  auto it = sections_.find(tag);
  if (it == sections_.end()) {
    return Status::NotFound("snapshot has no section '" + tag + "'");
  }
  return it->second;
}

Result<SnapshotReader> SnapshotReader::Parse(std::string bytes) {
  DD_ASSIGN_OR_RETURN(SnapshotView view, SnapshotView::Parse(bytes));
  SnapshotReader reader;
  for (const auto& [tag, span] : view.sections()) {
    reader.sections_.emplace(tag, std::string(span.payload));
  }
  return reader;
}

Result<SnapshotReader> SnapshotReader::ReadFile(const std::string& path) {
  DD_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return Parse(std::move(bytes));
}

Result<std::string> SnapshotReader::Section(const std::string& tag) const {
  auto it = sections_.find(tag);
  if (it == sections_.end()) {
    return Status::NotFound("snapshot has no section '" + tag + "'");
  }
  return it->second;
}

// ---- Typed graph snapshot ---------------------------------------------

namespace {

/// Decode-side guard: a section's payload must be consumed exactly.
Status ExpectConsumed(const ByteReader& r, const char* tag) {
  if (r.remaining() != 0) {
    return Status::Corruption(StrFormat("%zu trailing bytes in section '%s'",
                                        r.remaining(), tag));
  }
  return Status::OK();
}

/// WGHT/CNTS/MRGN layout: u64 count, then `count` 8-byte LE words.
template <typename T>
std::string EncodeWords(const std::vector<T>& values) {
  std::string payload;
  AppendU64(&payload, values.size());
  for (T v : values) AppendU64(&payload, std::bit_cast<uint64_t>(v));
  return payload;
}

template <typename T>
Status DecodeWords(const SnapshotView& reader, const char* tag, std::vector<T>* out) {
  if (!reader.Has(tag)) return Status::OK();
  DD_ASSIGN_OR_RETURN(SectionSpan span, reader.Section(tag));
  ByteReader r(span.payload);
  uint64_t count = 0;
  DD_RETURN_IF_ERROR(r.ReadU64(&count, tag));
  if (r.remaining() % 8 != 0 || count != r.remaining() / 8) {
    return Status::Corruption(
        StrFormat("%s declares %llu values but carries %zu payload bytes", tag,
                  static_cast<unsigned long long>(count), r.remaining()));
  }
  out->resize(static_cast<size_t>(count));
  for (T& v : *out) {
    uint64_t bits = 0;
    DD_RETURN_IF_ERROR(r.ReadU64(&bits, tag));
    v = std::bit_cast<T>(bits);
  }
  return Status::OK();
}

}  // namespace

std::string EncodeGraphSnapshot(const GraphSnapshot& snapshot) {
  SnapshotWriter writer;
  SectionLayout layout;
  auto add_section = [&](const char* tag, std::string payload) {
    layout.Add(payload.size());
    writer.AddSection(tag, std::move(payload));
  };
  // Binary sections are pad-prefixed against their file offset so their
  // content is 8-byte-aligned in the file (mmap readers get aligned
  // arrays); the layout tracker must therefore see every section, in
  // file order.
  auto add_aligned = [&](const char* tag, std::string content) {
    add_section(tag,
                WithAlignmentPad(layout.NextPayloadOffset(), std::move(content)));
  };
  if (snapshot.has_graph) {
    StringPoolBuilder pool;
    std::string grbn;
    EncodeBinaryGraph(snapshot.graph, &pool, &grbn);
    add_aligned("GRBN", std::move(grbn));
    add_aligned("DICT", pool.EncodeContent());
  }
  if (!snapshot.weights.empty()) add_section("WGHT", EncodeWords(snapshot.weights));
  if (!snapshot.chains.empty()) {
    std::string payload;
    AppendU64(&payload, snapshot.chains.size());
    for (const auto& chain : snapshot.chains) {
      AppendU64(&payload, chain.size());
      payload.append(reinterpret_cast<const char*>(chain.data()), chain.size());
    }
    add_section("CHNS", std::move(payload));
  }
  if (!snapshot.counts.empty()) add_section("CNTS", EncodeWords(snapshot.counts));
  if (!snapshot.marginals.empty()) {
    add_section("MRGN", EncodeWords(snapshot.marginals));
  }
  if (!snapshot.rng_states.empty()) {
    std::string payload;
    AppendU64(&payload, snapshot.rng_states.size());
    for (const RngState& st : snapshot.rng_states) {
      AppendU64(&payload, st.s0);
      AppendU64(&payload, st.s1);
    }
    add_section("RNGS", std::move(payload));
  }
  if (!snapshot.meta.empty()) {
    std::string payload;
    for (const auto& [key, value] : snapshot.meta) {
      payload += key;
      payload += '=';
      payload += value;
      payload += '\n';
    }
    add_section("META", std::move(payload));
  }
  return writer.Encode();
}

Result<GraphSnapshot> DecodeGraphSnapshot(const std::string& bytes) {
  DD_ASSIGN_OR_RETURN(SnapshotView reader, SnapshotView::Parse(bytes));
  GraphSnapshot snap;

  if (reader.Has("GRBN")) {
    // Binary graph + its string pool. Pads are validated against the
    // sections' file offsets recorded by the container parse.
    DD_ASSIGN_OR_RETURN(SectionSpan grbn_span, reader.Section("GRBN"));
    Result<SectionSpan> dict_span = reader.Section("DICT");
    if (!dict_span.ok()) {
      return Status::Corruption("GRBN section without its DICT string pool");
    }
    DD_ASSIGN_OR_RETURN(
        std::string_view dict_content,
        StripAlignmentPad(dict_span->offset, dict_span->payload));
    DD_ASSIGN_OR_RETURN(StringPoolView pool, StringPoolView::Parse(dict_content));
    DD_ASSIGN_OR_RETURN(
        std::string_view grbn_content,
        StripAlignmentPad(grbn_span.offset, grbn_span.payload));
    DD_ASSIGN_OR_RETURN(BinaryGraphView view,
                        ParseBinaryGraph(grbn_content, pool));
    DD_ASSIGN_OR_RETURN(snap.graph, GraphFromBinary(view, pool));
    snap.has_graph = true;
  }
  DD_RETURN_IF_ERROR(DecodeWords(reader, "WGHT", &snap.weights));
  if (reader.Has("CHNS")) {
    DD_ASSIGN_OR_RETURN(SectionSpan span, reader.Section("CHNS"));
    ByteReader r(span.payload);
    uint64_t num_chains = 0;
    DD_RETURN_IF_ERROR(r.ReadU64(&num_chains, "CHNS count"));
    // Each chain needs at least its 8-byte length prefix.
    if (num_chains > r.remaining() / 8) {
      return Status::Corruption(StrFormat("CHNS declares %llu chains in a %zu-byte "
                                          "payload",
                                          static_cast<unsigned long long>(num_chains),
                                          span.payload.size()));
    }
    snap.chains.resize(static_cast<size_t>(num_chains));
    for (auto& chain : snap.chains) {
      uint64_t len = 0;
      DD_RETURN_IF_ERROR(r.ReadU64(&len, "chain length"));
      if (len > r.remaining()) {
        return Status::Corruption(StrFormat(
            "chain declares %llu bytes but only %zu remain in CHNS",
            static_cast<unsigned long long>(len), r.remaining()));
      }
      chain.resize(static_cast<size_t>(len));
      DD_RETURN_IF_ERROR(r.ReadBytes(chain.data(), chain.size(), "chain bytes"));
      for (uint8_t b : chain) {
        if (b > 1) return Status::Corruption("chain byte outside {0,1}");
      }
    }
    DD_RETURN_IF_ERROR(ExpectConsumed(r, "CHNS"));
  }
  DD_RETURN_IF_ERROR(DecodeWords(reader, "CNTS", &snap.counts));
  DD_RETURN_IF_ERROR(DecodeWords(reader, "MRGN", &snap.marginals));
  if (reader.Has("RNGS")) {
    DD_ASSIGN_OR_RETURN(SectionSpan span, reader.Section("RNGS"));
    ByteReader r(span.payload);
    uint64_t count = 0;
    DD_RETURN_IF_ERROR(r.ReadU64(&count, "RNGS count"));
    if (r.remaining() % 16 != 0 || count != r.remaining() / 16) {
      return Status::Corruption(StrFormat(
          "RNGS declares %llu states but carries %zu payload bytes",
          static_cast<unsigned long long>(count), r.remaining()));
    }
    snap.rng_states.resize(static_cast<size_t>(count));
    for (RngState& st : snap.rng_states) {
      DD_RETURN_IF_ERROR(r.ReadU64(&st.s0, "rng s0"));
      DD_RETURN_IF_ERROR(r.ReadU64(&st.s1, "rng s1"));
    }
    DD_RETURN_IF_ERROR(ExpectConsumed(r, "RNGS"));
  }
  if (reader.Has("META")) {
    DD_ASSIGN_OR_RETURN(SectionSpan span, reader.Section("META"));
    DD_ASSIGN_OR_RETURN(snap.meta, ParseMeta(span.payload));
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
