#include "storage/snapshot.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <functional>
#include <utility>

#include "storage/tuple.h"
#include "util/bytes.h"
#include "util/failpoint.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace dd {

namespace {

constexpr uint8_t kMaxTypeTag = static_cast<uint8_t>(ValueType::kString);
constexpr uint8_t kMaxFactorFunc = static_cast<uint8_t>(FactorFunc::kEqual);
constexpr uint32_t kEmptyProbe = 0xffffffffu;

}  // namespace

// ---- String pool --------------------------------------------------------

size_t StringPoolBuilder::ProbeFor(std::string_view s) const {
  size_t mask = ids_by_probe_.size() - 1;
  size_t pos = std::hash<std::string_view>{}(s) & mask;
  while (ids_by_probe_[pos] != kEmptyProbe &&
         strings_[ids_by_probe_[pos]] != s) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

void StringPoolBuilder::MaybeGrow() {
  if (ids_by_probe_.empty()) {
    ids_by_probe_.assign(16, kEmptyProbe);
    return;
  }
  size_t cap = ids_by_probe_.size();
  if (strings_.size() + 1 <= cap - (cap >> 3)) return;
  std::vector<uint32_t> old = std::move(ids_by_probe_);
  ids_by_probe_.assign(cap * 2, kEmptyProbe);
  size_t mask = ids_by_probe_.size() - 1;
  for (uint32_t id : old) {
    if (id == kEmptyProbe) continue;
    size_t pos = std::hash<std::string_view>{}(strings_[id]) & mask;
    while (ids_by_probe_[pos] != kEmptyProbe) pos = (pos + 1) & mask;
    ids_by_probe_[pos] = id;
  }
}

uint32_t StringPoolBuilder::IdFor(std::string_view s) {
  MaybeGrow();
  size_t pos = ProbeFor(s);
  if (ids_by_probe_[pos] != kEmptyProbe) return ids_by_probe_[pos];
  uint32_t id = static_cast<uint32_t>(strings_.size());
  strings_.emplace_back(s);
  ids_by_probe_[pos] = id;
  return id;
}

std::string StringPoolBuilder::EncodeContent() const {
  uint64_t blob_len = 0;
  for (const std::string& s : strings_) blob_len += s.size();
  DD_CHECK(blob_len <= 0xffffffffull);  // offsets are u32
  std::string out;
  PutU64(&out, strings_.size());
  PutU64(&out, blob_len);
  uint32_t off = 0;
  for (const std::string& s : strings_) {
    PutU32(&out, off);
    off += static_cast<uint32_t>(s.size());
  }
  PutU32(&out, off);
  PadTo8(&out);
  for (const std::string& s : strings_) out += s;
  return out;
}

Result<StringPoolView> StringPoolView::Parse(std::string_view content) {
  ByteReader c(content);
  uint64_t count = 0, blob_len = 0;
  DD_RETURN_IF_ERROR(c.U64(&count, "DICT count"));
  DD_RETURN_IF_ERROR(c.U64(&blob_len, "DICT blob length"));
  if (count > 0xffffffffull || blob_len > 0xffffffffull) {
    return Status::Corruption("DICT counts exceed u32 range");
  }
  size_t offsets_off = 0, blob_off = 0;
  DD_RETURN_IF_ERROR(c.Array(4, count + 1, &offsets_off, "DICT offsets"));
  DD_RETURN_IF_ERROR(c.Pad8("DICT"));
  DD_RETURN_IF_ERROR(c.Array(1, blob_len, &blob_off, "DICT blob"));
  DD_RETURN_IF_ERROR(c.Done("DICT"));

  StringPoolView pool;
  pool.count_ = static_cast<size_t>(count);
  pool.offsets_ = content.data() + offsets_off;
  pool.blob_ = content.substr(blob_off, static_cast<size_t>(blob_len));
  uint32_t prev = pool.OffsetAt(0);
  if (prev != 0) return Status::Corruption("DICT offsets must start at 0");
  for (size_t i = 1; i <= pool.count_; ++i) {
    uint32_t cur = pool.OffsetAt(i);
    if (cur < prev) return Status::Corruption("DICT offsets not monotone");
    prev = cur;
  }
  if (prev != blob_len) {
    return Status::Corruption("DICT final offset does not equal blob length");
  }
  return pool;
}

// ---- Binary factor graph (GRBN) -----------------------------------------

void EncodeBinaryGraph(const FactorGraph& graph, StringPoolBuilder* pool,
                       std::string* out) {
  const size_t num_vars = graph.num_variables();
  const size_t num_weights = graph.num_weights();
  const size_t num_factors = graph.num_factors();
  const size_t num_literals = graph.num_edges();
  size_t num_evidence = 0;
  for (uint32_t v = 0; v < num_vars; ++v) {
    if (graph.is_evidence(v)) ++num_evidence;
  }

  PutU64(out, num_vars);
  PutU64(out, num_evidence);
  PutU64(out, num_weights);
  PutU64(out, num_factors);
  PutU64(out, num_literals);
  for (uint32_t v = 0; v < num_vars; ++v) {
    if (!graph.is_evidence(v)) continue;
    PutU64(out, static_cast<uint64_t>(v) |
                    (graph.evidence_value(v) ? (uint64_t{1} << 32) : 0));
  }
  for (uint32_t w = 0; w < num_weights; ++w) {
    PutDouble(out, graph.weight_value(w));
  }
  for (uint32_t w = 0; w < num_weights; ++w) {
    PutU32(out, pool->IdFor(graph.weight(w).description));
  }
  PadTo8(out);
  for (uint32_t w = 0; w < num_weights; ++w) {
    out->push_back(graph.weight(w).is_fixed ? 1 : 0);
  }
  PadTo8(out);
  for (uint32_t f = 0; f < num_factors; ++f) {
    out->push_back(static_cast<char>(graph.factor_func(f)));
  }
  PadTo8(out);
  for (uint32_t f = 0; f < num_factors; ++f) {
    PutU32(out, graph.factor_weight(f));
  }
  PadTo8(out);
  uint64_t off = 0;
  PutU64(out, 0);
  for (uint32_t f = 0; f < num_factors; ++f) {
    size_t arity = 0;
    graph.factor_literals(f, &arity);
    off += arity;
    PutU64(out, off);
  }
  for (uint32_t f = 0; f < num_factors; ++f) {
    size_t arity = 0;
    const Literal* lits = graph.factor_literals(f, &arity);
    for (size_t i = 0; i < arity; ++i) {
      PutU64(out, static_cast<uint64_t>(lits[i].var) |
                      (lits[i].is_positive ? (uint64_t{1} << 32) : 0));
    }
  }
}

Result<BinaryGraphView> ParseBinaryGraph(std::string_view content,
                                         const StringPoolView& pool) {
  BinaryGraphView v;
  v.content = content;
  ByteReader c(content);
  DD_RETURN_IF_ERROR(c.U64(&v.num_variables, "GRBN variable count"));
  DD_RETURN_IF_ERROR(c.U64(&v.num_evidence, "GRBN evidence count"));
  DD_RETURN_IF_ERROR(c.U64(&v.num_weights, "GRBN weight count"));
  DD_RETURN_IF_ERROR(c.U64(&v.num_factors, "GRBN factor count"));
  DD_RETURN_IF_ERROR(c.U64(&v.num_literals, "GRBN literal count"));
  if (v.num_variables > 0xffffffffull || v.num_weights > 0xffffffffull ||
      v.num_factors > 0xffffffffull) {
    return Status::Corruption("GRBN counts exceed u32 id range");
  }
  if (v.num_evidence > v.num_variables) {
    return Status::Corruption("GRBN declares more evidence than variables");
  }
  DD_RETURN_IF_ERROR(c.Array(8, v.num_evidence, &v.evidence_off, "GRBN evidence"));
  DD_RETURN_IF_ERROR(
      c.Array(8, v.num_weights, &v.weight_values_off, "GRBN weight values"));
  DD_RETURN_IF_ERROR(
      c.Array(4, v.num_weights, &v.weight_desc_off, "GRBN weight descs"));
  DD_RETURN_IF_ERROR(c.Pad8("GRBN"));
  DD_RETURN_IF_ERROR(
      c.Array(1, v.num_weights, &v.weight_fixed_off, "GRBN weight flags"));
  DD_RETURN_IF_ERROR(c.Pad8("GRBN"));
  DD_RETURN_IF_ERROR(
      c.Array(1, v.num_factors, &v.factor_funcs_off, "GRBN factor funcs"));
  DD_RETURN_IF_ERROR(c.Pad8("GRBN"));
  DD_RETURN_IF_ERROR(
      c.Array(4, v.num_factors, &v.factor_weights_off, "GRBN factor weights"));
  DD_RETURN_IF_ERROR(c.Pad8("GRBN"));
  DD_RETURN_IF_ERROR(c.Array(8, v.num_factors + 1, &v.literal_offsets_off,
                             "GRBN literal offsets"));
  DD_RETURN_IF_ERROR(c.Array(8, v.num_literals, &v.literals_off, "GRBN literals"));
  DD_RETURN_IF_ERROR(c.Done("GRBN"));

  // Semantic validation: every id in range, evidence sorted, CSR
  // monotone, flag/spare bits zero.
  uint64_t prev_var = 0;
  for (size_t i = 0; i < v.num_evidence; ++i) {
    uint64_t word = v.EvidenceWord(i);
    uint64_t var = word & 0xffffffffull;
    if ((word >> 33) != 0) {
      return Status::Corruption("GRBN evidence word has nonzero spare bits");
    }
    if (var >= v.num_variables) {
      return Status::Corruption("GRBN evidence variable out of range");
    }
    if (i > 0 && var <= prev_var) {
      return Status::Corruption("GRBN evidence not sorted by variable id");
    }
    prev_var = var;
  }
  for (size_t w = 0; w < v.num_weights; ++w) {
    uint8_t fixed = static_cast<uint8_t>(content[v.weight_fixed_off + w]);
    if (fixed > 1) {
      return Status::Corruption("GRBN weight fixed flag outside {0,1}");
    }
    if (v.WeightDescId(w) >= pool.size()) {
      return Status::Corruption("GRBN weight description id out of pool range");
    }
  }
  for (size_t f = 0; f < v.num_factors; ++f) {
    if (static_cast<uint8_t>(content[v.factor_funcs_off + f]) > kMaxFactorFunc) {
      return Status::Corruption("GRBN unknown factor function");
    }
    if (v.FactorWeight(f) >= v.num_weights) {
      return Status::Corruption("GRBN factor weight id out of range");
    }
  }
  if (v.LiteralOffset(0) != 0) {
    return Status::Corruption("GRBN literal offsets must start at 0");
  }
  for (size_t f = 0; f < v.num_factors; ++f) {
    if (v.LiteralOffset(f + 1) < v.LiteralOffset(f)) {
      return Status::Corruption("GRBN literal offsets not monotone");
    }
  }
  if (v.LiteralOffset(v.num_factors) != v.num_literals) {
    return Status::Corruption(
        "GRBN final literal offset does not equal literal count");
  }
  for (size_t i = 0; i < v.num_literals; ++i) {
    uint64_t word = v.LiteralWord(i);
    if ((word >> 33) != 0) {
      return Status::Corruption("GRBN literal word has nonzero spare bits");
    }
    if ((word & 0xffffffffull) >= v.num_variables) {
      return Status::Corruption("GRBN literal variable out of range");
    }
  }
  return v;
}

Result<FactorGraph> GraphFromBinary(const BinaryGraphView& view,
                                    const StringPoolView& pool) {
  FactorGraph graph;
  size_t e = 0;
  for (uint64_t v = 0; v < view.num_variables; ++v) {
    if (e < view.num_evidence &&
        (view.EvidenceWord(e) & 0xffffffffull) == v) {
      graph.AddVariable(true, (view.EvidenceWord(e) >> 32) & 1);
      ++e;
    } else {
      graph.AddVariable();
    }
  }
  for (size_t w = 0; w < view.num_weights; ++w) {
    graph.AddWeight(view.WeightValue(w), view.WeightFixed(w),
                    std::string(pool.String(view.WeightDescId(w))));
  }
  for (size_t f = 0; f < view.num_factors; ++f) {
    std::vector<Literal> literals;
    uint64_t begin = view.LiteralOffset(f);
    uint64_t end = view.LiteralOffset(f + 1);
    literals.reserve(static_cast<size_t>(end - begin));
    for (uint64_t i = begin; i < end; ++i) {
      uint64_t word = view.LiteralWord(static_cast<size_t>(i));
      literals.push_back(Literal{static_cast<uint32_t>(word & 0xffffffffull),
                                 ((word >> 32) & 1) != 0});
    }
    Status st = graph.AddFactor(view.FactorFuncAt(f), view.FactorWeight(f),
                                std::move(literals));
    if (!st.ok()) {
      // The section passed CRC + structural checks, so a rejected factor
      // (e.g. wrong kEqual arity) means bad written bytes — corruption
      // to the caller.
      return Status::Corruption("GRBN factor rejected: " + st.ToString());
    }
  }
  Status st = graph.Finalize();
  if (!st.ok()) {
    return Status::Corruption("GRBN graph failed to finalize: " + st.ToString());
  }
  return graph;
}

// ---- Catalog snapshot (COLS) --------------------------------------------

std::string EncodeCatalogSnapshot(const Catalog& catalog) {
  StringPoolBuilder pool;
  std::string cols;
  std::vector<std::string> names = catalog.TableNames();  // sorted

  PutU64(&cols, names.size());
  for (const std::string& name : names) {
    const Table* table = *catalog.GetTable(name);
    PutU64(&cols, table->capacity());
    PutU32(&cols, pool.IdFor(name));
    const Schema& schema = table->schema();
    PutU32(&cols, static_cast<uint32_t>(schema.num_columns()));
    for (size_t i = 0; i < schema.num_columns(); ++i) {
      PutU32(&cols, pool.IdFor(schema.column(i).name));
      PutU32(&cols, static_cast<uint32_t>(schema.column(i).type));
    }
  }
  for (const std::string& name : names) {
    const Table* table = *catalog.GetTable(name);
    const size_t rows = table->capacity();
    const Bitmap& live = table->live_bitmap();
    for (size_t w = 0; w < Bitmap::WordsFor(rows); ++w) {
      PutU64(&cols, live.words()[w]);
    }
    for (size_t r = 0; r < rows; ++r) {
      PutU64(&cols, table->RowHash(static_cast<int64_t>(r)));
    }
    for (size_t col = 0; col < table->schema().num_columns(); ++col) {
      const ColumnVector& cv = table->column(col);
      for (size_t r = 0; r < rows; ++r) {
        const Value v = cv.at(r);
        // String payloads are remapped from process-global dictionary
        // ids to snapshot-local pool ids so the bytes are deterministic
        // regardless of interleaved interning elsewhere.
        PutU64(&cols, v.type() == ValueType::kString
                          ? pool.IdFor(v.AsString())
                          : v.payload_bits());
      }
      for (size_t r = 0; r < rows; ++r) {
        cols.push_back(static_cast<char>(cv.at(r).type()));
      }
      PadTo8(&cols);
    }
  }

  SnapshotWriter writer;
  // COLS first: its encode populates the pool, but DICT's *file offset*
  // is only known once the COLS payload length is fixed.
  writer.AddAlignedSection("COLS", cols);
  writer.AddAlignedSection("DICT", pool.EncodeContent());
  return writer.Encode();
}

Status WriteCatalogSnapshot(const Catalog& catalog, const std::string& path) {
  return WriteBytesAtomic(EncodeCatalogSnapshot(catalog), path);
}

Result<CatalogView> ParseCatalogSection(std::string_view cols_content,
                                        const StringPoolView& pool) {
  CatalogView out;
  ByteReader c(cols_content);
  uint64_t num_tables = 0;
  DD_RETURN_IF_ERROR(c.U64(&num_tables, "COLS table count"));
  // Each directory entry is at least 16 bytes; cheap pre-bound so a
  // flipped count cannot drive a near-infinite loop.
  if (num_tables > cols_content.size() / 16) {
    return Status::Corruption("COLS table count exceeds payload capacity");
  }
  std::string_view prev_name;
  for (uint64_t t = 0; t < num_tables; ++t) {
    MappedTableView table;
    table.content = cols_content;
    uint32_t name_id = 0, num_columns = 0;
    DD_RETURN_IF_ERROR(c.U64(&table.num_rows, "COLS row count"));
    DD_RETURN_IF_ERROR(c.U32(&name_id, "COLS table name"));
    DD_RETURN_IF_ERROR(c.U32(&num_columns, "COLS column count"));
    if (name_id >= pool.size()) {
      return Status::Corruption("COLS table name id out of pool range");
    }
    table.name = pool.String(name_id);
    if (table.name.empty()) {
      return Status::Corruption("COLS table with empty name");
    }
    if (t > 0 && table.name <= prev_name) {
      return Status::Corruption("COLS tables not sorted by name");
    }
    prev_name = table.name;
    if (num_columns > cols_content.size() / 8) {
      return Status::Corruption("COLS column count exceeds payload capacity");
    }
    table.columns.reserve(num_columns);
    for (uint32_t i = 0; i < num_columns; ++i) {
      MappedColumnView col;
      uint32_t col_name_id = 0, type = 0;
      DD_RETURN_IF_ERROR(c.U32(&col_name_id, "COLS column name"));
      DD_RETURN_IF_ERROR(c.U32(&type, "COLS column type"));
      if (col_name_id >= pool.size()) {
        return Status::Corruption("COLS column name id out of pool range");
      }
      if (type > kMaxTypeTag) {
        return Status::Corruption("COLS column type out of range");
      }
      col.name = pool.String(col_name_id);
      col.declared_type = static_cast<ValueType>(type);
      table.columns.push_back(col);
    }
    out.tables.push_back(std::move(table));
  }
  for (MappedTableView& table : out.tables) {
    const uint64_t rows = table.num_rows;
    DD_RETURN_IF_ERROR(
        c.Array(8, Bitmap::WordsFor(rows), &table.live_off, "COLS liveness"));
    DD_RETURN_IF_ERROR(c.Array(8, rows, &table.hashes_off, "COLS row hashes"));
    for (MappedColumnView& col : table.columns) {
      DD_RETURN_IF_ERROR(c.Array(8, rows, &col.payload_off, "COLS payloads"));
      DD_RETURN_IF_ERROR(c.Array(1, rows, &col.tags_off, "COLS tags"));
      DD_RETURN_IF_ERROR(c.Pad8("COLS"));
    }
  }
  DD_RETURN_IF_ERROR(c.Done("COLS"));

  // Cell-level validation: liveness spare bits zero, tags in range,
  // payloads consistent with their tag.
  for (const MappedTableView& table : out.tables) {
    const size_t rows = static_cast<size_t>(table.num_rows);
    if ((rows & 63) != 0) {
      uint64_t last = LoadU64(table.content.data(), table.live_off + 8 * (rows >> 6));
      if ((last >> (rows & 63)) != 0) {
        return Status::Corruption("COLS liveness bitmap has spare bits set");
      }
    }
    for (size_t col = 0; col < table.columns.size(); ++col) {
      for (size_t r = 0; r < rows; ++r) {
        uint8_t tag = table.CellTag(col, r);
        uint64_t payload = table.CellPayload(col, r);
        if (tag > kMaxTypeTag) {
          return Status::Corruption("COLS cell tag out of range");
        }
        switch (static_cast<ValueType>(tag)) {
          case ValueType::kNull:
            if (payload != 0) {
              return Status::Corruption("COLS null cell with nonzero payload");
            }
            break;
          case ValueType::kBool:
            if (payload > 1) {
              return Status::Corruption("COLS bool cell outside {0,1}");
            }
            break;
          case ValueType::kString:
            if (payload >= pool.size()) {
              return Status::Corruption("COLS string id out of pool range");
            }
            break;
          default:
            break;  // int/double: any 8 bytes are valid
        }
      }
    }
  }
  return out;
}

namespace {

Status LoadCatalogFromViews(const CatalogView& view, const StringPoolView& pool,
                            Catalog* catalog) {
  for (const MappedTableView& tv : view.tables) {
    std::vector<Column> columns;
    columns.reserve(tv.columns.size());
    for (const MappedColumnView& cv : tv.columns) {
      columns.push_back(Column{std::string(cv.name), cv.declared_type});
    }
    DD_ASSIGN_OR_RETURN(
        Table * table,
        catalog->CreateTable(std::string(tv.name), Schema(std::move(columns))));
    const size_t rows = static_cast<size_t>(tv.num_rows);
    table->Reserve(rows);
    for (size_t r = 0; r < rows; ++r) {
      Tuple tuple;
      for (size_t col = 0; col < tv.columns.size(); ++col) {
        ValueType tag = static_cast<ValueType>(tv.CellTag(col, r));
        uint64_t payload = tv.CellPayload(col, r);
        tuple.Append(tag == ValueType::kString
                         ? Value::String(pool.String(
                               static_cast<uint32_t>(payload)))
                         : Value::FromRaw(tag, payload));
      }
      // Stored hashes are content-based (string cells hash their text),
      // so they are portable across processes; a mismatch means the
      // arrays and the hash column disagree.
      if (tuple.Hash() != tv.RowHash(r)) {
        return Status::Corruption(
            StrFormat("row hash mismatch in table %s at row %zu",
                      std::string(tv.name).c_str(), r));
      }
      DD_RETURN_IF_ERROR(table->RestoreRow(tuple, tv.RowLive(r)));
    }
  }
  return Status::OK();
}

}  // namespace

Status LoadCatalogSnapshot(const std::string& bytes, Catalog* catalog) {
  DD_ASSIGN_OR_RETURN(SnapshotView container, SnapshotView::Parse(bytes));
  DD_ASSIGN_OR_RETURN(std::string_view dict_content, container.AlignedSection("DICT"));
  DD_ASSIGN_OR_RETURN(StringPoolView pool, StringPoolView::Parse(dict_content));
  DD_ASSIGN_OR_RETURN(std::string_view cols_content, container.AlignedSection("COLS"));
  DD_ASSIGN_OR_RETURN(CatalogView view, ParseCatalogSection(cols_content, pool));
  return LoadCatalogFromViews(view, pool, catalog);
}

Status LoadCatalogSnapshotFile(const std::string& path, Catalog* catalog) {
  DD_ASSIGN_OR_RETURN(std::string bytes, ReadFileBytes(path));
  return LoadCatalogSnapshot(bytes, catalog);
}

// ---- Mapped snapshots ---------------------------------------------------

MappedSnapshot& MappedSnapshot::operator=(MappedSnapshot&& other) noexcept {
  if (this != &other) {
    if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
    map_base_ = std::exchange(other.map_base_, nullptr);
    map_len_ = std::exchange(other.map_len_, 0);
    heap_ = std::move(other.heap_);
    bytes_ = std::exchange(other.bytes_, std::string_view());
    view_ = std::move(other.view_);
  }
  return *this;
}

MappedSnapshot::~MappedSnapshot() {
  if (map_base_ != nullptr) ::munmap(map_base_, map_len_);
}

Result<MappedSnapshot> MappedSnapshot::Open(const std::string& path) {
  Status injected;
  DD_FAILPOINT(failpoints::kFactorIoRead, &injected);
  if (!injected.ok()) return injected;

  MappedSnapshot snap;
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    struct stat st;
    if (::fstat(fd, &st) == 0 && st.st_size > 0) {
      void* base = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                          MAP_PRIVATE, fd, 0);
      if (base != MAP_FAILED) {
        snap.map_base_ = base;
        snap.map_len_ = static_cast<size_t>(st.st_size);
        snap.bytes_ = std::string_view(static_cast<const char*>(base),
                                       snap.map_len_);
      }
    }
    ::close(fd);
  }
  // A fired snapshot.mmap simulates mmap(2) refusing the mapping (ENOMEM,
  // filesystem without mmap support): discard whatever was mapped and
  // exercise the checked-read heap fallback below.
  Status mmap_refused;
  DD_FAILPOINT(failpoints::kSnapshotMmap, &mmap_refused);
  if (!mmap_refused.ok() && snap.map_base_ != nullptr) {
    ::munmap(snap.map_base_, snap.map_len_);
    snap.map_base_ = nullptr;
    snap.map_len_ = 0;
    snap.bytes_ = std::string_view();
  }
  if (snap.map_base_ == nullptr) {
    // Heap fallback into an 8-byte-aligned buffer so section contents
    // keep the alignment the pads establish relative to file offsets.
    DD_ASSIGN_OR_RETURN(std::string data, ReadFileBytes(path));
    snap.heap_ = std::make_unique<uint64_t[]>((data.size() + 7) / 8);
    std::memcpy(snap.heap_.get(), data.data(), data.size());
    snap.bytes_ = std::string_view(
        reinterpret_cast<const char*>(snap.heap_.get()), data.size());
  }
  // Injected container-validation failure (the mapped bytes are
  // unreadable garbage): surfaces exactly like a real corrupt file.
  Status validate_injected;
  DD_FAILPOINT(failpoints::kSnapshotValidate, &validate_injected);
  if (!validate_injected.ok()) return validate_injected;
  DD_ASSIGN_OR_RETURN(snap.view_, SnapshotView::Parse(snap.bytes_));
  return snap;
}

Result<StringPoolView> MappedSnapshot::Pool() const {
  DD_ASSIGN_OR_RETURN(std::string_view content, view_.AlignedSection("DICT"));
  return StringPoolView::Parse(content);
}

Result<BinaryGraphView> MappedSnapshot::Graph(const StringPoolView& pool) const {
  DD_ASSIGN_OR_RETURN(std::string_view content, view_.AlignedSection("GRBN"));
  return ParseBinaryGraph(content, pool);
}

Result<CatalogView> MappedSnapshot::Tables(const StringPoolView& pool) const {
  DD_ASSIGN_OR_RETURN(std::string_view content, view_.AlignedSection("COLS"));
  return ParseCatalogSection(content, pool);
}

}  // namespace dd
