#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "factor/io.h"
#include "storage/catalog.h"
#include "storage/snapshot.h"
#include "storage/tsv.h"
#include "testdata/synthetic_graphs.h"

namespace dd {
namespace {

// Little-endian append helpers for hand-crafting section contents.
void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}
void Pad8(std::string* out) {
  while (out->size() & 7) out->push_back('\0');
}

/// Wrap (tag, content) pairs as a valid DDSN container with alignment
/// pads — CRCs are correct, so only *semantic* validation can reject it.
std::string BuildContainer(
    const std::vector<std::pair<std::string, std::string>>& sections) {
  SnapshotWriter writer;
  for (const auto& [tag, content] : sections) writer.AddAlignedSection(tag, content);
  return writer.Encode();
}

std::string EncodeDict(const std::vector<std::string>& strings) {
  std::string out;
  uint64_t blob_len = 0;
  for (const auto& s : strings) blob_len += s.size();
  PutU64(&out, strings.size());
  PutU64(&out, blob_len);
  uint32_t off = 0;
  for (const auto& s : strings) {
    PutU32(&out, off);
    off += static_cast<uint32_t>(s.size());
  }
  PutU32(&out, off);
  Pad8(&out);
  for (const auto& s : strings) out += s;
  return out;
}

// ---- Alignment padding --------------------------------------------------

TEST(AlignmentPadTest, RoundTripsAtEveryOffset) {
  const std::string content = "12345";
  for (size_t off = 0; off < 32; ++off) {
    std::string payload = WithAlignmentPad(off, content);
    // The content must land on an 8-aligned file offset.
    size_t pad = static_cast<uint8_t>(payload[0]);
    EXPECT_EQ((off + 1 + pad) % 8, 0u) << "offset " << off;
    auto stripped = StripAlignmentPad(off, payload);
    ASSERT_TRUE(stripped.ok()) << stripped.status().ToString();
    EXPECT_EQ(*stripped, content);
    // The same payload at a different (non-congruent) offset is rejected.
    auto wrong = StripAlignmentPad(off + 1, payload);
    EXPECT_FALSE(wrong.ok());
  }
}

TEST(AlignmentPadTest, RejectsNonzeroPadBytes) {
  std::string payload = WithAlignmentPad(20, "data");
  ASSERT_GT(static_cast<uint8_t>(payload[0]), 0u);
  payload[1] = 'x';
  auto stripped = StripAlignmentPad(20, payload);
  EXPECT_FALSE(stripped.ok());
  EXPECT_EQ(stripped.status().code(), StatusCode::kCorruption);
}

// ---- String pool --------------------------------------------------------

TEST(StringPoolTest, DedupsAndRoundTrips) {
  StringPoolBuilder builder;
  EXPECT_EQ(builder.IdFor("alpha"), 0u);
  EXPECT_EQ(builder.IdFor("beta"), 1u);
  EXPECT_EQ(builder.IdFor("alpha"), 0u);
  EXPECT_EQ(builder.IdFor(""), 2u);
  EXPECT_EQ(builder.size(), 3u);

  std::string content = builder.EncodeContent();
  auto pool = StringPoolView::Parse(content);
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  EXPECT_EQ(pool->size(), 3u);
  EXPECT_EQ(pool->String(0), "alpha");
  EXPECT_EQ(pool->String(1), "beta");
  EXPECT_EQ(pool->String(2), "");
}

TEST(StringPoolTest, EmptyPoolRoundTrips) {
  StringPoolBuilder builder;
  // The view borrows the content bytes, so they must outlive it.
  std::string content = builder.EncodeContent();
  auto pool = StringPoolView::Parse(content);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool->size(), 0u);
}

TEST(StringPoolTest, ManyStringsSurviveGrowth) {
  StringPoolBuilder builder;
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(builder.IdFor("str-" + std::to_string(i)),
              static_cast<uint32_t>(i));
  }
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(builder.IdFor("str-" + std::to_string(i)),
              static_cast<uint32_t>(i));
  }
  std::string content = builder.EncodeContent();
  auto pool = StringPoolView::Parse(content);
  ASSERT_TRUE(pool.ok());
  ASSERT_EQ(pool->size(), 500u);
  EXPECT_EQ(pool->String(499), "str-499");
}

TEST(StringPoolTest, MalformedContentRejected) {
  // Non-monotone offsets.
  {
    std::string bad;
    PutU64(&bad, 2);  // count
    PutU64(&bad, 4);  // blob_len
    PutU32(&bad, 0);
    PutU32(&bad, 3);
    PutU32(&bad, 2);  // final < previous
    Pad8(&bad);
    bad += "abcd";
    // Final offset also wrong; either defect must reject.
    EXPECT_FALSE(StringPoolView::Parse(bad).ok());
  }
  // Final offset != blob length.
  {
    std::string bad;
    PutU64(&bad, 1);
    PutU64(&bad, 4);
    PutU32(&bad, 0);
    PutU32(&bad, 3);
    Pad8(&bad);
    bad += "abcd";
    EXPECT_FALSE(StringPoolView::Parse(bad).ok());
  }
  // Truncated blob.
  {
    std::string bad;
    PutU64(&bad, 1);
    PutU64(&bad, 100);
    PutU32(&bad, 0);
    PutU32(&bad, 100);
    Pad8(&bad);
    bad += "abcd";
    EXPECT_FALSE(StringPoolView::Parse(bad).ok());
  }
}

// ---- Catalog snapshot ---------------------------------------------------

void FillTestCatalog(Catalog* catalog_out) {
  Catalog& catalog = *catalog_out;
  Table* people = *catalog.CreateTable(
      "people", Schema({{"name", ValueType::kString},
                        {"age", ValueType::kInt},
                        {"score", ValueType::kDouble},
                        {"active", ValueType::kBool}}));
  auto insert = [&](Table* t, std::vector<Value> vs) {
    auto r = t->Insert(Tuple(std::move(vs)));
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  };
  insert(people, {Value::String("ann"), Value::Int(34), Value::Double(0.5),
                  Value::Bool(true)});
  insert(people, {Value::String("bob"), Value::Int(-7), Value::Null(),
                  Value::Bool(false)});
  insert(people, {Value::String(""), Value::Int(0),
                  Value::Double(-0.0), Value::Null()});
  insert(people, {Value::String("tab\tand\nnewline"), Value::Int(1L << 40),
                  Value::Double(std::nan("")), Value::Bool(true)});
  // Tombstone row 1: row ids must survive the save/load cycle.
  EXPECT_TRUE(people->Erase(Tuple({Value::String("bob"), Value::Int(-7),
                                   Value::Null(), Value::Bool(false)})));

  Table* edges = *catalog.CreateTable(
      "edges", Schema({{"src", ValueType::kInt}, {"dst", ValueType::kInt}}));
  for (int i = 0; i < 100; ++i) {
    insert(edges, {Value::Int(i), Value::Int((i * 7) % 100)});
  }
}

void ExpectCatalogsEqual(const Catalog& a, const Catalog& b) {
  ASSERT_EQ(a.TableNames(), b.TableNames());
  for (const std::string& name : a.TableNames()) {
    const Table* ta = *a.GetTable(name);
    const Table* tb = *b.GetTable(name);
    EXPECT_EQ(ta->schema(), tb->schema()) << name;
    ASSERT_EQ(ta->capacity(), tb->capacity()) << name;
    EXPECT_EQ(ta->size(), tb->size()) << name;
    for (size_t r = 0; r < ta->capacity(); ++r) {
      int64_t id = static_cast<int64_t>(r);
      EXPECT_EQ(ta->is_live(id), tb->is_live(id)) << name << " row " << r;
      EXPECT_EQ(ta->RowHash(id), tb->RowHash(id)) << name << " row " << r;
      for (size_t c = 0; c < ta->schema().num_columns(); ++c) {
        EXPECT_TRUE(ta->ValueAt(id, c) == tb->ValueAt(id, c))
            << name << " row " << r << " col " << c;
      }
    }
  }
}

TEST(CatalogSnapshotTest, RoundTripPreservesRowIdsAndTombstones) {
  Catalog catalog;
  FillTestCatalog(&catalog);
  std::string bytes = EncodeCatalogSnapshot(catalog);

  Catalog loaded;
  Status st = LoadCatalogSnapshot(bytes, &loaded);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ExpectCatalogsEqual(catalog, loaded);

  // The tombstoned row keeps its id and stays erased.
  Table* people = *loaded.GetTable("people");
  Tuple bob({Value::String("bob"), Value::Int(-7), Value::Null(),
             Value::Bool(false)});
  EXPECT_FALSE(people->Contains(bob));
  EXPECT_EQ(people->FindIncludingDeleted(bob), 1);
  // And re-inserting revives the same row id, like in the original.
  auto revived = people->Insert(bob);
  ASSERT_TRUE(revived.ok());
  EXPECT_EQ(revived->first, 1);
  EXPECT_TRUE(revived->second);

  // TSV rendering (live rows only) matches too.
  EXPECT_EQ(TableToTsv(**catalog.GetTable("edges")),
            TableToTsv(**loaded.GetTable("edges")));
}

TEST(CatalogSnapshotTest, BytesIndependentOfGlobalInternOrder) {
  Catalog a;
  FillTestCatalog(&a);
  std::string first = EncodeCatalogSnapshot(a);
  // Intern unrelated strings into the global dictionary, shifting every
  // global id; snapshot bytes must not change (pool ids are local).
  for (int i = 0; i < 64; ++i) {
    Value::String("unrelated-intern-" + std::to_string(i));
  }
  Catalog b;
  FillTestCatalog(&b);
  EXPECT_EQ(first, EncodeCatalogSnapshot(b));
  EXPECT_EQ(first, EncodeCatalogSnapshot(a));
}

TEST(CatalogSnapshotTest, LoadIntoOccupiedCatalogFails) {
  Catalog catalog;
  FillTestCatalog(&catalog);
  std::string bytes = EncodeCatalogSnapshot(catalog);
  Status st = LoadCatalogSnapshot(bytes, &catalog);
  EXPECT_FALSE(st.ok());
}

TEST(TableRestoreRowTest, DuplicateRowIsCorruption) {
  Table table("t", Schema({{"x", ValueType::kInt}}));
  ASSERT_TRUE(table.RestoreRow(Tuple({Value::Int(1)}), true).ok());
  ASSERT_TRUE(table.RestoreRow(Tuple({Value::Int(2)}), false).ok());
  Status dup = table.RestoreRow(Tuple({Value::Int(1)}), true);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), StatusCode::kCorruption);
  EXPECT_EQ(table.capacity(), 2u);
  EXPECT_EQ(table.size(), 1u);  // row 1 restored as a tombstone
  EXPECT_FALSE(table.is_live(1));
}

// ---- Corruption sweeps --------------------------------------------------
//
// Same invariant as the graph-snapshot sweeps in recovery_test: every
// truncation and every bit flip must yield Corruption — never a crash,
// hang, or silently wrong catalog. Run under ASan/UBSan in CI.

TEST(CatalogSnapshotTest, TruncationAtEveryByteIsCorruption) {
  Catalog catalog;
  FillTestCatalog(&catalog);
  std::string bytes = EncodeCatalogSnapshot(catalog);
  for (size_t cut = 0; cut < bytes.size(); ++cut) {
    Catalog loaded;
    Status st = LoadCatalogSnapshot(bytes.substr(0, cut), &loaded);
    ASSERT_FALSE(st.ok()) << "truncation at " << cut << " accepted";
    EXPECT_EQ(st.code(), StatusCode::kCorruption)
        << "truncation at " << cut << ": " << st.ToString();
  }
}

TEST(CatalogSnapshotTest, BitFlipAtEveryByteIsCorruption) {
  Catalog catalog;
  FillTestCatalog(&catalog);
  const std::string bytes = EncodeCatalogSnapshot(catalog);
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
    Catalog loaded;
    Status st = LoadCatalogSnapshot(flipped, &loaded);
    ASSERT_FALSE(st.ok()) << "bit flip at byte " << i << " accepted";
    EXPECT_EQ(st.code(), StatusCode::kCorruption)
        << "bit flip at byte " << i << ": " << st.ToString();
  }
}

// ---- CRC-valid but semantically malformed sections ----------------------
//
// Bit flips are caught by the container CRC; these containers are
// re-checksummed after tampering, so only the section-level validation
// stands between a malicious payload and undefined behavior.

TEST(MalformedSectionTest, ColsDefectsRejected) {
  auto expect_corrupt = [](const std::string& cols_content,
                           const std::vector<std::string>& pool,
                           const char* what) {
    std::string bytes =
        BuildContainer({{"COLS", cols_content}, {"DICT", EncodeDict(pool)}});
    Catalog loaded;
    Status st = LoadCatalogSnapshot(bytes, &loaded);
    EXPECT_FALSE(st.ok()) << what;
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kCorruption) << what << ": "
                                                    << st.ToString();
    }
  };

  // Baseline: a well-formed tiny catalog loads (sanity-check the
  // hand-rolled encoding so the rejections below mean something).
  {
    Tuple row({Value::Int(5)});
    std::string cols;
    PutU64(&cols, 1);  // one table
    PutU64(&cols, 1);  // one row
    PutU32(&cols, 0);  // name "t"
    PutU32(&cols, 1);  // one column
    PutU32(&cols, 1);  // column name "c"
    PutU32(&cols, static_cast<uint32_t>(ValueType::kInt));
    PutU64(&cols, 1);  // live word
    PutU64(&cols, row.Hash());
    PutU64(&cols, 5);  // payload
    cols.push_back(static_cast<char>(ValueType::kInt));
    Pad8(&cols);
    std::string bytes =
        BuildContainer({{"COLS", cols}, {"DICT", EncodeDict({"t", "c"})}});
    Catalog loaded;
    Status st = LoadCatalogSnapshot(bytes, &loaded);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ((*loaded.GetTable("t"))->size(), 1u);

    auto mutate = [&](auto fn, const char* what) {
      std::string c = cols;
      fn(&c);
      expect_corrupt(c, {"t", "c"}, what);
    };
    mutate([](std::string* c) { (*c)[8] = 2; },
           "row count disagrees with arrays");
    mutate([](std::string* c) { (*c)[16] = 9; }, "table name id out of pool");
    mutate([](std::string* c) { (*c)[24] = 9; }, "column name id out of pool");
    mutate([](std::string* c) { (*c)[28] = 77; }, "column type out of range");
    mutate([](std::string* c) { (*c)[32] = 3; },
           "liveness word has spare bits set");
    mutate([](std::string* c) { (*c)[40] ^= 1; }, "row hash mismatch");
    mutate([](std::string* c) { (*c)[56] = 77; }, "cell tag out of range");
    mutate([](std::string* c) {
      (*c)[56] = static_cast<char>(ValueType::kBool);
      (*c)[48] = 2;
    }, "bool payload outside {0,1}");
    mutate([](std::string* c) {
      (*c)[56] = static_cast<char>(ValueType::kString);
      (*c)[48] = 9;
    }, "string id out of pool range");
    mutate([](std::string* c) {
      (*c)[56] = static_cast<char>(ValueType::kNull);
    }, "null cell with nonzero payload");
    mutate([](std::string* c) { c->push_back('\0'); },
           "trailing bytes in COLS");
  }

  // Table count far beyond the payload.
  {
    std::string cols;
    PutU64(&cols, 1u << 20);
    expect_corrupt(cols, {}, "table count exceeds payload");
  }
  // Two tables out of name order (also a duplicate-name guard).
  {
    std::string cols;
    PutU64(&cols, 2);
    for (int i = 0; i < 2; ++i) {
      PutU64(&cols, 0);  // zero rows
      PutU32(&cols, 0);  // both named "t"
      PutU32(&cols, 0);  // zero columns
    }
    expect_corrupt(cols, {"t"}, "tables not sorted by name");
  }
  // Missing DICT entirely.
  {
    std::string cols;
    PutU64(&cols, 0);
    std::string bytes = BuildContainer({{"COLS", cols}});
    Catalog loaded;
    EXPECT_FALSE(LoadCatalogSnapshot(bytes, &loaded).ok());
  }
}

TEST(MalformedSectionTest, GrbnDefectsRejected) {
  // Hand-build a minimal graph: 2 vars (one evidence), 1 weight, 1
  // istrue factor with 1 literal.
  auto build = [](auto mutate) {
    std::string g;
    PutU64(&g, 2);  // variables
    PutU64(&g, 1);  // evidence
    PutU64(&g, 1);  // weights
    PutU64(&g, 1);  // factors
    PutU64(&g, 1);  // literals
    PutU64(&g, 1 | (uint64_t{1} << 32));         // var 1 evidence true
    PutU64(&g, 0x3ff0000000000000ull);           // weight 1.0
    PutU32(&g, 0);                               // desc id
    Pad8(&g);
    g.push_back(0);                              // not fixed
    Pad8(&g);
    g.push_back(0);                              // kIsTrue
    Pad8(&g);
    PutU32(&g, 0);                               // factor weight
    Pad8(&g);
    PutU64(&g, 0);                               // literal offsets
    PutU64(&g, 1);
    PutU64(&g, 0 | (uint64_t{1} << 32));         // literal: var 0 positive
    mutate(&g);
    return BuildContainer({{"GRBN", g}, {"DICT", EncodeDict({"w"})}});
  };

  // Baseline sanity: the unmutated bytes decode.
  {
    auto snap = DecodeGraphSnapshot(build([](std::string*) {}));
    ASSERT_TRUE(snap.ok()) << snap.status().ToString();
    ASSERT_TRUE(snap->has_graph);
    EXPECT_EQ(snap->graph.num_variables(), 2u);
    EXPECT_TRUE(snap->graph.is_evidence(1));
  }
  auto expect_corrupt = [&](auto mutate, const char* what) {
    auto snap = DecodeGraphSnapshot(build(mutate));
    EXPECT_FALSE(snap.ok()) << what;
    if (!snap.ok()) {
      EXPECT_EQ(snap.status().code(), StatusCode::kCorruption)
          << what << ": " << snap.status().ToString();
    }
  };
  expect_corrupt([](std::string* g) { (*g)[40] = 7; },
                 "evidence variable out of range");
  expect_corrupt([](std::string* g) { (*g)[44] = 4; },
                 "evidence word spare bits");
  expect_corrupt([](std::string* g) { (*g)[8] = 3; },
                 "more evidence than variables");
  expect_corrupt([](std::string* g) { (*g)[56] = 9; },
                 "weight desc id out of pool");
  expect_corrupt([](std::string* g) { (*g)[64] = 2; },
                 "weight fixed flag outside {0,1}");
  expect_corrupt([](std::string* g) { (*g)[72] = 9; },
                 "unknown factor function");
  expect_corrupt([](std::string* g) { (*g)[80] = 1; },
                 "factor weight out of range");
  expect_corrupt([](std::string* g) { (*g)[88] = 1; },
                 "literal offsets must start at 0");
  expect_corrupt([](std::string* g) { (*g)[96] = 2; },
                 "final literal offset != literal count");
  expect_corrupt([](std::string* g) { (*g)[104] = 5; },
                 "literal variable out of range");
  expect_corrupt([](std::string* g) { (*g)[109] = 4; },
                 "literal word spare bits");
  expect_corrupt([](std::string* g) { g->push_back('\0'); },
                 "trailing bytes in GRBN");
  expect_corrupt([](std::string* g) { g->pop_back(); }, "truncated literals");
  // GRBN without its DICT.
  {
    std::string g;
    PutU64(&g, 0);
    PutU64(&g, 0);
    PutU64(&g, 0);
    PutU64(&g, 0);
    PutU64(&g, 0);
    PutU64(&g, 0);  // literal_offsets[0]
    auto snap = DecodeGraphSnapshot(BuildContainer({{"GRBN", g}}));
    EXPECT_FALSE(snap.ok());
  }
}

// ---- Text oracle --------------------------------------------------------

TEST(GraphSnapshotFormatTest, TextOracleMatchesBinary) {
  SyntheticGraphOptions options;
  options.num_variables = 20;
  options.factors_per_variable = 2.5;
  options.evidence_fraction = 0.3;
  options.num_weights = 8;
  options.seed = 11;

  GraphSnapshot snap;
  snap.has_graph = true;
  snap.graph = MakeRandomGraph(options);

  // The graph is encoded as GRBN+DICT sections only.
  std::string binary = EncodeGraphSnapshot(snap);
  auto reader = SnapshotView::Parse(binary);
  ASSERT_TRUE(reader.ok());
  EXPECT_TRUE(reader->Has("GRBN"));
  EXPECT_TRUE(reader->Has("DICT"));
  EXPECT_FALSE(reader->Has("GRPH"));

  // It decodes to the same graph, and decode→encode is byte-exact.
  auto from_binary = DecodeGraphSnapshot(binary);
  ASSERT_TRUE(from_binary.ok()) << from_binary.status().ToString();
  EXPECT_EQ(SerializeGraph(from_binary->graph), SerializeGraph(snap.graph));
  EXPECT_EQ(EncodeGraphSnapshot(*from_binary), binary);
}

// ---- Mapped snapshots ---------------------------------------------------

class MappedSnapshotTest : public ::testing::Test {
 protected:
  std::string TempPath(const std::string& name) {
    std::string dir = ::testing::TempDir();
    if (!dir.empty() && dir.back() != '/') dir += '/';
    std::string path = dir + "snapshot_test_" + name;
    std::remove(path.c_str());
    return path;
  }
};

TEST_F(MappedSnapshotTest, ReadsCatalogInPlace) {
  Catalog catalog;
  FillTestCatalog(&catalog);
  std::string path = TempPath("catalog.ddsn");
  ASSERT_TRUE(WriteCatalogSnapshot(catalog, path).ok());

  auto snap = MappedSnapshot::Open(path);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(snap->mapped());

  auto pool = snap->Pool();
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  auto tables = snap->Tables(*pool);
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(tables->tables.size(), 2u);

  // Views are zero-copy: names point into the mapped file bytes.
  const MappedTableView& edges = tables->tables[0];
  EXPECT_EQ(edges.name, "edges");
  EXPECT_GE(edges.name.data(), snap->bytes().data());
  EXPECT_LT(edges.name.data(), snap->bytes().data() + snap->bytes().size());

  // Spot-check cells against the source table without any load step.
  const Table* src = *catalog.GetTable("edges");
  ASSERT_EQ(edges.num_rows, src->capacity());
  for (size_t r = 0; r < edges.num_rows; ++r) {
    EXPECT_EQ(edges.RowLive(r), src->is_live(static_cast<int64_t>(r)));
    EXPECT_EQ(edges.RowHash(r), src->RowHash(static_cast<int64_t>(r)));
    EXPECT_EQ(edges.CellPayload(0, r),
              src->ValueAt(static_cast<int64_t>(r), 0).payload_bits());
    EXPECT_EQ(static_cast<ValueType>(edges.CellTag(1, r)),
              src->ValueAt(static_cast<int64_t>(r), 1).type());
  }

  // The people table has tombstones and string cells; resolve one
  // through the pool.
  const MappedTableView& people = tables->tables[1];
  EXPECT_EQ(people.name, "people");
  EXPECT_FALSE(people.RowLive(1));
  ASSERT_EQ(static_cast<ValueType>(people.CellTag(0, 0)), ValueType::kString);
  EXPECT_EQ(pool->String(static_cast<uint32_t>(people.CellPayload(0, 0))),
            "ann");
  std::remove(path.c_str());
}

TEST_F(MappedSnapshotTest, ReadsGraphInPlace) {
  SyntheticGraphOptions options;
  options.num_variables = 16;
  options.factors_per_variable = 2.0;
  options.evidence_fraction = 0.25;
  options.num_weights = 5;
  options.seed = 4;

  GraphSnapshot snap;
  snap.has_graph = true;
  snap.graph = MakeRandomGraph(options);
  std::string path = TempPath("graph.ddsn");
  ASSERT_TRUE(WriteGraphSnapshot(snap, path).ok());

  auto mapped = MappedSnapshot::Open(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  auto pool = mapped->Pool();
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  auto view = mapped->Graph(*pool);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->num_variables, snap.graph.num_variables());
  EXPECT_EQ(view->num_factors, snap.graph.num_factors());
  EXPECT_EQ(view->num_literals, snap.graph.num_edges());

  auto graph = GraphFromBinary(*view, *pool);
  ASSERT_TRUE(graph.ok()) << graph.status().ToString();
  EXPECT_EQ(SerializeGraph(*graph), SerializeGraph(snap.graph));
  std::remove(path.c_str());
}

TEST_F(MappedSnapshotTest, MissingFileIsError) {
  auto snap = MappedSnapshot::Open(TempPath("does_not_exist.ddsn"));
  EXPECT_FALSE(snap.ok());
}

TEST_F(MappedSnapshotTest, CorruptionSweepThroughMappedPath) {
  Catalog catalog;
  FillTestCatalog(&catalog);
  const std::string bytes = EncodeCatalogSnapshot(catalog);
  std::string path = TempPath("sweep.ddsn");

  auto write_raw = [&](const std::string& data) {
    FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    ASSERT_EQ(std::fclose(f), 0);
  };

  // Every truncation and every bit flip, read back through mmap: Open
  // (container validation) must reject — never crash or accept.
  for (size_t cut = 0; cut < bytes.size(); cut += 7) {
    write_raw(bytes.substr(0, cut));
    auto snap = MappedSnapshot::Open(path);
    ASSERT_FALSE(snap.ok()) << "mapped truncation at " << cut << " accepted";
    EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ (1 << (i % 8)));
    write_raw(flipped);
    auto snap = MappedSnapshot::Open(path);
    ASSERT_FALSE(snap.ok()) << "mapped bit flip at byte " << i << " accepted";
    EXPECT_EQ(snap.status().code(), StatusCode::kCorruption);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace dd
