#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "util/bytes.h"
#include "util/crc32c.h"
#include "util/hash.h"
#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace dd {
namespace {

TEST(Crc32cTest, KnownVectors) {
  // Check value from the CRC catalogue (CRC-32C over "123456789"); pins
  // the hardware and software paths to the reference polynomial.
  EXPECT_EQ(Crc32c("123456789", 9), 0xe3069283u);
  // RFC 3720 B.4 test patterns.
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8a9136aau);
  std::string ones(32, '\xff');
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62a8ab43u);
  EXPECT_EQ(Crc32c("", 0), 0u);
}

TEST(Crc32cTest, ExtendMatchesOneShot) {
  // Splitting the input at every position must give the one-shot digest,
  // covering all slice-by-8 remainder lengths.
  std::string data;
  for (int i = 0; i < 100; ++i) data.push_back(static_cast<char>(i * 37));
  uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t cut = 0; cut <= data.size(); ++cut) {
    uint32_t crc = Crc32cExtend(0, data.data(), cut);
    crc = Crc32cExtend(crc, data.data() + cut, data.size() - cut);
    EXPECT_EQ(crc, whole) << "split at " << cut;
  }
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(Status::OK().ToString(), "OK");
  Status err = Status::NotFound("thing");
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.code(), StatusCode::kNotFound);
  EXPECT_EQ(err.message(), "thing");
  EXPECT_EQ(err.ToString(), "NotFound: thing");
}

Status Fails() { return Status::Internal("boom"); }
Status Propagates() {
  DD_RETURN_IF_ERROR(Fails());
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_EQ(Propagates().code(), StatusCode::kInternal);
}

Result<int> MakeResult(bool ok) {
  if (ok) return 42;
  return Status::InvalidArgument("nope");
}
Result<int> Chained(bool ok) {
  DD_ASSIGN_OR_RETURN(int x, MakeResult(ok));
  return x + 1;
}

TEST(ResultTest, ValueAndError) {
  auto good = MakeResult(true);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  auto bad = MakeResult(false);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Chained(true), 43);
  EXPECT_FALSE(Chained(false).ok());
}

TEST(RngTest, DeterministicAndSeedSensitive) {
  Rng a(7), b(7), c(8);
  EXPECT_EQ(a.Next(), b.Next());
  Rng a2(7);
  EXPECT_NE(a2.Next(), c.Next());
}

TEST(RngTest, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    uint64_t n = rng.NextBounded(10);
    EXPECT_LT(n, 10u);
    int64_t k = rng.NextInt(-5, 5);
    EXPECT_GE(k, -5);
    EXPECT_LE(k, 5);
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(2);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.NextBernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(3);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(StringUtilTest, Split) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(StringUtilTest, SplitWhitespace) {
  EXPECT_EQ(SplitWhitespace("  a \t b\nc  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitWhitespace("   ").empty());
}

TEST(StringUtilTest, TrimLowerAffixes) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(ToLower("AbC"), "abc");
  EXPECT_TRUE(StartsWith("foobar", "foo"));
  EXPECT_FALSE(StartsWith("fo", "foo"));
  EXPECT_TRUE(EndsWith("foobar", "bar"));
  EXPECT_FALSE(EndsWith("ar", "bar"));
}

TEST(StringUtilTest, JoinAndFormat) {
  EXPECT_EQ(Join({"a", "b"}, ", "), "a, b");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(StringUtilTest, DigitAndCapitalChecks) {
  EXPECT_TRUE(IsAllDigits("123"));
  EXPECT_FALSE(IsAllDigits("12a"));
  EXPECT_FALSE(IsAllDigits(""));
  EXPECT_TRUE(IsCapitalized("Abc"));
  EXPECT_FALSE(IsCapitalized("abc"));
  EXPECT_FALSE(IsCapitalized(""));
}

TEST(HashTest, StableAndSensitive) {
  EXPECT_EQ(Fnv1a("hello"), Fnv1a("hello"));
  EXPECT_NE(Fnv1a("hello"), Fnv1a("hellp"));
  // Known FNV-1a vector: empty string hashes to the offset basis.
  EXPECT_EQ(Fnv1a(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(HashCombine(1, 2), HashCombine(2, 1));
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelFor) {
  ThreadPool pool(3);
  std::vector<int> out(50, 0);
  pool.ParallelFor(50, [&](size_t i) { out[i] = static_cast<int>(i) * 2; });
  for (int i = 0; i < 50; ++i) EXPECT_EQ(out[i], i * 2);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<int> counter{0};
  pool.Submit([&] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
}

// ---- Byte codec -----------------------------------------------------------

TEST(ByteCodecTest, WritersEmitLittleEndianImages) {
  std::string out;
  PutU32(&out, 0x04030201u);
  PutU64(&out, 0x0c0b0a0908070605ull);
  EXPECT_EQ(out, "\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c");
  PutBytes(&out, "xy");
  EXPECT_EQ(out.substr(12), std::string("\x02\0\0\0\0\0\0\0xy", 10));
  PadTo8(&out);
  EXPECT_EQ(out.size(), 24u);
  EXPECT_EQ(out.substr(22), std::string(2, '\0'));
  PadTo8(&out);
  EXPECT_EQ(out.size(), 24u);
}

// One record of every field kind: u32 @0, u64 @4, double @12, a
// length-prefixed "abc" (length @20, bytes @28), one pad byte @31, three
// u32 array elements @32, end @44.
struct MixedRecord {
  uint32_t a = 0;
  uint64_t b = 0;
  double c = 0;
  std::string_view text;
  size_t array_off = 0;
};

Status ReadMixedRecord(std::string_view buf, MixedRecord* rec) {
  ByteReader r(buf);
  DD_RETURN_IF_ERROR(r.U32(&rec->a, "a"));
  DD_RETURN_IF_ERROR(r.U64(&rec->b, "b"));
  DD_RETURN_IF_ERROR(r.Double(&rec->c, "c"));
  DD_RETURN_IF_ERROR(r.LengthPrefixed(16, &rec->text, "text"));
  DD_RETURN_IF_ERROR(r.Pad8("record"));
  DD_RETURN_IF_ERROR(r.Array(4, 3, &rec->array_off, "array"));
  return r.Done("record");
}

TEST(ByteCodecTest, EveryPrefixOfARecordIsCorruptionAtItsOffset) {
  std::string buf;
  PutU32(&buf, 7);
  PutU64(&buf, 1ull << 40);
  PutDouble(&buf, -2.5);
  PutBytes(&buf, "abc");
  PadTo8(&buf);
  for (uint32_t v : {10u, 20u, 30u}) PutU32(&buf, v);
  ASSERT_EQ(buf.size(), 44u);

  MixedRecord rec;
  ASSERT_TRUE(ReadMixedRecord(buf, &rec).ok());
  EXPECT_EQ(rec.a, 7u);
  EXPECT_EQ(rec.b, 1ull << 40);
  EXPECT_EQ(rec.c, -2.5);
  EXPECT_EQ(rec.text, "abc");
  EXPECT_EQ(rec.array_off, 32u);
  EXPECT_EQ(LoadU32(buf.data(), rec.array_off + 8), 30u);

  // (start, end) of each read, in order; a prefix fails at the first
  // read that runs past it.
  const std::vector<std::pair<size_t, size_t>> fields = {
      {0, 4}, {4, 12}, {12, 20}, {20, 28}, {28, 31}, {31, 32}, {32, 44}};
  for (size_t len = 0; len < buf.size(); ++len) {
    size_t start = 0;
    for (const auto& [s, e] : fields) {
      if (e > len) {
        start = s;
        break;
      }
    }
    Status st = ReadMixedRecord(std::string_view(buf).substr(0, len), &rec);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << "prefix " << len;
    EXPECT_NE(st.message().find(StrFormat("at offset %zu", start)), std::string::npos)
        << "prefix " << len << ": " << st.ToString();
  }
}

TEST(ByteCodecTest, ArrayCountThatWouldWrapIsCorruption) {
  const std::string buf(16, '\0');
  for (auto [elem_size, count] :
       {std::pair<size_t, uint64_t>{8, SIZE_MAX / 8 + 2},  // x 8 wraps to 8
        {16, uint64_t{1} << 60},                            // x 16 wraps to 0
        {1, UINT64_MAX}}) {
    ByteReader r(buf);
    size_t off = 99;
    Status st = r.Array(elem_size, count, &off, "array");
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << count;
    EXPECT_EQ(r.offset(), 0u) << "a rejected array must not advance";
    EXPECT_EQ(off, 99u);
  }
  ByteReader r(buf);
  size_t off = 0;
  EXPECT_TRUE(r.Array(8, 2, &off, "array").ok());
  EXPECT_TRUE(r.Done("array").ok());
}

TEST(ByteCodecTest, NonzeroPadByteIsCorruption) {
  std::string buf(8, '\0');
  buf[6] = 1;
  ByteReader r(buf);
  uint32_t v = 0;
  ASSERT_TRUE(r.U32(&v, "v").ok());
  Status st = r.Pad8("test");
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(st.message(), "nonzero test pad byte at offset 6");
  buf[6] = 0;
  ByteReader ok(buf);
  ASSERT_TRUE(ok.U32(&v, "v").ok());
  EXPECT_TRUE(ok.Pad8("test").ok());
  EXPECT_TRUE(ok.Done("test").ok());
}

TEST(ByteCodecTest, LengthPrefixedFieldOverItsCapIsCorruption) {
  std::string buf;
  PutBytes(&buf, "hello");
  std::string_view out;
  ByteReader over(buf);
  Status st = over.LengthPrefixed(4, &out, "field");
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_NE(st.message().find("cap 4"), std::string::npos) << st.ToString();
  ByteReader at_cap(buf);
  ASSERT_TRUE(at_cap.LengthPrefixed(5, &out, "field").ok());
  EXPECT_EQ(out, "hello");
  EXPECT_TRUE(at_cap.Done("field").ok());
}

TEST(ByteCodecTest, DoneWithTrailingBytesIsCorruption) {
  ByteReader r(std::string_view("12345", 5));
  uint32_t v = 0;
  ASSERT_TRUE(r.U32(&v, "v").ok());
  Status st = r.Done("TEST");
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(st.message(), "1 trailing bytes in TEST section");
}

TEST(ByteCodecTest, DoublesRoundTripBitExactly) {
  for (uint64_t bits : {std::bit_cast<uint64_t>(-0.0), uint64_t{0x7ff8000000001234},
                        uint64_t{0xfff0000000000001}}) {
    std::string buf;
    PutDouble(&buf, std::bit_cast<double>(bits));
    ASSERT_EQ(buf.size(), 8u);
    EXPECT_EQ(LoadU64(buf.data(), 0), bits);
    EXPECT_EQ(std::bit_cast<uint64_t>(LoadDouble(buf.data(), 0)), bits);
    ByteReader r(buf);
    double d = 0;
    ASSERT_TRUE(r.Double(&d, "d").ok());
    EXPECT_EQ(std::bit_cast<uint64_t>(d), bits);
  }
}

}  // namespace
}  // namespace dd
