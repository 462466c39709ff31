#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/enterprise_set.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "common/serde.h"
#include "common/status.h"

namespace qanaat {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::PermissionDenied("no access to d_AB");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kPermissionDenied);
  EXPECT_EQ(s.ToString(), "PERMISSION_DENIED: no access to d_AB");
}

TEST(StatusTest, StatusOrHoldsValue) {
  StatusOr<int> v = 42;
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 42);
  StatusOr<int> e = Status::NotFound("x");
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kNotFound);
}

TEST(StatusTest, ReturnIfErrorMacroPropagates) {
  auto fails = []() -> Status { return Status::Aborted("inner"); };
  auto outer = [&]() -> Status {
    QANAAT_RETURN_IF_ERROR(fails());
    return Status::Internal("should not reach");
  };
  EXPECT_EQ(outer().code(), StatusCode::kAborted);
}

// --------------------------------------------------------- EnterpriseSet

TEST(EnterpriseSetTest, BasicMembership) {
  EnterpriseSet s{0, 2, 3};
  EXPECT_TRUE(s.Contains(0));
  EXPECT_FALSE(s.Contains(1));
  EXPECT_EQ(s.size(), 3);
  EXPECT_EQ(s.Label(), "ACD");
}

TEST(EnterpriseSetTest, SingleAndAll) {
  EXPECT_EQ(EnterpriseSet::Single(1).Label(), "B");
  EXPECT_EQ(EnterpriseSet::All(4).Label(), "ABCD");
  EXPECT_EQ(EnterpriseSet::All(4).size(), 4);
}

TEST(EnterpriseSetTest, SubsetLattice) {
  EnterpriseSet ab{0, 1};
  EnterpriseSet abc{0, 1, 2};
  EnterpriseSet cd{2, 3};
  EXPECT_TRUE(ab.IsSubsetOf(abc));
  EXPECT_TRUE(ab.IsProperSubsetOf(abc));
  EXPECT_FALSE(abc.IsSubsetOf(ab));
  EXPECT_TRUE(ab.IsSubsetOf(ab));
  EXPECT_FALSE(ab.IsProperSubsetOf(ab));
  EXPECT_FALSE(cd.IsSubsetOf(abc));
  EXPECT_TRUE(cd.Intersects(abc));
  EXPECT_FALSE(EnterpriseSet{3}.Intersects(ab));
}

TEST(EnterpriseSetTest, UnionIntersect) {
  EnterpriseSet ab{0, 1};
  EnterpriseSet bc{1, 2};
  EXPECT_EQ(ab.Union(bc).Label(), "ABC");
  EXPECT_EQ(ab.Intersect(bc).Label(), "B");
}

TEST(EnterpriseSetTest, MembersOrderedAndFirst) {
  EnterpriseSet s{3, 0, 2};
  auto m = s.Members();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0], 0);
  EXPECT_EQ(m[1], 2);
  EXPECT_EQ(m[2], 3);
  EXPECT_EQ(s.First(), 0);
}

TEST(EnterpriseSetTest, AddRemove) {
  EnterpriseSet s;
  EXPECT_TRUE(s.empty());
  s.Add(5);
  EXPECT_TRUE(s.Contains(5));
  s.Remove(5);
  EXPECT_TRUE(s.empty());
}

// ------------------------------------------------------------------ Serde

TEST(SerdeTest, RoundTripScalars) {
  Encoder enc;
  enc.PutU8(0xab);
  enc.PutU16(0x1234);
  enc.PutU32(0xdeadbeef);
  enc.PutU64(0x0123456789abcdefULL);
  enc.PutBool(true);

  Decoder dec(enc.buffer());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  bool b;
  ASSERT_TRUE(dec.GetU8(&u8));
  ASSERT_TRUE(dec.GetU16(&u16));
  ASSERT_TRUE(dec.GetU32(&u32));
  ASSERT_TRUE(dec.GetU64(&u64));
  ASSERT_TRUE(dec.GetBool(&b));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0x1234);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefULL);
  EXPECT_TRUE(b);
  EXPECT_TRUE(dec.Done());
}

TEST(SerdeTest, UnderflowDetected) {
  Encoder enc;
  enc.PutU16(7);
  Decoder dec(enc.buffer());
  uint64_t v;
  EXPECT_FALSE(dec.GetU64(&v));
}

TEST(SerdeTest, TruncatedBytesDetected) {
  Encoder enc;
  enc.PutU32(100);  // claims 100 list elements follow, but none do
  Decoder dec(enc.buffer());
  std::vector<uint8_t> v;
  EXPECT_FALSE(Reader{&dec}.List32(v));
  EXPECT_TRUE(v.empty());  // refused before any allocation
}

/// One field of every walker rule (see common/serde.h).
struct WalkerSample {
  enum class Kind : uint8_t { kLow = 1, kHigh = 2 };
  Kind kind = Kind::kLow;
  int32_t delta = 0;
  double rate = 0.0;
  std::array<uint8_t, 3> raw{};
  std::pair<uint16_t, bool> tagged{};
  std::shared_ptr<const WalkerSample> child;
  std::vector<uint64_t> list;

  template <class IO, class Self>
  static bool Fields(IO& io, Self& m) {
    return io(m.kind) && io.Check(m.kind <= Kind::kHigh) && io(m.delta) &&
           io(m.rate) && io(m.raw) && io(m.tagged) && io(m.child) &&
           io.List16(m.list);
  }
};

TEST(SerdeTest, WalkerRulesRoundTripAtTheirWidths) {
  auto child = std::make_shared<WalkerSample>();
  child->kind = WalkerSample::Kind::kHigh;
  WalkerSample v;
  v.delta = -77;
  v.rate = 0.1;
  v.raw = {1, 2, 3};
  v.tagged = {0xbeef, true};
  v.child = child;
  v.list = {5, 6};

  Encoder enc;
  Encode(v, &enc);
  // The parent's 1+4+8+3+(2+1)+1+(2+2*8) bytes, and inside them, after
  // the presence flag, the child's 1+4+8+3+(2+1)+1+2.
  EXPECT_EQ(enc.size(), 38u + 22u);
  EXPECT_EQ(enc.buffer()[1], 0xb3);  // -77 in two's complement, LE

  Decoder dec(enc.buffer());
  WalkerSample out;
  ASSERT_TRUE(Decode(&dec, &out));
  EXPECT_TRUE(dec.Done());
  EXPECT_EQ(out.delta, -77);
  EXPECT_EQ(out.rate, 0.1);  // exact: the IEEE-754 bits travel
  EXPECT_EQ(out.raw, v.raw);
  EXPECT_EQ(out.tagged, v.tagged);
  ASSERT_NE(out.child, nullptr);
  EXPECT_EQ(out.child->kind, WalkerSample::Kind::kHigh);
  EXPECT_EQ(out.child->child, nullptr);
  EXPECT_EQ(out.list, v.list);

  // A failed Check fails the decode.
  std::vector<uint8_t> bad = enc.buffer();
  bad[0] = 3;
  Decoder bad_dec(bad);
  EXPECT_FALSE(Decode(&bad_dec, &out));
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.Next() == b.Next());
  EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.Uniform(10), 10u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMeanRoughlyCorrect) {
  Rng r(11);
  double sum = 0;
  const int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += r.Exponential(100.0);
  EXPECT_NEAR(sum / kN, 100.0, 5.0);
}

TEST(RngTest, ForkDecorrelates) {
  Rng a(42);
  Rng child = a.Fork();
  Rng b(42);
  b.Next();  // same state advance as Fork consumed
  // child stream should not replicate the parent stream
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.Next() == b.Next());
  EXPECT_LT(same, 4);
}

// ------------------------------------------------------------------- Zipf

TEST(ZipfTest, UniformWhenSZero) {
  Zipf z(100, 0.0);
  Rng r(3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) counts[z.Sample(r)]++;
  // Every key in range, roughly uniform.
  for (const auto& [k, c] : counts) {
    EXPECT_LT(k, 100u);
    EXPECT_NEAR(c, 1000, 350);
  }
}

TEST(ZipfTest, SkewConcentratesMass) {
  Rng r(5);
  Zipf z1(10000, 1.0);
  int hot1 = 0;
  const int kN = 50000;
  for (int i = 0; i < kN; ++i) hot1 += (z1.Sample(r) < 10);
  Zipf z2(10000, 2.0);
  int hot2 = 0;
  for (int i = 0; i < kN; ++i) hot2 += (z2.Sample(r) < 10);
  // With s=1 the top-10 of 10k keys get a sizable share; with s=2 nearly
  // everything.
  EXPECT_GT(hot1, kN / 5);
  EXPECT_GT(hot2, kN * 8 / 10);
  EXPECT_GT(hot2, hot1);
}

TEST(ZipfTest, SamplesInRange) {
  Rng r(6);
  for (double s : {0.0, 0.5, 1.0, 2.0}) {
    Zipf z(1000, s);
    for (int i = 0; i < 10000; ++i) EXPECT_LT(z.Sample(r), 1000u);
  }
}

// -------------------------------------------------------------- Histogram

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  Histogram h;
  h.Add(1234);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.min(), 1234);
  EXPECT_EQ(h.max(), 1234);
  EXPECT_NEAR(h.Percentile(0.5), 1234, 1234 * 0.13);
}

TEST(HistogramTest, PercentilesOrdered) {
  Histogram h;
  Rng r(8);
  for (int i = 0; i < 100000; ++i) h.Add(static_cast<int64_t>(r.Uniform(1000000)));
  int64_t p50 = h.Percentile(0.5);
  int64_t p90 = h.Percentile(0.9);
  int64_t p99 = h.Percentile(0.99);
  EXPECT_LE(p50, p90);
  EXPECT_LE(p90, p99);
  EXPECT_NEAR(static_cast<double>(p50), 500000.0, 80000.0);
}

TEST(HistogramTest, MeanExact) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
}

TEST(HistogramTest, MergeCombines) {
  Histogram a, b;
  a.Add(10);
  b.Add(1000);
  a.Merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_EQ(a.min(), 10);
  EXPECT_EQ(a.max(), 1000);
}

TEST(HistogramTest, ResetClears) {
  Histogram h;
  h.Add(5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0);
}

}  // namespace
}  // namespace qanaat
