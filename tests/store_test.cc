#include <gtest/gtest.h>

#include "store/mvstore.h"

namespace qanaat {
namespace {

TEST(MvStoreTest, GetMissingIsNotFound) {
  MvStore s;
  EXPECT_EQ(s.Get(1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(s.GetAt(1, 100).status().code(), StatusCode::kNotFound);
}

TEST(MvStoreTest, PutGetLatest) {
  MvStore s;
  ASSERT_TRUE(s.Put(1, 100, 1).ok());
  ASSERT_TRUE(s.Put(1, 200, 2).ok());
  EXPECT_EQ(*s.Get(1), 200);
  EXPECT_EQ(s.latest_version(), 2u);
}

TEST(MvStoreTest, SnapshotReadsExactVersion) {
  // The γ-capture read path (§4.2): all replicas read the same state.
  MvStore s;
  ASSERT_TRUE(s.Put(1, 10, 1).ok());
  ASSERT_TRUE(s.Put(1, 20, 5).ok());
  ASSERT_TRUE(s.Put(1, 30, 9).ok());
  EXPECT_EQ(*s.GetAt(1, 1), 10);
  EXPECT_EQ(*s.GetAt(1, 4), 10);
  EXPECT_EQ(*s.GetAt(1, 5), 20);
  EXPECT_EQ(*s.GetAt(1, 8), 20);
  EXPECT_EQ(*s.GetAt(1, 9), 30);
  EXPECT_EQ(*s.GetAt(1, 1000), 30);
}

TEST(MvStoreTest, KeyAbsentAtEarlyVersion) {
  MvStore s;
  ASSERT_TRUE(s.Put(1, 10, 5).ok());
  EXPECT_EQ(s.GetAt(1, 4).status().code(), StatusCode::kNotFound);
}

TEST(MvStoreTest, VersionRegressionRejected) {
  MvStore s;
  ASSERT_TRUE(s.Put(1, 10, 5).ok());
  EXPECT_EQ(s.Put(1, 20, 3).code(), StatusCode::kFailedPrecondition);
}

TEST(MvStoreTest, SameVersionOverwrites) {
  // Last write wins within one transaction's version.
  MvStore s;
  ASSERT_TRUE(s.Put(1, 10, 5).ok());
  ASSERT_TRUE(s.Put(1, 15, 5).ok());
  EXPECT_EQ(*s.Get(1), 15);
  EXPECT_EQ(s.VersionCountOf(1), 1u);
}

TEST(MvStoreTest, IndependentKeys) {
  MvStore s;
  ASSERT_TRUE(s.Put(1, 10, 1).ok());
  ASSERT_TRUE(s.Put(2, 20, 2).ok());
  ASSERT_TRUE(s.Put(1, 11, 3).ok());
  EXPECT_EQ(*s.Get(1), 11);
  EXPECT_EQ(*s.Get(2), 20);
  EXPECT_EQ(s.key_count(), 2u);
}

TEST(MvStoreTest, WriteBatchAtomicVersion) {
  MvStore s;
  WriteBatch b;
  b.Put(1, 100);
  b.Put(2, 200);
  b.Put(1, 101);  // later write in same tx wins
  ASSERT_TRUE(b.ApplyTo(&s, 7).ok());
  EXPECT_EQ(*s.GetAt(1, 7), 101);
  EXPECT_EQ(*s.GetAt(2, 7), 200);
  EXPECT_EQ(s.latest_version(), 7u);
}

TEST(MvStoreTest, ApplyToKeepsWritesBeforeAFailingPut) {
  MvStore s;
  ASSERT_TRUE(s.Put(2, 20, 9).ok());
  WriteBatch b;
  b.Put(1, 100);
  b.Put(2, 200);  // regresses key 2 from version 9
  b.Put(3, 300);
  EXPECT_FALSE(b.ApplyTo(&s, 5).ok());
  EXPECT_EQ(*s.GetAt(1, 5), 100);
  EXPECT_EQ(*s.Get(2), 20);
  EXPECT_EQ(s.Find(3), nullptr);
}

TEST(MvStoreTest, ManyKeysAcrossChunksAndIndexGrowth) {
  // 1,000 keys span many record chunks and several index doublings;
  // every third key gets a second version.
  constexpr MvStore::Key kKeys = 1000;
  MvStore forward;
  MvStore backward;
  for (MvStore::Key k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(forward.Put(k, int64_t(k), 1).ok());
    ASSERT_TRUE(backward.Put(kKeys - 1 - k, int64_t(kKeys - 1 - k), 1).ok());
  }
  for (MvStore::Key k = 0; k < kKeys; k += 3) {
    ASSERT_TRUE(forward.Put(k, -int64_t(k), 2).ok());
    ASSERT_TRUE(backward.Put(k, -int64_t(k), 2).ok());
  }
  EXPECT_EQ(forward.key_count(), kKeys);
  for (MvStore::Key k = 0; k < kKeys; ++k) {
    bool rewritten = k % 3 == 0;
    ASSERT_NE(forward.Find(k), nullptr) << k;
    EXPECT_EQ(*forward.Find(k), rewritten ? -int64_t(k) : int64_t(k)) << k;
    EXPECT_EQ(*forward.GetAt(k, 1), int64_t(k)) << k;
    EXPECT_EQ(forward.VersionCountOf(k), rewritten ? 2u : 1u) << k;
  }
  EXPECT_EQ(forward.Find(kKeys), nullptr);
  // Insertion order differs; the fingerprint must not.
  EXPECT_EQ(forward.Fingerprint(), backward.Fingerprint());
}

TEST(MvStoreTest, ManyVersionsBinarySearch) {
  MvStore s;
  for (SeqNo v = 1; v <= 1000; ++v) {
    ASSERT_TRUE(s.Put(42, int64_t(v * 10), v).ok());
  }
  for (SeqNo probe : {1u, 17u, 500u, 999u, 1000u}) {
    EXPECT_EQ(*s.GetAt(42, probe), int64_t(probe * 10));
  }
}

}  // namespace
}  // namespace qanaat
