// Memory budgets for the per-commit replica state that grows with every
// committed transaction at every replica: the multi-versioned store and
// the permanent at-most-once record. Each is filled with 1k to 300k
// entries, and its heap growth is divided by the entry count.

#include <malloc.h>

#include <gtest/gtest.h>

#include <cstdio>

#include "protocols/request_table.h"
#include "store/mvstore.h"

namespace qanaat {
namespace {

#if defined(__SANITIZE_ADDRESS__)
#define QANAAT_MALLOC_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define QANAAT_MALLOC_REPLACED 1
#endif
#endif

constexpr size_t kSizes[] = {1000, 10000, 100000, 300000};

/// Bytes the heap has handed out: small chunks (uordblks) plus mmapped
/// ones (hblkhd). Large buffers are mmapped, so uordblks alone
/// undercounts them.
double HeapInUse() {
  struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd);
}

class MemoryBudgetTest : public ::testing::Test {
 protected:
  void SetUp() override {
#ifdef QANAAT_MALLOC_REPLACED
    GTEST_SKIP() << "AddressSanitizer replaces malloc; mallinfo2 sees none "
                    "of its allocations";
#endif
  }
};

TEST_F(MemoryBudgetTest, MvStoreAtMost64BytesPerKey) {
  for (size_t n : kSizes) {
    double before = HeapInUse();
    MvStore store;
    // A handful of fresh keys per committed version, as SmallBank
    // transactions write them: one version per key.
    for (size_t k = 0; k < n; ++k) {
      ASSERT_TRUE(store.Put(k, static_cast<int64_t>(k), k / 4 + 1).ok());
    }
    double per_key = (HeapInUse() - before) / static_cast<double>(n);
    std::printf("MvStore, %zu keys: %.1f B/key\n", n, per_key);
    EXPECT_LE(per_key, 64.0) << n << " keys";
  }
}

TEST_F(MemoryBudgetTest, RequestSetAtMost24BytesPerRequest) {
  // The benchmark's 16 client machines, their requests interleaved.
  constexpr NodeId kClients = 16;
  for (size_t n : kSizes) {
    double before = HeapInUse();
    RequestSet set;
    for (size_t i = 0; i < n; ++i) {
      set.Insert({static_cast<NodeId>(i % kClients), i / kClients});
    }
    ASSERT_EQ(set.size(), n);
    double per_request = (HeapInUse() - before) / static_cast<double>(n);
    std::printf("RequestSet, %zu requests: %.1f B/request\n", n,
                per_request);
    EXPECT_LE(per_request, 24.0) << n << " requests";
  }
}

}  // namespace
}  // namespace qanaat
