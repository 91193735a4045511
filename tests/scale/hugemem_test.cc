// HugeBuffer: zeroed memory on both sides of the 1 MiB huge-page threshold,
// and move / reset semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>

#include "pob/scale/hugemem.h"

namespace pob::scale {
namespace {

TEST(HugeBuffer, MemoryComesBackZeroed) {
  // Below and above the huge-page threshold, and a size that is not a
  // multiple of either page size.
  for (const std::size_t count : {1u, 1000u, (1u << 20) / 8 + 3, 3u << 18}) {
    HugeBuffer<std::uint64_t> buf(count);
    ASSERT_EQ(buf.size(), count);
    ASSERT_NE(buf.data(), nullptr);
    EXPECT_TRUE(std::all_of(buf.data(), buf.data() + count,
                            [](std::uint64_t v) { return v == 0; }))
        << count;
    buf[count - 1] = 7;  // every element is writable
    EXPECT_EQ(buf[count - 1], 7u);
  }
  EXPECT_EQ(huge_alloc(0), nullptr);
}

TEST(HugeBuffer, MoveTransfersOwnershipAndResetReplacesStorage) {
  HugeBuffer<std::uint32_t> a(5000);
  a[42] = 9;
  std::uint32_t* const storage = a.data();

  HugeBuffer<std::uint32_t> b(std::move(a));
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b.size(), 5000u);
  EXPECT_EQ(b[42], 9u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty
  EXPECT_EQ(a.data(), nullptr);

  HugeBuffer<std::uint32_t> c(3);
  c = std::move(b);
  EXPECT_EQ(c.data(), storage);
  EXPECT_EQ(c[42], 9u);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)

  c.reset(200000);  // fresh zeroed storage, old contents gone
  EXPECT_EQ(c.size(), 200000u);
  EXPECT_EQ(c[42], 0u);
  c.reset(0);
  EXPECT_TRUE(c.empty());
  EXPECT_EQ(c.data(), nullptr);
}

}  // namespace
}  // namespace pob::scale
