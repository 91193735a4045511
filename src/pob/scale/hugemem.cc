#include "pob/scale/hugemem.h"

#include <cstring>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace pob::scale {
namespace {

// Large requests are rounded to whole 2 MiB pages: recent Linux kernels
// start such an anonymous mapping on a 2 MiB boundary, so the THP hint can
// cover all of it. 1 MiB keeps every per-node array of a million-node
// engine (even the 1-byte-per-node active flags) eligible — they are all
// random-read per probe — while the rounding waste stays below one huge
// page.
constexpr std::size_t kHugeThreshold = std::size_t{1} << 20;
constexpr std::size_t kHugePage = std::size_t{2} << 20;
constexpr std::size_t kPage = 4096;

// A pure function of the request size, so huge_free needs no bookkeeping.
constexpr std::size_t mapping_length(std::size_t bytes) {
  const std::size_t unit = bytes >= kHugeThreshold ? kHugePage : kPage;
  return (bytes + unit - 1) / unit * unit;
}

}  // namespace

void advise_hugepages(const void* data, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  // Round inward to whole pages: madvise wants an aligned start, and pages
  // we only partially own must not be advised.
  const auto addr = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t lo = (addr + kPage - 1) & ~(kPage - 1);
  const std::uintptr_t hi = (addr + bytes) & ~(kPage - 1);
  if (hi > lo) {
    // Failure (old kernel, THP off) is fine: purely a perf hint.
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)data;
  (void)bytes;
#endif
}

void* huge_alloc(std::size_t bytes) {
  if (bytes == 0) return nullptr;
#if defined(__linux__)
  const std::size_t len = mapping_length(bytes);
  void* p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc{};  // genuine memory exhaustion
  advise_hugepages(p, len);
  return p;
#else
  void* p = ::operator new(bytes);
  std::memset(p, 0, bytes);
  return p;
#endif
}

void huge_free(void* ptr, std::size_t bytes) noexcept {
  if (ptr == nullptr) return;
#if defined(__linux__)
  // Every Linux allocation is an mmap of mapping_length(bytes).
  (void)munmap(ptr, mapping_length(bytes));
#else
  (void)bytes;
  ::operator delete(ptr);
#endif
}

}  // namespace pob::scale
