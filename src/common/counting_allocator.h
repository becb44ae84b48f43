// Binary-wide allocation counting: including this header in exactly ONE
// translation unit of a binary replaces the global operator new/delete with
// counting versions. Used by the tests that pin allocation contracts
// (tests/event_alloc_test.cc, tests/aggregate_alloc_test.cc,
// tests/codec_alloc_test.cc) so they share one definition of what counts as
// an allocation.
//
// Replaceable-function rules: these are definitions, so never include this
// from more than one TU of the same binary, and never from library code.
#ifndef SRC_COMMON_COUNTING_ALLOCATOR_H_
#define SRC_COMMON_COUNTING_ALLOCATOR_H_

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace torbase {
namespace counting_allocator {

inline std::atomic<uint64_t> g_allocations{0};

inline uint64_t AllocationCount() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace counting_allocator
}  // namespace torbase

namespace torbase {
namespace counting_allocator {

// Every replaced allocation form funnels through these two, so each form
// counts once and pairs malloc/aligned_alloc with the free() in the deletes.
inline void* CountedAlloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}

inline void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  // aligned_alloc requires size to be a multiple of the alignment.
  const std::size_t alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  return std::aligned_alloc(alignment, rounded);
}

}  // namespace counting_allocator
}  // namespace torbase

void* operator new(std::size_t size) {
  if (void* p = torbase::counting_allocator::CountedAlloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Over-aligned forms count too: InlineFunction routes over-aligned captures to
// the heap via aligned new, which must not be invisible to the guard.
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = torbase::counting_allocator::CountedAlignedAlloc(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

// Non-throwing forms (the standard library's temporary buffers use them).
// Without these the runtime's own nothrow new would hand out memory that the
// replaced deletes above free() — an allocator mismatch under ASan — and the
// allocations would go uncounted.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return torbase::counting_allocator::CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return torbase::counting_allocator::CountedAlloc(size);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return torbase::counting_allocator::CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return torbase::counting_allocator::CountedAlignedAlloc(size, align);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

#endif  // SRC_COMMON_COUNTING_ALLOCATOR_H_
