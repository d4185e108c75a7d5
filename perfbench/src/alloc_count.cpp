// Operator-new interposition for arena.heap_allocs_per_job: every heap
// allocation in the process bumps one relaxed counter while counting
// is switched on (the traced window only, so untraced runs pay one
// relaxed load per allocation). The full family is replaced so that
// every delete pairs with a malloc-backed new.
#include <atomic>
#include <cstdlib>
#include <new>

#include "bench.hpp"

namespace perfbench {
std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace perfbench

namespace {

void count_one() noexcept {
  if (perfbench::g_count_allocs.load(std::memory_order_relaxed)) {
    perfbench::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t n) noexcept {
  count_one();
  return std::malloc(n != 0 ? n : 1);
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) noexcept {
  count_one();
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}

}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
