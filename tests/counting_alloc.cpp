// Every global `operator new` overload counts, the aligned and nothrow
// ones included: pool resources draw their chunks through the aligned
// forms and std::stable_sort's buffer comes from a nothrow one. Every
// block the `operator delete` overloads free must come from these
// hooks, or ASan reports an alloc-dealloc mismatch.
#include "counting_alloc.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
// Constant-initialized so it is valid before any static-init allocation.
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (align <= alignof(std::max_align_t)) return std::malloc(n ? n : 1);
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded ? rounded : align);
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

std::uint64_t hicc::heap_allocations() { return g_allocs.load(std::memory_order_relaxed); }

void* operator new(std::size_t n) { return checked(counted_alloc(n, 0)); }
void* operator new[](std::size_t n) { return checked(counted_alloc(n, 0)); }
void* operator new(std::size_t n, std::align_val_t a) {
  return checked(counted_alloc(n, static_cast<std::size_t>(a)));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return checked(counted_alloc(n, static_cast<std::size_t>(a)));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n, 0); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
