// Counting allocator hook: every operator new in the benchmark binary bumps a
// per-thread counter, so a span can report the allocations made inside it.
// Only the benchmark binaries link this file; the library is untouched.
#include <cstdint>
#include <cstdlib>
#include <new>

#include "e2bench/spans.hpp"

namespace {
thread_local std::uint64_t t_allocs = 0;

void* counted_alloc(std::size_t n) {
  t_allocs++;
  if (n == 0) n = 1;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned(std::size_t n, std::align_val_t al) {
  t_allocs++;
  const auto a = static_cast<std::size_t>(al);
  std::size_t size = (n + a - 1) / a * a;
  if (size == 0) size = a;
  if (void* p = std::aligned_alloc(a, size)) return p;
  throw std::bad_alloc();
}
}  // namespace

std::uint64_t perfbench::thread_allocs() noexcept { return t_allocs; }

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_aligned(n, al);
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
