// Counting replacements of the global allocation operators. The benchmark
// is single-threaded, so a plain counter is exact. libstdc++'s array and
// nothrow forms forward to these two.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "runner.h"

namespace {
uint64_t g_allocs = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocs;
  if (void* p = std::malloc(std::max<std::size_t>(size, 1))) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  if (void* p = std::aligned_alloc(a, (std::max<std::size_t>(size, 1) + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace draconis::simbench {

uint64_t AllocCount() { return g_allocs; }

}  // namespace draconis::simbench
