#include "tests/alloc_interposer.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace guardians::alloc_test {
namespace {

std::atomic<uint64_t> g_allocations{0};
std::atomic<bool> g_process_counting{false};
thread_local bool t_counting = false;

void CountOne() {
  if (t_counting || g_process_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void SetThreadCounting(bool on) { t_counting = on; }

void SetProcessCounting(bool on) {
  g_process_counting.store(on, std::memory_order_relaxed);
}

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace guardians::alloc_test

// The interposer itself: count while a gate is open, allocate as usual.
void* operator new(std::size_t size) {
  guardians::alloc_test::CountOne();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  guardians::alloc_test::CountOne();
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
