// Allocation interposer of the traced binary: a global operator new that
// counts every heap allocation, on any thread, while counting is switched
// on (the traced window only). Same pattern as tests/test_alloc_budget.cc,
// but process-wide instead of per-thread, since the message path spans the
// caller, delivery-shard and guardian threads. Counts go to per-thread
// slots so the guardian threads do not contend on one cache line.
#include <atomic>
#include <cstdlib>
#include <new>

#include "perfbench/bench.h"

namespace {

constexpr unsigned kSlots = 16;

struct alignas(64) Slot {
  std::atomic<uint64_t> count{0};
};

std::atomic<bool> g_counting{false};
Slot g_slots[kSlots];
std::atomic<unsigned> g_next_slot{0};

void CountOne() {
  if (g_counting.load(std::memory_order_relaxed)) {
    thread_local const unsigned slot =
        g_next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots;
    g_slots[slot].count.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

void* operator new(std::size_t size) {
  CountOne();
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  CountOne();
  return std::malloc(size == 0 ? 1 : size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace perfbench {

void SetAllocCounting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

uint64_t AllocCount() {
  uint64_t total = 0;
  for (const Slot& slot : g_slots) {
    total += slot.count.load(std::memory_order_relaxed);
  }
  return total;
}

bool IsTracedBinary() { return true; }

}  // namespace perfbench
