// Planted bugs: process-wide switches that re-introduce a known violation
// into the runtime, so the chaos harness can prove that its invariants
// catch the violation and that its shrinker isolates it (DESIGN.md §14,
// §15). They live here, in the fault layer, and not in the classes they
// break: production code only reads them, and only the harness and tests
// set them.
//
// Each read is one relaxed atomic load. Relaxed is enough: a plant is set
// before the world it breaks is built, and that construction orders it.
#ifndef GUARDIANS_SRC_FAULT_PLANT_H_
#define GUARDIANS_SRC_FAULT_PLANT_H_

#include <atomic>
#include <cstdint>

namespace guardians {

enum class Plant : uint8_t {
  // The dedup layer skips the durable journal append of a reply (the
  // in-memory table and reply cache still work). Across a crash the
  // at-most-once floor is then lost, so a post-recovery duplicate of a
  // completed operation re-executes.
  kSkipDedupJournal,
  // The dedup layer's idle-session sweep measures idleness against the
  // node's own (skewable) clock, while activity stamps use the system's
  // monotonic base clock: the TTL-on-wall-clock bug. A forward skew step of
  // at least the idle horizon makes every live session look idle, the
  // sweep forgets its window, and the next duplicate of a completed op
  // re-executes. Under the wall clock node views equal the base clock and
  // the plant changes nothing; only a simulated-time skew exposes it.
  kDedupSweepOnLocalClock,
};

namespace internal {
inline std::atomic<bool> g_plants[2] = {false, false};
}  // namespace internal

inline void SetPlant(Plant plant, bool armed) {
  internal::g_plants[static_cast<int>(plant)].store(
      armed, std::memory_order_relaxed);
}

inline bool PlantArmed(Plant plant) {
  return internal::g_plants[static_cast<int>(plant)].load(
      std::memory_order_relaxed);
}

}  // namespace guardians

#endif  // GUARDIANS_SRC_FAULT_PLANT_H_
