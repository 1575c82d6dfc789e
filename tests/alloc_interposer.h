// The allocation-budget tests' operator-new interposer: every heap
// allocation is counted while a counting gate covering it is open. Defined
// in alloc_interposer.cc, a translation unit of its own, so no code that
// allocates is compiled next to the replacement operators.
//
// Two gates: a thread-local one, for single-threaded regions whose counts
// must be exactly reproducible, and a process-wide one, for paths that
// span the delivery-shard and guardian threads.
#ifndef GUARDIANS_TESTS_ALLOC_INTERPOSER_H_
#define GUARDIANS_TESTS_ALLOC_INTERPOSER_H_

#include <cstdint>

namespace guardians::alloc_test {

// Count allocations made by the calling thread.
void SetThreadCounting(bool on);
// Count allocations made by any thread.
void SetProcessCounting(bool on);
// Allocations counted so far, under either gate.
uint64_t Allocations();

}  // namespace guardians::alloc_test

#endif  // GUARDIANS_TESTS_ALLOC_INTERPOSER_H_
