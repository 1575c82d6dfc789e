// The user-space context switch under the task runtime (src/common/task.h).
//
// On x86-64 a switch saves the callee-saved registers, MXCSR and the x87
// control word on the current stack, stores the stack pointer, loads the
// other context's and pops the same set: about twenty instructions. It is
// top-level assembly in context_switch.cc, not a .S file, so a project that
// enables only C++ builds it. Elsewhere the portable ucontext calls do the
// same job, more slowly (swapcontext also saves the signal mask).
#ifndef GUARDIANS_SRC_COMMON_CONTEXT_SWITCH_H_
#define GUARDIANS_SRC_COMMON_CONTEXT_SWITCH_H_

#include <cstddef>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

namespace guardians::internal {

struct TaskContext {
#if defined(__x86_64__)
  void* sp = nullptr;
#else
  ucontext_t uc;
#endif
};

// Prepares `ctx` so that the first switch to it calls entry(arg) on the
// stack [stack, stack + size). `entry` must never return.
void InitContext(TaskContext& ctx, void* stack, size_t size,
                 void (*entry)(void*), void* arg);

// Saves the running context into `from` and resumes `to`. Returns when
// something switches back to `from`.
void SwitchContext(TaskContext& from, TaskContext& to);

}  // namespace guardians::internal

#endif  // GUARDIANS_SRC_COMMON_CONTEXT_SWITCH_H_
