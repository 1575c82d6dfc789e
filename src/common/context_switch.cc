#include "src/common/context_switch.h"

#include <cstdint>
#include <cstdlib>

#if defined(__x86_64__)

// guardians_switch(void** save_sp, void* load_sp): System V x86-64. The
// frame it leaves on a suspended stack, from the saved stack pointer up:
// MXCSR and the x87 control word (8 bytes), r15, r14, r13, r12, rbx, rbp,
// and the return address.
//
// guardians_task_start is where a new context's first switch returns to:
// InitContext leaves the entry function in r13 and its argument in r12.
// It has no caller, so unwinding stops here (rip is undefined).
asm(R"(
  .pushsection .text
  .globl guardians_switch
  .type guardians_switch, @function
  .p2align 4
guardians_switch:
  .cfi_startproc
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $8, %rsp
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .cfi_endproc
  .size guardians_switch, .-guardians_switch

  .globl guardians_task_start
  .type guardians_task_start, @function
  .p2align 4
guardians_task_start:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size guardians_task_start, .-guardians_task_start
  .popsection
)");

extern "C" void guardians_switch(void** save_sp, void* load_sp);
extern "C" void guardians_task_start();

namespace guardians::internal {

void InitContext(TaskContext& ctx, void* stack, size_t size,
                 void (*entry)(void*), void* arg) {
  // The saved stack pointer must be 16-byte aligned: the switch pops 64
  // bytes and returns, leaving guardians_task_start an aligned stack, so
  // its call enters `entry` with the ABI's alignment.
  const uintptr_t top =
      (reinterpret_cast<uintptr_t>(stack) + size) & ~uintptr_t{15};
  auto* frame = reinterpret_cast<uint64_t*>(top - 80);
  frame[0] = 0x1F80 | (uint64_t{0x037F} << 32);  // MXCSR, x87 control word
  frame[1] = 0;                                   // r15
  frame[2] = 0;                                   // r14
  frame[3] = reinterpret_cast<uint64_t>(entry);   // r13
  frame[4] = reinterpret_cast<uint64_t>(arg);     // r12
  frame[5] = 0;                                   // rbx
  frame[6] = 0;                                   // rbp: ends the frame chain
  frame[7] = reinterpret_cast<uint64_t>(&guardians_task_start);
  frame[8] = 0;
  frame[9] = 0;
  ctx.sp = frame;
}

void SwitchContext(TaskContext& from, TaskContext& to) {
  guardians_switch(&from.sp, to.sp);
}

}  // namespace guardians::internal

#else  // portable fallback

namespace guardians::internal {

namespace {
// makecontext passes int arguments only: the entry and its argument travel
// as two halves each.
void Trampoline(unsigned entry_hi, unsigned entry_lo, unsigned arg_hi,
                unsigned arg_lo) {
  auto join = [](unsigned hi, unsigned lo) {
    return (static_cast<uintptr_t>(hi) << 32) | lo;
  };
  auto entry = reinterpret_cast<void (*)(void*)>(join(entry_hi, entry_lo));
  entry(reinterpret_cast<void*>(join(arg_hi, arg_lo)));
  std::abort();  // an entry never returns
}
}  // namespace

void InitContext(TaskContext& ctx, void* stack, size_t size,
                 void (*entry)(void*), void* arg) {
  getcontext(&ctx.uc);
  ctx.uc.uc_stack.ss_sp = stack;
  ctx.uc.uc_stack.ss_size = size;
  ctx.uc.uc_link = nullptr;
  const auto e = reinterpret_cast<uintptr_t>(entry);
  const auto a = reinterpret_cast<uintptr_t>(arg);
  makecontext(&ctx.uc, reinterpret_cast<void (*)()>(&Trampoline), 4,
              static_cast<unsigned>(uint64_t{e} >> 32),
              static_cast<unsigned>(e), static_cast<unsigned>(uint64_t{a} >> 32),
              static_cast<unsigned>(a));
}

void SwitchContext(TaskContext& from, TaskContext& to) {
  swapcontext(&from.uc, &to.uc);
}

}  // namespace guardians::internal

#endif
