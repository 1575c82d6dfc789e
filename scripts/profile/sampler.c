// A sampling CPU profiler, loaded into any program with LD_PRELOAD.
//
// ITIMER_PROF delivers SIGPROF after every millisecond of CPU time the
// process uses, to the thread that was running. The handler records that
// thread's program counter, the top words of its stack, and the return
// addresses along its frame-pointer chain. The top words matter for
// leaves without a frame of their own (libc's memcpy, say): the return
// address into their caller sits at the stack pointer, while the frame
// chain starts at the caller's caller. report.py charges such a sample to
// the first caller it finds in the profiled binary.
//
// Every read of the interrupted stack goes through process_vm_readv, which
// fails cleanly on an unmapped address: a frame pointer that a function
// compiled without frame pointers used as a general register ends the
// walk instead of crashing the program.
//
// At exit the profile is written to prof.<pid>.txt in the working
// directory: the process's memory map, then one line per sample.
// Build: cc -O2 -shared -fPIC -o sampler.so sampler.c
#define _GNU_SOURCE
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

enum {
  kIntervalMicros = 1000,
  kStackWords = 4,
  kMaxFrames = 40,
  kMaxSamples = 1 << 17,
};

typedef struct {
  uint64_t pc;
  uint64_t words[kStackWords];
  uint32_t frames_n;
  uint64_t frames[kMaxFrames];
} Sample;

// Untouched pages of this array cost no memory.
static Sample g_samples[kMaxSamples];
static atomic_ulong g_next;
static atomic_ulong g_dropped;
static pid_t g_pid;

static int ReadWords(uint64_t* dst, uint64_t src, size_t words) {
  struct iovec local = {dst, words * sizeof(uint64_t)};
  struct iovec remote = {(void*)src, words * sizeof(uint64_t)};
  return syscall(SYS_process_vm_readv, g_pid, &local, 1, &remote, 1, 0) ==
                 (long)(words * sizeof(uint64_t))
             ? 0
             : -1;
}

static void OnProf(int sig, siginfo_t* info, void* context) {
  (void)sig;
  (void)info;
  const ucontext_t* uc = (const ucontext_t*)context;
  const unsigned long i =
      atomic_fetch_add_explicit(&g_next, 1, memory_order_relaxed);
  if (i >= kMaxSamples) {
    atomic_fetch_add_explicit(&g_dropped, 1, memory_order_relaxed);
    return;
  }
  Sample* s = &g_samples[i];
  s->pc = (uint64_t)uc->uc_mcontext.gregs[REG_RIP];
  const uint64_t sp = (uint64_t)uc->uc_mcontext.gregs[REG_RSP];
  uint64_t fp = (uint64_t)uc->uc_mcontext.gregs[REG_RBP];
  if (ReadWords(s->words, sp, kStackWords) != 0) {
    memset(s->words, 0, sizeof(s->words));
  }
  uint32_t n = 0;
  // A frame is [saved fp][return address]; frames only grow toward the
  // stack's base, and no frame is larger than a carrier task's stack.
  while (n < kMaxFrames && fp >= sp && fp - sp < (8u << 20) &&
         (fp & 7) == 0) {
    uint64_t frame[2];
    if (ReadWords(frame, fp, 2) != 0 || frame[1] == 0) {
      break;
    }
    s->frames[n++] = frame[1];
    if (frame[0] <= fp) {
      break;
    }
    fp = frame[0];
  }
  s->frames_n = n;
}

static void CopyMaps(FILE* out) {
  FILE* maps = fopen("/proc/self/maps", "r");
  if (maps == NULL) {
    return;
  }
  char line[4096];
  while (fgets(line, sizeof(line), maps) != NULL) {
    fprintf(out, "map %s", line);
  }
  fclose(maps);
}

__attribute__((constructor)) static void StartSampling(void) {
  g_pid = getpid();
  struct sigaction action;
  memset(&action, 0, sizeof(action));
  action.sa_sigaction = OnProf;
  action.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&action.sa_mask);
  sigaction(SIGPROF, &action, NULL);
  struct itimerval timer = {{0, kIntervalMicros}, {0, kIntervalMicros}};
  setitimer(ITIMER_PROF, &timer, NULL);
}

__attribute__((destructor)) static void WriteProfile(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  if (getpid() != g_pid) {
    return;  // a forked child that inherited the sampler without a timer
  }
  char path[64];
  snprintf(path, sizeof(path), "prof.%d.txt", (int)g_pid);
  FILE* out = fopen(path, "w");
  if (out == NULL) {
    return;
  }
  unsigned long n = atomic_load(&g_next);
  if (n > kMaxSamples) {
    n = kMaxSamples;
  }
  fprintf(out, "interval_us %d\ndropped %lu\n", kIntervalMicros,
          atomic_load(&g_dropped));
  CopyMaps(out);
  for (unsigned long i = 0; i < n; ++i) {
    const Sample* s = &g_samples[i];
    fprintf(out, "s %lx", (unsigned long)s->pc);
    for (int k = 0; k < kStackWords; ++k) {
      fprintf(out, " %lx", (unsigned long)s->words[k]);
    }
    fprintf(out, " |");
    for (uint32_t k = 0; k < s->frames_n; ++k) {
      fprintf(out, " %lx", (unsigned long)s->frames[k]);
    }
    fprintf(out, "\n");
  }
  fclose(out);
}
