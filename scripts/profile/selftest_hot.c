// The profiler's self-test program: one function burns nearly all of the
// CPU time, another a little, and a third calls memcpy in a loop, so its
// samples land in a libc leaf that must be charged back to it.
#include <stdint.h>
#include <stdio.h>
#include <string.h>

__attribute__((noinline)) uint64_t ProfileSelftestHot(uint64_t n) {
  uint64_t x = 1;
  for (uint64_t i = 0; i < n; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    __asm__ volatile("" : "+r"(x));
  }
  return x;
}

__attribute__((noinline)) uint64_t ProfileSelftestCold(uint64_t n) {
  return ProfileSelftestHot(n / 20);
}

static char g_from[1 << 16];
static char g_to[1 << 16];

__attribute__((noinline)) uint64_t ProfileSelftestCopies(int rounds) {
  uint64_t sum = 0;
  for (int i = 0; i < rounds; ++i) {
    g_from[i & 1023] = (char)i;
    memcpy(g_to, g_from, sizeof(g_to));
    sum += (uint64_t)g_to[i & 1023];
  }
  return sum;
}

int main(void) {
  uint64_t sum = 0;
  for (int round = 0; round < 8; ++round) {
    sum += ProfileSelftestHot(60u * 1000 * 1000);
    sum += ProfileSelftestCold(60u * 1000 * 1000);
    sum += ProfileSelftestCopies(3000);
  }
  printf("%llu\n", (unsigned long long)sum);
  return 0;
}
