// The untraced binary's allocation counter: none. The end-to-end run keeps
// the standard operator new, so it pays nothing for allocation counting.
#include "perfbench/bench.h"

namespace perfbench {

void SetAllocCounting(bool on) { (void)on; }
uint64_t AllocCount() { return 0; }
bool IsTracedBinary() { return false; }

}  // namespace perfbench
