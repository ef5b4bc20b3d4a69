// Allocation hooks of the timed driver: the global allocator is left
// untouched, so timed runs pay nothing for allocation tracing.

#include "bench.h"

namespace perfbench {

AllocSnapshot AllocNow() { return {}; }
bool AllocCounting() { return false; }

}  // namespace perfbench
