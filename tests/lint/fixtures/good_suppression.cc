// Legal twin of bad_suppression.cc: a well-formed, justified suppression of
// the pool-growth pattern (the same shape src/common/event_queue.cc
// carries). Expected findings: none; the report records the suppression
// with used = true.
#include "common/annotations.h"

namespace fixture {

TSF_NO_ALLOC
int* pool_grow() {
  // TSF_LINT_ALLOW[rt-alloc]: fixture twin of the pool-growth pattern —
  // reached only until the high-water mark, steady state pops the free
  // stack.
  return new int(7);
}

}  // namespace fixture
