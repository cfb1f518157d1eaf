#ifndef KBBENCH_TRACED_H_
#define KBBENCH_TRACED_H_

// The traced run: per-layer numbers on the timed run's op sequence.

#include "session.h"
#include "workload.h"

namespace kbbench {

// Sets up kbserver as the timed run does, sends the op sequence once
// untraced and once traced, and fills `outcome` with every per-layer
// metric. Returns false when setup fails.
bool RunTraced(const Workload& workload, const RunConfig& config,
               Outcome* outcome);

}  // namespace kbbench

#endif  // KBBENCH_TRACED_H_
