#ifndef KBBENCH_SESSION_H_
#define KBBENCH_SESSION_H_

// What the timed and the traced run share: setting up a durable kbserver
// with the workload's tenants, sending an op sequence in a closed loop,
// and reading the per-tenant counts the determinism check compares.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "wire.h"
#include "workload.h"

namespace kbbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string server_binary;  // kbserver
  std::string work_dir;       // data dirs and count files; inside the checkout
};

// Spawns kbserver on an empty `data_dir`, creates and bulk-loads every
// tenant, restarts the server with SIGTERM so the WAL is recovered, and
// queries every tenant once. On success `server` is the restarted server
// and `seconds` the wall time from the first spawn to the last answer.
bool SetUp(const Workload& workload, const RunConfig& config,
           const std::string& data_dir, ServerProcess& server,
           double* seconds, std::string* error);

// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

// What a run reports: the metrics, and how many ops it sent and how many
// of them failed (non-200, wrong answer, or a determinism mismatch).
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// One op's client-side round trip.
struct OpResult {
  double ms = 0;
  Response response;
};

// Sends ops[begin, end) over `client`, one at a time.
void RunOps(HttpClient& client, const std::vector<Op>& ops, size_t begin,
            size_t end, std::vector<OpResult>& out);

// Per-tenant counts that must repeat exactly across runs of one seed:
// ground rules, index probes, eval rounds, delta tuples, solver nodes,
// WAL records, WAL bytes (from /v1/<t>/usagez) and the revision (from
// /v1/<t>/status). Empty on failure.
std::map<std::string, uint64_t> ReadCounts(HttpClient& client,
                                           const Workload& workload);

// Checks `results[i]` as the answer to `sent[i]` for every i; prints the
// first few wrong ones to stderr and returns how many were wrong.
uint64_t CountWrongAnswers(const Workload& workload,
                           const std::vector<Op>& sent,
                           const std::vector<OpResult>& results);

// Compares `counts` with the ones an earlier run of the same workload,
// seed, op count, mode and binaries stored in the work dir, or stores them
// when there are none. "" on a match.
std::string CheckDeterminism(const RunConfig& config, size_t timed_cycles,
                             const std::map<std::string, uint64_t>& counts);

// The sample median (mean of the middle two for an even count); 0 when
// empty.
double Median(std::vector<double> values);
// Nearest-rank percentile, q in (0, 1].
double Percentile(std::vector<double> values, double q);

// A fixed compute-plus-memcpy loop timed in this process, in ms: a host
// probe printed beside the metrics, never used to scale them.
double HostProbeMs();
std::string LoadAverage();

// Pins this process, and so the kbserver it spawns, to one CPU and
// returns it (-1 when pinning failed). In a closed loop over one
// connection the client and the server never run at once, and sharing a
// CPU keeps cross-CPU wake-ups out of the round trip: unpinned,
// cached-read medians moved between ~17 and ~31 us from run to run; on one
// CPU they held at 7.5-7.9 us. The CPU is the one that takes the
// completion interrupts of the disk under `work_dir` (the interrupt counts
// that grow during a few fsyncs there), so a server thread waiting in
// fsync is woken on its own busy CPU; that cut the run-to-run spread of
// mutation medians. Without such a CPU, the one most idle over a short
// sample of /proc/stat.
int PinCpu(const std::string& work_dir);

// Cycles in the timed phase: the workload's nominal rate times --seconds,
// rounded up to an even number.
size_t TimedCycles(const Workload& workload, int seconds);

}  // namespace kbbench

#endif  // KBBENCH_SESSION_H_
