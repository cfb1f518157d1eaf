#ifndef KBBENCH_WORKLOAD_H_
#define KBBENCH_WORKLOAD_H_

// The three workloads: the programs each tenant holds, how they are bulk
// loaded over the wire, and the seeded op sequence a run sends.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace kbbench {

// Op types, defined by what the client sends (see README.md).
enum class OpKind : int {
  kRead = 0,          // a query that is not the first on its tenant since a
                      // mutation
  kReadAfterAssert,   // the first query on a tenant after an add_fact
  kReadAfterRetract,  // the first query on a tenant after a retract_fact
  kAssert,            // the acknowledgement of a one-fact add_fact
  kRetract,           // the acknowledgement of a one-fact retract_fact
  kStable,            // count_models after a mutation of the tenant
  kExplain,           // POST /v1/<t>/explain
};
inline constexpr int kNumOpKinds = 7;
const char* OpKindName(OpKind kind);

// One element of a /v1/<t>/mutate "ops" array.
struct WireOp {
  std::string op;  // add_module | add_isa | add_rule | add_fact | retract_fact
  std::string module;
  std::string text;
};

struct Program {
  std::string name;
  std::string text;           // generator output (bench/workloads.h)
  std::vector<WireOp> load;   // the bulk-load batch derived from `text`
};

struct TenantSpec {
  std::string name;
  int program = 0;  // index into Workload::programs
};

struct Op {
  OpKind kind = OpKind::kRead;
  int tenant = 0;
  std::string path;  // /v1/<tenant>/query | /mutate | /explain
  std::string body;  // request JSON
  // What the answer check needs: the query mode ("skeptical", "brave",
  // "cautious", "count_models", "explain", or "mutate"), module, literal
  // (for a mutation, the toggled fact), and the fact retracted from the
  // tenant while the op runs ("" when the tenant holds its whole program).
  std::string mode;
  std::string module;
  std::string literal;
  std::string state;
};

struct Workload {
  std::string name;
  std::vector<Program> programs;
  std::vector<TenantSpec> tenants;
  size_t cycle_ops = 0;         // ops per cycle of the mix
  double cycles_per_second = 0; // sizes a run from --seconds
  size_t warmup_cycles = 0;     // untimed cycles before timing
};

// Returns false for an unknown name.
bool MakeWorkload(const std::string& name, Workload* out);

// The op sequence of `cycles` cycles (an even number, so every fact a
// cycle retracts is re-added within the sequence and the tenants end in
// the state they started in). The same seed gives the same sequence.
std::vector<Op> GenerateOps(const Workload& workload, uint64_t seed,
                            size_t cycles);

// {"ops":[...]} for a mutate request.
std::string MutateBody(const std::vector<WireOp>& ops);

// FNV-1a of a program's text, pinned per program so a change to the
// generators shows as a failed run rather than as a silent workload change.
uint64_t TextDigest(const std::string& text);

}  // namespace kbbench

#endif  // KBBENCH_WORKLOAD_H_
