// kbbench: the repository benchmark's client (see README.md).
//
//   kbbench --workload tenants_read --seed 1 --seconds 10 --trace 0 \
//       --server <kbserver binary> --work-dir <dir inside the checkout>
//
// --trace 0 is the timed run: it prints every end-to-end metric. --trace 1
// is the traced run: it prints every per-layer metric. The last line of
// stdout is the result as one JSON object.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "session.h"
#include "traced.h"
#include "wire.h"
#include "workload.h"

namespace kbbench {
namespace {

// Setups per timed run; setup_s is their median.
constexpr int kSetupRepeats = 5;

// FNV-1a digests of the generated programs. A change to the generators in
// bench/workloads.h changes the workloads, so it fails the run instead.
struct PinnedDigest {
  const char* program;
  uint64_t digest;
};
constexpr PinnedDigest kPinnedDigests[] = {
    {"access_control_20_30", 11607664973827422117ULL},
    {"loan_grid_1024", 12099564961902573712ULL},
    {"example5_gadgets_8", 8218014464018133833ULL},
    {"chain_200", 3462819626854171602ULL},
};

std::string CheckDigests(const Workload& workload) {
  for (const Program& program : workload.programs) {
    const uint64_t digest = TextDigest(program.text);
    for (const PinnedDigest& pinned : kPinnedDigests) {
      if (program.name == pinned.program && digest != pinned.digest) {
        return "program " + program.name + " has digest " +
               std::to_string(digest) + ", want " +
               std::to_string(pinned.digest);
      }
    }
    if (program.load.empty()) return "program " + program.name + " is empty";
  }
  return "";
}

bool RunTimed(const Workload& workload, const RunConfig& config,
              Outcome* outcome) {
  const size_t timed_cycles = TimedCycles(workload, config.seconds);
  const std::vector<Op> ops =
      GenerateOps(workload, config.seed, workload.warmup_cycles + timed_cycles);
  const size_t timed_begin = workload.warmup_cycles * workload.cycle_ops;
  const double probe_ms = HostProbeMs();
  std::printf("host probe %.3f ms, loadavg %s\n", probe_ms,
              LoadAverage().c_str());

  const std::string data_dir = config.work_dir + "/data-" + workload.name;
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);
  ServerProcess server;
  std::vector<double> setups;
  for (int i = 0; i < kSetupRepeats; ++i) {
    server.Stop();
    double seconds = 0;
    std::string error;
    if (!SetUp(workload, config, data_dir + "/" + std::to_string(i), server,
               &seconds, &error)) {
      std::fprintf(stderr, "kbbench: setup: %s\n", error.c_str());
      return false;
    }
    setups.push_back(seconds);
  }

  // Progress on stderr, so a slow phase shows where the time went.
  const auto phase = std::chrono::steady_clock::now();
  auto lap = [&phase](const char* what) {
    std::fprintf(
        stderr, "kbbench: %s done after %.3f s\n", what,
        std::chrono::duration<double>(std::chrono::steady_clock::now() - phase)
            .count());
  };
  HttpClient client(server.port());
  std::vector<OpResult> results;
  RunOps(client, ops, 0, timed_begin, results);
  lap("warmup");
  const uint64_t cpu_before = server.CpuNanos();
  RunOps(client, ops, timed_begin, ops.size(), results);
  const uint64_t cpu_after = server.CpuNanos();
  lap("timed");
  const std::map<std::string, uint64_t> counts = ReadCounts(client, workload);
  const double peak_rss_mb = server.PeakRssKb() / 1024.0;
  client.Close();
  const bool clean_exit = server.Stop();

  outcome->attempted = ops.size();
  outcome->failed = CountWrongAnswers(workload, ops, results);
  lap("check");
  std::filesystem::remove_all(data_dir, ec);
  lap("cleanup");
  if (!clean_exit) {
    std::fprintf(stderr, "kbbench: kbserver did not exit cleanly\n");
    ++outcome->failed;
  }
  const std::string mismatch = CheckDeterminism(config, timed_cycles, counts);
  if (!mismatch.empty()) {
    std::fprintf(stderr, "kbbench: determinism: %s\n", mismatch.c_str());
    ++outcome->failed;
  }

  // Per op type, and per mutation the time until it is visible: its
  // acknowledgement plus the first answer on its tenant after it.
  std::vector<double> by_kind[kNumOpKinds];
  std::vector<double> visible[kNumOpKinds];
  std::map<int, size_t> unanswered;  // tenant -> its last mutation's index
  for (size_t i = timed_begin; i < ops.size(); ++i) {
    const Op& op = ops[i];
    by_kind[static_cast<int>(op.kind)].push_back(results[i].ms);
    if (op.mode == "mutate") {
      unanswered[op.tenant] = i;
      continue;
    }
    const auto it = unanswered.find(op.tenant);
    if (it == unanswered.end()) continue;
    visible[static_cast<int>(ops[it->second].kind)].push_back(
        results[it->second].ms + results[i].ms);
    unanswered.erase(it);
  }
  auto report = [&](const std::string& name, const std::vector<double>& ms,
                    bool gated) {
    const double p50 = Median(ms);
    std::printf("%-28s %12.6f ms  n=%zu  (p99 %.6f ms%s)\n", name.c_str(),
                p50, ms.size(), Percentile(ms, 0.99),
                gated ? "" : "; p50 not gated either");
    if (gated) outcome->metrics.push_back({name, p50, "ms"});
  };
  report("read_p50_ms", by_kind[static_cast<int>(OpKind::kRead)], true);
  report("assert_visible_p50_ms", visible[static_cast<int>(OpKind::kAssert)],
         true);
  report("retract_visible_p50_ms",
         visible[static_cast<int>(OpKind::kRetract)], true);
  report("stable_p50_ms", by_kind[static_cast<int>(OpKind::kStable)], true);
  report("explain_p50_ms", by_kind[static_cast<int>(OpKind::kExplain)], true);
  // The two halves of a mutation's visibility, printed for diagnosis: on
  // their own they moved 15-40% from run to run on the development host.
  for (const OpKind kind : {OpKind::kAssert, OpKind::kRetract,
                            OpKind::kReadAfterAssert,
                            OpKind::kReadAfterRetract}) {
    report(std::string(OpKindName(kind)) + "_p50_ms",
           by_kind[static_cast<int>(kind)], false);
  }
  const double setup_s = Median(setups);
  std::printf("%-28s %12.6f s   n=%zu\n", "setup_s", setup_s, setups.size());
  outcome->metrics.push_back({"setup_s", setup_s, "s"});
  std::printf("%-28s %12.3f MB\n", "server_peak_rss_mb", peak_rss_mb);
  outcome->metrics.push_back({"server_peak_rss_mb", peak_rss_mb, "MB"});
  const double cpu_ms_per_op =
      (cpu_after - cpu_before) / 1e6 / static_cast<double>(ops.size() - timed_begin);
  std::printf("%-28s %12.6f ms  n=%zu\n", "server_cpu_ms_per_op",
              cpu_ms_per_op, ops.size() - timed_begin);
  outcome->metrics.push_back({"server_cpu_ms_per_op", cpu_ms_per_op, "ms"});
  return true;
}

void PrintResult(bool correct, const Outcome& outcome) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(outcome.attempted);
  line += ", \"failed\": " + std::to_string(outcome.failed);
  line += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.12g", outcome.metrics[i].value);
    if (i > 0) line += ", ";
    line += "\"" + outcome.metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + outcome.metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: kbbench --workload tenants_read|grid_churn|"
               "stable_explain --seed N --seconds N --trace 0|1\n"
               "               --server KBSERVER --work-dir DIR\n");
  return 2;
}

}  // namespace
}  // namespace kbbench

int main(int argc, char** argv) {
  using namespace kbbench;
  RunConfig config;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--server") {
      config.server_binary = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  Workload workload;
  if (argc % 2 == 0 || config.seconds < 1 || config.server_binary.empty() ||
      config.work_dir.empty() || !MakeWorkload(config.workload, &workload)) {
    return Usage();
  }
  const std::string bad_program = CheckDigests(workload);
  if (!bad_program.empty()) {
    std::fprintf(stderr, "kbbench: %s\n", bad_program.c_str());
    return 1;
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  std::printf("pinned to cpu %d\n", PinCpu(config.work_dir));
  Outcome outcome;
  const bool ran = config.trace ? RunTraced(workload, config, &outcome)
                                : RunTimed(workload, config, &outcome);
  if (!ran) return 1;
  const bool correct = outcome.failed == 0;
  PrintResult(correct, outcome);
  return correct ? 0 : 1;
}
