#include "session.h"

#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "check.h"
#include "server/json_value.h"

namespace kbbench {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t FileDigest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  uint64_t h = 1469598103934665603ULL;
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h ^= static_cast<unsigned char>(chunk[i]);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Interrupt counts per (line, CPU) from /proc/interrupts.
std::map<std::string, std::vector<uint64_t>> Interrupts() {
  std::map<std::string, std::vector<uint64_t>> out;
  std::ifstream in("/proc/interrupts");
  std::string line;
  if (!std::getline(in, line)) return out;
  std::istringstream header(line);
  size_t cpus = 0;
  for (std::string name; header >> name;) ++cpus;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::string irq;
    fields >> irq;
    std::vector<uint64_t> counts;
    uint64_t count = 0;
    while (counts.size() < cpus && fields >> count) counts.push_back(count);
    if (counts.size() == cpus) out[irq] = std::move(counts);
  }
  return out;
}

// The CPU whose interrupt count grew most on the lines that took at least
// half of 64 fsyncs under `work_dir`, or -1.
int StorageCpu(const std::string& work_dir) {
  constexpr int kSyncs = 64;
  const int fd = ::open((work_dir + "/fsync-probe").c_str(),
                        O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (fd < 0) return -1;
  const auto before = Interrupts();
  bool synced = true;
  for (int i = 0; i < kSyncs && synced; ++i) {
    synced = ::write(fd, "probe\n", 6) == 6 && ::fsync(fd) == 0;
  }
  const auto after = Interrupts();
  ::close(fd);
  if (!synced) return -1;
  std::vector<uint64_t> per_cpu;
  for (const auto& [irq, counts] : after) {
    const auto it = before.find(irq);
    if (it == before.end()) continue;
    uint64_t total = 0;
    for (size_t c = 0; c < counts.size(); ++c) total += counts[c] - it->second[c];
    if (total < kSyncs / 2) continue;
    per_cpu.resize(counts.size(), 0);
    for (size_t c = 0; c < counts.size(); ++c) {
      per_cpu[c] += counts[c] - it->second[c];
    }
  }
  if (per_cpu.empty()) return -1;
  return static_cast<int>(std::max_element(per_cpu.begin(), per_cpu.end()) -
                          per_cpu.begin());
}

// The allowed CPU with the most idle jiffies over 200 ms, or -1.
int IdleCpu(const cpu_set_t& allowed) {
  auto idle = [] {
    std::map<int, uint64_t> out;
    std::ifstream in("/proc/stat");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("cpu", 0) != 0 ||
          !std::isdigit(static_cast<unsigned char>(line[3]))) {
        continue;
      }
      std::istringstream fields(line.substr(3));
      int cpu = 0;
      uint64_t user = 0, nice = 0, system = 0, idle_jiffies = 0, iowait = 0;
      fields >> cpu >> user >> nice >> system >> idle_jiffies >> iowait;
      out[cpu] = idle_jiffies + iowait;
    }
    return out;
  };
  const std::map<int, uint64_t> before = idle();
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  int best = -1;
  uint64_t best_idle = 0;
  for (const auto& [cpu, jiffies] : idle()) {
    if (!CPU_ISSET(cpu, &allowed) || before.count(cpu) == 0) continue;
    const uint64_t idle_jiffies = jiffies - before.at(cpu);
    if (best < 0 || idle_jiffies > best_idle) {
      best = cpu;
      best_idle = idle_jiffies;
    }
  }
  return best;
}

}  // namespace

bool SetUp(const Workload& workload, const RunConfig& config,
           const std::string& data_dir, ServerProcess& server,
           double* seconds, std::string* error) {
  std::error_code ec;
  std::filesystem::remove_all(data_dir, ec);
  std::filesystem::create_directories(data_dir, ec);
  const auto start = Clock::now();
  if (!server.Start(config.server_binary, data_dir)) {
    *error = "cannot start " + config.server_binary;
    return false;
  }
  {
    HttpClient client(server.port());
    for (const TenantSpec& tenant : workload.tenants) {
      Response created = client.Post(
          "/v1/admin/create", "{\"tenant\":\"" + tenant.name + "\"}");
      Response loaded =
          created.code == 200
              ? client.Post("/v1/" + tenant.name + "/mutate",
                            MutateBody(workload.programs[tenant.program].load))
              : created;
      if (loaded.code != 200) {
        *error = "loading " + tenant.name + ": HTTP " +
                 std::to_string(loaded.code) + " " + loaded.body;
        return false;
      }
    }
  }
  if (!server.Stop()) {
    *error = "kbserver did not exit cleanly on SIGTERM";
    return false;
  }
  if (!server.Start(config.server_binary, data_dir)) {
    *error = "cannot restart " + config.server_binary;
    return false;
  }
  HttpClient client(server.port());
  for (const TenantSpec& tenant : workload.tenants) {
    // The first fact of the tenant's program, asked in its own module: a
    // fact holds in the view of the module that states it.
    const Program& program = workload.programs[tenant.program];
    const auto fact = std::find_if(
        program.load.begin(), program.load.end(),
        [](const WireOp& op) { return op.op == "add_fact"; });
    const Response answer = client.Post(
        "/v1/" + tenant.name + "/query",
        "{\"module\":\"" + fact->module + "\",\"literal\":\"" + fact->text +
            "\"}");
    if (answer.code != 200 ||
        answer.body.find("\"truth\":\"true\"") == std::string::npos) {
      *error = "recovered tenant " + tenant.name + " answered " +
               std::to_string(answer.code) + " " + answer.body;
      return false;
    }
  }
  *seconds = SecondsSince(start);
  return true;
}

void RunOps(HttpClient& client, const std::vector<Op>& ops, size_t begin,
            size_t end, std::vector<OpResult>& out) {
  out.reserve(out.size() + (end - begin));
  for (size_t i = begin; i < end; ++i) {
    const auto start = Clock::now();
    Response response = client.Post(ops[i].path, ops[i].body);
    const double ms =
        std::chrono::duration<double, std::milli>(Clock::now() - start)
            .count();
    out.push_back(OpResult{ms, std::move(response)});
  }
}

std::map<std::string, uint64_t> ReadCounts(HttpClient& client,
                                           const Workload& workload) {
  static const char* const kUsageFields[] = {
      "ground_rules", "index_probes", "eval_rounds", "delta_tuples",
      "solver_nodes", "wal_records",  "wal_bytes"};
  std::map<std::string, uint64_t> counts;
  for (const TenantSpec& tenant : workload.tenants) {
    const Response usage = client.Get("/v1/" + tenant.name + "/usagez");
    const Response status = client.Get("/v1/" + tenant.name + "/status");
    auto usage_json = ordlog::JsonValue::Parse(usage.body);
    auto status_json = ordlog::JsonValue::Parse(status.body);
    if (usage.code != 200 || status.code != 200 || !usage_json.ok() ||
        !status_json.ok() || usage_json->Find("usage") == nullptr) {
      return {};
    }
    const ordlog::JsonValue& totals = *usage_json->Find("usage");
    for (const char* field : kUsageFields) {
      const ordlog::JsonValue* value = totals.Find(field);
      if (value == nullptr || !value->is_number()) return {};
      counts[tenant.name + "." + field] =
          static_cast<uint64_t>(value->number_value());
    }
    const ordlog::JsonValue* revision = status_json->Find("revision");
    if (revision == nullptr || !revision->is_number()) return {};
    counts[tenant.name + ".revision"] =
        static_cast<uint64_t>(revision->number_value());
  }
  return counts;
}

uint64_t CountWrongAnswers(const Workload& workload,
                           const std::vector<Op>& sent,
                           const std::vector<OpResult>& results) {
  AnswerCheck check(workload);
  uint64_t wrong = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const std::string error = check.Check(sent[i], results[i].response);
    if (!error.empty() && ++wrong <= 5) {
      std::fprintf(stderr, "kbbench: op %zu: %s\n", i, error.c_str());
    }
  }
  return wrong;
}

std::string CheckDeterminism(const RunConfig& config, size_t timed_cycles,
                             const std::map<std::string, uint64_t>& counts) {
  if (counts.empty()) return "could not read usagez/status";
  const std::string key = config.workload + "-seed" +
                          std::to_string(config.seed) + "-cycles" +
                          std::to_string(timed_cycles) +
                          (config.trace ? "-traced" : "-timed");
  // Counts are compared only between runs of the same two binaries: a
  // change to the program may legitimately change them.
  char binaries[17];
  std::snprintf(binaries, sizeof(binaries), "%016llx",
                static_cast<unsigned long long>(
                    FileDigest(config.server_binary) ^
                    FileDigest("/proc/self/exe")));
  const std::string path =
      config.work_dir + "/counts-" + key + "-" + binaries + ".txt";
  std::ifstream in(path);
  if (!in) {
    std::ofstream out(path);
    for (const auto& [name, value] : counts) out << name << ' ' << value << '\n';
    return "";
  }
  std::map<std::string, uint64_t> earlier;
  std::string name;
  uint64_t value = 0;
  while (in >> name >> value) earlier[name] = value;
  for (const auto& [count, now] : counts) {
    const auto it = earlier.find(count);
    if (it == earlier.end() || it->second != now) {
      return count + " is " + std::to_string(now) + ", an earlier run of " +
             key + " had " +
             (it == earlier.end() ? "none" : std::to_string(it->second));
    }
  }
  return earlier.size() == counts.size() ? "" : "count sets differ";
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (upper + *std::max_element(values.begin(), values.begin() + mid)) / 2;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double HostProbeMs() {
  std::vector<char> a(16 << 20, 1), b(16 << 20);
  const auto start = Clock::now();
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 8; ++i) {
    std::memcpy(b.data(), a.data(), a.size());
    for (int j = 0; j < 1 << 20; ++j) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    a[x % a.size()] = static_cast<char>(b[(x >> 8) % b.size()] + 1);
  }
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  // Keeps the loop from being folded away.
  if (x == 0 && a[0] == 7) return -ms;
  return ms;
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

int PinCpu(const std::string& work_dir) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = StorageCpu(work_dir);
  if (cpu < 0 || cpu >= CPU_SETSIZE || !CPU_ISSET(cpu, &allowed)) {
    cpu = IdleCpu(allowed);
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

size_t TimedCycles(const Workload& workload, int seconds) {
  const size_t cycles =
      static_cast<size_t>(std::ceil(workload.cycles_per_second * seconds));
  return std::max<size_t>(2, cycles + cycles % 2);
}

}  // namespace kbbench
