#include "workload.h"

#include <random>
#include <set>

#include "workloads.h"

namespace kbbench {

namespace {

// Sizes. tenants_read: 16 tenants of AccessControl(20, 30) keep three
// views each, 48 in all, inside the server's 256-entry model cache.
// grid_churn: LoanGrid(1024) has 1,028 views, so its reads miss that
// cache; it grounds to 3,588 rules, enough for millisecond-scale
// regrounds. stable_explain: 2^8 = 256 stable models per search, and a
// 200-deep chain for explain.
constexpr int kAccessTenants = 16;
constexpr int kAccessUsers = 20;
constexpr int kAccessResources = 30;
constexpr int kAccessStableEvery = 32;
constexpr int kGridSize = 1024;
constexpr int kGridTogglePool = 16;
constexpr int kGadgets = 8;
constexpr int kChoiceFacts = 16;
constexpr int kChainDepth = 200;

std::string Quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

std::string Trim(const std::string& s) {
  size_t b = 0, e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

// Uniform in [0, n); plain modulo keeps sequences identical across
// standard libraries.
size_t Pick(std::mt19937_64& rng, size_t n) { return rng() % n; }

Op Query(const TenantSpec& tenant, int index, OpKind kind,
         const std::string& mode, const std::string& module,
         const std::string& literal) {
  Op op;
  op.kind = kind;
  op.tenant = index;
  op.mode = mode;
  op.module = module;
  op.literal = literal;
  if (mode == "explain") {
    op.path = "/v1/" + tenant.name + "/explain";
    op.body = "{\"module\":" + Quote(module) + ",\"literal\":" +
              Quote(literal) + "}";
    return op;
  }
  op.path = "/v1/" + tenant.name + "/query";
  op.body = "{\"module\":" + Quote(module);
  if (mode == "count_models") {
    op.body += ",\"mode\":\"count_models\"}";
    return op;
  }
  op.body += ",\"literal\":" + Quote(literal);
  if (mode != "skeptical") op.body += ",\"mode\":" + Quote(mode);
  op.body += "}";
  return op;
}

Op Toggle(const TenantSpec& tenant, int index, bool retract,
          const std::string& module, const std::string& fact) {
  Op op;
  op.kind = retract ? OpKind::kRetract : OpKind::kAssert;
  op.tenant = index;
  op.mode = "mutate";
  op.module = module;
  op.literal = fact;
  op.path = "/v1/" + tenant.name + "/mutate";
  op.body = MutateBody(
      {WireOp{retract ? "retract_fact" : "add_fact", module, fact}});
  return op;
}

std::string Access(std::mt19937_64& rng) {
  const size_t u = Pick(rng, kAccessUsers);
  const size_t r = Pick(rng, kAccessResources);
  return "access(u" + std::to_string(u) + ", r" + std::to_string(r) + ")";
}

// tenants_read, 100 ops a cycle: one mutation of a random tenant (a
// retract, or the re-add of the previous cycle's retract), the first
// query on that tenant, one explain on a random tenant, and 97 access
// queries on random tenants. Every kAccessStableEvery-th cycle the
// second query on the mutated tenant is a count_models instead: its
// search costs ~40 ms, so it is kept to a small share of the run.
void TenantsReadCycle(const Workload& w, std::mt19937_64& rng,
                      std::vector<std::string>& state, int& pending,
                      int& stable_countdown, std::vector<Op>& out) {
  int t;
  bool retract;
  std::string fact;
  if (pending >= 0) {
    t = pending;
    fact = state[t];
    retract = false;
    pending = -1;
  } else {
    t = static_cast<int>(Pick(rng, w.tenants.size()));
    fact = "user(u" + std::to_string(Pick(rng, kAccessUsers)) + ")";
    retract = true;
    pending = t;
  }
  const std::string before = state[t];
  state[t] = retract ? fact : "";
  Op toggle = Toggle(w.tenants[t], t, retract, "corp", fact);
  toggle.state = before;
  out.push_back(std::move(toggle));
  auto push = [&](Op op) {
    op.state = state[op.tenant];
    out.push_back(std::move(op));
  };
  push(Query(w.tenants[t], t,
             retract ? OpKind::kReadAfterRetract : OpKind::kReadAfterAssert,
             "skeptical", "site", Access(rng)));
  if (++stable_countdown == kAccessStableEvery) {
    stable_countdown = 0;
    push(Query(w.tenants[t], t, OpKind::kStable, "count_models", "site", ""));
  } else {
    push(Query(w.tenants[t], t, OpKind::kRead, "skeptical", "site",
               Access(rng)));
  }
  const int e = static_cast<int>(Pick(rng, w.tenants.size()));
  push(Query(w.tenants[e], e, OpKind::kExplain, "explain", "site",
             Access(rng)));
  for (size_t i = 4; i < w.cycle_ops; ++i) {
    const int q = static_cast<int>(Pick(rng, w.tenants.size()));
    push(Query(w.tenants[q], q, OpKind::kRead, "skeptical", "site",
               Access(rng)));
  }
}

// grid_churn, 20 ops a cycle: retract inflation(i), query c1, 8 queries
// on random expert/c3/c4 views, re-add inflation(i), query c1, one
// count_models and one explain on c1, 6 more view queries. i comes from a
// seeded pool of 16 values that holds the 4 largest, whose removal
// changes which experts fire.
void GridChurnCycle(const Workload& w, const std::vector<int>& pool,
                    std::mt19937_64& rng, std::vector<Op>& out) {
  const TenantSpec& grid = w.tenants[0];
  const std::string fact =
      "inflation(" + std::to_string(pool[Pick(rng, pool.size())]) + ")";
  auto view_query = [&](const std::string& state) {
    const size_t v = Pick(rng, kGridSize + 2);
    const std::string module = v < kGridSize ? "expert" + std::to_string(v)
                               : v == kGridSize ? "c3"
                                                : "c4";
    Op op = Query(grid, 0, OpKind::kRead, "skeptical", module, "take_loan");
    op.state = state;
    out.push_back(std::move(op));
  };
  out.push_back(Toggle(grid, 0, /*retract=*/true, "c1", fact));
  Op after = Query(grid, 0, OpKind::kReadAfterRetract, "skeptical", "c1",
                   "take_loan");
  after.state = fact;
  out.push_back(std::move(after));
  for (int i = 0; i < 8; ++i) view_query(fact);
  Op add = Toggle(grid, 0, /*retract=*/false, "c1", fact);
  add.state = fact;
  out.push_back(std::move(add));
  out.push_back(Query(grid, 0, OpKind::kReadAfterAssert, "skeptical", "c1",
                      "take_loan"));
  out.push_back(Query(grid, 0, OpKind::kStable, "count_models", "c1", ""));
  out.push_back(Query(grid, 0, OpKind::kExplain, "explain", "c1",
                      "take_loan"));
  for (size_t i = 14; i < w.cycle_ops; ++i) view_query("");
}

// stable_explain, 21 ops a cycle: retract one d_j of `choice`, then a
// count_models on c1, re-add d_j, another count_models, 9 brave/cautious
// queries on c1 (answered from the stable models the count computed), and
// 8 explains of a random p_k in `prov`. Toggling d_j changes every stable
// model but not how many there are. Without d_j, e_j is one more atom to
// branch on, so only the counts after a re-add are `stable` ops, all of
// the same size; a count after a retract is that retract's first read.
void StableExplainCycle(const Workload& w, std::mt19937_64& rng,
                        std::vector<Op>& out) {
  const TenantSpec& choice = w.tenants[0];
  const TenantSpec& prov = w.tenants[1];
  const std::string fact = "d" + std::to_string(Pick(rng, kChoiceFacts));
  out.push_back(Toggle(choice, 0, /*retract=*/true, "c2", fact));
  Op count = Query(choice, 0, OpKind::kReadAfterRetract, "count_models",
                   "c1", "");
  count.state = fact;
  out.push_back(count);
  Op add = Toggle(choice, 0, /*retract=*/false, "c2", fact);
  add.state = fact;
  out.push_back(std::move(add));
  out.push_back(Query(choice, 0, OpKind::kStable, "count_models", "c1", ""));
  for (int i = 0; i < 9; ++i) {
    const size_t pick = Pick(rng, 4 * kGadgets + kChoiceFacts);
    std::string literal;
    if (pick < 4 * static_cast<size_t>(kGadgets)) {
      literal = std::string(pick % 2 == 0 ? "" : "-") +
                (pick % 4 < 2 ? "a" : "b") + std::to_string(pick / 4);
    } else {
      literal = "e" + std::to_string(pick - 4 * kGadgets);
    }
    out.push_back(Query(choice, 0, OpKind::kRead,
                        Pick(rng, 2) == 0 ? "brave" : "cautious", "c1",
                        literal));
  }
  for (size_t i = 13; i < w.cycle_ops; ++i) {
    out.push_back(Query(prov, 1, OpKind::kExplain, "explain", "c",
                        "p" + std::to_string(Pick(rng, kChainDepth + 1))));
  }
}

// Splits generator text ("component c { ... }" blocks and "order a < b."
// lines) into one bulk-load batch: modules, then isa links, then facts
// and rules in text order.
std::vector<WireOp> LoadOpsFromText(const std::string& text) {
  std::vector<WireOp> modules, isa, rules;
  std::set<std::string> declared;
  size_t pos = 0;
  auto add_module = [&](const std::string& m) {
    if (declared.insert(m).second) modules.push_back({"add_module", m, ""});
  };
  while (pos < text.size()) {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
    if (pos >= text.size()) break;
    if (text.compare(pos, 10, "component ") == 0) {
      const size_t open = text.find('{', pos);
      const std::string module = Trim(text.substr(pos + 10, open - pos - 10));
      add_module(module);
      const size_t close = text.find('}', open);
      const std::string block = text.substr(open + 1, close - open - 1);
      // A statement ends at a '.' followed by whitespace or the block end.
      size_t start = 0;
      for (size_t i = 0; i < block.size(); ++i) {
        if (block[i] != '.') continue;
        if (i + 1 < block.size() &&
            !std::isspace(static_cast<unsigned char>(block[i + 1]))) {
          continue;
        }
        const std::string stmt = Trim(block.substr(start, i - start));
        if (stmt.find(":-") != std::string::npos) {
          rules.push_back({"add_rule", module, stmt + "."});
        } else {
          rules.push_back({"add_fact", module, stmt});
        }
        start = i + 1;
      }
      pos = close + 1;
    } else if (text.compare(pos, 6, "order ") == 0) {
      const size_t dot = text.find('.', pos);
      const std::string order = text.substr(pos + 6, dot - pos - 6);
      const size_t lt = order.find('<');
      const std::string lower = Trim(order.substr(0, lt));
      const std::string higher = Trim(order.substr(lt + 1));
      add_module(lower);
      add_module(higher);
      isa.push_back({"add_isa", lower, higher});
      pos = dot + 1;
    } else {
      // Bare rules outside any component are not produced by the
      // generators this benchmark uses.
      return {};
    }
  }
  std::vector<WireOp> out = std::move(modules);
  out.insert(out.end(), isa.begin(), isa.end());
  out.insert(out.end(), rules.begin(), rules.end());
  return out;
}

Program MakeProgram(std::string name, std::string text,
                    const std::vector<WireOp>& extra = {}) {
  Program program;
  program.name = std::move(name);
  program.text = std::move(text);
  program.load = LoadOpsFromText(program.text);
  program.load.insert(program.load.end(), extra.begin(), extra.end());
  return program;
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kRead: return "read";
    case OpKind::kReadAfterAssert: return "read_after_assert";
    case OpKind::kReadAfterRetract: return "read_after_retract";
    case OpKind::kAssert: return "assert";
    case OpKind::kRetract: return "retract";
    case OpKind::kStable: return "stable";
    case OpKind::kExplain: return "explain";
  }
  return "?";
}

bool MakeWorkload(const std::string& name, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "tenants_read") {
    w.programs.push_back(MakeProgram(
        "access_control_20_30",
        ordlog_bench::AccessControl(kAccessUsers, kAccessResources)));
    for (int t = 0; t < kAccessTenants; ++t) {
      w.tenants.push_back({"t" + std::to_string(t), 0});
    }
    w.cycle_ops = 100;
    w.cycles_per_second = 300;
    w.warmup_cycles = 400;
  } else if (name == "grid_churn") {
    w.programs.push_back(
        MakeProgram("loan_grid_1024", ordlog_bench::LoanGrid(kGridSize)));
    w.tenants.push_back({"grid", 0});
    w.cycle_ops = 20;
    w.cycles_per_second = 80;
    w.warmup_cycles = 120;
  } else if (name == "stable_explain") {
    // Example5Gadgets(8) plus e_j :- d_j. in c1 over facts d_j in c2.
    std::vector<WireOp> extra;
    for (int j = 0; j < kChoiceFacts; ++j) {
      const std::string d = "d" + std::to_string(j);
      extra.push_back({"add_rule", "c1", "e" + std::to_string(j) + " :- " + d + "."});
      extra.push_back({"add_fact", "c2", d});
    }
    w.programs.push_back(MakeProgram(
        "example5_gadgets_8", ordlog_bench::Example5Gadgets(kGadgets), extra));
    w.programs.push_back(
        MakeProgram("chain_200", ordlog_bench::Chain(kChainDepth)));
    w.tenants.push_back({"choice", 0});
    w.tenants.push_back({"prov", 1});
    w.cycle_ops = 21;
    w.cycles_per_second = 18;
    w.warmup_cycles = 30;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

std::vector<Op> GenerateOps(const Workload& w, uint64_t seed, size_t cycles) {
  std::mt19937_64 rng(seed);
  std::vector<Op> ops;
  ops.reserve(cycles * w.cycle_ops);
  if (w.name == "tenants_read") {
    std::vector<std::string> state(w.tenants.size());
    int pending = -1;
    int stable_countdown = kAccessStableEvery - 1;
    for (size_t c = 0; c < cycles; ++c) {
      TenantsReadCycle(w, rng, state, pending, stable_countdown, ops);
    }
  } else if (w.name == "grid_churn") {
    std::vector<int> pool;
    for (int i = 1; i <= 4; ++i) pool.push_back(kGridSize - i);
    std::set<int> seen(pool.begin(), pool.end());
    while (pool.size() < static_cast<size_t>(kGridTogglePool)) {
      const int i = static_cast<int>(Pick(rng, kGridSize - 4));
      if (seen.insert(i).second) pool.push_back(i);
    }
    for (size_t c = 0; c < cycles; ++c) GridChurnCycle(w, pool, rng, ops);
  } else {
    for (size_t c = 0; c < cycles; ++c) StableExplainCycle(w, rng, ops);
  }
  return ops;
}

std::string MutateBody(const std::vector<WireOp>& ops) {
  std::string body = "{\"ops\":[";
  for (size_t i = 0; i < ops.size(); ++i) {
    if (i > 0) body += ',';
    body += "{\"op\":" + Quote(ops[i].op) + ",\"module\":" +
            Quote(ops[i].module);
    if (!ops[i].text.empty()) body += ",\"text\":" + Quote(ops[i].text);
    body += '}';
  }
  body += "]}";
  return body;
}

uint64_t TextDigest(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace kbbench
