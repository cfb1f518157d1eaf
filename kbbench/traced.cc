#include "traced.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "check.h"
#include "core/stable_solver.h"
#include "eval/evaluator.h"
#include "kb/derivation.h"
#include "kb/knowledge_base.h"
#include "obs/http_server.h"
#include "parser/parser.h"
#include "runtime/query_engine.h"
#include "server/json_value.h"
#include "server/kb_registry.h"
#include "server/kb_server.h"
#include "server/storage.h"
#include "server/wal.h"

namespace kbbench {

namespace {

using Clock = std::chrono::steady_clock;
using ordlog::ComponentId;
using ordlog::KnowledgeBase;

// At most this many reads get an eval.view probe, and at most this many
// ops have their spans written to the span file.
constexpr size_t kViewProbes = 2000;
constexpr size_t kWrittenOps = 20000;
// TenantStorage::Snapshot and ::Open samples.
constexpr size_t kRotations = 8;
constexpr int kRecoveries = 3;

// The spans the benchmark records around each layer's public entry point,
// with the span that contains them. eval.view has no parent: it times
// what a cache miss on the read's view would cost, work the read itself
// does not do, so it stays out of the self-time tree.
enum SpanName : int {
  kRoundTrip = 0,    // obs: socket round trip to kbserver
  kHandle,           // server: KbServer::Handle on the in-process mirror
  kDecode,           // server: JsonValue::Parse of the body
  kWalAppend,        // server: TenantStorage::LogRecord
  kExecute,          // runtime: QueryEngine::Execute / ApplyMutation
  kParseLiteral,     // parser: ParseLiteral
  kGroundFull,       // ground: KnowledgeBase::ground() after a retract
  kGroundCopy,       // ground: GroundProgram copy (every new snapshot)
  kEvalCold,         // eval: LeastModelEvaluator::Compute, first query
  kEvalView,         // eval: the same on a read's view (probe)
  kSearch,           // core: StableModelSolver::StableModels
  kExplainBuild,     // kb: DerivationBuilder + ToJson
  kNumSpans,
};
constexpr const char* kSpanNames[kNumSpans] = {
    "obs.round_trip", "server.handle",  "server.decode", "server.wal_append",
    "runtime.execute", "parser.literal", "ground.full",  "ground.copy",
    "eval.cold",      "eval.view",      "core.search",   "kb.explain"};
constexpr int kSpanParent[kNumSpans] = {-1,       kRoundTrip, kHandle,
                                        kHandle,  kHandle,    kExecute,
                                        kExecute, kExecute,   kExecute,
                                        -1,       kExecute,   kExecute};
// The module each span belongs to, for the self-time shares.
constexpr const char* kSpanLayer[kNumSpans] = {
    "obs",    "server", "server", "server", "runtime", "parser",
    "ground", "ground", "eval",   "eval",   "core",    "kb"};

struct Span {
  uint32_t op = 0;
  int name = 0;
  double start_us = 0;
  double dur_us = 0;
};

// Spans kept in memory, written at exit.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  // Times `fn` as span `name` of op `op` and returns its result.
  template <typename Fn>
  auto Time(uint32_t op, int name, Fn&& fn) {
    const auto start = Clock::now();
    auto result = fn();
    Record(op, name, start);
    return result;
  }

  const std::vector<Span>& spans() const { return spans_; }

  void Write(const std::string& path, const std::vector<Op>& ops,
             size_t stride) const {
    std::ofstream out(path);
    out << "op\tkind\tspan\tparent\tstart_us\tdur_us\n";
    for (const Span& s : spans_) {
      if (s.op % stride != 0) continue;
      out << s.op << '\t' << OpKindName(ops[s.op].kind) << '\t'
          << kSpanNames[s.name] << '\t'
          << (kSpanParent[s.name] < 0 ? "-" : kSpanNames[kSpanParent[s.name]])
          << '\t' << s.start_us << '\t' << s.dur_us << '\n';
    }
  }

 private:
  void Record(uint32_t op, int name, Clock::time_point start) {
    const auto end = Clock::now();
    spans_.push_back(
        Span{op, name,
             std::chrono::duration<double, std::micro>(start - origin_).count(),
             std::chrono::duration<double, std::micro>(end - start).count()});
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

ordlog::HttpRequest MirrorRequest(const std::string& path,
                                  const std::string& body) {
  ordlog::HttpRequest request;
  request.method = "POST";
  request.path = path;
  request.body = body;
  return request;
}

ordlog::QueryMode ModeFor(const std::string& mode) {
  if (mode == "brave") return ordlog::QueryMode::kBrave;
  if (mode == "cautious") return ordlog::QueryMode::kCautious;
  if (mode == "count_models") return ordlog::QueryMode::kCountModels;
  return ordlog::QueryMode::kSkeptical;
}

ordlog::Mutation MutationFor(const Op& op) {
  ordlog::Mutation mutation;
  if (op.kind == OpKind::kRetract) {
    mutation.RetractFact(op.module, op.literal);
  } else {
    mutation.AddFact(op.module, op.literal);
  }
  return mutation;
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// The in-process replicas the traced pass times layers on. They see the
// same ops as kbserver, in the same order.
class Mirrors {
 public:
  Mirrors(const Workload& workload, const std::string& dir)
      : workload_(workload), dir_(dir), server_(ServerOptions(dir + "/server")),
        registry_(ordlog::KbRegistryOptions{}) {}

  bool Load(std::string* error) {
    for (const TenantSpec& tenant : workload_.tenants) {
      const Program& program = workload_.programs[tenant.program];
      // A: the KB server, through its wire handler.
      const ordlog::HttpResponse created = server_.Handle(MirrorRequest(
          "/v1/admin/create", "{\"tenant\":\"" + tenant.name + "\"}"));
      const ordlog::HttpResponse loaded = server_.Handle(MirrorRequest(
          "/v1/" + tenant.name + "/mutate", MutateBody(program.load)));
      if (created.code != 200 || loaded.code != 200) {
        *error = "mirror server: " + created.body + loaded.body;
        return false;
      }
      // B: a tenant engine built by the registry the server uses.
      ordlog::Status status = registry_.Create(tenant.name);
      if (status.ok()) {
        auto lease = registry_.Acquire(tenant.name);
        status = lease.ok() ? (*lease)->engine->Mutate([&](KnowledgeBase& kb) {
          return LoadProgram(program, kb);
        })
                            : lease.status();
      }
      // C: a bare KnowledgeBase for the ground/eval/core/kb calls.
      kbs_.push_back(std::make_unique<KnowledgeBase>());
      if (status.ok()) status = LoadProgram(program, *kbs_.back());
      // The WAL the benchmark appends to itself.
      wal_kbs_.push_back(std::make_unique<KnowledgeBase>());
      wals_.push_back(std::make_unique<ordlog::TenantStorage>());
      ordlog::TenantStorageOptions wal_options;
      wal_options.dir = dir_ + "/wal/" + tenant.name;
      ordlog::RecoveryInfo info;
      if (status.ok()) {
        status = wals_.back()->Open(wal_options, *wal_kbs_.back(), &info);
      }
      if (!status.ok()) {
        *error = "mirror " + tenant.name + ": " + status.ToString();
        return false;
      }
    }
    least_.resize(workload_.tenants.size());
    dirty_.assign(workload_.tenants.size(), true);
    retracted_.assign(workload_.tenants.size(), false);
    return true;
  }

  // Replays `op` on every mirror; with `log` non-null, each layer call is
  // a span of op `index`.
  void Replay(const Op& op, uint32_t index, SpanLog* log, bool view_probe) {
    auto time = [&](int name, auto&& fn) {
      if (log != nullptr) return log->Time(index, name, fn);
      return fn();
    };
    // A: decode + Handle (+ the benchmark's own WAL append).
    time(kDecode, [&] { return ordlog::JsonValue::Parse(op.body).ok(); });
    time(kHandle, [&] {
      return server_.Handle(MirrorRequest(op.path, op.body)).code;
    });
    const bool mutation = op.mode == "mutate";
    if (mutation) {
      const std::string payload = ordlog::EncodeOps({ordlog::ServerOp{
          op.kind == OpKind::kRetract ? ordlog::ServerOp::Kind::kRetractFact
                                      : ordlog::ServerOp::Kind::kAddFact,
          op.module, op.literal}});
      if (log != nullptr) wal_bytes_.push_back(static_cast<double>(payload.size()));
      time(kWalAppend, [&] { return wals_[op.tenant]->LogRecord(payload).ok(); });
    }
    // B: the tenant engine.
    auto lease = registry_.Acquire(workload_.tenants[op.tenant].name);
    if (!lease.ok()) return;
    ordlog::QueryEngine& engine = *(*lease)->engine;
    if (mutation) {
      time(kExecute,
           [&] { return engine.ApplyMutation(MutationFor(op)).ok(); });
    } else {
      ordlog::QueryRequest request;
      request.module = op.module;
      request.literal = op.literal;
      request.mode = ModeFor(op.mode);
      request.explain = op.mode == "explain";
      time(kExecute, [&] { return engine.Execute(std::move(request)).ok(); });
    }
    // C: the layers below the engine.
    KnowledgeBase& kb = *kbs_[op.tenant];
    if (mutation) {
      auto report = kb.Apply(MutationFor(op));
      if (report.ok() && log != nullptr) {
        ++mutations_;
        if (report->incremental) ++incremental_;
        if (op.kind == OpKind::kAssert) {
          delta_rules_.push_back(static_cast<double>(report->delta_rules));
        }
      }
      dirty_[op.tenant] = true;
      retracted_[op.tenant] = op.kind == OpKind::kRetract;
      MaybeRotate(op.tenant);
      return;
    }
    if (op.mode != "count_models") {
      time(kParseLiteral, [&] {
        return ordlog::ParseLiteral(op.literal, *kb.shared_pool()).ok();
      });
    }
    const auto view = kb.program().FindComponent(op.module);
    if (!view.ok()) return;
    const ordlog::GroundProgram* ground = nullptr;
    if (dirty_[op.tenant] && retracted_[op.tenant] && log != nullptr) {
      ordlog::GroundStats stats;
      auto grounded = log->Time(index, kGroundFull,
                                [&] { return kb.ground(nullptr, &stats); });
      if (!grounded.ok()) return;
      ground = *grounded;
      ground_rules_.push_back(static_cast<double>(stats.rules_emitted));
      index_probes_.push_back(static_cast<double>(stats.index_probes));
    } else {
      auto grounded = kb.ground();
      if (!grounded.ok()) return;
      ground = *grounded;
    }
    if (dirty_[op.tenant]) {
      // The first query after a mutation pays for the new snapshot: the
      // ground program copy and a cold least model of its view.
      time(kGroundCopy, [&] {
        ordlog::GroundProgram copy(*ground);
        return copy.NumAtoms();
      });
      least_[op.tenant].clear();
      dirty_[op.tenant] = false;
      LeastModel(op.tenant, *view, *ground, log, index, kEvalCold);
    } else if (view_probe && op.kind == OpKind::kRead && log != nullptr) {
      ordlog::LeastModelEvaluator evaluator(kb.families().get(), *ground,
                                            *view, kb.eval_options());
      log->Time(index, kEvalView, [&] { return evaluator.Compute().NumAssigned(); });
    }
    if (op.kind != OpKind::kStable && op.kind != OpKind::kExplain) return;
    const ordlog::Interpretation* least =
        LeastModel(op.tenant, *view, *ground, nullptr, index, kEvalCold);
    if (op.kind == OpKind::kStable) {
      ordlog::StableModelSolver solver(*ground, *view, *least,
                                       ordlog::StableSolverOptions{});
      ordlog::StableSolverStats stats;
      auto models = time(kSearch, [&] { return solver.StableModels(&stats); });
      if (models.ok() && log != nullptr) {
        search_nodes_.push_back(static_cast<double>(stats.nodes));
        models_ += models->size();
      }
    } else if (op.kind == OpKind::kExplain) {
      auto literal = ordlog::ParseLiteral(op.literal, *kb.shared_pool());
      if (!literal.ok()) return;
      const auto atom = ground->FindAtom(literal->atom);
      if (!atom.has_value()) return;
      const size_t bytes = time(kExplainBuild, [&] {
        ordlog::DerivationBuilder builder(*ground, *view, *least);
        return builder.ToJson(ordlog::GroundLiteral{*atom, literal->positive})
            .size();
      });
      if (log != nullptr) explain_bytes_.push_back(static_cast<double>(bytes));
    }
  }

  // Times TenantStorage::Open on fresh copies of kbserver's directory for
  // the first tenant.
  std::vector<double> TimeRecovery(const std::string& tenant_dir) {
    std::vector<double> ms;
    for (int i = 0; i < kRecoveries; ++i) {
      const std::string copy = dir_ + "/recover-" + std::to_string(i);
      std::error_code ec;
      std::filesystem::copy(tenant_dir, copy,
                            std::filesystem::copy_options::recursive, ec);
      if (ec) continue;
      KnowledgeBase kb;
      ordlog::TenantStorage storage;
      ordlog::TenantStorageOptions options;
      options.dir = copy;
      ordlog::RecoveryInfo info;
      const auto start = Clock::now();
      const bool ok = storage.Open(options, kb, &info).ok();
      const double elapsed =
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count();
      storage.Close();
      if (ok) ms.push_back(elapsed);
    }
    return ms;
  }

  void SetRotationStride(size_t stride) { rotation_stride_ = stride; }

  void Stop() { server_.Stop(); }

  // What the traced pass measured besides span durations.
  std::vector<double> wal_bytes_, rotate_ms_, delta_rules_, ground_rules_,
      index_probes_, eval_rounds_, eval_delta_tuples_, search_nodes_,
      explain_bytes_;
  uint64_t mutations_ = 0, incremental_ = 0, models_ = 0;

 private:
  static ordlog::KbServerOptions ServerOptions(const std::string& data_dir) {
    ordlog::KbServerOptions options;
    options.registry.data_dir = data_dir;
    return options;
  }

  const ordlog::Interpretation* LeastModel(int tenant, ComponentId view,
                                           const ordlog::GroundProgram& ground,
                                           SpanLog* log, uint32_t index,
                                           int span) {
    auto it = least_[tenant].find(view);
    if (it != least_[tenant].end()) return &it->second;
    KnowledgeBase& kb = *kbs_[tenant];
    ordlog::LeastModelEvaluator evaluator(kb.families().get(), ground, view,
                                          kb.eval_options());
    ordlog::Interpretation model =
        log != nullptr ? log->Time(index, span, [&] { return evaluator.Compute(); })
                       : evaluator.Compute();
    if (log != nullptr) {
      const auto stats = evaluator.last_stats();
      eval_rounds_.push_back(static_cast<double>(stats.rounds));
      eval_delta_tuples_.push_back(static_cast<double>(stats.delta_tuples));
    }
    return &least_[tenant].emplace(view, std::move(model)).first->second;
  }

  // Every `rotation_stride_`-th mutation also times a WAL rotation
  // (TenantStorage::Snapshot of the tenant's KB).
  void MaybeRotate(int tenant) {
    if (rotation_stride_ == 0 || mutations_ % rotation_stride_ != 0 ||
        rotate_ms_.size() >= kRotations) {
      return;
    }
    const auto start = Clock::now();
    if (wals_[tenant]->Snapshot(*kbs_[tenant]).ok()) {
      rotate_ms_.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - start)
              .count());
    }
  }

  const Workload& workload_;
  std::string dir_;
  ordlog::KbServer server_;
  ordlog::KbRegistry registry_;
  std::vector<std::unique_ptr<KnowledgeBase>> kbs_;
  std::vector<std::unique_ptr<KnowledgeBase>> wal_kbs_;
  std::vector<std::unique_ptr<ordlog::TenantStorage>> wals_;
  std::vector<std::map<ComponentId, ordlog::Interpretation>> least_;
  std::vector<bool> dirty_;
  std::vector<bool> retracted_;
  size_t rotation_stride_ = 0;
};

}  // namespace

bool RunTraced(const Workload& workload, const RunConfig& config,
               Outcome* outcome) {
  const size_t timed_cycles = TimedCycles(workload, config.seconds);
  const std::vector<Op> ops =
      GenerateOps(workload, config.seed, workload.warmup_cycles + timed_cycles);
  const size_t timed_begin = workload.warmup_cycles * workload.cycle_ops;
  const size_t timed_ops = ops.size() - timed_begin;
  std::printf("host probe %.3f ms, loadavg %s\n", HostProbeMs(),
              LoadAverage().c_str());

  const std::string dir = config.work_dir + "/trace-" + workload.name;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  ServerProcess server;
  double setup_seconds = 0;
  std::string error;
  const std::string data_dir = dir + "/kbserver";
  if (!SetUp(workload, config, data_dir, server, &setup_seconds, &error)) {
    std::fprintf(stderr, "kbbench: setup: %s\n", error.c_str());
    return false;
  }
  auto mirrors = std::make_unique<Mirrors>(workload, dir + "/mirror");
  if (!mirrors->Load(&error)) {
    std::fprintf(stderr, "kbbench: %s\n", error.c_str());
    return false;
  }

  // Warm-up on kbserver and the mirrors, then the timed ops once
  // untraced (the timed run's measurement) and once traced.
  HttpClient client(server.port());
  std::vector<OpResult> results;
  RunOps(client, ops, 0, timed_begin, results);
  for (size_t i = 0; i < timed_begin; ++i) {
    mirrors->Replay(ops[i], static_cast<uint32_t>(i), nullptr, false);
  }
  const uint64_t connections_before = client.connections();
  RunOps(client, ops, timed_begin, ops.size(), results);
  const uint64_t connections = client.connections() - connections_before;

  size_t reads = 0, mutations = 0;
  for (size_t i = timed_begin; i < ops.size(); ++i) {
    reads += ops[i].kind == OpKind::kRead;
    mutations += ops[i].mode == "mutate";
  }
  const size_t probe_stride = std::max<size_t>(1, reads / kViewProbes);
  mirrors->SetRotationStride(std::max<size_t>(1, mutations / kRotations));
  SpanLog log(Clock::now());
  size_t read_index = 0;
  for (size_t i = timed_begin; i < ops.size(); ++i) {
    const Op& op = ops[i];
    const uint32_t index = static_cast<uint32_t>(i);
    Response response = log.Time(index, kRoundTrip,
                                 [&] { return client.Post(op.path, op.body); });
    results.push_back(OpResult{0, std::move(response)});
    const bool probe =
        op.kind == OpKind::kRead && read_index++ % probe_stride == 0;
    mirrors->Replay(op, index, &log, probe);
  }
  const std::map<std::string, uint64_t> counts = ReadCounts(client, workload);
  client.Close();
  const bool clean_exit = server.Stop();
  const std::vector<double> recover_ms =
      mirrors->TimeRecovery(data_dir + "/" + workload.tenants[0].name);
  mirrors->Stop();

  // Correctness: every answer of all three passes.
  std::vector<Op> sent(ops.begin(), ops.end());
  sent.insert(sent.end(), ops.begin() + timed_begin, ops.end());
  outcome->attempted = results.size();
  outcome->failed = CountWrongAnswers(workload, sent, results);
  if (!clean_exit) ++outcome->failed;
  const std::string mismatch = CheckDeterminism(config, timed_cycles, counts);
  if (!mismatch.empty()) {
    std::fprintf(stderr, "kbbench: determinism: %s\n", mismatch.c_str());
    ++outcome->failed;
  }

  // Per-op span durations, and each op's self time per layer.
  struct OpSpans {
    double dur[kNumSpans];
    bool has[kNumSpans];
  };
  std::vector<OpSpans> per_op(timed_ops);
  for (OpSpans& s : per_op) {
    std::fill(std::begin(s.dur), std::end(s.dur), 0.0);
    std::fill(std::begin(s.has), std::end(s.has), false);
  }
  for (const Span& span : log.spans()) {
    OpSpans& s = per_op[span.op - timed_begin];
    s.dur[span.name] += span.dur_us;
    s.has[span.name] = true;
  }
  std::map<std::string, std::vector<double>> samples;  // metric -> values
  std::vector<double> untraced[kNumOpKinds], traced[kNumOpKinds];
  std::map<std::string, std::vector<double>> self[kNumOpKinds];
  size_t queries = 0, hits = 0;
  for (size_t j = 0; j < timed_ops; ++j) {
    const Op& op = ops[timed_begin + j];
    const int kind = static_cast<int>(op.kind);
    const OpSpans& s = per_op[j];
    untraced[kind].push_back(results[timed_begin + j].ms * 1000);
    traced[kind].push_back(s.dur[kRoundTrip]);
    if (op.mode != "mutate") {
      ++queries;
      hits += results[timed_begin + j].response.body.find(
                  "\"cache_hit\":true") != std::string::npos;
    }
    double child[kNumSpans] = {};
    for (int n = 0; n < kNumSpans; ++n) {
      if (s.has[n] && kSpanParent[n] >= 0) child[kSpanParent[n]] += s.dur[n];
    }
    std::map<std::string, double> layer_self;
    for (int n = 0; n < kNumSpans; ++n) {
      if (!s.has[n] || n == kEvalView) continue;
      layer_self[kSpanLayer[n]] += s.dur[n] - child[n];
    }
    for (const auto& [layer, us] : layer_self) self[kind][layer].push_back(us);
    const double http = s.dur[kRoundTrip] - s.dur[kHandle];
    samples[op.mode == "mutate" ? "obs.http_write" : "obs.http_read"]
        .push_back(http);
    if (op.kind == OpKind::kRead) {
      samples["server.handle_read"].push_back(s.dur[kHandle] -
                                              s.dur[kExecute]);
    }
    samples[std::string("runtime.") + OpKindName(op.kind)].push_back(
        s.dur[kExecute]);
    for (const int n : {kDecode, kWalAppend, kParseLiteral, kGroundFull,
                        kGroundCopy, kEvalCold, kEvalView, kSearch,
                        kExplainBuild}) {
      if (s.has[n]) samples[kSpanNames[n]].push_back(s.dur[n]);
    }
  }

  auto p50 = [&](const std::string& name) { return Median(samples[name]); };
  auto add = [&](const std::string& name, double value, const char* unit,
                 size_t n) {
    std::printf("%-40s %14.6f %-6s n=%zu\n", name.c_str(), value, unit, n);
    outcome->metrics.push_back({name, value, unit});
  };
  add("obs.http_read_p50_us", p50("obs.http_read"), "us",
      samples["obs.http_read"].size());
  add("obs.http_write_p50_us", p50("obs.http_write"), "us",
      samples["obs.http_write"].size());
  add("obs.reconnects_per_1k", 1000.0 * connections / timed_ops, "count",
      timed_ops);
  add("server.decode_p50_us", p50("server.decode"), "us",
      samples["server.decode"].size());
  add("server.handle_read_p50_us", p50("server.handle_read"), "us",
      samples["server.handle_read"].size());
  add("server.wal_append_p50_us", p50("server.wal_append"), "us",
      samples["server.wal_append"].size());
  add("server.wal_rotate_p50_ms", Median(mirrors->rotate_ms_), "ms",
      mirrors->rotate_ms_.size());
  add("server.wal_bytes_per_record", Mean(mirrors->wal_bytes_), "bytes",
      mirrors->wal_bytes_.size());
  add("server.recover_p50_ms", Median(recover_ms), "ms", recover_ms.size());
  for (int k = 0; k < kNumOpKinds; ++k) {
    const std::string name =
        std::string("runtime.") + OpKindName(static_cast<OpKind>(k));
    add(name + "_p50_us", p50(name), "us", samples[name].size());
  }
  add("runtime.cache_hit_ratio",
      queries == 0 ? 0 : static_cast<double>(hits) / queries, "ratio",
      queries);
  add("incremental.delta_share",
      mirrors->mutations_ == 0
          ? 0
          : static_cast<double>(mirrors->incremental_) / mirrors->mutations_,
      "ratio", mirrors->mutations_);
  add("incremental.delta_rules_per_assert", Mean(mirrors->delta_rules_),
      "count", mirrors->delta_rules_.size());
  add("ground.full_p50_ms", p50("ground.full") / 1000, "ms",
      samples["ground.full"].size());
  add("ground.copy_p50_us", p50("ground.copy"), "us",
      samples["ground.copy"].size());
  add("ground.rules", Mean(mirrors->ground_rules_), "count",
      mirrors->ground_rules_.size());
  add("ground.index_probes", Mean(mirrors->index_probes_), "count",
      mirrors->index_probes_.size());
  add("eval.cold_p50_us", p50("eval.cold"), "us", samples["eval.cold"].size());
  add("eval.view_p50_us", p50("eval.view"), "us", samples["eval.view"].size());
  add("eval.rounds", Mean(mirrors->eval_rounds_), "count",
      mirrors->eval_rounds_.size());
  add("eval.delta_tuples", Mean(mirrors->eval_delta_tuples_), "count",
      mirrors->eval_delta_tuples_.size());
  add("core.search_p50_ms", p50("core.search") / 1000, "ms",
      samples["core.search"].size());
  add("core.search_nodes", Mean(mirrors->search_nodes_), "count",
      mirrors->search_nodes_.size());
  double nodes = 0;
  for (const double n : mirrors->search_nodes_) nodes += n;
  add("core.models_per_node", nodes == 0 ? 0 : mirrors->models_ / nodes,
      "ratio", mirrors->search_nodes_.size());
  add("kb.explain_p50_us", p50("kb.explain"), "us",
      samples["kb.explain"].size());
  add("kb.explain_bytes", Mean(mirrors->explain_bytes_), "bytes",
      mirrors->explain_bytes_.size());
  add("parser.literal_p50_us", p50("parser.literal"), "us",
      samples["parser.literal"].size());
  // unattributed.<op>_share: 1 - (sum of the layers' self-time p50s / the
  // op's p50); trace.<op>_overhead: traced over untraced round-trip p50.
  for (int k = 0; k < kNumOpKinds; ++k) {
    const std::string op = OpKindName(static_cast<OpKind>(k));
    const double total = Median(traced[k]);
    double layers = 0;
    for (const auto& [layer, values] : self[k]) layers += Median(values);
    add("unattributed." + op + "_share", total == 0 ? 0 : 1 - layers / total,
        "ratio", traced[k].size());
  }
  for (int k = 0; k < kNumOpKinds; ++k) {
    const std::string op = OpKindName(static_cast<OpKind>(k));
    const double base = Median(untraced[k]);
    add("trace." + op + "_overhead",
        base == 0 ? 0 : Median(traced[k]) / base - 1, "ratio",
        traced[k].size());
  }

  log.Write(config.work_dir + "/spans-" + workload.name + "-seed" +
                std::to_string(config.seed) + ".tsv",
            ops, std::max<size_t>(1, timed_ops / kWrittenOps));
  mirrors.reset();
  std::filesystem::remove_all(dir, ec);
  return true;
}

}  // namespace kbbench
