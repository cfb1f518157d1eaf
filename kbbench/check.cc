#include "check.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <string_view>

#include "core/interpretation.h"
#include "kb/mutation.h"
#include "server/json_value.h"

namespace kbbench {

using ordlog::JsonValue;
using ordlog::KnowledgeBase;
using ordlog::Status;
using ordlog::StatusOr;

namespace {

std::string NoSpaces(std::string s) {
  s.erase(std::remove(s.begin(), s.end(), ' '), s.end());
  return s;
}

// A JSON syntax check without a depth cap: an explanation nests two
// levels per derivation step, past JsonValue's 64-level limit.
class JsonSyntax {
 public:
  explicit JsonSyntax(std::string_view text) : s_(text) {}

  bool Valid() {
    Space();
    if (!Value()) return false;
    Space();
    return i_ == s_.size();
  }

 private:
  bool Value() {
    if (i_ >= s_.size()) return false;
    switch (s_[i_]) {
      case '{': return Container('}', /*object=*/true);
      case '[': return Container(']', /*object=*/false);
      case '"': return String();
      case 't': return Word("true");
      case 'f': return Word("false");
      case 'n': return Word("null");
      default: return Number();
    }
  }
  bool Container(char close, bool object) {
    ++i_;
    Space();
    if (Peek(close)) return ++i_, true;
    for (;;) {
      if (object) {
        if (!Peek('"') || !String()) return false;
        Space();
        if (!Peek(':')) return false;
        ++i_;
        Space();
      }
      if (!Value()) return false;
      Space();
      if (Peek(',')) {
        ++i_;
        Space();
      } else if (Peek(close)) {
        return ++i_, true;
      } else {
        return false;
      }
    }
  }
  bool String() {
    ++i_;
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\' && i_++ >= s_.size()) return false;
    }
    return false;
  }
  bool Word(std::string_view word) {
    if (s_.substr(i_, word.size()) != word) return false;
    i_ += word.size();
    return true;
  }
  bool Number() {
    const size_t start = i_;
    while (i_ < s_.size() && std::strchr("+-.0123456789eE", s_[i_]) != nullptr) {
      ++i_;
    }
    return i_ > start;
  }
  bool Peek(char c) const { return i_ < s_.size() && s_[i_] == c; }
  void Space() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }

  std::string_view s_;
  size_t i_ = 0;
};

// The string value of the first `"key":"..."` at or after `from`.
std::string StringField(const std::string& body, size_t from,
                        const std::string& key) {
  const std::string marker = "\"" + key + "\":\"";
  const size_t at = body.find(marker, from);
  if (at == std::string::npos) return "";
  const size_t start = at + marker.size();
  const size_t end = body.find('"', start);
  return end == std::string::npos ? "" : body.substr(start, end - start);
}

// The module of the fact `fact` in `program`'s bulk load, or "".
std::string FactModule(const Program& program, const std::string& fact) {
  for (const WireOp& op : program.load) {
    if (op.op == "add_fact" && op.text == fact) return op.module;
  }
  return "";
}

}  // namespace

Status LoadProgram(const Program& program, KnowledgeBase& kb) {
  ordlog::Mutation batch;
  for (const WireOp& op : program.load) {
    if (op.op == "add_module") {
      ORDLOG_RETURN_IF_ERROR(kb.AddModule(op.module));
    } else if (op.op == "add_isa") {
      ORDLOG_RETURN_IF_ERROR(kb.AddIsa(op.module, op.text));
    } else if (op.op == "add_fact") {
      batch.AddFact(op.module, op.text);
    } else {
      batch.AddRule(op.module, op.text);
    }
  }
  return kb.Apply(batch).status();
}

StatusOr<KnowledgeBase*> AnswerCheck::KbFor(int program,
                                            const std::string& state) {
  const std::string key = std::to_string(program) + "|" + state;
  auto it = kbs_.find(key);
  if (it != kbs_.end()) return it->second.get();
  auto kb = std::make_unique<KnowledgeBase>();
  const Program& p = workload_.programs[program];
  ORDLOG_RETURN_IF_ERROR(LoadProgram(p, *kb));
  if (!state.empty()) {
    ordlog::Mutation retract;
    retract.RetractFact(FactModule(p, state), state);
    ORDLOG_RETURN_IF_ERROR(kb->Apply(retract).status());
  }
  KnowledgeBase* raw = kb.get();
  kbs_.emplace(key, std::move(kb));
  return raw;
}

StatusOr<std::string> AnswerCheck::Expected(const Op& op) {
  const int program = workload_.tenants[op.tenant].program;
  const std::string key = std::to_string(program) + "|" + op.state + "|" +
                          op.mode + "|" + op.module + "|" + op.literal;
  auto it = expected_.find(key);
  if (it != expected_.end()) return it->second;
  ORDLOG_ASSIGN_OR_RETURN(KnowledgeBase * kb, KbFor(program, op.state));
  std::string answer;
  if (op.mode == "skeptical" || op.mode == "explain") {
    ORDLOG_ASSIGN_OR_RETURN(const ordlog::TruthValue truth,
                            kb->Query(op.module, op.literal));
    answer = ordlog::TruthValueToString(truth);
  } else if (op.mode == "brave") {
    ORDLOG_ASSIGN_OR_RETURN(const bool holds,
                            kb->BravelyHolds(op.module, op.literal));
    answer = holds ? "true" : "false";
  } else if (op.mode == "cautious") {
    ORDLOG_ASSIGN_OR_RETURN(const bool holds,
                            kb->CautiouslyHolds(op.module, op.literal));
    answer = holds ? "true" : "false";
  } else if (op.mode == "count_models") {
    ORDLOG_ASSIGN_OR_RETURN(const size_t count,
                            kb->CountStableModels(op.module));
    answer = std::to_string(count);
  }
  expected_.emplace(key, answer);
  return answer;
}

std::string AnswerCheck::Check(const Op& op, const Response& response) {
  if (response.code != 200) {
    return "HTTP " + std::to_string(response.code) + ": " + response.body;
  }
  StatusOr<std::string> expected = std::string();
  std::string got;
  if (op.mode == "explain") {
    // The body must parse and the explanation must name the literal asked
    // about; its truth must be the least model's. The explanation's own
    // "query" and "truth" precede its nested derivation.
    if (!JsonSyntax(response.body).Valid()) {
      return "unparsable body: " + response.body.substr(0, 200);
    }
    const size_t at = response.body.find("\"explanation\":{");
    if (at == std::string::npos ||
        NoSpaces(StringField(response.body, at, "query")) !=
            NoSpaces(op.literal)) {
      return "explanation does not name " + op.literal + ": " +
             response.body.substr(0, 200);
    }
    got = StringField(response.body, at, "truth");
    expected = Expected(op);
  } else {
    StatusOr<JsonValue> body = JsonValue::Parse(response.body);
    if (!body.ok() || !body->is_object()) {
      return "unparsable body: " + response.body;
    }
    if (op.mode == "mutate") {
      const JsonValue* revision = body->Find("revision");
      return revision != nullptr && revision->is_number()
                 ? ""
                 : "mutation without a revision: " + response.body;
    }
    expected = Expected(op);
    if (op.mode == "skeptical") {
      const JsonValue* truth = body->Find("truth");
      if (truth != nullptr && truth->is_string()) got = truth->string_value();
    } else if (op.mode == "brave" || op.mode == "cautious") {
      const JsonValue* holds = body->Find("holds");
      if (holds != nullptr && holds->is_bool()) {
        got = holds->bool_value() ? "true" : "false";
      }
    } else if (op.mode == "count_models") {
      const JsonValue* count = body->Find("model_count");
      if (count != nullptr && count->is_number()) {
        got = std::to_string(static_cast<long long>(count->number_value()));
      }
    }
  }
  if (!expected.ok()) {
    return "no expected answer: " + expected.status().ToString();
  }
  if (got != *expected) {
    return op.mode + " " + op.module + " " + op.literal + " (without '" +
           op.state + "'): want " + *expected + ", got " +
           response.body.substr(0, 200);
  }
  return "";
}

}  // namespace kbbench
