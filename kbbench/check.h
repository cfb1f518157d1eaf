#ifndef KBBENCH_CHECK_H_
#define KBBENCH_CHECK_H_

// Expected answers from an in-process KnowledgeBase fed the same programs
// and mutations the server saw. Answers are computed once per (program,
// tenant state, query) and compared after the timed phase.

#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "kb/knowledge_base.h"
#include "wire.h"
#include "workload.h"

namespace kbbench {

// Builds a KnowledgeBase holding `program`, loaded with the same grouping
// the server applies (modules and isa links one at a time, then one batch
// of facts and rules).
ordlog::Status LoadProgram(const Program& program, ordlog::KnowledgeBase& kb);

class AnswerCheck {
 public:
  explicit AnswerCheck(const Workload& workload) : workload_(workload) {}

  // "" when `response` is the right answer to `op`, else what is wrong.
  std::string Check(const Op& op, const Response& response);

 private:
  ordlog::StatusOr<ordlog::KnowledgeBase*> KbFor(int program,
                                                 const std::string& state);
  ordlog::StatusOr<std::string> Expected(const Op& op);

  const Workload& workload_;
  std::map<std::string, std::unique_ptr<ordlog::KnowledgeBase>> kbs_;
  std::unordered_map<std::string, std::string> expected_;
};

}  // namespace kbbench

#endif  // KBBENCH_CHECK_H_
