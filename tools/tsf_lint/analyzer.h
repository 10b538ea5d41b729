// tsf_lint's analysis core: function/annotation/call extraction over the
// lexed token streams, the three rule families, and the phase-order call
// graph. See src/common/annotations.h for the contract each marker states
// and FORBIDDEN_BEHAVIOR_CATALOG.md for the rule <-> runtime-checker map.
//
// Rules (finding names are stable — the mutation suite asserts on them):
//   rt-alloc            heap traffic in TSF_REALTIME / TSF_NO_ALLOC code
//                       (or an unannotated direct callee)
//   rt-block            locks / sleeps / blocking waits in TSF_REALTIME
//   rt-io               stdio / iostream / file IO in TSF_REALTIME
//   rt-throw            `throw` in TSF_REALTIME
//   det-random          ambient randomness in TSF_DETERMINISM_CRITICAL
//   det-clock           wall clocks in TSF_DETERMINISM_CRITICAL
//   det-unordered-iter  range-for over an unordered container in
//                       TSF_DETERMINISM_CRITICAL
//   phase-order         a TSF_BARRIER_ONLY function reachable from
//                       TSF_WORKER_PHASE code (call graph walk; reviewed
//                       exceptions live in the allowlist file)
//   allow-missing-justification / allow-unknown-rule
//                       malformed TSF_LINT_ALLOW suppressions
//   allow-unused        an allowlist entry that waived no phase-order edge
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "tsf_lint/lexer.h"

namespace tsf::lint {

// Annotation bit set, keyed by the literal marker tokens.
enum Annotation : unsigned {
  kRealtime = 1u << 0,
  kNoAlloc = 1u << 1,
  kDeterminismCritical = 1u << 2,
  kBarrierOnly = 1u << 3,
  kWorkerPhase = 1u << 4,
};

struct Call {
  std::string name;       // simple name at the call site
  std::string qualifier;  // "Class" when written Class::name(...)
  // For `a.b->f(...)`: {"a", "b"}, outermost first. Resolution walks the
  // chain through recorded member-variable types; a chain that starts at an
  // untyped name (a local, a temporary) leaves the call unresolved rather
  // than guessing by simple name.
  std::vector<std::string> receiver_chain;
  bool member_call = false;  // written with '.' or '->'
  int line = 0;
};

struct FunctionInfo {
  std::string qualified;  // "Class::name" (or "name" at namespace scope)
  std::string simple;
  std::size_t file_index = 0;
  int line = 0;
  unsigned annotations = 0;  // merged across declarations + definition
  bool has_body = false;
  std::size_t body_begin = 0;  // token indices into the owning file
  std::size_t body_end = 0;
  std::vector<Call> calls;
};

struct Finding {
  std::string file;
  int line = 0;
  std::string rule;
  std::string function;  // qualified name of the contract holder
  std::string message;
};

// One reviewed `from -> to` exception for phase-order: the reachability
// finding is suppressed when `from` names the worker-phase root or the
// immediate caller of the barrier-only target, and `to` names the target.
struct AllowEdge {
  std::string from;
  std::string to;
  std::string note;
  int line = 0;  // in the allowlist file
};

class Analyzer {
 public:
  // Lexes nothing itself: feed lex() results in any order, then run().
  void add_file(LexedFile file);
  // `path` names the allowlist file in allow-unused findings.
  void set_allowlist(std::string path, std::vector<AllowEdge> allow) {
    allowlist_path_ = std::move(path);
    allowlist_ = std::move(allow);
  }

  // Runs every rule pass; idempotent state is not kept — call once.
  std::vector<Finding> run();

  // Populated by run().
  const std::vector<FunctionInfo>& functions() const { return functions_; }
  const std::vector<LexedFile>& files() const { return files_; }
  std::size_t annotated_count() const { return annotated_count_; }

 private:
  void extract(std::size_t file_index);
  void merge_annotations();
  void check_suppression_comments(std::vector<Finding>* findings) const;
  void check_rt_rules(std::vector<Finding>* findings) const;
  void check_det_rules(std::vector<Finding>* findings) const;
  void check_phase_order(std::vector<Finding>* findings) const;
  void apply_suppressions(std::vector<Finding>* findings) const;
  // Resolution is receiver-aware: member calls are followed through the
  // member-type map starting from `caller`'s class; plain calls prefer a
  // method of the caller's own class, then fall back to the unique global
  // simple-name match (free functions, inherited members).
  std::vector<std::size_t> resolve(const Call& call,
                                   const FunctionInfo& caller) const;

  std::vector<LexedFile> files_;
  // Per-file set of identifiers declared with an unordered container type.
  std::vector<std::vector<std::string>> unordered_names_;
  // class simple name -> member name -> member type's simple name, as
  // declared in the class body ("server_" -> "TaskServer"). Pointer /
  // reference / template arguments are stripped; std:: types resolve to
  // names no in-tree class has, which correctly dead-ends the chain.
  std::map<std::string, std::map<std::string, std::string>> member_types_;
  std::vector<FunctionInfo> functions_;
  std::string allowlist_path_;
  std::vector<AllowEdge> allowlist_;
  std::size_t annotated_count_ = 0;
};

// Parses an allowlist file (`from -> to  # note` lines, '#' comments).
// Returns false and sets `error` on a malformed line.
bool parse_allowlist(std::string_view text, std::vector<AllowEdge>* out,
                     std::string* error);

}  // namespace tsf::lint
