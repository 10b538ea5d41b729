#include "cli/spec_file.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <set>
#include <sstream>
#include <vector>

namespace tsf::cli {

namespace {

using common::Duration;
using common::TimePoint;

std::string trim(const std::string& s) {
  const auto begin = s.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  const auto end = s.find_last_not_of(" \t\r");
  return s.substr(begin, end - begin + 1);
}

// Strips a trailing "# comment".
std::string strip_comment(const std::string& s) {
  const auto hash = s.find('#');
  return hash == std::string::npos ? s : s.substr(0, hash);
}

// Levenshtein distance, for close-typo detection on key names.
std::size_t edit_distance(const std::string& a, const std::string& b) {
  std::vector<std::size_t> row(b.size() + 1);
  for (std::size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (std::size_t i = 1; i <= a.size(); ++i) {
    std::size_t diag = row[0];
    row[0] = i;
    for (std::size_t j = 1; j <= b.size(); ++j) {
      const std::size_t subst = diag + (a[i - 1] == b[j - 1] ? 0 : 1);
      diag = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
    }
  }
  return row[b.size()];
}

// " — did you mean 'X'?" when a known key is within edit distance 2 of the
// typo ("overlaod" → "overload"), empty otherwise. Ties go to the first
// candidate listed.
std::string suggest(const std::string& key,
                    std::initializer_list<const char*> known) {
  const char* best = nullptr;
  std::size_t best_distance = 3;
  for (const char* candidate : known) {
    const std::size_t d = edit_distance(key, candidate);
    if (d < best_distance) {
      best_distance = d;
      best = candidate;
    }
  }
  return best == nullptr ? ""
                         : std::string(" -- did you mean '") + best + "'?";
}

struct Parser {
  ParseOutcome out;
  // current section
  enum class Section { kNone, kServer, kTask, kJob, kRun } section =
      Section::kNone;
  model::PeriodicTaskSpec* task = nullptr;
  model::AperiodicJobSpec* job = nullptr;
  bool saw_horizon = false;
  // Job names whose [job] section set an explicit release (a triggered job
  // must not have one — its release comes from a cross-core fire).
  std::set<std::string> jobs_with_release;

  void error(int line, const std::string& message) {
    out.errors.push_back("line " + std::to_string(line) + ": " + message);
  }

  bool parse_double(int line, const std::string& value, double* dst) {
    const std::string v = trim(value);
    const char* first = v.data();
    const char* last = v.data() + v.size();
    const auto result = std::from_chars(first, last, *dst);
    if (result.ec != std::errc{} || result.ptr != last) {
      error(line, "expected a number, got '" + v + "'");
      return false;
    }
    // from_chars accepts "nan" and "inf", which no key means.
    if (!std::isfinite(*dst)) {
      error(line, "expected a finite number, got '" + v + "'");
      return false;
    }
    return true;
  }

  bool parse_duration(int line, const std::string& value, Duration* dst) {
    double tu = 0.0;
    if (!parse_double(line, value, &tu)) return false;
    if (tu < 0.0) {
      error(line, "durations must be non-negative");
      return false;
    }
    // Duration::infinite() is the "never" sentinel; anything at or above it
    // would also overflow the tick arithmetic.
    if (tu * static_cast<double>(Duration::kTicksPerTimeUnit) >=
        static_cast<double>(Duration::infinite().count())) {
      error(line, "duration '" + trim(value) +
                      "' is too long (it must stay below 2^60 ticks)");
      return false;
    }
    *dst = Duration::from_tu(tu);
    return true;
  }

  bool parse_int(int line, const std::string& value, int* dst) {
    double x = 0.0;
    if (!parse_double(line, value, &x)) return false;
    if (x < std::numeric_limits<int>::min() ||
        x > std::numeric_limits<int>::max()) {
      error(line, "'" + trim(value) + "' is out of range for an integer");
      return false;
    }
    *dst = static_cast<int>(x);
    return true;
  }

  bool parse_bool(int line, const std::string& value, bool* dst) {
    if (value == "yes" || value == "true") {
      *dst = true;
      return true;
    }
    if (value == "no" || value == "false") {
      *dst = false;
      return true;
    }
    // A typo ('ture', '1') must not silently mean "no".
    error(line, "expected yes|no, got '" + value + "'");
    return false;
  }

  void open_section(int line, const std::string& header) {
    task = nullptr;
    job = nullptr;
    std::istringstream iss(header);
    std::string kind, name;
    iss >> kind;
    std::getline(iss, name);
    name = trim(name);
    if (kind == "server") {
      section = Section::kServer;
    } else if (kind == "run") {
      section = Section::kRun;
    } else if (kind == "task") {
      if (name.empty()) {
        error(line, "[task] needs a name: [task tau1]");
        section = Section::kNone;
        return;
      }
      section = Section::kTask;
      out.config.spec.periodic_tasks.emplace_back();
      task = &out.config.spec.periodic_tasks.back();
      task->name = name;
    } else if (kind == "job") {
      if (name.empty()) {
        error(line, "[job] needs a name: [job h1]");
        section = Section::kNone;
        return;
      }
      section = Section::kJob;
      out.config.spec.aperiodic_jobs.emplace_back();
      job = &out.config.spec.aperiodic_jobs.back();
      job->name = name;
    } else {
      error(line, "unknown section '" + kind + "'");
      section = Section::kNone;
    }
  }

  void server_key(int line, const std::string& key, const std::string& value) {
    auto& server = out.config.spec.server;
    if (key == "policy") {
      if (value == "none") {
        server.policy = model::ServerPolicy::kNone;
      } else if (value == "background") {
        server.policy = model::ServerPolicy::kBackground;
      } else if (value == "polling") {
        server.policy = model::ServerPolicy::kPolling;
      } else if (value == "deferrable") {
        server.policy = model::ServerPolicy::kDeferrable;
      } else if (value == "sporadic") {
        server.policy = model::ServerPolicy::kSporadic;
      } else {
        error(line, "unknown policy '" + value +
                        "' (none|background|polling|deferrable|sporadic)");
      }
    } else if (key == "capacity") {
      parse_duration(line, value, &server.capacity);
    } else if (key == "period") {
      parse_duration(line, value, &server.period);
    } else if (key == "priority") {
      parse_int(line, value, &server.priority);
    } else if (key == "margin") {
      parse_duration(line, value, &server.admission_margin);
    } else if (key == "strict") {
      parse_bool(line, value, &server.strict_capacity);
    } else if (key == "queue") {
      if (value == "fifo") {
        server.queue = model::QueueDiscipline::kStrictFifo;
      } else if (value == "first-fit") {
        server.queue = model::QueueDiscipline::kFifoFirstFit;
      } else if (value == "list-of-lists") {
        server.queue = model::QueueDiscipline::kListOfLists;
      } else {
        error(line, "unknown queue discipline '" + value +
                        "' (fifo|first-fit|list-of-lists)");
      }
    } else {
      error(line, "unknown server key '" + key + "'" +
                      suggest(key, {"policy", "capacity", "period", "priority",
                                    "margin", "strict", "queue"}));
    }
  }

  void task_key(int line, const std::string& key, const std::string& value) {
    if (key == "period") {
      parse_duration(line, value, &task->period);
    } else if (key == "cost") {
      parse_duration(line, value, &task->cost);
    } else if (key == "deadline") {
      parse_duration(line, value, &task->deadline);
    } else if (key == "priority") {
      parse_int(line, value, &task->priority);
    } else if (key == "start") {
      Duration offset;
      if (parse_duration(line, value, &offset)) {
        task->start = TimePoint::origin() + offset;
      }
    } else if (key == "affinity") {
      int core = -1;
      if (parse_int(line, value, &core)) {
        if (core < 0) {
          error(line, "affinity must be a core index (>= 0)");
        } else {
          task->affinity = core;
        }
      }
    } else {
      error(line, "unknown task key '" + key + "'" +
                      suggest(key, {"period", "cost", "deadline", "priority",
                                    "start", "affinity"}));
    }
  }

  void job_key(int line, const std::string& key, const std::string& value) {
    if (key == "release") {
      Duration offset;
      if (parse_duration(line, value, &offset)) {
        job->release = TimePoint::origin() + offset;
        jobs_with_release.insert(job->name);
      }
    } else if (key == "fires") {
      if (value.empty()) {
        error(line, "fires needs a job name");
      } else {
        job->fires = value;
      }
    } else if (key == "triggered") {
      parse_bool(line, value, &job->triggered);
    } else if (key == "migrate") {
      parse_bool(line, value, &job->migrate);
    } else if (key == "cost") {
      parse_duration(line, value, &job->cost);
    } else if (key == "declared") {
      parse_duration(line, value, &job->declared_cost);
    } else if (key == "deadline") {
      parse_duration(line, value, &job->relative_deadline);
    } else if (key == "value") {
      parse_double(line, value, &job->value);
    } else if (key == "affinity") {
      int core = -1;
      if (parse_int(line, value, &core)) {
        if (core < 0) {
          error(line, "affinity must be a core index (>= 0)");
        } else {
          job->affinity = core;
        }
      }
    } else {
      error(line, "unknown job key '" + key + "'" +
                      suggest(key, {"release", "fires", "triggered", "migrate",
                                    "cost", "declared", "deadline", "value",
                                    "affinity"}));
    }
  }

  void run_key(int line, const std::string& key, const std::string& value) {
    if (key == "horizon") {
      Duration h;
      if (parse_duration(line, value, &h)) {
        out.config.spec.horizon = TimePoint::origin() + h;
        saw_horizon = true;
      }
    } else if (key == "mode") {
      if (value == "sim") {
        out.config.mode = RunMode::kSim;
      } else if (value == "exec") {
        out.config.mode = RunMode::kExec;
      } else if (value == "both") {
        out.config.mode = RunMode::kBoth;
      } else {
        error(line, "unknown mode '" + value + "' (sim|exec|both)");
      }
    } else if (key == "overheads") {
      // The profile replaces the whole ExecOptions block; the overload
      // policy and the batch limit are orthogonal and must survive either
      // key order.
      const exp::OverloadConfig overload = out.config.exec_options.overload;
      const int batch = out.config.exec_options.batch;
      if (value == "ideal") {
        out.config.exec_options = exp::ideal_execution_options();
      } else if (value == "paper") {
        out.config.exec_options = exp::paper_execution_options();
      } else {
        error(line, "unknown overheads profile '" + value + "' (ideal|paper)");
      }
      out.config.exec_options.overload = overload;
      out.config.exec_options.batch = batch;
    } else if (key == "batch") {
      int batch = 1;
      if (parse_int(line, value, &batch)) {
        if (batch < 1) {
          error(line, "batch must be at least 1 (1 = per-event dispatch)");
        } else {
          out.config.exec_options.batch = batch;
        }
      }
    } else if (key == "gantt") {
      parse_bool(line, value, &out.config.gantt);
    } else if (key == "cores") {
      int cores = 1;
      if (parse_int(line, value, &cores)) {
        if (cores < 1) {
          error(line, "cores must be at least 1");
        } else {
          out.config.spec.cores = cores;
        }
      }
    } else if (key == "quantum") {
      Duration q;
      if (parse_duration(line, value, &q)) {
        if (q.is_zero()) {
          error(line, "quantum must be positive");
        } else {
          out.config.quantum = q;
        }
      }
    } else if (key == "channel_latency") {
      parse_duration(line, value, &out.config.spec.channel_latency);
    } else if (key == "policy") {
      const auto policy = mp::parse_sched_policy(value);
      if (policy.has_value()) {
        out.config.policy = *policy;
      } else {
        error(line, "unknown scheduling policy '" + value +
                        "' (partitioned|global|semi)");
      }
    } else if (key == "backend") {
      const auto backend = mp::parse_exec_backend(value);
      if (backend.has_value()) {
        out.config.backend = *backend;
      } else {
        error(line, "unknown backend '" + value + "' (lockstep|threads)");
      }
    } else if (key == "rebalance") {
      const auto mode = mp::parse_rebalance_mode(value);
      if (mode.has_value()) {
        out.config.rebalance.mode = *mode;
      } else {
        error(line, "unknown rebalance mode '" + value + "' (off|drift|admit)");
      }
    } else if (key == "rebalance_drift") {
      double drift = 0.0;
      if (parse_double(line, value, &drift)) {
        if (drift <= 0.0) {
          error(line, "rebalance_drift must be positive");
        } else {
          out.config.rebalance.drift = drift;
        }
      }
    } else if (key == "rebalance_period") {
      Duration period;
      if (parse_duration(line, value, &period)) {
        if (period.is_zero()) {
          error(line, "rebalance_period must be positive");
        } else {
          out.config.rebalance.period = period;
        }
      }
    } else if (key == "overload") {
      const auto mode = exp::parse_overload_mode(value);
      if (mode.has_value()) {
        out.config.exec_options.overload.mode = *mode;
      } else {
        error(line, "unknown overload mode '" + value + "' (off|shed|dover)");
      }
    } else if (key == "overload_threshold") {
      double threshold = 0.0;
      if (parse_double(line, value, &threshold)) {
        if (threshold <= 0.0) {
          error(line, "overload_threshold must be positive");
        } else {
          out.config.exec_options.overload.threshold = threshold;
        }
      }
    } else if (key == "overload_period") {
      Duration period;
      if (parse_duration(line, value, &period)) {
        if (period.is_zero()) {
          error(line, "overload_period must be positive");
        } else {
          out.config.exec_options.overload.period = period;
        }
      }
    } else if (key == "partition") {
      if (value == "ffd" || value == "first-fit") {
        out.config.partition = mp::PackingStrategy::kFirstFitDecreasing;
      } else if (value == "wfd" || value == "worst-fit") {
        out.config.partition = mp::PackingStrategy::kWorstFitDecreasing;
      } else if (value == "bfd" || value == "best-fit") {
        out.config.partition = mp::PackingStrategy::kBestFitDecreasing;
      } else {
        error(line, "unknown partition heuristic '" + value +
                        "' (ffd|wfd|bfd|first-fit|worst-fit|best-fit)");
      }
    } else {
      error(line, "unknown run key '" + key + "'" +
                      suggest(key, {"horizon", "mode", "overheads", "batch",
                                    "gantt", "cores", "quantum",
                                    "channel_latency", "policy", "backend",
                                    "rebalance", "rebalance_drift",
                                    "rebalance_period", "overload",
                                    "overload_threshold", "overload_period",
                                    "partition"}));
    }
  }

  void key_value(int line, const std::string& key, const std::string& value) {
    switch (section) {
      case Section::kServer:
        server_key(line, key, value);
        break;
      case Section::kTask:
        task_key(line, key, value);
        break;
      case Section::kJob:
        job_key(line, key, value);
        break;
      case Section::kRun:
        run_key(line, key, value);
        break;
      case Section::kNone:
        error(line, "key outside of any section");
        break;
    }
  }

  void finish() {
    if (!saw_horizon) {
      out.errors.push_back("missing [run] horizon");
    }
    for (const auto& t : out.config.spec.periodic_tasks) {
      if (t.affinity >= out.config.spec.cores) {
        out.errors.push_back("task '" + t.name + "' is pinned to core " +
                             std::to_string(t.affinity) + " but the run has " +
                             std::to_string(out.config.spec.cores) +
                             " core(s)");
      }
    }
    for (const auto& j : out.config.spec.aperiodic_jobs) {
      if (j.affinity >= out.config.spec.cores) {
        out.errors.push_back("job '" + j.name + "' is pinned to core " +
                             std::to_string(j.affinity) + " but the run has " +
                             std::to_string(out.config.spec.cores) +
                             " core(s)");
      }
    }
    if (out.config.policy != mp::SchedPolicy::kPartitioned &&
        out.config.spec.cores <= 1) {
      out.errors.push_back(std::string("scheduling policy '") +
                           mp::to_string(out.config.policy) +
                           "' needs a multi-core run (cores > 1)");
    }
    if (out.config.backend == mp::ExecBackend::kThreads) {
      // The threads backend is the multi-core execution substrate; a
      // uniprocessor or sim-only run never reaches it, so a spec asking for
      // it there is a mistake worth flagging, not silently ignoring.
      if (out.config.spec.cores <= 1) {
        out.errors.push_back(
            "backend = threads needs a multi-core run (cores > 1)");
      }
      if (out.config.mode == RunMode::kSim) {
        out.errors.push_back(
            "backend = threads applies to the execution engine (mode = "
            "exec|both)");
      }
    }
    if (out.config.exec_options.batch > 1 &&
        out.config.mode == RunMode::kSim) {
      // The simulator has no dispatch overhead to amortize; a batch > 1 in
      // a sim-only run is a mistake worth flagging, not silently ignoring.
      out.errors.push_back(
          "batch applies to the execution engine (mode = exec|both)");
    }
    if (out.config.rebalance.mode != mp::RebalanceMode::kOff &&
        out.config.spec.cores <= 1) {
      out.errors.push_back(std::string("rebalance '") +
                           mp::to_string(out.config.rebalance.mode) +
                           "' needs a multi-core run (cores > 1)");
    }
    if (out.config.exec_options.overload.enabled()) {
      // Both overload policies live in the partitioned execution runtime:
      // shed is an epoch-boundary governor, dover a per-core exec queue.
      if (out.config.spec.cores <= 1) {
        out.errors.push_back(
            std::string("overload '") +
            exp::to_string(out.config.exec_options.overload.mode) +
            "' needs a multi-core run (cores > 1)");
      }
      if (out.config.mode == RunMode::kSim) {
        out.errors.push_back(
            "overload policies apply to the execution engine (mode = "
            "exec|both)");
      }
    }
    const auto& server = out.config.spec.server;
    if (server.policy != model::ServerPolicy::kNone &&
        (server.capacity.is_zero() || server.period.is_zero())) {
      out.errors.push_back("server needs a positive capacity and period");
    }
    for (const auto& t : out.config.spec.periodic_tasks) {
      if (t.period.is_zero() || t.cost.is_zero()) {
        out.errors.push_back("task '" + t.name +
                             "' needs a positive period and cost");
      }
    }
    for (const auto& j : out.config.spec.aperiodic_jobs) {
      if (j.cost.is_zero()) {
        out.errors.push_back("job '" + j.name + "' needs a positive cost");
      }
    }

    // Channel semantics: fires targets must resolve, and the channel roles
    // must be consistent (routing is by job name, so names must be unique).
    std::set<std::string> names;
    for (const auto& j : out.config.spec.aperiodic_jobs) {
      if (!names.insert(j.name).second) {
        out.errors.push_back("duplicate job name '" + j.name + "'");
      }
    }
    const bool has_channel_jobs = out.config.spec.uses_channels();
    if (has_channel_jobs &&
        out.config.spec.server.policy == model::ServerPolicy::kNone) {
      out.errors.push_back(
          "fires/triggered/migrate jobs need an aperiodic server");
    }
    for (const auto& j : out.config.spec.aperiodic_jobs) {
      if (!j.fires.empty()) {
        if (j.fires == j.name) {
          out.errors.push_back("job '" + j.name + "' cannot fire itself");
        } else if (names.find(j.fires) == names.end()) {
          out.errors.push_back("job '" + j.name + "' fires unknown job '" +
                               j.fires + "'");
        }
      }
      if (j.triggered && jobs_with_release.count(j.name) > 0) {
        out.errors.push_back("triggered job '" + j.name +
                             "' cannot also have a release");
      }
      if (j.migrate && j.triggered) {
        out.errors.push_back("job '" + j.name +
                             "' cannot be both migrate and triggered");
      }
      if (j.migrate && j.affinity >= 0) {
        out.errors.push_back("job '" + j.name +
                             "' cannot both migrate and pin an affinity");
      }
    }
  }
};

}  // namespace

ParseOutcome parse_spec(const std::string& content) {
  Parser parser;
  std::istringstream stream(content);
  std::string raw;
  int line_no = 0;
  while (std::getline(stream, raw)) {
    ++line_no;
    const std::string line = trim(strip_comment(raw));
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') {
        parser.error(line_no, "unterminated section header");
        continue;
      }
      parser.open_section(line_no, line.substr(1, line.size() - 2));
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      parser.error(line_no, "expected 'key = value'");
      continue;
    }
    parser.key_value(line_no, trim(line.substr(0, eq)),
                     trim(line.substr(eq + 1)));
  }
  parser.finish();
  return std::move(parser.out);
}

ParseOutcome load_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    ParseOutcome out;
    out.errors.push_back("cannot open '" + path + "'");
    return out;
  }
  std::ostringstream content;
  content << in.rdbuf();
  return parse_spec(content.str());
}

}  // namespace tsf::cli
