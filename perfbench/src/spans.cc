#include "spans.h"

#include <cstdio>

namespace perfbench {

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

double Tracer::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int Tracer::open(std::string name) {
  Span span;
  span.name = std::move(name);
  span.start_s = now();
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  spans_.push_back(std::move(span));
  child_s_.push_back(0.0);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  auto& span = spans_[static_cast<std::size_t>(id)];
  span.end_s = now();
  while (!stack_.empty() && stack_.back() != id) stack_.pop_back();
  if (!stack_.empty()) stack_.pop_back();
  if (span.parent >= 0) {
    child_s_[static_cast<std::size_t>(span.parent)] +=
        span.end_s - span.start_s;
  }
}

void Tracer::derived(std::string name, double start_s, double seconds) {
  Span span;
  span.name = std::move(name);
  span.start_s = start_s;
  span.end_s = start_s + seconds;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  span.derived = true;
  if (span.parent >= 0) {
    child_s_[static_cast<std::size_t>(span.parent)] += seconds;
  }
  spans_.push_back(std::move(span));
  child_s_.push_back(0.0);
}

double Tracer::self_seconds(int id) const {
  const auto& span = spans_[static_cast<std::size_t>(id)];
  return span.end_s - span.start_s - child_s_[static_cast<std::size_t>(id)];
}

std::map<std::string, Tracer::Row> Tracer::rows() const {
  std::map<std::string, Row> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& row = out[spans_[i].name];
    ++row.count;
    row.total_s += spans_[i].end_s - spans_[i].start_s;
    row.self_s += self_seconds(static_cast<int>(i));
  }
  return out;
}

void Tracer::write_json(std::ostream& out) const {
  out << "[";
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "\"start_s\": %.9f, \"end_s\": %.9f, \"self_s\": %.9f",
                  s.start_s, s.end_s, self_seconds(static_cast<int>(i)));
    out << (i == 0 ? "\n" : ",\n") << "  {\"id\": " << i << ", \"name\": \""
        << s.name << "\", " << buf << ", \"parent\": " << s.parent
        << ", \"run\": " << s.run << (s.derived ? ", \"derived\": true" : "")
        << "}";
  }
  out << "\n]";
}

}  // namespace perfbench
