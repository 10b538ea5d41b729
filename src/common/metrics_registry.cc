#include "common/metrics_registry.h"

#include "common/json_writer.h"

namespace tsf::common {

void MetricsRegistry::add_counter(std::string_view name, std::uint64_t delta) {
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) {
    counters_[it->second].value += delta;
    return;
  }
  counter_index_.emplace(std::string(name), counters_.size());
  counters_.push_back(Counter{std::string(name), delta});
}

void MetricsRegistry::set_gauge(std::string_view name, double value) {
  const auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) {
    gauges_[it->second].value = value;
    return;
  }
  gauge_index_.emplace(std::string(name), gauges_.size());
  gauges_.push_back(Gauge{std::string(name), value});
}

void MetricsRegistry::observe(std::string_view name, double value) {
  const auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) {
    histograms_[it->second].sketch.add(value);
    histograms_[it->second].stats.add(value);
    return;
  }
  histogram_index_.emplace(std::string(name), histograms_.size());
  histograms_.push_back(Histogram{std::string(name), LogSketch(), {}});
  histograms_.back().sketch.add(value);
  histograms_.back().stats.add(value);
}

std::uint64_t MetricsRegistry::counter(std::string_view name) const {
  const auto it = counter_index_.find(name);
  return it == counter_index_.end() ? 0 : counters_[it->second].value;
}

double MetricsRegistry::gauge(std::string_view name) const {
  const auto it = gauge_index_.find(name);
  return it == gauge_index_.end() ? 0.0 : gauges_[it->second].value;
}

const LogSketch* MetricsRegistry::histogram(std::string_view name) const {
  const auto it = histogram_index_.find(name);
  return it == histogram_index_.end() ? nullptr
                                      : &histograms_[it->second].sketch;
}

std::string MetricsRegistry::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("tsf-metrics/1");
  w.key("counters").begin_object();
  for (const auto& c : counters_) {
    w.key(c.name).value(c.value);
  }
  w.end_object();
  w.key("gauges").begin_object();
  for (const auto& g : gauges_) {
    w.key(g.name).value(g.value);
  }
  w.end_object();
  w.key("histograms").begin_array();
  for (const auto& h : histograms_) {
    w.begin_object();
    w.key("name").value(h.name);
    w.key("count").value(static_cast<std::uint64_t>(h.stats.count()));
    w.key("mean").value(h.stats.mean());
    w.key("min").value(h.stats.min());
    w.key("max").value(h.stats.max());
    w.key("p50").value(h.sketch.p50());
    w.key("p95").value(h.sketch.p95());
    w.key("p99").value(h.sketch.p99());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

}  // namespace tsf::common
