#include "util/trace.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <map>

#include "util/string_util.h"

namespace dd {

namespace {

thread_local TraceSpan* t_current_span = nullptr;
thread_local std::string t_current_path;  // mirrors the live span stack

/// Minimal JSON string escaping (metric/span names are tame, but a UDF
/// name could carry anything).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// JSON has no inf/nan; clamp to 0 (only reachable via a gauge set from
/// a degenerate measurement).
std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  return StrFormat("%.9g", v);
}

}  // namespace

Tracer& Tracer::Instance() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Record(SpanRecord&& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (records_.size() >= kMaxRecords) {
    ++dropped_;
    return;
  }
  records_.push_back(std::move(record));
}

std::vector<Tracer::SpanRecord> Tracer::Records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {records_.begin(), records_.end()};
}

uint64_t Tracer::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

std::vector<std::pair<std::string, double>> Tracer::AggregateByPath() const {
  std::map<std::string, double> totals;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const SpanRecord& r : records_) totals[r.path] += r.seconds;
  }
  return {totals.begin(), totals.end()};
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  dropped_ = 0;
  epoch_ = std::chrono::steady_clock::now();
}

TraceAnchor::TraceAnchor(const std::string& path) {
  if (!MetricsEnabled() || path.empty()) return;
  installed_ = true;
  saved_span_ = t_current_span;
  saved_path_ = t_current_path;
  // The inert span never Begin()s or End()s: it only gives children a
  // parent whose depth/path match `path`, as if the anchor's owner were
  // running inside the coordinator's span stack.
  span_.path_ = path;
  span_.depth_ = static_cast<int>(std::count(path.begin(), path.end(), '/'));
  t_current_span = &span_;
  t_current_path = path;
}

TraceAnchor::~TraceAnchor() {
  if (!installed_) return;
  t_current_span = saved_span_;
  t_current_path = std::move(saved_path_);
}

void TraceSpan::Begin(const char* name) {
  active_ = true;
  parent_ = t_current_span;
  depth_ = parent_ == nullptr ? 0 : parent_->depth_ + 1;
  if (parent_ == nullptr) {
    path_ = name;
  } else {
    path_ = t_current_path + "/" + name;
  }
  t_current_span = this;
  t_current_path = path_;
  start_ = std::chrono::steady_clock::now();
}

void TraceSpan::End() {
  const auto end = std::chrono::steady_clock::now();
  t_current_span = parent_;
  t_current_path = parent_ == nullptr ? std::string() : parent_->path_;

  Tracer& tracer = Tracer::Instance();
  Tracer::SpanRecord record;
  record.path = std::move(path_);
  const size_t slash = record.path.rfind('/');
  record.name =
      slash == std::string::npos ? record.path : record.path.substr(slash + 1);
  record.seconds = std::chrono::duration<double>(end - start_).count();
  record.start_seconds = tracer.SinceEpoch(start_);
  record.depth = depth_;
  record.attrs = std::move(attrs_);
  tracer.Record(std::move(record));
}

double TraceSpan::Seconds() const {
  if (!active_) return 0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

std::string TraceSpan::CurrentPath() { return t_current_path; }

std::string RunMetrics::ToJson() {
  const MetricsRegistry::Snapshot snapshot =
      MetricsRegistry::Instance().Collect();
  const std::vector<Tracer::SpanRecord> spans = Tracer::Instance().Records();

  // Fig. 2 phases: spans recorded directly under the "pipeline" root.
  std::map<std::string, double> phases;
  for (const Tracer::SpanRecord& r : spans) {
    if (r.depth == 1 && r.path.rfind("pipeline/", 0) == 0) {
      phases[r.name] += r.seconds;
    }
  }

  std::string out = "{\n  \"schema\": \"dd-metrics-v1\",\n";
  out += StrFormat("  \"enabled\": %s,\n", MetricsEnabled() ? "true" : "false");

  out += "  \"phases\": {";
  bool first = true;
  for (const auto& [name, seconds] : phases) {
    out += StrFormat("%s\n    \"%s\": %s", first ? "" : ",",
                     JsonEscape(name).c_str(), JsonNumber(seconds).c_str());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"spans\": [";
  first = true;
  for (const Tracer::SpanRecord& r : spans) {
    out += StrFormat(
        "%s\n    {\"path\": \"%s\", \"seconds\": %s, \"start\": %s, "
        "\"depth\": %d",
        first ? "" : ",", JsonEscape(r.path).c_str(),
        JsonNumber(r.seconds).c_str(), JsonNumber(r.start_seconds).c_str(),
        r.depth);
    if (!r.attrs.empty()) {
      out += ", \"attrs\": {";
      bool first_attr = true;
      for (const auto& [key, value] : r.attrs) {
        out += StrFormat("%s\"%s\": %s", first_attr ? "" : ", ",
                         JsonEscape(key).c_str(), JsonNumber(value).c_str());
        first_attr = false;
      }
      out += "}";
    }
    out += "}";
    first = false;
  }
  out += first ? "],\n" : "\n  ],\n";

  out += "  \"counters\": {";
  first = true;
  for (const auto& [name, value] : snapshot.counters) {
    out += StrFormat("%s\n    \"%s\": %" PRIu64, first ? "" : ",",
                     JsonEscape(name).c_str(), value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    out += StrFormat("%s\n    \"%s\": %s", first ? "" : ",",
                     JsonEscape(name).c_str(), JsonNumber(value).c_str());
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snapshot.histograms) {
    out += StrFormat(
        "%s\n    \"%s\": {\"count\": %" PRIu64
        ", \"sum\": %s, \"min\": %s, \"max\": %s, \"p50\": %s, \"p95\": %s, "
        "\"p99\": %s}",
        first ? "" : ",", JsonEscape(name).c_str(), h.count,
        JsonNumber(h.sum).c_str(), JsonNumber(h.min).c_str(),
        JsonNumber(h.max).c_str(), JsonNumber(h.p50).c_str(),
        JsonNumber(h.p95).c_str(), JsonNumber(h.p99).c_str());
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";

  out += "}\n";
  return out;
}

std::string RunMetrics::ToTable() {
  const MetricsRegistry::Snapshot snapshot =
      MetricsRegistry::Instance().Collect();
  const std::vector<Tracer::SpanRecord> spans = Tracer::Instance().Records();

  std::string out;
  if (!spans.empty()) {
    out += "== spans (completion order) ==\n";
    for (const Tracer::SpanRecord& r : spans) {
      out += StrFormat("%*s%-*s %10.3f ms", r.depth * 2, "",
                       40 - r.depth * 2, r.path.c_str(), r.seconds * 1e3);
      for (const auto& [key, value] : r.attrs) {
        out += StrFormat("  %s=%.6g", key.c_str(), value);
      }
      out += "\n";
    }
  }
  if (!snapshot.counters.empty()) {
    out += "== counters ==\n";
    for (const auto& [name, value] : snapshot.counters) {
      out += StrFormat("%-44s %12" PRIu64 "\n", name.c_str(), value);
    }
  }
  if (!snapshot.gauges.empty()) {
    out += "== gauges ==\n";
    for (const auto& [name, value] : snapshot.gauges) {
      out += StrFormat("%-44s %12.6g\n", name.c_str(), value);
    }
  }
  if (!snapshot.histograms.empty()) {
    out += "== histograms ==\n";
    out += StrFormat("%-44s %9s %12s %12s %12s %12s\n", "name", "count", "sum",
                     "p50", "p95", "p99");
    for (const auto& [name, h] : snapshot.histograms) {
      out += StrFormat("%-44s %9" PRIu64 " %12.6g %12.6g %12.6g %12.6g\n",
                       name.c_str(), h.count, h.sum, h.p50, h.p95, h.p99);
    }
  }
  const uint64_t dropped = Tracer::Instance().dropped();
  if (dropped > 0) {
    out += StrFormat("(! %" PRIu64 " span records dropped past the %zu cap)\n",
                     dropped, Tracer::kMaxRecords);
  }
  return out;
}

Status RunMetrics::WriteJsonFile(const std::string& path) {
  const std::string json = ToJson();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open metrics report for writing: " + path);
  }
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  if (std::fclose(f) != 0 || written != json.size()) {
    return Status::IoError("short write of metrics report: " + path);
  }
  return Status::OK();
}

void RunMetrics::Reset() {
  MetricsRegistry::Instance().ResetValues();
  Tracer::Instance().Reset();
}

}  // namespace dd
