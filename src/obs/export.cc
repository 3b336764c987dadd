#include "obs/export.h"

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

namespace spca::obs {

std::string AttrValueJson(const AttrValue& value) {
  if (const auto* u = std::get_if<uint64_t>(&value)) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, *u);
    return buf;
  }
  if (const auto* d = std::get_if<double>(&value)) return JsonNumber(*d);
  return "\"" + JsonEscape(std::get<std::string>(value)) + "\"";
}

std::string SpanJsonLine(const SpanRecord& span) {
  std::string out = "{\"event\":\"span\"";
  char buf[96];
  std::snprintf(buf, sizeof(buf), ",\"id\":%llu,\"parent\":%llu",
                static_cast<unsigned long long>(span.id),
                static_cast<unsigned long long>(span.parent_id));
  out += buf;
  out += ",\"name\":\"" + JsonEscape(span.name) + "\"";
  out += ",\"cat\":\"" + JsonEscape(span.category) + "\"";
  out += std::string(",\"track\":\"") +
         (span.track == Track::kSim ? "sim" : "wall") + "\"";
  out += ",\"start_sec\":" + JsonNumber(span.start_sec);
  out += ",\"dur_sec\":" + JsonNumber(span.duration_sec());
  out += std::string(",\"closed\":") + (span.closed ? "true" : "false");
  out += ",\"args\":{";
  bool first = true;
  for (const auto& attr : span.attributes) {
    if (!first) out += ',';
    first = false;
    out += "\"" + JsonEscape(attr.key) + "\":" + AttrValueJson(attr.value);
  }
  out += "}}\n";
  return out;
}

std::string MetricsTable(const Registry& registry) {
  std::string out;
  char line[256];
  for (const auto& name : registry.CounterNames()) {
    const Counter* c = registry.FindCounter(name);
    std::snprintf(line, sizeof(line), "%-48s counter    %s\n", name.c_str(),
                  JsonNumber(c->value()).c_str());
    out += line;
  }
  for (const auto& name : registry.GaugeNames()) {
    const Gauge* g = registry.FindGauge(name);
    std::snprintf(line, sizeof(line), "%-48s gauge      %s\n", name.c_str(),
                  JsonNumber(g->value()).c_str());
    out += line;
  }
  for (const auto& name : registry.HistogramNames()) {
    const Histogram* h = registry.FindHistogram(name);
    std::snprintf(line, sizeof(line),
                  "%-48s histogram  count=%llu mean=%s min=%s max=%s "
                  "p50=%s p95=%s p99=%s\n",
                  name.c_str(), static_cast<unsigned long long>(h->count()),
                  JsonNumber(h->mean()).c_str(), JsonNumber(h->min()).c_str(),
                  JsonNumber(h->max()).c_str(),
                  JsonNumber(h->Quantile(0.50)).c_str(),
                  JsonNumber(h->Quantile(0.95)).c_str(),
                  JsonNumber(h->Quantile(0.99)).c_str());
    out += line;
  }
  return out;
}

std::string MetricsJsonLines(const Registry& registry) {
  std::string out;
  for (const auto& name : registry.CounterNames()) {
    const Counter* c = registry.FindCounter(name);
    out += "{\"metric\":\"" + JsonEscape(name) +
           "\",\"type\":\"counter\",\"value\":" + JsonNumber(c->value()) +
           "}\n";
  }
  for (const auto& name : registry.GaugeNames()) {
    const Gauge* g = registry.FindGauge(name);
    out += "{\"metric\":\"" + JsonEscape(name) +
           "\",\"type\":\"gauge\",\"value\":" + JsonNumber(g->value()) + "}\n";
  }
  for (const auto& name : registry.HistogramNames()) {
    const Histogram* h = registry.FindHistogram(name);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "\",\"type\":\"histogram\",\"count\":%llu,\"sum\":%s,"
                  "\"min\":%s,\"max\":%s,\"p50\":%s,\"p95\":%s,\"p99\":%s,"
                  "\"buckets\":[",
                  static_cast<unsigned long long>(h->count()),
                  JsonNumber(h->sum()).c_str(), JsonNumber(h->min()).c_str(),
                  JsonNumber(h->max()).c_str(),
                  JsonNumber(h->Quantile(0.50)).c_str(),
                  JsonNumber(h->Quantile(0.95)).c_str(),
                  JsonNumber(h->Quantile(0.99)).c_str());
    out += "{\"metric\":\"" + JsonEscape(name) + buf;
    const auto buckets = h->bucket_counts();
    for (size_t i = 0; i < buckets.size(); ++i) {
      if (i > 0) out += ',';
      out += JsonNumber(static_cast<double>(buckets[i]));
    }
    out += "]}\n";
  }
  return out;
}

std::string ChromeTraceJson(const Registry& registry) {
  std::string out = "{\"traceEvents\":[\n";
  // Name the two timeline rows.
  out +=
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"wall clock\"}},\n";
  out +=
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"simulated cluster\"}}";
  for (const auto& span : registry.spans()) {
    const double end =
        span.closed ? span.end_sec : span.start_sec;  // open: zero-length
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,\"args\":{",
                  JsonEscape(span.name).c_str(),
                  JsonEscape(span.category.empty() ? "span" : span.category)
                      .c_str(),
                  span.start_sec * 1e6, (end - span.start_sec) * 1e6,
                  static_cast<int>(span.track));
    out += buf;
    bool first = true;
    for (const auto& attr : span.attributes) {
      if (!first) out += ',';
      first = false;
      out += "\"" + JsonEscape(attr.key) + "\":" + AttrValueJson(attr.value);
    }
    if (!first) out += ',';
    char ids[64];
    std::snprintf(ids, sizeof(ids), "\"span_id\":%llu,\"parent_id\":%llu",
                  static_cast<unsigned long long>(span.id),
                  static_cast<unsigned long long>(span.parent_id));
    out += ids;
    out += "}}";
  }
  out += "\n]}\n";
  return out;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::Internal("cannot open " + path);
  const size_t written = std::fwrite(content.data(), 1, content.size(), f);
  const int close_result = std::fclose(f);
  if (written != content.size() || close_result != 0) {
    return Status::Internal("short write to " + path);
  }
  return Status::Ok();
}

StatusOr<std::string> ReadFile(const std::string& path,
                               const std::string& what) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open " + (what.empty() ? "" : what + " ") +
                            path);
  }
  std::string content;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) return Status::Internal("read failed for " + path);
  return content;
}

}  // namespace spca::obs
