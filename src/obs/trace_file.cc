#include "obs/trace_file.h"

#include <algorithm>
#include <utility>

#include "obs/export.h"
#include "obs/json.h"

namespace spca::obs {
namespace {

// Object members that belong to the span envelope rather than its
// attributes, per format.
bool IsChromeEnvelopeKey(std::string_view key) {
  return key == "span_id" || key == "parent_id";
}

std::vector<Attribute> CollectAttributes(const JsonValue& args,
                                         bool chrome_format) {
  std::vector<Attribute> out;
  for (const auto& [key, value] : args.object) {
    if (chrome_format && IsChromeEnvelopeKey(key)) continue;
    Attribute attr;
    attr.key = key;
    if (value.is_string()) {
      attr.value = value.string;
    } else {
      // JSON has a single number type: uint64 attributes come back as
      // doubles (exact for the magnitudes the exporters emit).
      attr.value = value.number;
    }
    out.push_back(std::move(attr));
  }
  return out;
}

Status ParseJsonLinesRecord(const JsonValue& record, ParsedTrace* trace) {
  if (record.Find("event") != nullptr) {
    if (record.StringOr("event", "") != "span") {
      return Status::InvalidArgument("unknown event record: " +
                                     record.StringOr("event", ""));
    }
    ParsedSpan span;
    span.id = static_cast<uint64_t>(record.NumberOr("id", 0));
    span.parent_id = static_cast<uint64_t>(record.NumberOr("parent", 0));
    span.name = record.StringOr("name", "");
    span.category = record.StringOr("cat", "");
    span.track =
        record.StringOr("track", "wall") == "sim" ? Track::kSim : Track::kWall;
    span.start_sec = record.NumberOr("start_sec", 0.0);
    span.dur_sec = record.NumberOr("dur_sec", 0.0);
    const JsonValue* closed = record.Find("closed");
    span.closed = closed == nullptr || closed->bool_value;
    if (const JsonValue* args = record.Find("args")) {
      span.attributes = CollectAttributes(*args, /*chrome_format=*/false);
    }
    trace->spans.push_back(std::move(span));
    return Status::Ok();
  }
  if (record.Find("metric") != nullptr) {
    const std::string name = record.StringOr("metric", "");
    const std::string type = record.StringOr("type", "");
    if (type == "counter") {
      trace->counters[name] = record.NumberOr("value", 0.0);
    } else if (type == "gauge") {
      trace->gauges[name] = record.NumberOr("value", 0.0);
    } else if (type == "histogram") {
      ParsedTrace::HistogramSummary h;
      h.count = static_cast<uint64_t>(record.NumberOr("count", 0));
      h.sum = record.NumberOr("sum", 0.0);
      h.min = record.NumberOr("min", 0.0);
      h.max = record.NumberOr("max", 0.0);
      h.p50 = record.NumberOr("p50", 0.0);
      h.p95 = record.NumberOr("p95", 0.0);
      h.p99 = record.NumberOr("p99", 0.0);
      trace->histograms[name] = h;
    } else {
      return Status::InvalidArgument("unknown metric type: " + type);
    }
    return Status::Ok();
  }
  return Status::InvalidArgument("record is neither a span nor a metric");
}

StatusOr<ParsedTrace> ParseJsonLines(std::string_view content) {
  ParsedTrace trace;
  size_t line_start = 0;
  size_t line_number = 0;
  while (line_start < content.size()) {
    size_t line_end = content.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = content.size();
    const std::string_view line =
        content.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    ++line_number;
    if (line.find_first_not_of(" \t\r") == std::string_view::npos) continue;
    StatusOr<JsonValue> record = ParseJson(line);
    if (!record.ok()) {
      return Status::InvalidArgument(
          "line " + std::to_string(line_number) + ": " +
          record.status().message());
    }
    Status status = ParseJsonLinesRecord(*record, &trace);
    if (!status.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + status.message());
    }
  }
  return trace;
}

StatusOr<ParsedTrace> ParseChromeTrace(std::string_view content) {
  StatusOr<JsonValue> doc = ParseJson(content);
  if (!doc.ok()) return doc.status();
  const JsonValue* events = doc->Find("traceEvents");
  if (events == nullptr || events->kind != JsonValue::Kind::kArray) {
    return Status::InvalidArgument("missing traceEvents array");
  }
  ParsedTrace trace;
  for (const JsonValue& event : events->array) {
    const std::string ph = event.StringOr("ph", "");
    if (ph == "M") continue;  // metadata (thread names)
    if (ph != "X") {
      return Status::InvalidArgument("unsupported event phase: " + ph);
    }
    ParsedSpan span;
    span.name = event.StringOr("name", "");
    span.category = event.StringOr("cat", "");
    // ChromeTraceJson maps Track::kWall to tid 1 and Track::kSim to tid 2.
    span.track = event.NumberOr("tid", 1) == 2 ? Track::kSim : Track::kWall;
    // ChromeTraceJson writes microseconds; quantization to 1e-3 us means
    // times here are exact only to ~1e-9 s.
    span.start_sec = event.NumberOr("ts", 0.0) / 1e6;
    span.dur_sec = event.NumberOr("dur", 0.0) / 1e6;
    span.closed = true;  // the chrome exporter renders open spans zero-length
    if (const JsonValue* args = event.Find("args")) {
      span.id = static_cast<uint64_t>(args->NumberOr("span_id", 0));
      span.parent_id = static_cast<uint64_t>(args->NumberOr("parent_id", 0));
      span.attributes = CollectAttributes(*args, /*chrome_format=*/true);
    }
    trace.spans.push_back(std::move(span));
  }
  return trace;
}

}  // namespace

const AttrValue* ParsedSpan::FindAttribute(std::string_view key) const {
  for (const auto& attr : attributes) {
    if (attr.key == key) return &attr.value;
  }
  return nullptr;
}

double ParsedSpan::AttributeNumberOr(std::string_view key,
                                     double fallback) const {
  const AttrValue* value = FindAttribute(key);
  if (value == nullptr) return fallback;
  if (const auto* d = std::get_if<double>(value)) return *d;
  if (const auto* u = std::get_if<uint64_t>(value)) {
    return static_cast<double>(*u);
  }
  return fallback;
}

std::vector<const ParsedSpan*> ParsedTrace::SpansNamed(
    std::string_view name) const {
  std::vector<const ParsedSpan*> out;
  for (const auto& span : spans) {
    if (span.name == name) out.push_back(&span);
  }
  return out;
}

std::vector<const ParsedSpan*> ParsedTrace::ChildrenOf(
    uint64_t parent_id) const {
  std::vector<const ParsedSpan*> out;
  for (const auto& span : spans) {
    if (span.parent_id == parent_id) out.push_back(&span);
  }
  return out;
}

StatusOr<ParsedTrace> ParseTrace(std::string_view content) {
  const size_t first = content.find_first_not_of(" \t\r\n");
  if (first == std::string_view::npos) return ParsedTrace{};
  // Both formats are machine-generated by this repository; the chrome
  // exporter always opens with the traceEvents member.
  constexpr std::string_view kChromePrefix = "{\"traceEvents\"";
  StatusOr<ParsedTrace> result =
      content.substr(first, kChromePrefix.size()) == kChromePrefix
          ? ParseChromeTrace(content)
          : ParseJsonLines(content);
  if (!result.ok()) return result;
  // The streaming exporter can write a span whose id is smaller than an
  // already-flushed one (opened earlier, closed later); present spans in
  // id order regardless of format.
  std::stable_sort(result->spans.begin(), result->spans.end(),
                   [](const ParsedSpan& a, const ParsedSpan& b) {
                     return a.id < b.id;
                   });
  return result;
}

StatusOr<ParsedTrace> LoadTraceFile(const std::string& path) {
  auto content = ReadFile(path);
  if (!content.ok()) return content.status();
  return ParseTrace(content.value());
}

}  // namespace spca::obs
