#ifndef SPCA_OBS_EXPORT_H_
#define SPCA_OBS_EXPORT_H_

#include <string>

#include "common/status.h"
#include "obs/json.h"
#include "obs/registry.h"

namespace spca::obs {

/// A span attribute value as a JSON token (number or quoted string).
std::string AttrValueJson(const AttrValue& value);

/// One JSON-lines record for a span — the --trace-stream format, e.g.
///   {"event":"span","id":3,"parent":1,"name":"meanJob","cat":"job",
///    "track":"wall","start_sec":0.01,"dur_sec":0.5,"closed":true,
///    "args":{"flops":123}}
/// Numbers are written with enough digits to round-trip exactly.
std::string SpanJsonLine(const SpanRecord& span);

/// Human-readable metrics summary: one aligned row per counter, gauge, and
/// histogram (count/mean/min/max), sorted by name.
std::string MetricsTable(const Registry& registry);

/// One JSON object per line per metric, e.g.
///   {"metric":"engine.task_flops","type":"counter","value":123}
///   {"metric":"engine.job.compute_sec","type":"histogram","count":4,...}
std::string MetricsJsonLines(const Registry& registry);

/// The registry's spans in Chrome trace-event JSON (load via
/// chrome://tracing or https://ui.perfetto.dev). Wall-clock spans render
/// on one row ("wall clock"), the cost model's simulated phases on another
/// ("simulated cluster"); span attributes become event args.
std::string ChromeTraceJson(const Registry& registry);

/// Writes `content` to `path`, replacing the file (--trace-out, saved
/// models and their sidecars, tests).
Status WriteFile(const std::string& path, const std::string& content);

/// Reads the whole file at `path`: NOT_FOUND "cannot open <what> <path>"
/// when it cannot be opened, INTERNAL when a read fails.
StatusOr<std::string> ReadFile(const std::string& path,
                               const std::string& what = "");

}  // namespace spca::obs

#endif  // SPCA_OBS_EXPORT_H_
