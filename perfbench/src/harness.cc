#include "harness.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

#include "obs/json.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

Tail SupportedTail(const std::vector<double>& values) {
  Tail tail;
  tail.samples = values.size();
  for (double q : {0.999, 0.99, 0.9}) {
    const double beyond = (1.0 - q) * static_cast<double>(values.size());
    if (beyond >= 10.0) {
      tail.q = q;
      tail.value = Quantile(values, q);
      return tail;
    }
  }
  return tail;
}

double MedianIntervalRate(const std::vector<double>& stamps, double start_sec,
                          size_t per_stamp) {
  std::vector<double> rates;
  double begin = start_sec;
  for (double stamp : stamps) {
    if (stamp > begin) {
      rates.push_back(static_cast<double>(per_stamp) / (stamp - begin));
    }
    begin = stamp;
  }
  return Median(std::move(rates));
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double ProcessMinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_minflt);
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double HostStealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return 0.0;
  // user nice system idle iowait irq softirq steal
  double fields[8] = {};
  for (double& field : fields) stat >> field;
  const long ticks = sysconf(_SC_CLK_TCK);
  return ticks > 0 ? fields[7] / static_cast<double>(ticks) : 0.0;
}

bool EndSetUpMemory() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

namespace {

double StatusFieldKb(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      std::istringstream fields(line.substr(key.size()));
      double kb = 0.0;
      fields >> kb;
      return kb;
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssKb() { return StatusFieldKb("VmHWM:"); }
double CurrentRssKb() { return StatusFieldKb("VmRSS:"); }

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::CountOp(bool ok) {
  ++attempted_;
  if (!ok) ++failed_;
}

void Report::CountOps(uint64_t attempted, uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::FailCounted(const std::string& why) {
  ++failed_;
  NoteFailure(why);
}

void Report::Diag(const std::string& line) const {
  std::printf("# %s\n", line.c_str());
  std::fflush(stdout);
}

void Report::NoteFailure(const std::string& why) {
  if (failure_notes_++ < 8) Diag("check failed: " + why);
}

std::string Report::Json() const {
  std::string json = "{\"correct\": ";
  json += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics_[i].name + "\": {\"value\": " +
            spca::obs::JsonNumber(metrics_[i].value) + ", \"unit\": \"" +
            metrics_[i].unit + "\"}";
  }
  json += "}}";
  return json;
}

namespace {

// `offset` converts steady-clock seconds to the registry's wall track.
void AddPending(obs::Registry* registry, const PendingSpan& span,
                uint64_t parent, double offset) {
  std::vector<obs::Attribute> attrs;
  attrs.push_back({"op", span.op});
  const uint64_t id = registry->AddCompleteSpan(
      span.name, "bench", obs::Track::kWall, span.start_sec - offset,
      span.end_sec - span.start_sec, parent, std::move(attrs));
  for (const PendingSpan& child : span.children) {
    AddPending(registry, child, id, offset);
  }
}

}  // namespace

void FlushPendingSpans(obs::Registry* registry,
                       const std::vector<PendingSpan>& spans) {
  if (registry == nullptr) return;
  const double offset = NowSeconds() - registry->NowSeconds();
  for (const PendingSpan& span : spans) AddPending(registry, span, 0, offset);
}

void TagOps(obs::Registry* registry,
            const std::vector<uint64_t>& op_span_ids) {
  if (registry == nullptr || op_span_ids.empty()) return;
  for (const auto& span : registry->spans()) {
    const auto next = std::upper_bound(op_span_ids.begin(), op_span_ids.end(),
                                       span.id);
    if (next == op_span_ids.begin()) continue;  // opened before the first op
    const uint64_t op =
        static_cast<uint64_t>(next - op_span_ids.begin()) - 1;
    if (span.FindAttribute("op") == nullptr) {
      registry->SetSpanAttribute(span.id, "op", op);
    }
  }
}

namespace {

std::unordered_map<uint64_t, double> ChildSeconds(
    const std::vector<obs::SpanRecord>& spans) {
  std::unordered_map<uint64_t, double> child_sec;
  for (const auto& span : spans) {
    if (span.track != obs::Track::kWall || !span.closed) continue;
    if (span.parent_id != 0) child_sec[span.parent_id] += span.duration_sec();
  }
  return child_sec;
}

}  // namespace

std::vector<SelfTime> SelfTimes(const std::vector<obs::SpanRecord>& spans) {
  const auto child_sec = ChildSeconds(spans);
  std::map<std::string, SelfTime> by_name;
  for (const auto& span : spans) {
    if (span.track != obs::Track::kWall || !span.closed) continue;
    SelfTime& entry = by_name[span.name];
    entry.name = span.name;
    entry.count += 1;
    entry.total_ms += span.duration_sec() * 1e3;
    const auto it = child_sec.find(span.id);
    const double children = it == child_sec.end() ? 0.0 : it->second;
    entry.self_ms += std::max(0.0, span.duration_sec() - children) * 1e3;
  }
  std::vector<SelfTime> out;
  for (auto& [name, entry] : by_name) out.push_back(entry);
  return out;
}


std::vector<double> SpanDurationsMs(const std::vector<obs::SpanRecord>& spans,
                                    const std::string& name) {
  std::vector<double> out;
  for (const auto& span : spans) {
    if (span.track == obs::Track::kWall && span.closed && span.name == name) {
      out.push_back(span.duration_sec() * 1e3);
    }
  }
  return out;
}

std::vector<double> SpanSelfMs(const std::vector<obs::SpanRecord>& spans,
                               const std::string& name) {
  const auto child_sec = ChildSeconds(spans);
  std::vector<double> out;
  for (const auto& span : spans) {
    if (span.track != obs::Track::kWall || !span.closed || span.name != name) {
      continue;
    }
    const auto it = child_sec.find(span.id);
    const double children = it == child_sec.end() ? 0.0 : it->second;
    out.push_back(std::max(0.0, span.duration_sec() - children) * 1e3);
  }
  return out;
}

}  // namespace perfbench
