#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement plumbing shared by the workloads: order statistics, process
// counters read from /proc, the result report, and the bench-side span log
// of the traced run.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/registry.h"

namespace perfbench {

namespace obs = spca::obs;

// ---- Order statistics --------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// The highest of p90/p99/p99.9 that has at least ten samples beyond it,
/// with the sample count it rests on (q == 0 when the sample is too small).
struct Tail {
  double q = 0.0;
  double value = 0.0;
  size_t samples = 0;
};
Tail SupportedTail(const std::vector<double>& values);

/// Completions per second, as the median over the intervals between
/// consecutive `stamps` (ascending, the first interval starting at
/// `start_sec`), each holding `per_stamp` completions: one stalled
/// interval cannot move it.
double MedianIntervalRate(const std::vector<double>& stamps, double start_sec,
                          size_t per_stamp);

// ---- Process and host counters -----------------------------------------

/// User + system CPU seconds of this process (all threads).
double ProcessCpuSeconds();
/// Minor page faults of this process so far (getrusage ru_minflt).
double ProcessMinorFaults();
/// CPU seconds of the calling thread.
double ThreadCpuSeconds();
/// Steady-clock seconds (the epoch every client timestamp uses).
double NowSeconds();
/// Host steal seconds so far (the `steal` column of /proc/stat).
double HostStealSeconds();
/// Ends set-up: returns freed heap memory to the kernel (so set-up garbage
/// does not pad the operations' footprint) and resets VmHWM to the current
/// RSS (writes 5 to /proc/self/clear_refs). False when the kernel refuses.
bool EndSetUpMemory();
/// VmHWM / VmRSS of this process in kB (0 when unreadable).
double PeakRssKb();
double CurrentRssKb();

// ---- Report ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run prints: metrics, operation counts, check results, and
/// diagnostic lines that are never gated on.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records one operation and whether every check on it passed.
  void CountOp(bool ok);
  /// Records `attempted` operations of which `failed` failed a check.
  void CountOps(uint64_t attempted, uint64_t failed);
  /// Marks an already-counted operation as failed (a check that runs after
  /// the operation, such as the end-of-run identity check).
  void FailCounted(const std::string& why);
  /// Prints a diagnostic line immediately ("# " prefix on stdout).
  void Diag(const std::string& line) const;
  /// Records why a check failed (the first few reasons are printed).
  void NoteFailure(const std::string& why);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<Metric>& metrics() const { return metrics_; }
  /// The final result line.
  std::string Json() const;

 private:
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  size_t failure_notes_ = 0;
};

// ---- Traced-run span log -----------------------------------------------

/// A span measured on a client thread, buffered until the driver thread
/// has closed its own spans (the registry's nesting stack belongs to the
/// driver thread) and then added as a root with its children.
struct PendingSpan {
  std::string name;
  double start_sec = 0.0;
  double end_sec = 0.0;
  uint64_t op = 0;
  std::vector<PendingSpan> children;
};

/// Adds buffered client-thread spans to `registry` (no-op when null).
void FlushPendingSpans(obs::Registry* registry,
                       const std::vector<PendingSpan>& spans);

/// Gives every span opened during op k (ids from `op_span_ids[k]` up to
/// the next op's) an "op" attribute of k, so the engine's own spans carry
/// the op id of the bench-side span they ran under.
void TagOps(obs::Registry* registry, const std::vector<uint64_t>& op_span_ids);

/// Wall-clock self time per span name: each span's duration minus the part
/// of it its direct children cover, summed over spans of that name.
struct SelfTime {
  std::string name;
  size_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};
std::vector<SelfTime> SelfTimes(const std::vector<obs::SpanRecord>& spans);

/// Wall durations (ms) of the spans named `name`, and their self times
/// (duration minus the direct children's).
std::vector<double> SpanDurationsMs(const std::vector<obs::SpanRecord>& spans,
                                    const std::string& name);
std::vector<double> SpanSelfMs(const std::vector<obs::SpanRecord>& spans,
                               const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
