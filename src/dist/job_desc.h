#ifndef SPCA_DIST_JOB_DESC_H_
#define SPCA_DIST_JOB_DESC_H_

#include <string>
#include <utility>

namespace spca::dist {

/// Descriptor of one distributed job submitted to Engine::RunMap. Spans,
/// JobTraces, per-job metrics, and cost-model replay all key off this one
/// struct instead of parsing ad-hoc name strings. Call sites spell it out:
/// `RunMap<T>(dist::JobDesc{"meanJob", "preprocess"}, ...)`.
struct JobDesc {
  /// Job name as it appears in traces and the paper's per-job analysis
  /// (e.g. "YtXJob", "ssvd.BtJob").
  std::string name;
  /// Logical algorithm phase the job belongs to ("preprocess",
  /// "em_iteration", "projection", ...); empty when the caller does not
  /// care. Exported as the span's phase attribute and aggregated under
  /// engine.phase.<phase>.* counters.
  std::string phase;
  /// Whether the platform may serve this job's input from cluster memory
  /// once cached (Spark RDD caching). Set false for jobs whose input must
  /// be re-read every time regardless of platform.
  bool cacheable = true;

  explicit JobDesc(std::string name, std::string phase = "",
                   bool cacheable = true)
      : name(std::move(name)), phase(std::move(phase)), cacheable(cacheable) {}
};

}  // namespace spca::dist

#endif  // SPCA_DIST_JOB_DESC_H_
