#ifndef SPCA_BENCH_BENCH_UTIL_H_
#define SPCA_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "baselines/cov_eig_pca.h"
#include "baselines/ssvd_pca.h"
#include "core/spca.h"
#include "dist/cluster_spec.h"
#include "dist/engine.h"
#include "dist/fault.h"
#include "dist/replay.h"
#include "obs/stream.h"
#include "workload/datasets.h"

namespace spca::bench {

/// Shared observability setup for every benchmark binary: owns the one
/// obs::Registry the whole bench (all its engines and solvers) writes to,
/// and parses the common flags
///   --metrics              print the metrics table after the bench
///   --trace-out=FILE       write a Chrome trace (all spans) at exit
///   --trace-stream=FILE    stream spans as JSON lines while running
///   --flush-every=N        streaming flush window in jobs (default 32)
///   --fault-rate=P         deterministic task failure probability
///   --straggler-rate=P     straggler probability (slowdown via
///   --straggler-slowdown=F, default 4)
///   --max-retries=N        retries per task (default 3)
///   --retry-backoff=SEC    rescheduling delay charged per retry
///   --fault-seed=N         seed of the fault schedule
/// The fault flags install a process-wide FaultPlan (BenchFaultPlan())
/// that every Run* helper's engine consults, so a whole bench can be
/// re-run under injected failures; results stay bit-identical, only the
/// simulated times move.
/// Flags parse through spca::FlagSet, so both `--flag value` and
/// `--flag=value` spellings work; an unknown flag, a malformed value or an
/// out-of-range fault setting (FaultSpec::Validate) prints an error and
/// usage and exits with status 2. With --trace-stream active, spans
/// are drained out of the registry as the bench runs, so a simultaneous
/// --trace-out file holds only the spans still live at exit.
///
/// Note that the registry is shared across a bench's engines by design —
/// per-run numbers printed by benches come from the per-fit StatsDiff in
/// each result, never from cross-engine cumulative counters.
class BenchEnv {
 public:
  BenchEnv(int argc, char** argv);
  /// Finalizes the requested exports (streamer close + summary line,
  /// Chrome trace write, metrics table).
  ~BenchEnv();

  BenchEnv(const BenchEnv&) = delete;
  BenchEnv& operator=(const BenchEnv&) = delete;

  obs::Registry* registry() { return &registry_; }

 private:
  obs::Registry registry_;
  std::unique_ptr<obs::TraceStreamer> streamer_;
  bool print_metrics_ = false;
  std::string trace_out_path_;
};

/// The paper's testbed (Section 5): 8 EC2 m3.2xlarge nodes, 8 cores and
/// 32 GB each. All simulated times in the benchmark output assume this
/// cluster unless a bench says otherwise.
dist::ClusterSpec PaperSpec();

/// The fault plan installed by BenchEnv's --fault-rate/--straggler-rate
/// family of flags (inactive by default). Run* helpers apply it to the
/// engines they construct; benches building their own engines should do
/// the same via Engine::SetFaultPlan.
const dist::FaultPlan& BenchFaultPlan();

/// Scale factor for the synthetic datasets, settable via the environment
/// variable SPCA_BENCH_SCALE (default 1.0). 2.0 doubles row counts.
double BenchScale();

/// Applies BenchScale() to a row count.
size_t ScaledRows(size_t rows);

/// One benchmark measurement row.
struct RunOutcome {
  std::string algorithm;
  bool ok = false;
  std::string failure;          // short reason when !ok
  double simulated_seconds = 0.0;
  double wall_seconds = 0.0;
  double accuracy_percent = 0.0;  // 0 when not measured
  int iterations = 0;  // 0 for MLlib's single pass
  dist::CommStats stats;
  uint64_t driver_bytes = 0;  // sPCA and MLlib only
  core::PcaModel model;
};

/// Computes the shared ideal-error anchor for a dataset once (a converged
/// PPCA run on a throwaway engine), so every algorithm in a bench reports
/// accuracy against the same reference.
double DatasetIdealError(const dist::DistMatrix& matrix, size_t d);

/// Runs sPCA as the paper's Algorithm 4 (SpcaOptions::driver_moments off,
/// so ss3Job runs every iteration) on the given engine mode; stops at
/// `target_accuracy` of ideal (<=1.0) or after `max_iterations`.
/// `ideal_error` > 0 supplies the shared accuracy anchor. A non-null
/// `registry` collects the run's metrics and spans (each Run* helper
/// otherwise uses a throwaway engine-owned registry).
RunOutcome RunSpca(dist::EngineMode mode, const dist::DistMatrix& matrix,
                   size_t d, double target_accuracy = 0.95,
                   int max_iterations = 10, bool smart_guess = false,
                   double ideal_error = 0.0,
                   obs::Registry* registry = nullptr);

/// Runs the Mahout-PCA analogue (stochastic SVD on MapReduce).
RunOutcome RunMahoutPca(const dist::DistMatrix& matrix, size_t d,
                        double target_accuracy = 0.95,
                        int max_power_iterations = 10,
                        double ideal_error = 0.0,
                        obs::Registry* registry = nullptr);

/// Runs the MLlib-PCA analogue (covariance + eigendecomposition on Spark),
/// including its driver-memory failure mode.
RunOutcome RunMllibPca(const dist::DistMatrix& matrix, size_t d,
                       obs::Registry* registry = nullptr);

/// Formats "1.26M x 71.5K"-style dataset size labels.
std::string SizeLabel(size_t rows, size_t cols);

/// Replays a recorded run (its job traces plus driver/broadcast work from
/// `stats`) under the cluster `spec` with every per-row quantity — task
/// flops, input bytes — multiplied by `row_scale`. Per-job intermediate
/// bytes are multiplied by `intermediate_row_scale(job)`: pass row_scale
/// for N-proportional intermediates (e.g. SSVD's materialized N x k
/// matrices) and 1.0 for row-count-independent ones (sPCA's D x d mapper
/// partials). This is how the benchmarks extrapolate laptop-scale
/// measurements to the paper's billion-row datasets; the extrapolation is
/// exact under the cost model because every scaled quantity is linear in
/// the row count.
///
/// When `registry` is non-null the sweep is also emitted as a
/// `replay.<label>` span tree on the simulated-time track starting at
/// `sim_start_sec` (see dist::ReplayRun), so extrapolated runs are
/// inspectable in chrome://tracing next to the measured one.
double ReplayAtScale(
    const std::vector<dist::JobTrace>& traces, const dist::CommStats& stats,
    const dist::ClusterSpec& spec, dist::EngineMode mode, double row_scale,
    const std::function<double(const dist::JobTrace&)>&
        intermediate_row_scale,
    obs::Registry* registry = nullptr, const std::string& label = "sweep",
    double sim_start_sec = 0.0);

/// Prints a section header for a bench.
void PrintHeader(const std::string& title, const std::string& subtitle);

}  // namespace spca::bench

#endif  // SPCA_BENCH_BENCH_UTIL_H_
