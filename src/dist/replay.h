#ifndef SPCA_DIST_REPLAY_H_
#define SPCA_DIST_REPLAY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dist/cluster_spec.h"
#include "dist/comm_stats.h"
#include "dist/fault.h"
#include "obs/registry.h"

namespace spca::dist {

/// Record of one executed distributed job (for per-job analysis, Section
/// 5.2 "Analysis of sPCA and Mahout-PCA Jobs", and for cost-model replay).
/// Produced from the same accounting that feeds the obs::Registry, so the
/// sums over traces always match the engine.* counters.
struct JobTrace {
  std::string name;
  std::string phase;     // JobDesc::phase of the submitting caller
  size_t num_tasks = 0;
  CommStats stats;       // this job only
  double launch_sec = 0.0;
  double compute_sec = 0.0;  // max-over-cores task compute time
  double data_sec = 0.0;     // input + intermediate + result movement
  /// Per-task *charged* flop counts (including fault-injection retries and
  /// straggler slowdowns), for replaying the job under a different
  /// ClusterSpec or data scale.
  std::vector<uint64_t> task_flops;
  /// Per-task *charged* intermediate/result bytes (each task's emitted
  /// bytes times one-plus-its-recorded-extra-attempts; sums equal
  /// stats.intermediate_bytes / stats.result_bytes), one entry per task.
  /// ReplayJobCostWithFaults re-ships each retried task's own bytes from
  /// these — exact for jobs whose tasks emit non-uniformly (e.g. ragged
  /// final partitions).
  std::vector<uint64_t> task_intermediate_bytes;
  std::vector<uint64_t> task_result_bytes;
  /// Number of re-executed task attempts injected by the failure model.
  size_t task_retries = 0;
  /// Tasks whose committing attempt ran at the straggler slowdown.
  size_t straggler_tasks = 0;
  /// Tasks killed by a correlated node loss (already counted in
  /// task_retries; recorded so the correlated share is reportable).
  size_t node_loss_tasks = 0;
  /// Occupancy of each losing speculative duplicate, in charged flop
  /// units, in task order over the speculated tasks only. These enter the
  /// core schedule as extra load alongside task_flops; empty when
  /// speculation was off.
  std::vector<uint64_t> speculative_flops;
  /// Speculative copies launched / copies that won the commit race.
  size_t speculative_launched = 0;
  size_t speculative_copies_won = 0;
  /// Extra worker flops charged for failed attempts (already included in
  /// task_flops; recorded for recovery-overhead reporting).
  uint64_t retry_flops = 0;
  /// Retry rescheduling delay charged into this job's launch time.
  double backoff_sec = 0.0;
  /// Input bytes actually charged for this job (0 when the input RDD was
  /// already cached in cluster memory).
  double charged_input_bytes = 0.0;
};

/// Multipliers applied to a recorded job when replaying it at a different
/// data scale: per-row work and N-proportional data volumes scale linearly
/// with the row count, while broadcasts and D x d partials do not. Used by
/// the benchmarks to extrapolate laptop-scale measurements to the paper's
/// billion-row datasets (see EXPERIMENTS.md).
struct ReplayScales {
  double flops = 1.0;
  double input_bytes = 1.0;
  double intermediate_bytes = 1.0;
  double result_bytes = 1.0;
};

/// One job's simulated cost, split the way the engine charges it.
struct JobCost {
  double launch_sec = 0.0;
  double compute_sec = 0.0;
  double data_sec = 0.0;

  double Total() const { return launch_sec + compute_sec + data_sec; }
};

/// The cluster cost model, shared by live accounting (Engine::FinishJob)
/// and trace replay — the replay-equals-live identity the validation tests
/// assert depends on both paths calling exactly this function.
/// `backoff_sec` is the fault layer's retry rescheduling delay; it is added
/// to the job's launch time (a retry stalls the job, it does not move
/// data). `extra_load_flops`, when non-null, is additional schedulable
/// work placed on the cores after the tasks — the occupancy of losing
/// speculative duplicates — scaled by the same `flop_scale`.
JobCost ComputeJobCost(const ClusterSpec& spec, EngineMode mode,
                       const std::vector<uint64_t>& task_flops,
                       double flop_scale, double input_bytes,
                       double intermediate_bytes, double result_bytes,
                       double backoff_sec = 0.0,
                       const std::vector<uint64_t>* extra_load_flops = nullptr);

/// Recomputes one recorded job's cost under a (possibly different) cluster
/// and engine mode, with the given scale multipliers. Fault charges the
/// live run recorded (retry flops, re-shipped bytes, backoff) replay
/// as-is, so unit-scale replay of a faulted run reproduces its cost.
JobCost ReplayJobCost(const JobTrace& trace, const ClusterSpec& spec,
                      EngineMode mode, const ReplayScales& scales);

/// ReplayJobCost with *additional* fault injection: applies `plan`'s
/// deterministic per-task draws (keyed by `job_index`, matching the
/// engine's own job numbering) to the recorded job — failed attempts
/// re-pay each task's recorded compute and re-ship that task's recorded
/// intermediate/result bytes, stragglers slow their task, and retry
/// backoff is added to launch. Meant for injecting hypothetical faults
/// into a *clean* recorded run ("what does a 2% failure rate cost at a
/// billion rows"); injecting into an already-faulted trace charges the
/// recorded and the injected faults both. Reproduces exactly what a live
/// run under the same plan would charge, uniform task outputs or not.
/// The trace must carry per-task bytes for every task (CHECKed when
/// `plan` is active), as every engine-recorded trace does.
JobCost ReplayJobCostWithFaults(const JobTrace& trace,
                                const ClusterSpec& spec, EngineMode mode,
                                const ReplayScales& scales,
                                const FaultPlan& plan, uint64_t job_index);

/// Chooses the scale multipliers for one recorded job (jobs differ: e.g.
/// reduce-side intermediate data may not grow with the row count).
using ReplayScalesFn = std::function<ReplayScales(const JobTrace&)>;

/// Replays a whole recorded run — every job plus the row-count-independent
/// driver tail (driver algebra at one core's flop rate, broadcasts paying
/// one copy per node) — and returns its total simulated seconds. When
/// `registry` is non-null the sweep is emitted as a `replay.<label>` span
/// tree on the simulated-time track starting at `sim_start_sec`, with one
/// `replay.<job name>` span per job (carrying the scale multipliers, and
/// fault.* attributes when injecting, over the same launch/compute/data
/// children a live job gets) and a final `replay.driver` span for the
/// tail. Each job span fires the registry's job-completion hook, so a
/// streaming exporter drains replayed spans at its usual cadence.
/// A non-null `fault_plan` injects that plan's faults into every replayed
/// job, numbering jobs by their position in `traces` — the same numbering
/// a live engine would use — so a replayed sweep answers what a given
/// failure/straggler rate costs at any scale.
double ReplayRun(const std::vector<JobTrace>& traces, const CommStats& stats,
                 const ClusterSpec& spec, EngineMode mode,
                 const ReplayScalesFn& scales_for_job,
                 obs::Registry* registry = nullptr,
                 const std::string& label = "sweep",
                 double sim_start_sec = 0.0,
                 const FaultPlan* fault_plan = nullptr);

}  // namespace spca::dist

#endif  // SPCA_DIST_REPLAY_H_
