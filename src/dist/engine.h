#ifndef SPCA_DIST_ENGINE_H_
#define SPCA_DIST_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "dist/cluster_spec.h"
#include "dist/comm_stats.h"
#include "dist/dist_matrix.h"
#include "dist/fault.h"
#include "dist/job_desc.h"
#include "dist/replay.h"
#include "dist/worker_pool.h"
#include "obs/registry.h"

namespace spca::dist {

/// Per-task accounting handle passed to every map function. Tasks report
/// the work they do and the data they emit; the engine converts these into
/// simulated cluster time using the ClusterSpec.
class TaskContext {
 public:
  /// Records floating-point work executed by this task.
  void CountFlops(uint64_t flops) { flops_ += flops; }

  /// Records mapper/stage output that must be materialized between phases
  /// (the paper's "intermediate data"). On MapReduce this goes through the
  /// DFS (disk write + read); on Spark through memory/network.
  void EmitIntermediate(uint64_t bytes) { intermediate_bytes_ += bytes; }

  /// Records bytes returned to the driver (accumulator partials / reducer
  /// output), e.g. the stateful combiner's XtX-p and YtX-p matrices.
  void EmitResult(uint64_t bytes) { result_bytes_ += bytes; }

  uint64_t flops() const { return flops_; }
  uint64_t intermediate_bytes() const { return intermediate_bytes_; }
  uint64_t result_bytes() const { return result_bytes_; }

 private:
  uint64_t flops_ = 0;
  uint64_t intermediate_bytes_ = 0;
  uint64_t result_bytes_ = 0;
};

class Engine;

/// A driver-memory reservation from Engine::ReserveDriverMemory, released
/// when the handle is destroyed — on every exit path of the solve holding
/// it, failed ones included. Move-only.
class DriverReservation {
 public:
  DriverReservation(DriverReservation&& other) noexcept
      : engine_(std::exchange(other.engine_, nullptr)), bytes_(other.bytes_) {}
  ~DriverReservation();

 private:
  friend class Engine;
  DriverReservation(Engine* engine, uint64_t bytes)
      : engine_(engine), bytes_(bytes) {}

  Engine* engine_;
  uint64_t bytes_;
};

/// Driver bytes of a solver whose driver state is linear in D: the runtime
/// baseline plus four D x `width` matrices (the model, its broadcast
/// derivative, the merged statistics and the partials being merged) with
/// a JVM-style object overhead factor. Unlike MLlib-PCA's D x D
/// covariance this stays nearly flat as D grows (Figure 8).
uint64_t LinearDriverStateBytes(const ClusterSpec& spec, size_t dim,
                                size_t width);

// JobTrace, ReplayScales, and the replay entry points (ReplayJobCost,
// ReplayJobCostWithFaults, ReplayRun) live in dist/replay.h, alongside the
// ComputeJobCost cost model FinishJob shares with them.

/// The distributed-execution engine: runs map jobs over the partitions of a
/// DistMatrix, really executing the task functions in this process (so all
/// numerical results are exact) while accounting simulated cluster time and
/// communication volume per the ClusterSpec and EngineMode.
///
/// This is the repository's substitute for Hadoop MapReduce / Spark (see
/// DESIGN.md): the paper's performance story is (compute, intermediate
/// data, platform overheads), all of which are modeled explicitly.
///
/// Observability: every quantity the engine accounts lives in an
/// obs::Registry — the `engine.*` counters/gauges/histograms — and every
/// job opens a span (with simulated launch/compute/data phases as child
/// spans on the simulated-time track). The engine owns a registry by
/// default; pass one to the constructor to merge engine telemetry into a
/// run-wide registry (what spca_cli --trace-out does). CommStats snapshots
/// returned by StatsSnapshot() are materialized *from* the registry
/// counters, so there is exactly one source of truth.
class Engine {
 public:
  /// `registry`, when non-null, must outlive the engine. Fault injection
  /// is off until SetFaultPlan installs a plan. The spec needs at least
  /// one node of at least one core.
  explicit Engine(const ClusterSpec& spec, EngineMode mode,
                  obs::Registry* registry = nullptr)
      : spec_(spec),
        mode_(mode),
        registry_(registry != nullptr ? registry : &owned_registry_) {
    SPCA_CHECK_GE(spec_.num_nodes, 1);
    SPCA_CHECK_GE(spec_.cores_per_node, 1);
  }

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const ClusterSpec& spec() const { return spec_; }
  EngineMode mode() const { return mode_; }

  /// The registry all engine telemetry lands in (never null). Algorithms
  /// layered on the engine (Spca, the baselines) emit their spans here by
  /// default so one registry holds the whole run.
  obs::Registry* registry() const { return registry_; }

  /// Cumulative statistics since construction or the last ResetStats(),
  /// materialized from the registry's engine.* counters and returned by
  /// value. Safe to call from any thread at any time (the counters are
  /// atomics; nothing is materialized into shared engine state).
  CommStats StatsSnapshot() const;

  const std::vector<JobTrace>& traces() const { return traces_; }
  void ResetStats();

  /// Runs `fn(range, ctx)` once per partition of `matrix` and returns the
  /// per-partition results in partition order (deterministic regardless of
  /// thread scheduling). Fn: (const RowRange&, TaskContext*) -> T.
  /// `job` carries the name/phase/cacheability.
  ///
  /// Fault injection: when a FaultPlan is active, each task's faults are
  /// drawn on the driver before execution (keyed by job index and task
  /// index, never by scheduling), failed attempts really re-run the same
  /// partition function with a scratch TaskContext whose result is
  /// discarded, and only the final attempt commits into the returned
  /// vector — exactly once per task. Because partition functions are pure
  /// (see core/jobs.h), results are bit-identical to a no-fault run; only
  /// the accounted cost changes.
  template <typename T, typename Fn>
  std::vector<T> RunMap(const JobDesc& job, const DistMatrix& matrix,
                        Fn&& fn) {
    const size_t num_tasks = matrix.num_partitions();
    std::vector<T> results(num_tasks);
    std::vector<TaskContext> contexts(num_tasks);
    const uint64_t job_index = next_job_index_++;
    const std::vector<TaskFault> faults =
        fault_plan_.DrawJob(job_index, num_tasks);
    // Recovery-aware scheduling: a straggler at or above the speculation
    // threshold gets a duplicate attempt really executed (as one more
    // scratch run — first commit wins, and with pure task functions both
    // copies produce identical bits, so committing the last attempt is
    // equivalent). The cost asymmetry is charged in FinishJob.
    const SpeculationSpec& speculation = fault_plan_.spec().speculation;
    auto total_attempts = [&](size_t p) {
      const bool speculated = speculation.enabled &&
                              faults[p].slowdown >= speculation.min_slowdown;
      return 1 + faults[p].extra_attempts + (speculated ? 1 : 0);
    };

    obs::Span span(registry_, job.name, "job");
    Stopwatch wall;
    auto run_attempt = [&](size_t p, int /*attempt*/, bool is_final) {
      TaskContext scratch;
      TaskContext* ctx = is_final ? &contexts[p] : &scratch;
      T value = fn(matrix.partition(p), ctx);
      if (is_final) results[p] = std::move(value);
    };
    const size_t hardware =
        local_workers_ > 0
            ? local_workers_
            : std::max<unsigned>(1, std::thread::hardware_concurrency());
    const size_t num_workers = std::min(num_tasks, hardware);
    if (num_workers <= 1) {
      for (size_t p = 0; p < num_tasks; ++p) {
        const int attempts = total_attempts(p);
        for (int a = 0; a < attempts; ++a) {
          run_attempt(p, a, a + 1 == attempts);
        }
      }
    } else {
      WorkerPool* pool = EnsureWorkerPool(hardware);
      pool->RunAttempts(num_tasks, total_attempts, run_attempt);
    }

    FinishJob(job, matrix, contexts, faults, wall.ElapsedSeconds(), &span);
    return results;
  }

  /// Accounts a broadcast of `bytes` from the driver to every node (the
  /// in-memory matrix CM, the mean vector, ...).
  void Broadcast(uint64_t bytes);

  /// Records driver-side floating point work (the small d x d algebra).
  void CountDriverFlops(uint64_t flops);

  /// Routes a task's partial-result bytes per platform: MapReduce mapper
  /// output travels through the DFS between the map and reduce phases
  /// (intermediate data), whereas Spark accumulator updates flow straight
  /// to the driver (result data).
  void EmitPartial(TaskContext* ctx, uint64_t bytes) const {
    if (mode_ == EngineMode::kMapReduce) {
      ctx->EmitIntermediate(bytes);
    } else {
      ctx->EmitResult(bytes);
    }
  }

  /// Reserves driver memory for as long as the returned handle lives;
  /// fails with OUT_OF_MEMORY when the driver's budget would be exceeded
  /// (this is how the MLlib-PCA baseline fails for D > ~6,000 in Figures
  /// 7/8). `what` names the allocation for the error message.
  StatusOr<DriverReservation> ReserveDriverMemory(const std::string& what,
                                                  uint64_t bytes);
  uint64_t current_driver_memory() const { return driver_memory_; }
  uint64_t peak_driver_memory() const { return peak_driver_memory_; }

  /// Total modeled cluster seconds accumulated so far (the value of the
  /// engine.simulated_seconds counter).
  double SimulatedSeconds() const;

  /// Overrides how many local threads execute tasks (0 = use the hardware
  /// concurrency). 1 forces fully deterministic inline execution; tests use
  /// >1 to exercise the worker pool on single-core machines. A setting
  /// made before the first pooled job: the pool is sized once, and a later
  /// call that changes its size fails a CHECK at the next pooled job.
  void SetLocalWorkers(size_t n) { local_workers_ = n; }

  /// Installs the fault-injection plan every subsequent job consults.
  /// Call before the first job for a reproducible fault schedule (draws
  /// are keyed by the engine's job counter). A default-constructed plan
  /// turns fault injection off.
  void SetFaultPlan(const FaultPlan& plan) { fault_plan_ = plan; }
  const FaultPlan& fault_plan() const { return fault_plan_; }

 private:
  friend class DriverReservation;
  void ReleaseDriverMemory(uint64_t bytes);

  /// Lazily creates the persistent worker pool of `num_threads` workers
  /// and records the spawn / reuse bookkeeping (engine.pool.* metrics).
  WorkerPool* EnsureWorkerPool(size_t num_threads);

  /// Converts per-task accounting (including `faults` — the retry and
  /// straggler charges) into simulated time, updates the registry, and
  /// appends the JobTrace snapshot.
  void FinishJob(const JobDesc& job, const DistMatrix& matrix,
                 const std::vector<TaskContext>& contexts,
                 const std::vector<TaskFault>& faults, double wall_seconds,
                 obs::Span* span);

  const ClusterSpec spec_;
  EngineMode mode_;
  obs::Registry owned_registry_;
  obs::Registry* registry_;
  std::vector<JobTrace> traces_;
  FaultPlan fault_plan_;
  // Jobs launched since construction / ResetStats — the job index faults
  // are keyed by, deliberately independent of traces_ so draining traces
  // could never perturb the fault schedule.
  uint64_t next_job_index_ = 0;
  size_t local_workers_ = 0;  // 0 = hardware concurrency
  std::unique_ptr<WorkerPool> pool_;
  uint64_t driver_memory_ = 0;
  uint64_t peak_driver_memory_ = 0;
  // Matrices already resident in cluster memory (Spark caches the input RDD
  // after the first job; MapReduce re-reads from the DFS every job).
  std::set<uint64_t> cached_inputs_;  // DistMatrix::StorageKey()s
};

}  // namespace spca::dist

#endif  // SPCA_DIST_ENGINE_H_
