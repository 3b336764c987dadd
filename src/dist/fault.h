#ifndef SPCA_DIST_FAULT_H_
#define SPCA_DIST_FAULT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"

namespace spca::dist {

/// Speculative re-launch of straggler tasks, Spark/Hadoop style: when the
/// scheduler notices a task running far behind its siblings it launches a
/// duplicate attempt on another worker and commits whichever copy finishes
/// first. The simulation keeps results bit-identical (task functions are
/// pure, exactly one attempt commits) and charges only cost: the winning
/// attempt's occupancy replaces the straggler's, and the losing copy's
/// occupancy is charged as wasted duplicate load on the cluster.
struct SpeculationSpec {
  bool enabled = false;

  /// The scheduler notices the straggler and launches the copy after the
  /// healthy task duration times this factor (the copy then runs at full
  /// speed, finishing at (1 + relaunch_delay_factor) x healthy time).
  double relaunch_delay_factor = 0.25;

  /// Only tasks with slowdown >= this threshold are speculated (matches
  /// spark.speculation.multiplier: modest stragglers are left alone).
  double min_slowdown = 2.0;
};

/// Configuration of the fault-injection layer: how often individual
/// partition tasks fail (and are re-executed by the platform) or straggle
/// (run at a fraction of the healthy compute rate). This models the
/// failure behaviour the paper's platforms provide "for free" (Section 1):
/// MapReduce re-executes failed/straggler tasks per job, Spark recomputes
/// lineage — either way the re-execution re-pays the task's compute and
/// re-ships its output, which is the recovery overhead the engine charges.
struct FaultSpec {
  /// Seed of the deterministic fault stream. Two runs with the same seed,
  /// job sequence, and partition counts see exactly the same faults,
  /// independent of thread scheduling.
  uint64_t seed = 0x5ca1ab1eULL;

  /// Probability that any single task attempt fails and must be retried.
  double task_failure_probability = 0.0;

  /// Hard cap on attempts per task (1 original + retries). Matches the
  /// platforms' mapred.map.max.attempts / spark.task.maxFailures knobs;
  /// the final attempt always succeeds in the simulation, so results are
  /// unaffected by where the cap lands.
  int max_task_attempts = 4;

  /// Scheduling delay charged per retry (the platform notices the failure,
  /// reschedules, and re-localizes the split). Added to the job's
  /// simulated launch time, never to wall time.
  double retry_backoff_sec = 0.0;

  /// Probability that a task's *successful* attempt runs on a degraded
  /// executor and takes straggler_slowdown times its healthy compute time.
  double straggler_probability = 0.0;

  /// Compute-time multiplier for straggler tasks (>= 1).
  double straggler_slowdown = 4.0;

  /// Probability that a whole simulated worker is lost for one job. The
  /// loss is *correlated*: a single seeded draw per (job, worker) kills
  /// every task resident on that worker at once (task -> worker placement
  /// is task_index % num_workers), and each victim is re-executed once on
  /// a surviving worker. This models node failures, which per-task
  /// independent draws cannot: they never produce the burst of
  /// simultaneous re-executions a lost node causes.
  double node_failure_probability = 0.0;

  /// Number of simulated workers tasks are placed on for the correlated
  /// node-failure draw. Independent of the execution thread count — the
  /// placement is part of the deterministic fault schedule, not of the
  /// real scheduling.
  int num_workers = 16;

  /// Speculative re-launch policy for stragglers.
  SpeculationSpec speculation;

  bool active() const {
    return task_failure_probability > 0.0 || straggler_probability > 0.0 ||
           node_failure_probability > 0.0;
  }

  /// InvalidArgument unless every field is finite and in range: failure
  /// and node-loss probabilities in [0, 1), straggler probability in
  /// [0, 1], slowdown >= 1, attempts >= 1, backoff >= 0, workers >= 1,
  /// speculation delay > 0 and minimum slowdown > 1. The one check for
  /// fault settings that arrive from outside the program; FaultPlan's
  /// constructor still CHECKs the lower bounds.
  Status Validate() const;
};

/// The faults one (job, task) pair experiences: how many attempts fail
/// before the committing attempt, and how slow the committing attempt is.
struct TaskFault {
  int extra_attempts = 0;  // failed attempts before the success
  double slowdown = 1.0;   // compute multiplier of the successful attempt
  /// True when one of the failed attempts came from a correlated node
  /// loss rather than an independent task fault.
  bool node_loss = false;

  bool clean() const {
    return extra_attempts == 0 && slowdown == 1.0 && !node_loss;
  }
};

/// How the scheduler resolved one task's straggle, and what it charges.
/// Produced by ResolveTaskCharge, the single accounting function shared by
/// live execution (Engine::FinishJob) and fault-injecting replay, so both
/// charge bit-identical costs.
struct TaskCharge {
  /// Occupancy of the committing attempt plus all failed attempts, in
  /// healthy-flop units; this is what enters the task's schedule slot.
  uint64_t committed_flops = 0;
  /// Occupancy of the losing speculative copy (0 when none launched);
  /// charged as extra schedulable load on the cluster.
  uint64_t duplicate_flops = 0;
  bool speculated = false;  // a duplicate copy was launched
  bool copy_won = false;    // the duplicate committed (original was killed)
};

/// Resolves the cost of one task under `fault` with speculation policy
/// `spec`. Without speculation (or for non-straggling tasks) this reduces
/// to ChargedTaskFlops. With speculation, the committing attempt's
/// occupancy becomes min(slowdown, 1 + relaunch_delay_factor) x healthy
/// flops — first commit wins — and the loser's occupancy from launch until
/// the winner commits is returned as duplicate_flops.
TaskCharge ResolveTaskCharge(uint64_t healthy_flops, const TaskFault& fault,
                             const SpeculationSpec& spec);

/// Seeded, deterministic fault schedule. Draw(job, task) is a pure
/// function of (spec.seed, job index, task index): the engine draws every
/// task's fault on the driver before the job starts, so worker scheduling
/// can never change which faults occur, and replay can re-derive the exact
/// same schedule from the same plan. A default-constructed plan injects
/// nothing and costs nothing.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(const FaultSpec& spec);

  const FaultSpec& spec() const { return spec_; }
  bool active() const { return spec_.active(); }

  /// The fault assigned to task `task_index` of the `job_index`-th job.
  /// Combines the independent per-task stream with the correlated
  /// node-failure draw for the task's resident worker.
  TaskFault Draw(uint64_t job_index, uint64_t task_index) const;

  /// Draw() for every task of one job, in task order.
  std::vector<TaskFault> DrawJob(uint64_t job_index, size_t num_tasks) const;

  /// Whether worker `worker_index` is lost for job `job_index` — a pure
  /// function of (seed, job, worker), drawn from its own stream so it
  /// kills every resident task with a single draw and never perturbs the
  /// per-task streams.
  bool WorkerLost(uint64_t job_index, uint64_t worker_index) const;

  /// The worker hosting `task_index` under the plan's placement.
  uint64_t WorkerOf(uint64_t task_index) const {
    return task_index % static_cast<uint64_t>(spec_.num_workers);
  }

  /// Total rescheduling delay for `extra_attempts` failed attempts.
  double BackoffSeconds(uint64_t extra_attempts) const {
    return spec_.retry_backoff_sec * static_cast<double>(extra_attempts);
  }

 private:
  FaultSpec spec_;
};

/// Simulated compute charged for one task under `fault`: every failed
/// attempt re-pays the committed attempt's flops at full price, and the
/// successful attempt pays the straggler slowdown. Shared by live
/// accounting (Engine::FinishJob) and fault-injecting replay so both
/// charge identically.
uint64_t ChargedTaskFlops(uint64_t committed_flops, const TaskFault& fault);

}  // namespace spca::dist

#endif  // SPCA_DIST_FAULT_H_
