#include "dist/fault.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace spca::dist {

Status FaultSpec::Validate() const {
  // Each test is written so that NaN fails it; the isfinite halves keep
  // infinities out of the unbounded ranges.
  const char* error = nullptr;
  if (!(task_failure_probability >= 0.0 && task_failure_probability < 1.0)) {
    error = "task failure probability must be in [0, 1)";
  } else if (!(node_failure_probability >= 0.0 &&
               node_failure_probability < 1.0)) {
    error = "node failure probability must be in [0, 1)";
  } else if (!(straggler_probability >= 0.0 && straggler_probability <= 1.0)) {
    error = "straggler probability must be in [0, 1]";
  } else if (!(straggler_slowdown >= 1.0 &&
               std::isfinite(straggler_slowdown))) {
    error = "straggler slowdown must be >= 1";
  } else if (max_task_attempts < 1) {
    error = "max task attempts must be >= 1";
  } else if (!(retry_backoff_sec >= 0.0 && std::isfinite(retry_backoff_sec))) {
    error = "retry backoff must be >= 0";
  } else if (num_workers < 1) {
    error = "fault workers must be >= 1";
  } else if (!(speculation.relaunch_delay_factor > 0.0 &&
               std::isfinite(speculation.relaunch_delay_factor))) {
    error = "speculation delay must be > 0";
  } else if (!(speculation.min_slowdown > 1.0 &&
               std::isfinite(speculation.min_slowdown))) {
    error = "speculation minimum slowdown must be > 1";
  }
  return error == nullptr ? Status::Ok() : Status::InvalidArgument(error);
}

FaultPlan::FaultPlan(const FaultSpec& spec) : spec_(spec) {
  SPCA_CHECK_GE(spec_.task_failure_probability, 0.0);
  SPCA_CHECK_GE(spec_.straggler_probability, 0.0);
  SPCA_CHECK_GE(spec_.straggler_slowdown, 1.0);
  SPCA_CHECK_GE(spec_.retry_backoff_sec, 0.0);
  SPCA_CHECK_GE(spec_.node_failure_probability, 0.0);
  SPCA_CHECK_GE(spec_.num_workers, 1);
  SPCA_CHECK_GT(spec_.speculation.relaunch_delay_factor, 0.0);
  SPCA_CHECK_GT(spec_.speculation.min_slowdown, 1.0);
}

bool FaultPlan::WorkerLost(uint64_t job_index, uint64_t worker_index) const {
  if (spec_.node_failure_probability <= 0.0) return false;
  // Its own stream, salted differently from the per-task streams: one draw
  // decides the fate of every task resident on the worker, which is what
  // makes the failure correlated.
  Rng rng(spec_.seed ^ ((job_index + 1) * 0x94d049bb133111ebULL) ^
          ((worker_index + 1) * 0xd6e8feb86659fd93ULL));
  return rng.NextDouble() < spec_.node_failure_probability;
}

TaskFault FaultPlan::Draw(uint64_t job_index, uint64_t task_index) const {
  TaskFault fault;
  if (!active()) return fault;
  // One independent stream per (job, task): the per-task uniforms never
  // depend on how many draws other tasks consumed, so the schedule is
  // stable under any execution order. The +1 offsets keep job 0 / task 0
  // from collapsing onto the bare seed.
  Rng rng(spec_.seed ^ ((job_index + 1) * 0x9e3779b97f4a7c15ULL) ^
          ((task_index + 1) * 0xbf58476d1ce4e5b9ULL));
  const int max_extra = std::max(1, spec_.max_task_attempts) - 1;
  while (fault.extra_attempts < max_extra &&
         rng.NextDouble() < spec_.task_failure_probability) {
    ++fault.extra_attempts;
  }
  if (spec_.straggler_probability > 0.0 &&
      rng.NextDouble() < spec_.straggler_probability) {
    fault.slowdown = spec_.straggler_slowdown;
  }
  // The correlated node loss adds one re-execution on a surviving worker
  // (capped with the independent failures by max_task_attempts). Drawn
  // last and from a separate stream, so schedules with the node knob off
  // are bit-identical to pre-correlated-failure plans.
  if (WorkerLost(job_index, WorkerOf(task_index))) {
    fault.node_loss = true;
    fault.extra_attempts = std::min(fault.extra_attempts + 1, max_extra);
  }
  return fault;
}

std::vector<TaskFault> FaultPlan::DrawJob(uint64_t job_index,
                                          size_t num_tasks) const {
  std::vector<TaskFault> faults(num_tasks);
  if (!active()) return faults;
  for (size_t task = 0; task < num_tasks; ++task) {
    faults[task] = Draw(job_index, task);
  }
  return faults;
}

uint64_t ChargedTaskFlops(uint64_t committed_flops, const TaskFault& fault) {
  const double straggled =
      static_cast<double>(committed_flops) * fault.slowdown;
  return static_cast<uint64_t>(straggled + 0.5) +
         committed_flops * static_cast<uint64_t>(fault.extra_attempts);
}

TaskCharge ResolveTaskCharge(uint64_t healthy_flops, const TaskFault& fault,
                             const SpeculationSpec& spec) {
  TaskCharge charge;
  const uint64_t retry_flops =
      healthy_flops * static_cast<uint64_t>(fault.extra_attempts);
  if (!spec.enabled || fault.slowdown < spec.min_slowdown) {
    charge.committed_flops = ChargedTaskFlops(healthy_flops, fault);
    return charge;
  }
  // First commit wins: the straggling original finishes at slowdown x
  // healthy, the copy (launched after a relaunch delay, running at full
  // speed) at (1 + delay) x healthy. The winner's occupancy is charged in
  // the task's schedule slot; the loser occupies a core from the copy's
  // launch until the winner commits and is charged as duplicate load.
  const double healthy = static_cast<double>(healthy_flops);
  const double original_finish = healthy * fault.slowdown;
  const double copy_finish = healthy * (1.0 + spec.relaunch_delay_factor);
  const double winner = std::min(original_finish, copy_finish);
  charge.speculated = true;
  charge.copy_won = copy_finish < original_finish;
  charge.committed_flops = static_cast<uint64_t>(winner + 0.5) + retry_flops;
  const double loser_occupancy =
      winner - healthy * spec.relaunch_delay_factor;
  charge.duplicate_flops =
      static_cast<uint64_t>(std::max(loser_occupancy, 0.0) + 0.5);
  return charge;
}

}  // namespace spca::dist
