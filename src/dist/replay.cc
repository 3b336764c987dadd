#include "dist/replay.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace spca::dist {

JobCost ComputeJobCost(const ClusterSpec& spec, EngineMode mode,
                       const std::vector<uint64_t>& task_flops,
                       double flop_scale, double input_bytes,
                       double intermediate_bytes, double result_bytes,
                       double backoff_sec,
                       const std::vector<uint64_t>* extra_load_flops) {
  JobCost cost;
  cost.launch_sec = spec.job_launch_sec(mode) + backoff_sec;

  // Schedule tasks onto cores (in-order greedy onto the least-loaded core;
  // deterministic and close to LPT for near-equal tasks). Speculative
  // duplicate occupancy is scheduled after the tasks, in the same order on
  // both the live and the replay path.
  std::vector<double> core_load(std::max(1, spec.total_cores()), 0.0);
  const auto schedule = [&](const std::vector<uint64_t>& load) {
    for (const uint64_t flops : load) {
      auto min_it = std::min_element(core_load.begin(), core_load.end());
      *min_it += static_cast<double>(flops) * flop_scale /
                 spec.flops_per_sec_per_core;
    }
  };
  schedule(task_flops);
  if (extra_load_flops != nullptr) schedule(*extra_load_flops);
  cost.compute_sec = *std::max_element(core_load.begin(), core_load.end());

  // Input is read from the DFS at aggregate disk bandwidth (0 bytes when
  // the RDD is cached). Intermediate data goes through the DFS (write then
  // read) on MapReduce and through memory/network on Spark. Results flow
  // to the driver over its single node's link either way.
  const double input_sec = input_bytes / spec.total_disk_bandwidth();
  double intermediate_sec;
  if (mode == EngineMode::kMapReduce) {
    intermediate_sec =
        2.0 * intermediate_bytes / spec.total_disk_bandwidth() +
        intermediate_bytes / spec.total_network_bandwidth();
  } else {
    intermediate_sec = intermediate_bytes / spec.total_network_bandwidth();
  }
  const double result_sec = result_bytes / spec.network_bandwidth_per_node;
  cost.data_sec = input_sec + intermediate_sec + result_sec;
  return cost;
}

JobCost ReplayJobCost(const JobTrace& trace, const ClusterSpec& spec,
                      EngineMode mode, const ReplayScales& scales) {
  return ComputeJobCost(
      spec, mode, trace.task_flops, scales.flops,
      trace.charged_input_bytes * scales.input_bytes,
      static_cast<double>(trace.stats.intermediate_bytes) *
          scales.intermediate_bytes,
      static_cast<double>(trace.stats.result_bytes) * scales.result_bytes,
      trace.backoff_sec,
      trace.speculative_flops.empty() ? nullptr : &trace.speculative_flops);
}

JobCost ReplayJobCostWithFaults(const JobTrace& trace,
                                const ClusterSpec& spec, EngineMode mode,
                                const ReplayScales& scales,
                                const FaultPlan& plan, uint64_t job_index) {
  if (!plan.active()) return ReplayJobCost(trace, spec, mode, scales);
  const size_t num_tasks = trace.task_flops.size();
  // Failed attempts re-ship their task's output: each injected retry
  // re-ships exactly its own task's bytes, matching what a live run under
  // the same plan charges even for jobs with ragged task outputs.
  SPCA_CHECK_EQ(trace.task_intermediate_bytes.size(), num_tasks);
  SPCA_CHECK_EQ(trace.task_result_bytes.size(), num_tasks);
  std::vector<uint64_t> task_flops;
  task_flops.reserve(num_tasks);
  // Injected speculative duplicates are appended after any duplicates the
  // trace itself recorded (consistent with retries: injecting into an
  // already-faulted trace charges both).
  std::vector<uint64_t> extra_load = trace.speculative_flops;
  uint64_t extra_attempts = 0;
  double intermediate_bytes = 0.0;
  double result_bytes = 0.0;
  for (size_t task = 0; task < num_tasks; ++task) {
    const TaskFault fault = plan.Draw(job_index, task);
    const TaskCharge charge = ResolveTaskCharge(
        trace.task_flops[task], fault, plan.spec().speculation);
    task_flops.push_back(charge.committed_flops);
    if (charge.speculated) extra_load.push_back(charge.duplicate_flops);
    const uint64_t extra = static_cast<uint64_t>(fault.extra_attempts);
    extra_attempts += extra;
    const double factor = 1.0 + static_cast<double>(extra);
    intermediate_bytes +=
        static_cast<double>(trace.task_intermediate_bytes[task]) * factor;
    result_bytes += static_cast<double>(trace.task_result_bytes[task]) * factor;
  }
  return ComputeJobCost(spec, mode, task_flops, scales.flops,
                        trace.charged_input_bytes * scales.input_bytes,
                        intermediate_bytes * scales.intermediate_bytes,
                        result_bytes * scales.result_bytes,
                        trace.backoff_sec + plan.BackoffSeconds(extra_attempts),
                        extra_load.empty() ? nullptr : &extra_load);
}

namespace {

// Emits one replayed job as a synthetic `replay.<name>` span on the
// simulated-time track starting at `sim_start_sec` under `parent_span_id`,
// carrying the scale multipliers as attributes and the same
// launch/compute/data child spans a live job gets — so a billion-row
// extrapolation is inspectable in chrome://tracing exactly like the run it
// was replayed from. `fault_plan`, when non-null, is the active plan
// injected into the replay; the span then carries fault.* attributes
// describing the injected recovery overhead.
void EmitReplayJobSpans(const JobTrace& trace, const JobCost& cost,
                        const ReplayScales& scales, obs::Registry* registry,
                        double sim_start_sec, uint64_t parent_span_id,
                        const FaultPlan* fault_plan, uint64_t job_index) {
  std::vector<obs::Attribute> attrs;
  attrs.push_back({"tasks", static_cast<uint64_t>(trace.num_tasks)});
  if (!trace.phase.empty()) attrs.push_back({"phase", trace.phase});
  attrs.push_back({"sim_seconds", cost.Total()});
  attrs.push_back({"scale_flops", scales.flops});
  attrs.push_back({"scale_input_bytes", scales.input_bytes});
  attrs.push_back({"scale_intermediate_bytes", scales.intermediate_bytes});
  attrs.push_back({"scale_result_bytes", scales.result_bytes});
  if (fault_plan != nullptr) {
    uint64_t retries = 0;
    uint64_t stragglers = 0;
    uint64_t node_losses = 0;
    uint64_t speculated = 0;
    for (size_t task = 0; task < trace.task_flops.size(); ++task) {
      const TaskFault fault = fault_plan->Draw(job_index, task);
      retries += static_cast<uint64_t>(fault.extra_attempts);
      if (fault.slowdown > 1.0) ++stragglers;
      if (fault.node_loss) ++node_losses;
      if (ResolveTaskCharge(trace.task_flops[task], fault,
                            fault_plan->spec().speculation)
              .speculated) {
        ++speculated;
      }
    }
    attrs.push_back({"fault.retries", retries});
    attrs.push_back({"fault.straggler_tasks", stragglers});
    attrs.push_back({"fault.backoff_sec", fault_plan->BackoffSeconds(retries)});
    if (fault_plan->spec().node_failure_probability > 0.0) {
      attrs.push_back({"fault.node_loss_tasks", node_losses});
    }
    if (fault_plan->spec().speculation.enabled) {
      attrs.push_back({"speculation.launched", speculated});
    }
  }
  const uint64_t job_span = registry->AddCompleteSpan(
      "replay." + trace.name, "replay_job", obs::Track::kSim, sim_start_sec,
      cost.Total(), parent_span_id, std::move(attrs));
  double cursor = sim_start_sec;
  registry->AddCompleteSpan("launch", "sim_phase", obs::Track::kSim, cursor,
                            cost.launch_sec, job_span);
  cursor += cost.launch_sec;
  registry->AddCompleteSpan("compute", "sim_phase", obs::Track::kSim, cursor,
                            cost.compute_sec, job_span);
  cursor += cost.compute_sec;
  registry->AddCompleteSpan("data", "sim_phase", obs::Track::kSim, cursor,
                            cost.data_sec, job_span);
  // A replayed job counts as a completed job for streaming exporters:
  // without this, a multi-thousand-job replayed sweep would accumulate
  // every synthetic span in the registry until the stream closes.
  registry->NotifyJobCompleted();
}

}  // namespace

double ReplayRun(const std::vector<JobTrace>& traces, const CommStats& stats,
                 const ClusterSpec& spec, EngineMode mode,
                 const ReplayScalesFn& scales_for_job, obs::Registry* registry,
                 const std::string& label, double sim_start_sec,
                 const FaultPlan* fault_plan) {
  // Driver algebra and broadcasts are row-count independent; broadcasts
  // still pay one copy per node of the replay cluster.
  const double driver_sec =
      static_cast<double>(stats.driver_flops) / spec.flops_per_sec_per_core +
      static_cast<double>(stats.broadcast_bytes) * spec.num_nodes /
          spec.network_bandwidth_per_node;

  // The parent span needs its full extent up front (spans are immutable
  // once complete), so cost the jobs before emitting anything.
  const bool injecting = fault_plan != nullptr && fault_plan->active();
  std::vector<ReplayScales> scales;
  std::vector<JobCost> costs;
  scales.reserve(traces.size());
  costs.reserve(traces.size());
  double jobs_sec = 0.0;
  for (size_t i = 0; i < traces.size(); ++i) {
    scales.push_back(scales_for_job(traces[i]));
    costs.push_back(injecting ? ReplayJobCostWithFaults(traces[i], spec, mode,
                                                        scales.back(),
                                                        *fault_plan, i)
                              : ReplayJobCost(traces[i], spec, mode,
                                              scales.back()));
    jobs_sec += costs.back().Total();
  }
  const double total_sec = jobs_sec + driver_sec;
  if (registry == nullptr) return total_sec;

  std::vector<obs::Attribute> attrs;
  attrs.push_back({"jobs", static_cast<uint64_t>(traces.size())});
  attrs.push_back({"mode", std::string(EngineModeToString(mode))});
  attrs.push_back({"sim_seconds", total_sec});
  const uint64_t sweep_span = registry->AddCompleteSpan(
      "replay." + label, "replay_run", obs::Track::kSim, sim_start_sec,
      total_sec, 0, std::move(attrs));

  double cursor = sim_start_sec;
  for (size_t i = 0; i < traces.size(); ++i) {
    EmitReplayJobSpans(traces[i], costs[i], scales[i], registry, cursor,
                       sweep_span, injecting ? fault_plan : nullptr, i);
    cursor += costs[i].Total();
  }
  std::vector<obs::Attribute> driver_attrs;
  driver_attrs.push_back({"driver_flops", stats.driver_flops});
  driver_attrs.push_back({"broadcast_bytes", stats.broadcast_bytes});
  registry->AddCompleteSpan("replay.driver", "replay_job", obs::Track::kSim,
                            cursor, driver_sec, sweep_span,
                            std::move(driver_attrs));
  return total_sec;
}

}  // namespace spca::dist
