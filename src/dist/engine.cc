#include "dist/engine.h"

#include <algorithm>
#include <limits>

#include "common/format.h"

namespace spca::dist {

namespace {

// Registry metric names. The engine.* namespace is the single source of
// truth for everything CommStats reports (see Engine::StatsSnapshot()).
constexpr const char* kJobsLaunched = "engine.jobs_launched";
constexpr const char* kTaskFlops = "engine.task_flops";
constexpr const char* kDriverFlops = "engine.driver_flops";
constexpr const char* kIntermediateBytes = "engine.intermediate_bytes";
constexpr const char* kBroadcastBytes = "engine.broadcast_bytes";
constexpr const char* kResultBytes = "engine.result_bytes";
constexpr const char* kSimSeconds = "engine.simulated_seconds";
constexpr const char* kWallSeconds = "engine.wall_seconds";

// Fault-injection recovery accounting (created only when a plan is
// active, so fault-free runs keep their metric tables unchanged).
constexpr const char* kRetryAttempts = "engine.retries.attempts";
constexpr const char* kRetryTasks = "engine.retries.tasks";
constexpr const char* kRetryFlops = "engine.retries.flops";
constexpr const char* kRetryIntermediateBytes =
    "engine.retries.reshipped_intermediate_bytes";
constexpr const char* kRetryResultBytes =
    "engine.retries.reshipped_result_bytes";
constexpr const char* kRetryBackoffSec = "engine.retries.backoff_sec";
constexpr const char* kStragglerTasks = "engine.stragglers.tasks";
constexpr const char* kStragglerExtraFlops = "engine.stragglers.extra_flops";

// Correlated node failures and speculative execution (created only when
// the corresponding fault-plan knob is on).
constexpr const char* kNodeLossTasks = "engine.faults.node_loss_tasks";
constexpr const char* kSpeculationLaunched = "engine.speculation.launched";
constexpr const char* kSpeculationCopiesWon = "engine.speculation.copies_won";
constexpr const char* kSpeculationWastedFlops =
    "engine.speculation.wasted_flops";

}  // namespace

const char* EngineModeToString(EngineMode mode) {
  return mode == EngineMode::kMapReduce ? "MapReduce" : "Spark";
}

CommStats Engine::StatsSnapshot() const {
  auto counter_value = [&](const char* name) -> uint64_t {
    const obs::Counter* c = registry_->FindCounter(name);
    return c == nullptr ? 0 : c->AsUint64();
  };
  CommStats snapshot;
  snapshot.jobs_launched = counter_value(kJobsLaunched);
  snapshot.task_flops = counter_value(kTaskFlops);
  snapshot.driver_flops = counter_value(kDriverFlops);
  snapshot.intermediate_bytes = counter_value(kIntermediateBytes);
  snapshot.broadcast_bytes = counter_value(kBroadcastBytes);
  snapshot.result_bytes = counter_value(kResultBytes);
  snapshot.task_retries = counter_value(kRetryAttempts);
  snapshot.straggler_tasks = counter_value(kStragglerTasks);
  const obs::Counter* sim = registry_->FindCounter(kSimSeconds);
  snapshot.simulated_seconds = sim == nullptr ? 0.0 : sim->value();
  const obs::Counter* wall = registry_->FindCounter(kWallSeconds);
  snapshot.wall_seconds = wall == nullptr ? 0.0 : wall->value();
  return snapshot;
}

double Engine::SimulatedSeconds() const {
  const obs::Counter* sim = registry_->FindCounter(kSimSeconds);
  return sim == nullptr ? 0.0 : sim->value();
}

void Engine::ResetStats() {
  registry_->ResetMetricsWithPrefix("engine.");
  traces_.clear();
  next_job_index_ = 0;  // fault draws restart with the job numbering
  driver_memory_ = 0;
  peak_driver_memory_ = 0;
  cached_inputs_.clear();
}

void Engine::Broadcast(uint64_t bytes) {
  registry_->counter(kBroadcastBytes)->Add(static_cast<double>(bytes));
  // The driver pushes one copy to each node over its own uplink.
  registry_->counter(kSimSeconds)
      ->Add(static_cast<double>(bytes) * spec_.num_nodes /
            spec_.network_bandwidth_per_node);
}

void Engine::CountDriverFlops(uint64_t flops) {
  registry_->counter(kDriverFlops)->Add(static_cast<double>(flops));
  registry_->counter(kSimSeconds)
      ->Add(static_cast<double>(flops) / spec_.flops_per_sec_per_core);
}

DriverReservation::~DriverReservation() {
  if (engine_ != nullptr) engine_->ReleaseDriverMemory(bytes_);
}

uint64_t LinearDriverStateBytes(const ClusterSpec& spec, size_t dim,
                                size_t width) {
  constexpr double kObjectOverhead = 10.0;
  const double state = kObjectOverhead * 4.0 * static_cast<double>(dim) *
                       static_cast<double>(width) * sizeof(double);
  // Compared in double first: casting a value no uint64_t holds is
  // undefined, and no driver budget admits 2^63 bytes anyway.
  if (!(state < 0x1p63)) return std::numeric_limits<uint64_t>::max();
  return static_cast<uint64_t>(spec.driver_baseline_bytes) +
         static_cast<uint64_t>(state);
}

StatusOr<DriverReservation> Engine::ReserveDriverMemory(
    const std::string& what, uint64_t bytes) {
  if (static_cast<double>(driver_memory_) + static_cast<double>(bytes) >
      spec_.driver_memory_bytes) {
    return Status::OutOfMemory(
        what + " needs " + HumanBytes(static_cast<double>(bytes)) +
        " but the driver has " +
        HumanBytes(spec_.driver_memory_bytes -
                   static_cast<double>(driver_memory_)) +
        " free of " + HumanBytes(spec_.driver_memory_bytes));
  }
  driver_memory_ += bytes;
  peak_driver_memory_ = std::max(peak_driver_memory_, driver_memory_);
  registry_->gauge("engine.driver_memory_bytes")
      ->Set(static_cast<double>(driver_memory_));
  registry_->gauge("engine.driver_memory_peak_bytes")
      ->SetMax(static_cast<double>(peak_driver_memory_));
  return DriverReservation(this, bytes);
}

void Engine::ReleaseDriverMemory(uint64_t bytes) {
  SPCA_CHECK_LE(bytes, driver_memory_);
  driver_memory_ -= bytes;
  registry_->gauge("engine.driver_memory_bytes")
      ->Set(static_cast<double>(driver_memory_));
}

size_t Engine::LocalWorkers() const {
  return local_workers_ > 0
             ? local_workers_
             : std::max<unsigned>(1, std::thread::hardware_concurrency());
}

size_t Engine::DriverThreads() const {
  const size_t workers = LocalWorkers();
  return workers <= 1 ? 1 : workers + 1;
}

WorkerPool* Engine::Pool(size_t num_threads) {
  if (pool_ == nullptr) {
    pool_ = std::make_unique<WorkerPool>(num_threads);
    registry_->gauge("engine.pool.threads")
        ->Set(static_cast<double>(pool_->num_threads()));
  }
  SPCA_CHECK_EQ(pool_->num_threads(), num_threads);
  return pool_.get();
}

WorkerPool* Engine::EnsureWorkerPool(size_t num_threads) {
  const bool reused = pool_ != nullptr;
  WorkerPool* pool = Pool(num_threads);
  if (reused) {
    // Reusing the persistent pool saves one thread spawn+join per worker
    // that the per-job-thread engine used to pay.
    registry_->gauge("engine.pool.spawns_avoided")
        ->Add(static_cast<double>(pool->num_threads()));
  }
  return pool;
}

void Engine::ForEachDriverBlock(size_t num_blocks,
                                const std::function<void(size_t)>& fn) {
  const size_t workers = LocalWorkers();
  if (workers <= 1 || num_blocks <= 1) {
    for (size_t block = 0; block < num_blocks; ++block) fn(block);
    return;
  }
  Pool(workers)->RunWithCaller(num_blocks, fn);
}

// The ComputeJobCost cost model lives in dist/replay.cc so FinishJob and
// the replay entry points provably share one implementation.

void Engine::FinishJob(const JobDesc& job, const DistMatrix& matrix,
                       const std::vector<TaskContext>& contexts,
                       const std::vector<TaskFault>& faults,
                       double wall_seconds, obs::Span* span) {
  JobTrace trace;
  trace.name = job.name;
  trace.phase = job.phase;
  trace.num_tasks = contexts.size();

  // Fault recovery accounting: every failed attempt re-paid its task's
  // compute and re-shipped the bytes it had emitted; stragglers pay the
  // slowdown on their committing attempt. All of it lands in the same
  // counters CommStats reads, plus the engine.retries.* /
  // engine.stragglers.* breakdown.
  uint64_t total_flops = 0;
  uint64_t intermediate = 0;
  uint64_t result = 0;
  uint64_t reshipped_intermediate = 0;
  uint64_t reshipped_result = 0;
  uint64_t straggler_extra_flops = 0;
  trace.task_flops.reserve(contexts.size());
  trace.task_intermediate_bytes.reserve(contexts.size());
  trace.task_result_bytes.reserve(contexts.size());
  uint64_t speculative_wasted_flops = 0;
  for (size_t task = 0; task < contexts.size(); ++task) {
    const auto& ctx = contexts[task];
    const TaskFault& fault = faults[task];
    // The single shared accounting function: replay calls exactly this on
    // the same (healthy flops, fault, speculation policy) inputs, which is
    // what makes replayed speculative costs match live ones bit-for-bit.
    const TaskCharge charge = ResolveTaskCharge(ctx.flops(), fault,
                                                fault_plan_.spec().speculation);
    const uint64_t charged_flops = charge.committed_flops;
    trace.task_flops.push_back(charged_flops);
    total_flops += charged_flops;
    if (charge.speculated) {
      // The losing copy's occupancy is schedulable load (it held a core
      // until the winner committed) but not committed work.
      trace.speculative_flops.push_back(charge.duplicate_flops);
      ++trace.speculative_launched;
      if (charge.copy_won) ++trace.speculative_copies_won;
      speculative_wasted_flops += charge.duplicate_flops;
    }
    if (fault.node_loss) ++trace.node_loss_tasks;
    const uint64_t extra = static_cast<uint64_t>(fault.extra_attempts);
    if (extra > 0) {
      trace.task_retries += extra;
      trace.retry_flops += ctx.flops() * extra;
      reshipped_intermediate += ctx.intermediate_bytes() * extra;
      reshipped_result += ctx.result_bytes() * extra;
    }
    if (fault.slowdown > 1.0) {
      ++trace.straggler_tasks;
      straggler_extra_flops +=
          charged_flops - ctx.flops() * extra - ctx.flops();
    }
    // Charged (retry-inclusive) per-task bytes, so fault-injecting replay
    // can re-ship exactly the bytes a retried task emitted even when
    // tasks emit non-uniformly (ragged final partitions).
    trace.task_intermediate_bytes.push_back(ctx.intermediate_bytes() *
                                            (1 + extra));
    trace.task_result_bytes.push_back(ctx.result_bytes() * (1 + extra));
    intermediate += ctx.intermediate_bytes() * (1 + extra);
    result += ctx.result_bytes() * (1 + extra);
  }
  trace.backoff_sec = fault_plan_.BackoffSeconds(trace.task_retries);

  // MapReduce re-reads the input from the DFS every job; Spark caches the
  // RDD in cluster memory after the first job touches it (unless the job
  // is declared uncacheable).
  if (mode_ == EngineMode::kMapReduce || !job.cacheable) {
    trace.charged_input_bytes = static_cast<double>(matrix.ByteSize());
  } else if (!cached_inputs_.contains(matrix.StorageKey())) {
    cached_inputs_.insert(matrix.StorageKey());
    trace.charged_input_bytes = static_cast<double>(matrix.ByteSize());
  }

  const JobCost cost = ComputeJobCost(
      spec_, mode_, trace.task_flops, /*flop_scale=*/1.0,
      trace.charged_input_bytes, static_cast<double>(intermediate),
      static_cast<double>(result), trace.backoff_sec,
      trace.speculative_flops.empty() ? nullptr : &trace.speculative_flops);
  trace.launch_sec = cost.launch_sec;
  trace.compute_sec = cost.compute_sec;
  trace.data_sec = cost.data_sec;

  trace.stats.jobs_launched = 1;
  trace.stats.task_flops = total_flops;
  trace.stats.intermediate_bytes = intermediate;
  trace.stats.result_bytes = result;
  trace.stats.task_retries = trace.task_retries;
  trace.stats.straggler_tasks = trace.straggler_tasks;
  trace.stats.wall_seconds = wall_seconds;
  trace.stats.simulated_seconds = cost.Total();

  // ---- Registry: cumulative counters (the source CommStats reads). ----
  const double sim_before = SimulatedSeconds();
  registry_->counter(kJobsLaunched)->Increment();
  registry_->counter(kTaskFlops)->Add(static_cast<double>(total_flops));
  registry_->counter(kIntermediateBytes)
      ->Add(static_cast<double>(intermediate));
  registry_->counter(kResultBytes)->Add(static_cast<double>(result));
  registry_->counter(kSimSeconds)->Add(cost.Total());
  registry_->counter(kWallSeconds)->Add(wall_seconds);
  if (fault_plan_.active()) {
    size_t retried_tasks = 0;
    for (const TaskFault& fault : faults) {
      if (fault.extra_attempts > 0) ++retried_tasks;
    }
    registry_->counter(kRetryAttempts)
        ->Add(static_cast<double>(trace.task_retries));
    registry_->counter(kRetryTasks)->Add(static_cast<double>(retried_tasks));
    registry_->counter(kRetryFlops)
        ->Add(static_cast<double>(trace.retry_flops));
    registry_->counter(kRetryIntermediateBytes)
        ->Add(static_cast<double>(reshipped_intermediate));
    registry_->counter(kRetryResultBytes)
        ->Add(static_cast<double>(reshipped_result));
    registry_->counter(kRetryBackoffSec)->Add(trace.backoff_sec);
    registry_->counter(kStragglerTasks)
        ->Add(static_cast<double>(trace.straggler_tasks));
    registry_->counter(kStragglerExtraFlops)
        ->Add(static_cast<double>(straggler_extra_flops));
    if (fault_plan_.spec().node_failure_probability > 0.0) {
      registry_->counter(kNodeLossTasks)
          ->Add(static_cast<double>(trace.node_loss_tasks));
    }
    if (fault_plan_.spec().speculation.enabled) {
      registry_->counter(kSpeculationLaunched)
          ->Add(static_cast<double>(trace.speculative_launched));
      registry_->counter(kSpeculationCopiesWon)
          ->Add(static_cast<double>(trace.speculative_copies_won));
      registry_->counter(kSpeculationWastedFlops)
          ->Add(static_cast<double>(speculative_wasted_flops));
    }
  }

  // Per-job distributions (the Section 5.2 per-job breakdown).
  registry_->histogram("engine.job.launch_sec")->Observe(cost.launch_sec);
  registry_->histogram("engine.job.compute_sec")->Observe(cost.compute_sec);
  registry_->histogram("engine.job.data_sec")->Observe(cost.data_sec);
  registry_->histogram("engine.job.intermediate_bytes")
      ->Observe(static_cast<double>(intermediate));
  if (!job.phase.empty()) {
    registry_->counter("engine.phase." + job.phase + ".jobs")->Increment();
    registry_->counter("engine.phase." + job.phase + ".sim_seconds")
        ->Add(cost.Total());
  }

  // ---- Registry: the job's span, with the cost model's phases laid out
  // as child spans on the simulated-cluster timeline. ----
  if (span != nullptr && span->registry() != nullptr) {
    span->SetAttribute("tasks", static_cast<uint64_t>(trace.num_tasks));
    span->SetAttribute("flops", total_flops);
    span->SetAttribute("intermediate_bytes", intermediate);
    span->SetAttribute("result_bytes", result);
    span->SetAttribute("charged_input_bytes", trace.charged_input_bytes);
    span->SetAttribute("retries", static_cast<uint64_t>(trace.task_retries));
    span->SetAttribute("sim_seconds", cost.Total());
    if (!job.phase.empty()) span->SetAttribute("phase", job.phase);
    if (fault_plan_.active()) {
      span->SetAttribute("fault.retries",
                         static_cast<uint64_t>(trace.task_retries));
      span->SetAttribute("fault.retry_flops", trace.retry_flops);
      span->SetAttribute("fault.reshipped_bytes",
                         reshipped_intermediate + reshipped_result);
      span->SetAttribute("fault.straggler_tasks",
                         static_cast<uint64_t>(trace.straggler_tasks));
      span->SetAttribute("fault.backoff_sec", trace.backoff_sec);
      if (fault_plan_.spec().node_failure_probability > 0.0) {
        span->SetAttribute("fault.node_loss_tasks",
                           static_cast<uint64_t>(trace.node_loss_tasks));
      }
      if (fault_plan_.spec().speculation.enabled) {
        span->SetAttribute("speculation.launched",
                           static_cast<uint64_t>(trace.speculative_launched));
        span->SetAttribute(
            "speculation.copies_won",
            static_cast<uint64_t>(trace.speculative_copies_won));
        span->SetAttribute("speculation.wasted_flops",
                           speculative_wasted_flops);
      }
    }

    double cursor = sim_before;
    registry_->AddCompleteSpan("launch", "sim_phase", obs::Track::kSim,
                               cursor, cost.launch_sec, span->id());
    cursor += cost.launch_sec;
    registry_->AddCompleteSpan("compute", "sim_phase", obs::Track::kSim,
                               cursor, cost.compute_sec, span->id());
    cursor += cost.compute_sec;
    registry_->AddCompleteSpan("data", "sim_phase", obs::Track::kSim, cursor,
                               cost.data_sec, span->id());
  }

  traces_.push_back(std::move(trace));

  // Job-completion hook: lets a streaming exporter drain finished spans so
  // the registry's live span count stays bounded over long sweeps. Runs on
  // this (driver) thread — but only after the job span above is closed, so
  // it can be flushed immediately.
  if (span != nullptr) span->End();
  registry_->NotifyJobCompleted();
}

}  // namespace spca::dist
