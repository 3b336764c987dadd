// Chaos suite for the deterministic fault-injection and recovery layer
// (dist/fault.h): randomized FaultPlan property tests asserting that
// injected failures and stragglers never change numerical results — only
// the charged recovery cost — plus exactly-once commitment at the pool and
// engine level and the live==replay identity for faulted runs.
//
// The headline property (FitIsBitIdenticalUnderRandomizedFaultPlans) runs
// >= 100 randomized plans; pool/engine tests also run under TSan via the
// chaos CI shard.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/spca.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "dist/fault.h"
#include "dist/replay.h"
#include "dist/worker_pool.h"
#include "linalg/dense_matrix.h"
#include "obs/registry.h"

namespace spca {
namespace {

using dist::ClusterSpec;
using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using dist::FaultPlan;
using dist::FaultSpec;
using dist::JobTrace;
using dist::TaskContext;
using dist::TaskFault;
using dist::WorkerPool;
using linalg::DenseMatrix;

DenseMatrix RandomDense(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.NextGaussian();
  }
  return m;
}

uint64_t CounterValue(const obs::Registry& registry, const char* name) {
  const obs::Counter* counter = registry.FindCounter(name);
  return counter == nullptr ? 0 : counter->AsUint64();
}

// Recomputes the fault schedule a run must have seen: job i of an engine
// draws plan.DrawJob(i, traces[i].num_tasks).
struct ExpectedFaults {
  uint64_t retries = 0;
  uint64_t straggler_tasks = 0;
};

ExpectedFaults RecomputeSchedule(const FaultPlan& plan,
                                 const std::vector<JobTrace>& traces) {
  ExpectedFaults expected;
  for (size_t job = 0; job < traces.size(); ++job) {
    for (const TaskFault& fault : plan.DrawJob(job, traces[job].num_tasks)) {
      expected.retries += static_cast<uint64_t>(fault.extra_attempts);
      if (fault.slowdown > 1.0) ++expected.straggler_tasks;
    }
  }
  return expected;
}

// ---- FaultPlan determinism ----------------------------------------------

TEST(FaultPlanTest, DrawsAreDeterministicAndIndependentOfOrder) {
  FaultSpec spec;
  spec.seed = 77;
  spec.task_failure_probability = 0.3;
  spec.straggler_probability = 0.2;
  const FaultPlan plan(spec);
  const FaultPlan same(spec);

  // Same (job, task) always draws the same fault, from either plan object,
  // in any order.
  for (uint64_t job = 0; job < 20; ++job) {
    for (uint64_t task = 0; task < 16; ++task) {
      const TaskFault a = plan.Draw(job, task);
      const TaskFault b = same.Draw(job, task);
      EXPECT_EQ(a.extra_attempts, b.extra_attempts);
      EXPECT_EQ(a.slowdown, b.slowdown);
    }
  }
  // Reverse-order re-draws see the identical schedule (no hidden stream
  // state), and DrawJob is exactly the per-task Draws.
  for (uint64_t job = 20; job-- > 0;) {
    const std::vector<TaskFault> faults = plan.DrawJob(job, 16);
    for (uint64_t task = 16; task-- > 0;) {
      const TaskFault again = plan.Draw(job, task);
      EXPECT_EQ(faults[task].extra_attempts, again.extra_attempts);
      EXPECT_EQ(faults[task].slowdown, again.slowdown);
    }
  }
}

TEST(FaultPlanTest, RespectsAttemptCapAndInactiveDefault) {
  FaultSpec spec;
  spec.task_failure_probability = 0.999999;
  spec.max_task_attempts = 3;
  const FaultPlan plan(spec);
  for (uint64_t task = 0; task < 200; ++task) {
    const TaskFault fault = plan.Draw(0, task);
    EXPECT_LE(fault.extra_attempts, 2);  // attempts cap includes the commit
    EXPECT_GE(fault.extra_attempts, 0);
  }

  const FaultPlan inactive;
  EXPECT_FALSE(inactive.active());
  for (uint64_t task = 0; task < 50; ++task) {
    EXPECT_TRUE(inactive.Draw(3, task).clean());
  }
  EXPECT_EQ(inactive.BackoffSeconds(10), 0.0);
}

TEST(FaultSpecTest, ValidateRejectsOutOfRangeAndNonFiniteSettings) {
  EXPECT_TRUE(FaultSpec{}.Validate().ok());
  const double nan = std::nan("");
  const double inf = HUGE_VAL;
  const std::vector<void (*)(FaultSpec*, double)> fields = {
      [](FaultSpec* s, double v) { s->task_failure_probability = v; },
      [](FaultSpec* s, double v) { s->node_failure_probability = v; },
      [](FaultSpec* s, double v) { s->straggler_probability = v; },
      [](FaultSpec* s, double v) { s->straggler_slowdown = v; },
      [](FaultSpec* s, double v) { s->retry_backoff_sec = v; },
      [](FaultSpec* s, double v) { s->speculation.relaunch_delay_factor = v; },
      [](FaultSpec* s, double v) { s->speculation.min_slowdown = v; },
  };
  for (const auto& set : fields) {
    for (const double bad : {nan, inf, -inf, -0.5}) {
      FaultSpec spec;
      set(&spec, bad);
      EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument) << bad;
    }
  }
  // The range edges, one field at a time.
  FaultSpec spec;
  spec.task_failure_probability = 1.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = FaultSpec{};
  spec.node_failure_probability = 1.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = FaultSpec{};
  spec.straggler_probability = 1.0;
  spec.straggler_slowdown = 1.0;
  spec.retry_backoff_sec = 0.0;
  EXPECT_TRUE(spec.Validate().ok());
  spec.speculation.min_slowdown = 1.0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = FaultSpec{};
  spec.max_task_attempts = 0;
  EXPECT_FALSE(spec.Validate().ok());
  spec = FaultSpec{};
  spec.num_workers = 0;
  EXPECT_FALSE(spec.Validate().ok());
}

// ---- The headline chaos property ----------------------------------------

// >= 100 randomized FaultPlans: Spca::Fit under each plan must produce the
// bit-identical model the clean run produced, the engine's retry/straggler
// counters must equal the schedule recomputed from the plan, and simulated
// time must strictly exceed the clean run's whenever failures were
// actually injected (every plan here charges a positive retry backoff).
TEST(FaultChaosTest, FitIsBitIdenticalUnderRandomizedFaultPlans) {
  const DistMatrix matrix =
      DistMatrix::FromDense(RandomDense(160, 24, 42), 5);
  core::SpcaOptions options;
  options.num_components = 3;
  options.max_iterations = 2;
  options.target_accuracy_fraction = 2.0;  // always run both iterations
  options.ideal_error_override = 1.0;
  options.error_sample_rows = 64;

  auto run_fit = [&](const FaultPlan* plan, std::vector<JobTrace>* traces_out,
                     uint64_t* retries, uint64_t* stragglers) {
    Engine engine(ClusterSpec{}, EngineMode::kSpark);
    engine.SetLocalWorkers(3);
    if (plan != nullptr) engine.SetFaultPlan(*plan);
    auto result = core::Spca(&engine, options).Solve(matrix);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (traces_out != nullptr) *traces_out = engine.traces();
    if (retries != nullptr) {
      *retries = CounterValue(*engine.registry(), "engine.retries.attempts");
    }
    if (stragglers != nullptr) {
      *stragglers =
          CounterValue(*engine.registry(), "engine.stragglers.tasks");
    }
    return std::pair<core::SolveResult, double>(std::move(result.value()),
                                               engine.SimulatedSeconds());
  };

  const auto [clean, clean_sim] = run_fit(nullptr, nullptr, nullptr, nullptr);

  Rng meta(0xc4a05u);
  int plans_with_faults = 0;
  for (int trial = 0; trial < 100; ++trial) {
    FaultSpec spec;
    spec.seed = meta.NextUint64();
    spec.task_failure_probability = 0.6 * meta.NextDouble();
    spec.straggler_probability = 0.5 * meta.NextDouble();
    spec.straggler_slowdown = 1.0 + 7.0 * meta.NextDouble();
    spec.max_task_attempts = 2 + static_cast<int>(meta.NextUint64Below(4));
    spec.retry_backoff_sec = 0.01 + meta.NextDouble();  // always > 0
    const FaultPlan plan(spec);

    std::vector<JobTrace> traces;
    uint64_t retries = 0;
    uint64_t stragglers = 0;
    const auto [faulted, faulted_sim] =
        run_fit(&plan, &traces, &retries, &stragglers);

    // Bit-identical results: same components, same noise variance, same
    // iteration count — faults may only change the accounted cost.
    ASSERT_EQ(faulted.model.components.rows(),
              clean.model.components.rows());
    ASSERT_EQ(faulted.model.components.cols(),
              clean.model.components.cols());
    for (size_t i = 0; i < clean.model.components.rows(); ++i) {
      for (size_t j = 0; j < clean.model.components.cols(); ++j) {
        ASSERT_EQ(faulted.model.components(i, j),
                  clean.model.components(i, j))
            << "trial " << trial << " at (" << i << "," << j << ")";
      }
    }
    ASSERT_EQ(faulted.model.noise_variance, clean.model.noise_variance);
    ASSERT_EQ(faulted.iterations_run, clean.iterations_run);

    // Retry/straggler counters equal the schedule the plan dictates.
    const ExpectedFaults expected = RecomputeSchedule(plan, traces);
    ASSERT_EQ(retries, expected.retries) << "trial " << trial;
    ASSERT_EQ(stragglers, expected.straggler_tasks) << "trial " << trial;

    // Injected faults cost simulated time; a plan whose draws all came up
    // clean costs exactly nothing.
    if (expected.retries > 0) {
      ASSERT_GT(faulted_sim, clean_sim) << "trial " << trial;
      ++plans_with_faults;
    } else if (expected.straggler_tasks > 0) {
      ASSERT_GE(faulted_sim, clean_sim) << "trial " << trial;
      ++plans_with_faults;
    } else {
      ASSERT_EQ(faulted_sim, clean_sim) << "trial " << trial;
    }
  }
  // The randomized rates must actually exercise the fault path.
  EXPECT_GT(plans_with_faults, 50);
}

// ---- Exactly-once commitment --------------------------------------------

TEST(FaultChaosTest, PoolRunAttemptsCommitsExactlyOnce) {
  WorkerPool pool(4);
  Rng rng(321);
  for (int round = 0; round < 50; ++round) {
    const size_t num_tasks = 1 + rng.NextUint64Below(97);
    std::vector<int> attempts(num_tasks);
    for (auto& a : attempts) {
      a = 1 + static_cast<int>(rng.NextUint64Below(4));
    }
    std::vector<std::atomic<int>> invocations(num_tasks);
    std::vector<std::atomic<int>> finals(num_tasks);
    std::vector<std::atomic<int>> final_attempt(num_tasks);
    for (size_t t = 0; t < num_tasks; ++t) {
      invocations[t].store(0, std::memory_order_relaxed);
      finals[t].store(0, std::memory_order_relaxed);
      final_attempt[t].store(-1, std::memory_order_relaxed);
    }
    pool.RunAttempts(
        num_tasks, [&](size_t task) { return attempts[task]; },
        [&](size_t task, int attempt, bool is_final) {
          invocations[task].fetch_add(1, std::memory_order_relaxed);
          if (is_final) {
            finals[task].fetch_add(1, std::memory_order_relaxed);
            final_attempt[task].store(attempt, std::memory_order_relaxed);
          }
        });
    for (size_t t = 0; t < num_tasks; ++t) {
      ASSERT_EQ(invocations[t].load(std::memory_order_relaxed), attempts[t])
          << "round " << round << " task " << t;
      ASSERT_EQ(finals[t].load(std::memory_order_relaxed), 1)
          << "round " << round << " task " << t;
      ASSERT_EQ(final_attempt[t].load(std::memory_order_relaxed),
                attempts[t] - 1)
          << "round " << round << " task " << t;
    }
  }
}

TEST(FaultChaosTest, EngineReallyReExecutesFailedAttempts) {
  const DistMatrix matrix =
      DistMatrix::FromDense(RandomDense(96, 8, 7), 12);
  FaultSpec spec;
  spec.seed = 99;
  spec.task_failure_probability = 0.5;
  spec.max_task_attempts = 5;
  const FaultPlan plan(spec);

  Engine engine(ClusterSpec{}, EngineMode::kSpark);
  engine.SetLocalWorkers(4);
  engine.SetFaultPlan(plan);

  constexpr uint64_t kIntermediatePerTask = 64;
  constexpr uint64_t kResultPerTask = 16;
  std::vector<std::atomic<int>> invocations(matrix.num_partitions());
  for (auto& i : invocations) i.store(0, std::memory_order_relaxed);
  const auto results = engine.RunMap<uint64_t>(
      dist::JobDesc{"reexec_probe"}, matrix,
      [&](const dist::RowRange& range, TaskContext* ctx) -> uint64_t {
        invocations[range.partition_index].fetch_add(
            1, std::memory_order_relaxed);
        ctx->CountFlops(1000);
        ctx->EmitIntermediate(kIntermediatePerTask);
        ctx->EmitResult(kResultPerTask);
        return range.end - range.begin;
      });

  uint64_t total_rows = 0;
  for (const uint64_t rows : results) total_rows += rows;
  EXPECT_EQ(total_rows, matrix.rows());

  uint64_t expected_extra = 0;
  for (size_t p = 0; p < matrix.num_partitions(); ++p) {
    const TaskFault fault = plan.Draw(0, p);
    ASSERT_EQ(invocations[p].load(std::memory_order_relaxed),
              1 + fault.extra_attempts)
        << "partition " << p;
    expected_extra += static_cast<uint64_t>(fault.extra_attempts);
  }
  ASSERT_GT(expected_extra, 0u);  // rate 0.5 over 12 tasks must fire

  // Every failed attempt re-shipped its task's bytes; the cumulative byte
  // counters charge original + re-shipped, and the retries.* breakdown
  // isolates the re-shipped share.
  const obs::Registry& registry = *engine.registry();
  EXPECT_EQ(CounterValue(registry, "engine.retries.attempts"),
            expected_extra);
  EXPECT_EQ(CounterValue(registry,
                         "engine.retries.reshipped_intermediate_bytes"),
            expected_extra * kIntermediatePerTask);
  EXPECT_EQ(CounterValue(registry, "engine.retries.reshipped_result_bytes"),
            expected_extra * kResultPerTask);
  EXPECT_EQ(
      CounterValue(registry, "engine.intermediate_bytes"),
      (matrix.num_partitions() + expected_extra) * kIntermediatePerTask);
  EXPECT_EQ(CounterValue(registry, "engine.result_bytes"),
            (matrix.num_partitions() + expected_extra) * kResultPerTask);
}

// ---- Live == replay under faults ----------------------------------------

// A clean run's traces replayed through ReplayJobCostWithFaults must charge
// exactly what a live engine under the same plan charges, job by job, when
// tasks emit uniformly (sPCA's partials all do; here each task emits the
// same counts by construction).
TEST(FaultChaosTest, ReplayWithFaultsMatchesLiveFaultedRun) {
  const DistMatrix matrix =
      DistMatrix::FromDense(RandomDense(80, 6, 3), 8);
  FaultSpec spec;
  spec.seed = 5;
  spec.task_failure_probability = 0.35;
  spec.straggler_probability = 0.25;
  spec.straggler_slowdown = 3.0;
  spec.retry_backoff_sec = 0.75;
  const FaultPlan plan(spec);

  auto run_jobs = [&](Engine* engine) {
    for (int job = 0; job < 6; ++job) {
      engine->RunMap<int>(
          dist::JobDesc{"uniform_job"}, matrix,
          [&](const dist::RowRange&, TaskContext* ctx) -> int {
            ctx->CountFlops(5000);
            ctx->EmitIntermediate(256);
            ctx->EmitResult(64);
            return 1;
          });
    }
  };

  Engine clean(ClusterSpec{}, EngineMode::kSpark);
  clean.SetLocalWorkers(1);
  run_jobs(&clean);

  Engine faulted(ClusterSpec{}, EngineMode::kSpark);
  faulted.SetLocalWorkers(1);
  faulted.SetFaultPlan(plan);
  run_jobs(&faulted);

  ASSERT_EQ(clean.traces().size(), faulted.traces().size());
  const dist::ReplayScales unit;
  for (size_t i = 0; i < clean.traces().size(); ++i) {
    const dist::JobCost replayed = dist::ReplayJobCostWithFaults(
        clean.traces()[i], clean.spec(), clean.mode(), unit, plan, i);
    const JobTrace& live = faulted.traces()[i];
    EXPECT_DOUBLE_EQ(replayed.launch_sec, live.launch_sec) << "job " << i;
    EXPECT_DOUBLE_EQ(replayed.compute_sec, live.compute_sec) << "job " << i;
    EXPECT_DOUBLE_EQ(replayed.data_sec, live.data_sec) << "job " << i;
  }

  // And unit-scale replay of the *faulted* run reproduces it as-is (the
  // recorded charges — retry flops, re-shipped bytes, backoff — replay
  // without re-injecting).
  for (size_t i = 0; i < faulted.traces().size(); ++i) {
    const dist::JobCost replayed = dist::ReplayJobCost(
        faulted.traces()[i], faulted.spec(), faulted.mode(), unit);
    EXPECT_DOUBLE_EQ(replayed.Total(), faulted.traces()[i].launch_sec +
                                           faulted.traces()[i].compute_sec +
                                           faulted.traces()[i].data_sec)
        << "job " << i;
  }
}

// ---- Monotonicity --------------------------------------------------------

// With a shared seed the per-(job, task) uniform stream is shared across
// rates, so a higher failure probability can only extend each task's
// failure streak: retries and simulated time are monotone in the rate.
TEST(FaultChaosTest, SimTimeMonotoneInFailureRate) {
  const DistMatrix matrix =
      DistMatrix::FromDense(RandomDense(120, 10, 11), 10);
  auto run_at_rate = [&](double rate, uint64_t* retries) {
    FaultSpec spec;
    spec.seed = 1234;
    spec.task_failure_probability = rate;
    spec.max_task_attempts = 6;
    spec.retry_backoff_sec = 0.5;
    Engine engine(ClusterSpec{}, EngineMode::kSpark);
    engine.SetLocalWorkers(2);
    if (rate > 0.0) engine.SetFaultPlan(FaultPlan(spec));
    for (int job = 0; job < 4; ++job) {
      engine.RunMap<int>(dist::JobDesc{"mono_job"}, matrix,
                         [&](const dist::RowRange&, TaskContext* ctx) -> int {
                           ctx->CountFlops(20000);
                           ctx->EmitResult(128);
                           return 0;
                         });
    }
    *retries = CounterValue(*engine.registry(), "engine.retries.attempts");
    return engine.SimulatedSeconds();
  };

  uint64_t last_retries = 0;
  double last_sim = 0.0;
  bool first = true;
  bool saw_strict_increase = false;
  for (const double rate : {0.0, 0.05, 0.15, 0.3, 0.5, 0.7}) {
    uint64_t retries = 0;
    const double sim = run_at_rate(rate, &retries);
    if (!first) {
      ASSERT_GE(retries, last_retries) << "rate " << rate;
      ASSERT_GE(sim, last_sim) << "rate " << rate;
      if (retries > last_retries) {
        ASSERT_GT(sim, last_sim) << "rate " << rate;
        saw_strict_increase = true;
      }
    }
    first = false;
    last_retries = retries;
    last_sim = sim;
  }
  EXPECT_TRUE(saw_strict_increase);
}

}  // namespace
}  // namespace spca
