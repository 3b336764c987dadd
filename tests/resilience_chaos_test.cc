// Resilience chaos suite: correlated node failures, speculative execution
// and checkpoint/restart, written to run under both TSan and ASan in the
// chaos CI shard.
//
// The headline properties:
//   * randomized correlated FaultPlans never change numerical results —
//     a node loss only costs recovery time (bit-identity over >= 100 plans);
//   * a fit killed mid-run and resumed from its checkpoint is byte-identical
//     to the run that was never interrupted, for the batch EM solver and
//     both streaming solvers, through the on-disk SPCM+SPCS pair;
//   * replaying a speculative run charges exactly what the live engine
//     charged, job by job;
//   * speculation strictly reduces simulated time on straggler-heavy plans.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/solver.h"
#include "core/spca.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "dist/fault.h"
#include "dist/replay.h"
#include "linalg/dense_matrix.h"
#include "obs/registry.h"
#include "serve/model_io.h"
#include "serve/model_registry.h"
#include "stream/pipeline.h"
#include "stream/publisher.h"
#include "stream/stream_solver.h"
#include "workload/row_stream.h"

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

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

void ExpectModelsBitIdentical(const core::PcaModel& a,
                              const core::PcaModel& b) {
  ASSERT_EQ(a.input_dim(), b.input_dim());
  ASSERT_EQ(a.num_components(), b.num_components());
  EXPECT_EQ(a.components.MaxAbsDiff(b.components), 0.0);
  ASSERT_EQ(a.mean.size(), b.mean.size());
  for (size_t k = 0; k < a.mean.size(); ++k) EXPECT_EQ(a.mean[k], b.mean[k]);
  EXPECT_EQ(a.noise_variance, b.noise_variance);
}

core::SpcaOptions ChaosSpcaOptions(int iterations) {
  core::SpcaOptions options;
  options.num_components = 3;
  options.max_iterations = iterations;
  options.target_accuracy_fraction = 2.0;  // always run every iteration
  options.ideal_error_override = 1.0;
  options.error_sample_rows = 64;
  return options;
}

// ---- Correlated node failures -------------------------------------------

// The node-loss draw is pure in (seed, job, worker) and kills every task
// the placement puts on the lost worker — and the per-task fault streams
// are untouched by the node-level knob (schedule bit-compat when off).
TEST(CorrelatedFaultTest, NodeLossKillsEveryResidentTaskDeterministically) {
  FaultSpec spec;
  spec.seed = 404;
  spec.task_failure_probability = 0.2;
  spec.straggler_probability = 0.15;
  spec.node_failure_probability = 0.35;
  spec.num_workers = 4;
  const FaultPlan plan(spec);

  FaultSpec base = spec;
  base.node_failure_probability = 0.0;
  const FaultPlan baseline(base);

  for (uint64_t job = 0; job < 25; ++job) {
    for (uint64_t task = 0; task < 16; ++task) {
      const TaskFault fault = plan.Draw(job, task);
      const TaskFault plain = baseline.Draw(job, task);
      const bool lost = plan.WorkerLost(job, plan.WorkerOf(task));
      EXPECT_EQ(fault.node_loss, lost) << "job " << job << " task " << task;
      // The per-task stream is independent of the node-level stream: the
      // only difference the knob makes is the one extra re-execution.
      EXPECT_EQ(fault.slowdown, plain.slowdown);
      const int max_extra = spec.max_task_attempts - 1;
      const int expected_extra =
          lost ? std::min(plain.extra_attempts + 1, max_extra)
               : plain.extra_attempts;
      EXPECT_EQ(fault.extra_attempts, expected_extra)
          << "job " << job << " task " << task;
      // Co-resident tasks share the draw: every task on a lost worker dies.
      if (lost) {
        for (uint64_t other = task % 4; other < 16; other += 4) {
          if (plan.WorkerOf(other) == plan.WorkerOf(task)) {
            EXPECT_TRUE(plan.Draw(job, other).node_loss);
          }
        }
      }
    }
  }
}

// >= 100 randomized plans mixing task failures, stragglers, correlated
// node losses, and speculation: the fitted model must stay bit-identical
// to the clean run, and the engine's node-loss counter must equal the
// schedule recomputed from the plan.
TEST(CorrelatedFaultTest, FitIsBitIdenticalUnderRandomizedCorrelatedPlans) {
  const DistMatrix matrix =
      DistMatrix::FromDense(RandomDense(160, 24, 42), 5);
  const core::SpcaOptions options = ChaosSpcaOptions(2);

  auto run_fit = [&](const FaultPlan* plan, std::vector<JobTrace>* traces_out,
                     uint64_t* node_losses) {
    Engine engine(ClusterSpec{}, EngineMode::kSpark);
    engine.SetLocalWorkers(3);
    if (plan != nullptr) engine.SetFaultPlan(*plan);
    auto result = core::Spca(&engine, options).Solve(matrix);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (traces_out != nullptr) *traces_out = engine.traces();
    if (node_losses != nullptr) {
      *node_losses =
          CounterValue(*engine.registry(), "engine.faults.node_loss_tasks");
    }
    return std::pair<core::SolveResult, double>(std::move(result.value()),
                                               engine.SimulatedSeconds());
  };

  const auto [clean, clean_sim] = run_fit(nullptr, nullptr, nullptr);

  Rng meta(0x90d35u);
  int plans_with_node_losses = 0;
  for (int trial = 0; trial < 100; ++trial) {
    FaultSpec spec;
    spec.seed = meta.NextUint64();
    spec.task_failure_probability = 0.3 * meta.NextDouble();
    spec.straggler_probability = 0.4 * meta.NextDouble();
    spec.straggler_slowdown = 1.5 + 6.0 * meta.NextDouble();
    spec.node_failure_probability = 0.5 * meta.NextDouble();
    spec.num_workers = 1 + static_cast<int>(meta.NextUint64Below(8));
    spec.max_task_attempts = 2 + static_cast<int>(meta.NextUint64Below(4));
    spec.retry_backoff_sec = 0.01 + meta.NextDouble();
    spec.speculation.enabled = meta.NextUint64Below(2) == 1;
    const FaultPlan plan(spec);

    std::vector<JobTrace> traces;
    uint64_t node_losses = 0;
    const auto [faulted, faulted_sim] = run_fit(&plan, &traces, &node_losses);

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

    uint64_t expected_node_losses = 0;
    uint64_t expected_retries = 0;
    for (size_t job = 0; job < traces.size(); ++job) {
      for (const TaskFault& fault :
           plan.DrawJob(job, traces[job].num_tasks)) {
        if (fault.node_loss) ++expected_node_losses;
        expected_retries += static_cast<uint64_t>(fault.extra_attempts);
      }
    }
    ASSERT_EQ(node_losses, expected_node_losses) << "trial " << trial;
    if (expected_retries > 0) {
      ASSERT_GT(faulted_sim, clean_sim) << "trial " << trial;
    }
    if (expected_node_losses > 0) ++plans_with_node_losses;
  }
  EXPECT_GT(plans_with_node_losses, 50);
}

// ---- Speculative execution ----------------------------------------------

// A clean run's traces replayed through ReplayJobCostWithFaults under a
// speculation-enabled plan must charge exactly what a live speculating
// engine charges, job by job — committed winner time AND the duplicate's
// occupancy.
TEST(SpeculationTest, ReplayMatchesLiveSpeculativeRun) {
  const DistMatrix matrix = DistMatrix::FromDense(RandomDense(80, 6, 3), 8);
  FaultSpec spec;
  spec.seed = 5150;
  spec.task_failure_probability = 0.2;
  spec.straggler_probability = 0.4;
  spec.straggler_slowdown = 6.0;
  spec.node_failure_probability = 0.1;
  spec.num_workers = 4;
  spec.retry_backoff_sec = 0.5;
  spec.speculation.enabled = true;
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

  Engine speculating(ClusterSpec{}, EngineMode::kSpark);
  speculating.SetLocalWorkers(1);
  speculating.SetFaultPlan(plan);
  run_jobs(&speculating);

  ASSERT_GT(CounterValue(*speculating.registry(),
                         "engine.speculation.launched"),
            0u);

  ASSERT_EQ(clean.traces().size(), speculating.traces().size());
  const dist::ReplayScales unit;
  for (size_t i = 0; i < clean.traces().size(); ++i) {
    const dist::JobCost replayed = dist::ReplayJobCostWithFaults(
        clean.traces()[i], clean.spec(), clean.mode(), unit, plan, i);
    const JobTrace& live = speculating.traces()[i];
    EXPECT_DOUBLE_EQ(replayed.launch_sec, live.launch_sec) << "job " << i;
    EXPECT_DOUBLE_EQ(replayed.compute_sec, live.compute_sec) << "job " << i;
    EXPECT_DOUBLE_EQ(replayed.data_sec, live.data_sec) << "job " << i;
  }

  // Unit-scale replay of the speculative run reproduces it as-is: the
  // recorded duplicate occupancies replay without re-injecting the plan.
  for (size_t i = 0; i < speculating.traces().size(); ++i) {
    const JobTrace& live = speculating.traces()[i];
    const dist::JobCost replayed =
        dist::ReplayJobCost(live, speculating.spec(), speculating.mode(),
                            unit);
    EXPECT_DOUBLE_EQ(replayed.Total(),
                     live.launch_sec + live.compute_sec + live.data_sec)
        << "job " << i;
  }
}

// On a straggler-heavy plan (every straggler 8x slower, copies launched at
// 0.25x), speculation strictly reduces simulated time and never changes
// the computed results.
TEST(SpeculationTest, SpeculationStrictlyReducesSimTimeOnStragglers) {
  const DistMatrix matrix = DistMatrix::FromDense(RandomDense(96, 8, 17), 6);

  auto run = [&](bool speculate, std::vector<uint64_t>* sums,
                 uint64_t* copies_won) {
    FaultSpec spec;
    spec.seed = 8080;
    spec.straggler_probability = 0.9;
    spec.straggler_slowdown = 8.0;
    spec.speculation.enabled = speculate;
    Engine engine(ClusterSpec{}, EngineMode::kSpark);
    engine.SetLocalWorkers(2);
    engine.SetFaultPlan(FaultPlan(spec));
    for (int job = 0; job < 4; ++job) {
      const auto results = engine.RunMap<uint64_t>(
          dist::JobDesc{"straggly_job"}, matrix,
          [&](const dist::RowRange& range, TaskContext* ctx) -> uint64_t {
            ctx->CountFlops(40000);
            ctx->EmitResult(64);
            return range.end - range.begin;
          });
      for (const uint64_t r : results) sums->push_back(r);
    }
    *copies_won =
        CounterValue(*engine.registry(), "engine.speculation.copies_won");
    return engine.SimulatedSeconds();
  };

  std::vector<uint64_t> plain_sums;
  std::vector<uint64_t> spec_sums;
  uint64_t plain_won = 0;
  uint64_t spec_won = 0;
  const double plain_sim = run(false, &plain_sums, &plain_won);
  const double spec_sim = run(true, &spec_sums, &spec_won);

  EXPECT_EQ(plain_sums, spec_sums);  // results never change
  EXPECT_EQ(plain_won, 0u);
  EXPECT_GT(spec_won, 0u);
  EXPECT_LT(spec_sim, plain_sim);
}

// The speculative duplicate really executes (one more scratch attempt) and
// the committed result still lands exactly once.
TEST(SpeculationTest, DuplicatesReallyRunAndCommitExactlyOnce) {
  const DistMatrix matrix = DistMatrix::FromDense(RandomDense(64, 4, 9), 8);
  FaultSpec spec;
  spec.seed = 31337;
  spec.straggler_probability = 0.6;
  spec.straggler_slowdown = 5.0;
  spec.speculation.enabled = true;
  const FaultPlan plan(spec);

  Engine engine(ClusterSpec{}, EngineMode::kSpark);
  engine.SetLocalWorkers(4);
  engine.SetFaultPlan(plan);

  std::vector<std::atomic<int>> invocations(matrix.num_partitions());
  for (auto& i : invocations) i.store(0, std::memory_order_relaxed);
  const auto results = engine.RunMap<uint64_t>(
      dist::JobDesc{"spec_probe"}, matrix,
      [&](const dist::RowRange& range, TaskContext* ctx) -> uint64_t {
        invocations[range.partition_index].fetch_add(
            1, std::memory_order_relaxed);
        ctx->CountFlops(1000);
        ctx->EmitResult(8);
        return range.end - range.begin;
      });

  uint64_t total_rows = 0;
  for (const uint64_t rows : results) total_rows += rows;
  EXPECT_EQ(total_rows, matrix.rows());

  int speculated_tasks = 0;
  for (size_t p = 0; p < matrix.num_partitions(); ++p) {
    const TaskFault fault = plan.Draw(0, p);
    const bool speculated =
        fault.slowdown >= plan.spec().speculation.min_slowdown;
    ASSERT_EQ(invocations[p].load(std::memory_order_relaxed),
              1 + fault.extra_attempts + (speculated ? 1 : 0))
        << "partition " << p;
    if (speculated) ++speculated_tasks;
  }
  ASSERT_GT(speculated_tasks, 0);
  EXPECT_EQ(CounterValue(*engine.registry(), "engine.speculation.launched"),
            static_cast<uint64_t>(speculated_tasks));
}

// ---- Checkpoint / restart -----------------------------------------------

// Kill an sPCA fit after iteration 3 of 6 (the checkpoint callback aborts
// the solve — a simulated driver crash), persist the checkpoint through
// the on-disk SPCM+SPCS pair, resume into a fresh solver, and require the
// final model to be byte-identical to the run that was never killed.
TEST(CheckpointRestartTest, SpcaKillThenResumeIsBitIdentical) {
  const DistMatrix matrix =
      DistMatrix::FromDense(RandomDense(160, 24, 42), 5);

  Engine clean_engine(ClusterSpec{}, EngineMode::kSpark);
  clean_engine.SetLocalWorkers(3);
  auto clean =
      core::Spca(&clean_engine, ChaosSpcaOptions(6)).Solve(matrix);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  // Killed run: checkpoint every iteration, crash right after the third.
  const std::string path = TempPath("resilience_spca_checkpoint.spcm");
  Engine killed_engine(ClusterSpec{}, EngineMode::kSpark);
  killed_engine.SetLocalWorkers(3);
  core::Spca killed(&killed_engine, ChaosSpcaOptions(6));
  core::FitOptions fit;
  int checkpoints_written = 0;
  fit.on_checkpoint = [&](const core::PcaModel& model,
                          const core::SolverCheckpoint& state) -> Status {
    SPCA_RETURN_IF_ERROR(serve::SaveCheckpoint(model, state, path));
    ++checkpoints_written;
    if (state.step == 3) return Status::Internal("injected driver crash");
    return Status::Ok();
  };
  auto crashed = killed.Solve(matrix, fit);
  ASSERT_FALSE(crashed.ok());
  EXPECT_NE(crashed.status().ToString().find("injected driver crash"),
            std::string::npos);
  EXPECT_EQ(checkpoints_written, 3);

  // Resume from disk: warm start from the checkpoint, run the remaining 3
  // iterations through the Solver surface.
  auto loaded = serve::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->state.solver, "spca");
  EXPECT_EQ(loaded->state.step, 3u);
  EXPECT_EQ(loaded->state.rows_seen, matrix.rows());

  Engine resume_engine(ClusterSpec{}, EngineMode::kSpark);
  resume_engine.SetLocalWorkers(3);
  core::Spca resumed(&resume_engine, ChaosSpcaOptions(3));
  ASSERT_TRUE(resumed.Init({}).ok());
  ASSERT_TRUE(resumed.Restore(loaded->model, loaded->state).ok());
  ASSERT_TRUE(resumed.Step(matrix).ok());
  auto result = resumed.Result();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ExpectModelsBitIdentical(result->model, clean->model);
}

// Streaming mini-batch EM: checkpoint after batch 4 of 8, restore into a
// fresh solver, feed the remaining batches — bit-identical to stepping all
// eight uninterrupted.
TEST(CheckpointRestartTest, MiniBatchEmKillThenResumeIsBitIdentical) {
  workload::RowStreamConfig config;
  config.dim = 64;
  config.rank = 4;
  config.batch_rows = 96;
  config.partitions_per_batch = 3;
  config.seed = 11;
  workload::RowStream stream(config);
  std::vector<DistMatrix> batches;
  for (int i = 0; i < 8; ++i) batches.push_back(stream.NextBatch());

  stream::StreamSolverOptions options;
  options.num_components = 4;
  options.seed = 7;

  Engine engine_a(ClusterSpec{}, EngineMode::kSpark);
  stream::MiniBatchEmSolver uninterrupted(&engine_a, options);
  ASSERT_TRUE(uninterrupted.Init({}).ok());
  for (const DistMatrix& batch : batches) {
    ASSERT_TRUE(uninterrupted.Step(batch).ok());
  }

  Engine engine_b(ClusterSpec{}, EngineMode::kSpark);
  stream::MiniBatchEmSolver killed(&engine_b, options);
  ASSERT_TRUE(killed.Init({}).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(killed.Step(batches[i]).ok());
  auto snapshot = killed.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  auto state = killed.Checkpoint();
  ASSERT_TRUE(state.ok()) << state.status().ToString();
  const std::string path = TempPath("resilience_mbem_checkpoint.spcm");
  ASSERT_TRUE(
      serve::SaveCheckpoint(snapshot.value(), state.value(), path).ok());

  auto loaded = serve::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->state.solver, "minibatch_em");
  EXPECT_EQ(loaded->state.step, 4u);

  Engine engine_c(ClusterSpec{}, EngineMode::kSpark);
  stream::MiniBatchEmSolver resumed(&engine_c, options);
  ASSERT_TRUE(resumed.Init({}).ok());
  ASSERT_TRUE(resumed.Restore(loaded->model, loaded->state).ok());
  EXPECT_EQ(resumed.steps(), 4u);
  for (int i = 4; i < 8; ++i) ASSERT_TRUE(resumed.Step(batches[i]).ok());

  auto full = uninterrupted.Snapshot();
  auto restored = resumed.Snapshot();
  ASSERT_TRUE(full.ok() && restored.ok());
  ExpectModelsBitIdentical(restored.value(), full.value());
  EXPECT_EQ(resumed.rows_seen(), uninterrupted.rows_seen());
  EXPECT_EQ(resumed.noise_variance(), uninterrupted.noise_variance());
}

// Oja with a lazy reorthonormalization period of 3, checkpointed at step 4
// (mid-shear): the raw basis in the sidecar must make the continuation
// bit-identical, including the reorth schedule.
TEST(CheckpointRestartTest, OjaKillThenResumeIsBitIdentical) {
  workload::RowStreamConfig config;
  config.dim = 48;
  config.rank = 4;
  config.batch_rows = 64;
  config.partitions_per_batch = 2;
  config.seed = 23;
  workload::RowStream stream(config);
  std::vector<DistMatrix> batches;
  for (int i = 0; i < 10; ++i) batches.push_back(stream.NextBatch());

  stream::StreamSolverOptions options;
  options.num_components = 3;
  options.seed = 5;
  options.reorth_every = 3;

  Engine engine_a(ClusterSpec{}, EngineMode::kSpark);
  stream::OjaSolver uninterrupted(&engine_a, options);
  ASSERT_TRUE(uninterrupted.Init({}).ok());
  for (const DistMatrix& batch : batches) {
    ASSERT_TRUE(uninterrupted.Step(batch).ok());
  }

  Engine engine_b(ClusterSpec{}, EngineMode::kSpark);
  stream::OjaSolver killed(&engine_b, options);
  ASSERT_TRUE(killed.Init({}).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(killed.Step(batches[i]).ok());
  auto snapshot = killed.Snapshot();
  auto state = killed.Checkpoint();
  ASSERT_TRUE(snapshot.ok() && state.ok());
  const std::string path = TempPath("resilience_oja_checkpoint.spcm");
  ASSERT_TRUE(
      serve::SaveCheckpoint(snapshot.value(), state.value(), path).ok());

  auto loaded = serve::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->state.solver, "oja");

  Engine engine_c(ClusterSpec{}, EngineMode::kSpark);
  stream::OjaSolver resumed(&engine_c, options);
  ASSERT_TRUE(resumed.Init({}).ok());
  ASSERT_TRUE(resumed.Restore(loaded->model, loaded->state).ok());
  for (int i = 4; i < 10; ++i) ASSERT_TRUE(resumed.Step(batches[i]).ok());

  auto full = uninterrupted.Snapshot();
  auto restored = resumed.Snapshot();
  ASSERT_TRUE(full.ok() && restored.ok());
  ExpectModelsBitIdentical(restored.value(), full.value());
}

// The stream pipeline's durable checkpoint cadence: a run killed after 5
// batches left a checkpoint at batch 4; restoring it and re-running the
// pipeline over the remaining batches reproduces the uninterrupted model.
TEST(CheckpointRestartTest, PipelineCheckpointsAndResumes) {
  workload::RowStreamConfig config;
  config.dim = 64;
  config.rank = 4;
  config.batch_rows = 96;
  config.partitions_per_batch = 3;
  config.seed = 31;
  workload::RowStream stream(config);
  std::vector<DistMatrix> batches;
  for (int i = 0; i < 8; ++i) batches.push_back(stream.NextBatch());

  stream::StreamSolverOptions solver_options;
  solver_options.num_components = 4;
  solver_options.seed = 7;

  auto make_source = [&batches](size_t begin, size_t end) {
    size_t next = begin;
    return [&batches, next, end]() mutable -> std::optional<DistMatrix> {
      if (next >= end) return std::nullopt;
      return batches[next++];
    };
  };

  // Uninterrupted reference: all eight batches through one solver.
  Engine engine_a(ClusterSpec{}, EngineMode::kSpark);
  stream::MiniBatchEmSolver reference(&engine_a, solver_options);
  ASSERT_TRUE(reference.Init({}).ok());
  for (const DistMatrix& batch : batches) {
    ASSERT_TRUE(reference.Step(batch).ok());
  }

  // Killed run: pipeline checkpoints every 2 batches, dies after batch 5.
  const std::string path = TempPath("resilience_pipeline_checkpoint.spcm");
  serve::ModelRegistry registry;
  stream::PublisherOptions publisher_options;
  publisher_options.registry = &registry;
  publisher_options.model_name = "resilience";

  Engine engine_b(ClusterSpec{}, EngineMode::kSpark);
  stream::MiniBatchEmSolver killed(&engine_b, solver_options);
  ASSERT_TRUE(killed.Init({}).ok());
  stream::ModelPublisher killed_publisher(publisher_options);
  stream::StreamPipelineOptions killed_options;
  killed_options.publish_every_batches = 0;
  killed_options.max_batches = 5;
  killed_options.checkpoint_every_batches = 2;
  killed_options.checkpoint_path = path;
  stream::StreamPipeline killed_pipeline(&killed, &killed_publisher,
                                         killed_options);
  auto killed_summary = killed_pipeline.Run(make_source(0, 8));
  ASSERT_TRUE(killed_summary.ok()) << killed_summary.status().ToString();
  EXPECT_EQ(killed_summary->batches, 5u);
  EXPECT_EQ(killed_summary->checkpoints, 2u);  // after batches 2 and 4

  // Resume: restore the batch-4 checkpoint and run batches 5..8.
  auto loaded = serve::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->state.step, 4u);

  Engine engine_c(ClusterSpec{}, EngineMode::kSpark);
  stream::MiniBatchEmSolver resumed(&engine_c, solver_options);
  ASSERT_TRUE(resumed.Init({}).ok());
  ASSERT_TRUE(resumed.Restore(loaded->model, loaded->state).ok());
  stream::ModelPublisher resume_publisher(publisher_options);
  stream::StreamPipelineOptions resume_options;
  resume_options.publish_every_batches = 0;
  resume_options.checkpoint_every_batches = 2;
  resume_options.checkpoint_path = path;
  stream::StreamPipeline resume_pipeline(&resumed, &resume_publisher,
                                         resume_options);
  auto resume_summary = resume_pipeline.Run(make_source(4, 8));
  ASSERT_TRUE(resume_summary.ok()) << resume_summary.status().ToString();
  EXPECT_EQ(resume_summary->batches, 4u);

  auto full = reference.Snapshot();
  auto restored = resumed.Snapshot();
  ASSERT_TRUE(full.ok() && restored.ok());
  ExpectModelsBitIdentical(restored.value(), full.value());
}

// A checkpoint from one solver must not restore into another, and a
// missing sidecar must fail the load loudly.
TEST(CheckpointRestartTest, RestoreRejectsMismatchedOrMissingState) {
  Engine engine(ClusterSpec{}, EngineMode::kSpark);
  stream::StreamSolverOptions options;
  options.num_components = 3;
  workload::RowStreamConfig config;
  config.dim = 32;
  config.rank = 3;
  config.batch_rows = 48;
  config.partitions_per_batch = 2;
  workload::RowStream stream(config);

  stream::MiniBatchEmSolver em(&engine, options);
  ASSERT_TRUE(em.Init({}).ok());
  ASSERT_TRUE(em.Step(stream.NextBatch()).ok());
  auto snapshot = em.Snapshot();
  auto state = em.Checkpoint();
  ASSERT_TRUE(snapshot.ok() && state.ok());

  stream::OjaSolver oja(&engine, options);
  ASSERT_TRUE(oja.Init({}).ok());
  EXPECT_FALSE(oja.Restore(snapshot.value(), state.value()).ok());

  core::Spca spca(&engine, ChaosSpcaOptions(2));
  ASSERT_TRUE(spca.Init({}).ok());
  EXPECT_FALSE(spca.Restore(snapshot.value(), state.value()).ok());

  // A fresh streaming solver (no steps yet) has nothing to checkpoint.
  stream::MiniBatchEmSolver empty(&engine, options);
  ASSERT_TRUE(empty.Init({}).ok());
  EXPECT_FALSE(empty.Checkpoint().ok());

  // SaveCheckpoint must not leave a model behind when the sidecar fails
  // (unwritable directory).
  const std::string bad_path =
      std::string(::testing::TempDir()) + "/no_such_dir/checkpoint.spcm";
  EXPECT_FALSE(
      serve::SaveCheckpoint(snapshot.value(), state.value(), bad_path).ok());
  EXPECT_FALSE(serve::LoadCheckpoint(bad_path).ok());
}

}  // namespace
}  // namespace spca
