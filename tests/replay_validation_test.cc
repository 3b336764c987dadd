// Validates the cost-model extrapolation the figure/table benches rely
// on: replaying a recorded run with per-row quantities scaled by k must
// reproduce the simulated time of a *real* run on k-times-as-many rows.
//
// The k-times dataset is built by stacking the original rows k times, so
// the EM trajectory is bit-identical (all sufficient statistics scale by
// exactly k and the updates are scale-invariant), per-task flops scale by
// exactly k, and the only difference between the runs is data volume.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "dist/fault.h"
#include "dist/replay.h"
#include "linalg/sparse_matrix.h"
#include "sketch/rand_svd.h"
#include "sketch/sparsifier.h"
#include "workload/synthetic.h"

namespace spca {
namespace {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using linalg::SparseEntry;
using linalg::SparseMatrix;

/// The input matrix stacked `copies` times.
SparseMatrix Stack(const SparseMatrix& base, size_t copies) {
  SparseMatrix stacked(base.rows() * copies, base.cols());
  std::vector<SparseEntry> row;
  size_t out = 0;
  for (size_t copy = 0; copy < copies; ++copy) {
    for (size_t i = 0; i < base.rows(); ++i) {
      const auto view = base.Row(i);
      row.assign(view.begin(), view.end());
      stacked.AppendRow(out++, row);
    }
  }
  return stacked;
}

core::SpcaOptions FixedWorkOptions() {
  core::SpcaOptions options;
  options.num_components = 4;
  options.max_iterations = 3;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  return options;
}

class ReplayValidation : public ::testing::TestWithParam<int> {};

TEST_P(ReplayValidation, ScaledReplayMatchesRealScaledRun) {
  const size_t copies = static_cast<size_t>(GetParam());

  workload::BagOfWordsConfig config;
  config.rows = 600;
  config.vocab = 300;
  config.words_per_row = 8;
  config.seed = 77;
  const SparseMatrix base = workload::GenerateBagOfWords(config);
  // Same partition *count* for both runs so the task structure matches.
  const size_t partitions = 6;
  const DistMatrix small = DistMatrix::FromSparse(base, partitions);
  const DistMatrix large =
      DistMatrix::FromSparse(Stack(base, copies), partitions);

  for (const EngineMode mode : {EngineMode::kSpark, EngineMode::kMapReduce}) {
    Engine small_engine(dist::ClusterSpec{}, mode);
    Engine large_engine(dist::ClusterSpec{}, mode);
    auto small_fit =
        core::Spca(&small_engine, FixedWorkOptions()).Solve(small);
    auto large_fit =
        core::Spca(&large_engine, FixedWorkOptions()).Solve(large);
    ASSERT_TRUE(small_fit.ok());
    ASSERT_TRUE(large_fit.ok());

    // Note: the *models* differ slightly between the two runs — the
    // paper's Algorithm 4 adds ss*M^-1 (without the factor N) to XtX, so
    // the update is not invariant to row duplication. The cost structure
    // is what must scale: per-task flops depend only on the sparsity
    // pattern and d, and the large run charges exactly `copies` times the
    // small run's work.
    EXPECT_EQ(large_fit.value().stats.task_flops,
              copies * small_fit.value().stats.task_flops);

    // Replay each small-run job at row scale `copies` and compare against
    // the real large-run job (sPCA's partials are row-count independent,
    // so only flops and input bytes scale).
    ASSERT_EQ(small_engine.traces().size(), large_engine.traces().size());
    for (size_t j = 0; j < small_engine.traces().size(); ++j) {
      dist::ReplayScales scales;
      scales.flops = static_cast<double>(copies);
      scales.input_bytes = static_cast<double>(copies);
      const double replayed =
          dist::ReplayJobCost(small_engine.traces()[j], dist::ClusterSpec{},
                              mode, scales)
              .Total();
      const double real =
          large_engine.traces()[j].stats.simulated_seconds;
      // Tight agreement: per-row flops are exactly linear here; the only
      // slack is sub-permille accounting noise (row-boundary effects in
      // partitioning).
      EXPECT_NEAR(replayed, real, 0.02 * real + 1e-6)
          << "job " << small_engine.traces()[j].name << " mode "
          << dist::EngineModeToString(mode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, ReplayValidation, ::testing::Values(2, 4, 8));

// Property: replaying a recorded job under the *same* spec and mode with
// unit scales is the identity — it must reproduce the accounted
// launch/compute/data split (and their sum, the job's simulated seconds)
// to within 1e-9, for any cluster spec, partitioning, platform, failure
// rate, and optimization-toggle combination. This is the contract that
// makes ComputeJobCost safe to share between FinishJob and the replay
// path: if either side diverged, some randomized case here would break.
TEST(ReplayIdentityProperty, UnitScaleReplayMatchesAccountedCost) {
  Rng rng(0x5eedf00d2026ULL);
  int cases = 0;
  int jobs_checked = 0;
  while (cases < 100) {
    dist::ClusterSpec spec;
    spec.num_nodes = 1 + static_cast<int>(rng.NextUint64Below(16));
    spec.cores_per_node = 1 + static_cast<int>(rng.NextUint64Below(8));
    spec.flops_per_sec_per_core = 1e8 * (1.0 + 99.0 * rng.NextDouble());
    spec.disk_bandwidth_per_node = 1e6 * (1.0 + 999.0 * rng.NextDouble());
    spec.network_bandwidth_per_node = 1e6 * (1.0 + 999.0 * rng.NextDouble());
    spec.mapreduce_job_launch_sec = 0.5 + 15.0 * rng.NextDouble();
    spec.spark_stage_launch_sec = 0.05 + 1.0 * rng.NextDouble();
    dist::FaultSpec fault_spec;
    fault_spec.task_failure_probability =
        cases % 3 == 0 ? 0.4 * rng.NextDouble() : 0.0;
    fault_spec.max_task_attempts =
        1 + static_cast<int>(rng.NextUint64Below(4));
    const EngineMode mode = rng.NextUint64Below(2) == 0
                                ? EngineMode::kSpark
                                : EngineMode::kMapReduce;

    workload::BagOfWordsConfig config;
    config.rows = 40 + rng.NextUint64Below(160);
    config.vocab = 20 + rng.NextUint64Below(60);
    config.words_per_row = 3 + rng.NextUint64Below(8);
    config.seed = rng.NextUint64();
    const size_t partitions = 1 + rng.NextUint64Below(10);
    const DistMatrix matrix =
        DistMatrix::FromSparse(workload::GenerateBagOfWords(config),
                               partitions);

    core::SpcaOptions options;
    options.num_components = 2 + rng.NextUint64Below(4);
    options.max_iterations = 1 + static_cast<int>(rng.NextUint64Below(3));
    options.target_accuracy_fraction = 2.0;
    options.compute_accuracy_trace = false;
    options.mean_propagation = rng.NextUint64Below(2) == 0;
    options.minimize_intermediate_data = rng.NextUint64Below(2) == 0;
    options.consolidate_jobs = rng.NextUint64Below(2) == 0;
    options.efficient_frobenius = rng.NextUint64Below(2) == 0;
    options.ss3_associativity = rng.NextUint64Below(2) == 0;
    options.driver_moments = rng.NextUint64Below(2) == 0;
    options.seed = rng.NextUint64();

    Engine engine(spec, mode);
    engine.SetFaultPlan(dist::FaultPlan(fault_spec));
    auto fit = core::Spca(&engine, options).Solve(matrix);
    ASSERT_TRUE(fit.ok()) << fit.status().ToString();
    ASSERT_FALSE(engine.traces().size() == 0);

    const dist::ReplayScales unit;  // all multipliers 1.0
    for (const dist::JobTrace& trace : engine.traces()) {
      const dist::JobCost cost = dist::ReplayJobCost(trace, spec, mode, unit);
      EXPECT_NEAR(cost.launch_sec, trace.launch_sec, 1e-9);
      EXPECT_NEAR(cost.compute_sec, trace.compute_sec, 1e-9);
      EXPECT_NEAR(cost.data_sec, trace.data_sec, 1e-9);
      EXPECT_NEAR(cost.Total(),
                  trace.launch_sec + trace.compute_sec + trace.data_sec,
                  1e-9)
          << "job " << trace.name << " mode "
          << dist::EngineModeToString(mode);
      EXPECT_NEAR(cost.Total(), trace.stats.simulated_seconds, 1e-9);
      ++jobs_checked;
    }
    ++cases;
  }
  EXPECT_GE(cases, 100);
  EXPECT_GT(jobs_checked, cases);  // every case exercised several jobs
}

// Per-task byte replay: a hand-built trace with ragged task outputs,
// replayed with injected faults, must charge each retried task's *own*
// bytes — derived here independently from the public FaultPlan/
// ChargedTaskFlops/ComputeJobCost pieces.
TEST(FaultReplayPerTaskBytes, InjectedRetriesReshipEachTasksOwnBytes) {
  dist::JobTrace trace;
  trace.name = "ragged";
  trace.num_tasks = 8;
  uint64_t sum_intermediate = 0;
  uint64_t sum_result = 0;
  for (size_t task = 0; task < trace.num_tasks; ++task) {
    trace.task_flops.push_back(1'000'000 + 250'000 * task);
    trace.task_intermediate_bytes.push_back(1000 * (task + 1) * (task + 1));
    trace.task_result_bytes.push_back(500 + 4000 * task);
    sum_intermediate += trace.task_intermediate_bytes.back();
    sum_result += trace.task_result_bytes.back();
  }
  trace.stats.intermediate_bytes = sum_intermediate;
  trace.stats.result_bytes = sum_result;
  trace.charged_input_bytes = 5e6;

  dist::FaultSpec fault_spec;
  fault_spec.seed = 99;
  fault_spec.task_failure_probability = 0.5;
  fault_spec.retry_backoff_sec = 0.25;
  fault_spec.straggler_probability = 0.25;
  fault_spec.straggler_slowdown = 3.0;
  const dist::FaultPlan plan(fault_spec);
  const uint64_t job_index = 7;

  // Independent derivation of what the replay must charge.
  std::vector<uint64_t> charged_flops;
  double intermediate = 0.0;
  double result = 0.0;
  uint64_t extra_attempts = 0;
  for (size_t task = 0; task < trace.num_tasks; ++task) {
    const dist::TaskFault fault = plan.Draw(job_index, task);
    charged_flops.push_back(
        dist::ChargedTaskFlops(trace.task_flops[task], fault));
    extra_attempts += static_cast<uint64_t>(fault.extra_attempts);
    const double factor = 1.0 + static_cast<double>(fault.extra_attempts);
    intermediate +=
        static_cast<double>(trace.task_intermediate_bytes[task]) * factor;
    result += static_cast<double>(trace.task_result_bytes[task]) * factor;
  }
  ASSERT_GT(extra_attempts, 0u);  // the plan must actually inject retries

  const dist::ClusterSpec spec;
  const dist::ReplayScales unit;
  for (const dist::EngineMode mode :
       {dist::EngineMode::kSpark, dist::EngineMode::kMapReduce}) {
    const dist::JobCost expected = dist::ComputeJobCost(
        spec, mode, charged_flops, 1.0, trace.charged_input_bytes,
        intermediate, result, plan.BackoffSeconds(extra_attempts));
    const dist::JobCost got =
        dist::ReplayJobCostWithFaults(trace, spec, mode, unit, plan,
                                      job_index);
    EXPECT_NEAR(got.launch_sec, expected.launch_sec, 1e-12);
    EXPECT_NEAR(got.compute_sec, expected.compute_sec, 1e-12);
    EXPECT_NEAR(got.data_sec, expected.data_sec, 1e-12);
  }
}

// End-to-end exactness: injecting a fault plan into a *clean* recorded run
// must reproduce, job for job, the simulated cost of a live run recorded
// under that same plan — including jobs whose tasks emit non-uniform byte
// counts (this is what per-task byte recording buys). Also pins the
// recording invariant: the per-task byte vectors sum to the job's charged
// totals.
TEST(FaultReplayPerTaskBytes, CleanTraceReplayMatchesLiveFaultedRun) {
  workload::BagOfWordsConfig config;
  config.rows = 150;  // 7 partitions -> ragged final partition
  config.vocab = 80;
  config.words_per_row = 6;
  config.seed = 5;
  const DistMatrix matrix =
      DistMatrix::FromSparse(workload::GenerateBagOfWords(config), 7);

  core::SpcaOptions options;
  options.num_components = 3;
  options.max_iterations = 2;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  options.minimize_intermediate_data = true;  // content-dependent emissions

  dist::FaultSpec fault_spec;
  fault_spec.seed = 1234;
  fault_spec.task_failure_probability = 0.3;
  fault_spec.retry_backoff_sec = 0.1;
  fault_spec.straggler_probability = 0.2;
  fault_spec.straggler_slowdown = 3.0;
  const dist::FaultPlan plan(fault_spec);

  const dist::ClusterSpec spec;
  const dist::ReplayScales unit;
  for (const dist::EngineMode mode :
       {dist::EngineMode::kSpark, dist::EngineMode::kMapReduce}) {
    Engine clean_engine(spec, mode);
    ASSERT_TRUE(core::Spca(&clean_engine, options).Solve(matrix).ok());
    Engine faulted_engine(spec, mode);
    faulted_engine.SetFaultPlan(plan);
    ASSERT_TRUE(core::Spca(&faulted_engine, options).Solve(matrix).ok());

    ASSERT_EQ(clean_engine.traces().size(), faulted_engine.traces().size());
    size_t retries = 0;
    for (size_t j = 0; j < clean_engine.traces().size(); ++j) {
      const dist::JobTrace& clean = clean_engine.traces()[j];
      const dist::JobTrace& live = faulted_engine.traces()[j];
      retries += live.task_retries;

      // Recording invariant on both runs: per-task charged bytes are
      // present and sum to the job's stats totals.
      for (const dist::JobTrace* trace : {&clean, &live}) {
        ASSERT_EQ(trace->task_intermediate_bytes.size(),
                  trace->task_flops.size());
        ASSERT_EQ(trace->task_result_bytes.size(), trace->task_flops.size());
        uint64_t sum_intermediate = 0;
        uint64_t sum_result = 0;
        for (size_t t = 0; t < trace->task_flops.size(); ++t) {
          sum_intermediate += trace->task_intermediate_bytes[t];
          sum_result += trace->task_result_bytes[t];
        }
        EXPECT_EQ(sum_intermediate, trace->stats.intermediate_bytes)
            << "job " << trace->name;
        EXPECT_EQ(sum_result, trace->stats.result_bytes)
            << "job " << trace->name;
      }

      const double replayed =
          dist::ReplayJobCostWithFaults(clean, spec, mode, unit, plan, j)
              .Total();
      const double real = live.stats.simulated_seconds;
      EXPECT_NEAR(replayed, real, 1e-9 * std::max(1.0, real))
          << "job " << clean.name << " mode "
          << dist::EngineModeToString(mode);
    }
    EXPECT_GT(retries, 0u);  // the live run actually experienced faults
  }
}

// ---- Sketching-family replay identity (ISSUE 10 satellite 3) ------------

// The sketch solvers route all cluster work through the same engine the
// EM solver uses, so they inherit the replay contracts — but their jobs
// emit different shapes (consolidated D x k sketch partials; sparsified
// inputs with content-dependent nnz), so the identities are re-pinned
// here for rand_svd and for EM over a Sparsifier-thinned matrix.

/// A sparsified bag-of-words input: the Sparsifier output every
/// downstream job sees, with content-dependent per-row nnz.
DistMatrix SparsifiedInput(size_t partitions) {
  workload::BagOfWordsConfig config;
  config.rows = 150;
  config.vocab = 80;
  config.words_per_row = 6;
  config.seed = 5;
  sketch::SparsifierOptions sparsify;
  sparsify.keep_probability = 0.5;
  sparsify.seed = 21;
  return sketch::Sparsifier(sparsify).Apply(DistMatrix::FromSparse(
      workload::GenerateBagOfWords(config), partitions));
}

sketch::RandSvdOptions ReplayRandSvdOptions() {
  sketch::RandSvdOptions options;
  options.num_components = 3;
  options.power_iterations = 1;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  options.ideal_error_override = 1.0;
  return options;
}

core::SpcaOptions ReplaySparseLoadingsOptions() {
  core::SpcaOptions options;
  options.num_components = 3;
  options.max_iterations = 2;
  options.l1_threshold = 0.05;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  options.ideal_error_override = 1.0;
  return options;
}

// Unit-scale replay of every job a sketch-family run records is the
// identity on its accounted launch/compute/data split, and the per-task
// byte vectors sum to the job totals — for rand_svd, for sparse-PPCA,
// and for plain EM over a sparsified input, on both platforms.
TEST(SketchReplayIdentity, UnitScaleReplayMatchesAccountedCost) {
  const DistMatrix matrix = SparsifiedInput(7);
  const dist::ClusterSpec spec;
  const dist::ReplayScales unit;

  for (const EngineMode mode : {EngineMode::kSpark, EngineMode::kMapReduce}) {
    Engine rand_svd_engine(spec, mode);
    Engine sparse_engine(spec, mode);
    Engine em_engine(spec, mode);
    ASSERT_TRUE(sketch::RandSvdPca(&rand_svd_engine, ReplayRandSvdOptions())
                    .Solve(matrix)
                    .ok());
    ASSERT_TRUE(core::Spca(&sparse_engine, ReplaySparseLoadingsOptions())
                    .Solve(matrix)
                    .ok());
    ASSERT_TRUE(
        core::Spca(&em_engine, FixedWorkOptions()).Solve(matrix).ok());

    for (const Engine* engine :
         {&rand_svd_engine, &sparse_engine, &em_engine}) {
      ASSERT_FALSE(engine->traces().empty());
      for (const dist::JobTrace& trace : engine->traces()) {
        const dist::JobCost cost =
            dist::ReplayJobCost(trace, spec, mode, unit);
        EXPECT_NEAR(cost.launch_sec, trace.launch_sec, 1e-9);
        EXPECT_NEAR(cost.compute_sec, trace.compute_sec, 1e-9);
        EXPECT_NEAR(cost.data_sec, trace.data_sec, 1e-9);
        EXPECT_NEAR(cost.Total(), trace.stats.simulated_seconds, 1e-9)
            << "job " << trace.name << " mode "
            << dist::EngineModeToString(mode);

        // Per-task recording invariant: the faithful byte accounting the
        // crossover map depends on.
        ASSERT_EQ(trace.task_intermediate_bytes.size(),
                  trace.task_flops.size());
        ASSERT_EQ(trace.task_result_bytes.size(), trace.task_flops.size());
        uint64_t sum_intermediate = 0;
        uint64_t sum_result = 0;
        for (size_t t = 0; t < trace.task_flops.size(); ++t) {
          sum_intermediate += trace.task_intermediate_bytes[t];
          sum_result += trace.task_result_bytes[t];
        }
        EXPECT_EQ(sum_intermediate, trace.stats.intermediate_bytes)
            << "job " << trace.name;
        EXPECT_EQ(sum_result, trace.stats.result_bytes)
            << "job " << trace.name;
      }
    }
  }
}

// End-to-end fault exactness for the sketch family: replaying a *clean*
// rand_svd / sparse-PPCA recording under a FaultPlan reproduces, job for
// job, the simulated cost of a live run recorded under that same plan.
TEST(SketchReplayIdentity, CleanTraceReplayMatchesLiveFaultedRun) {
  const DistMatrix matrix = SparsifiedInput(7);

  dist::FaultSpec fault_spec;
  fault_spec.seed = 4321;
  fault_spec.task_failure_probability = 0.3;
  fault_spec.retry_backoff_sec = 0.1;
  fault_spec.straggler_probability = 0.2;
  fault_spec.straggler_slowdown = 3.0;
  const dist::FaultPlan plan(fault_spec);

  const dist::ClusterSpec spec;
  const dist::ReplayScales unit;
  for (const EngineMode mode : {EngineMode::kSpark, EngineMode::kMapReduce}) {
    size_t retries = 0;
    for (const bool use_rand_svd : {true, false}) {
      Engine clean_engine(spec, mode);
      Engine faulted_engine(spec, mode);
      faulted_engine.SetFaultPlan(plan);
      for (Engine* engine : {&clean_engine, &faulted_engine}) {
        if (use_rand_svd) {
          ASSERT_TRUE(sketch::RandSvdPca(engine, ReplayRandSvdOptions())
                          .Solve(matrix)
                          .ok());
        } else {
          ASSERT_TRUE(core::Spca(engine, ReplaySparseLoadingsOptions())
                          .Solve(matrix)
                          .ok());
        }
      }

      ASSERT_EQ(clean_engine.traces().size(),
                faulted_engine.traces().size());
      for (size_t j = 0; j < clean_engine.traces().size(); ++j) {
        const dist::JobTrace& clean = clean_engine.traces()[j];
        const dist::JobTrace& live = faulted_engine.traces()[j];
        retries += live.task_retries;
        const double replayed =
            dist::ReplayJobCostWithFaults(clean, spec, mode, unit, plan, j)
                .Total();
        const double real = live.stats.simulated_seconds;
        EXPECT_NEAR(replayed, real, 1e-9 * std::max(1.0, real))
            << "job " << clean.name << " mode "
            << dist::EngineModeToString(mode);
      }
    }
    EXPECT_GT(retries, 0u);  // the live runs actually experienced faults
  }
}

}  // namespace
}  // namespace spca
