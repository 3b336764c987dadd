// Sketching-family suite (ISSUE 10): the randomized range-finder solver,
// the entry-sampling Sparsifier preprocessor, and the sparse-loadings
// PPCA variant, plus the serve-time QueryFlops contract their crossover
// story depends on.
//
// The headline properties:
//   * rand_svd is a pure function of (matrix, options): same seed is
//     bit-identical, and it recovers a planted low-rank subspace;
//   * rand_svd ships strictly fewer bytes and launches strictly fewer
//     jobs than the EM solver on the same input — the Figure 4/5
//     crossover mechanism, asserted on the accounted CommStats;
//   * the Sparsifier's keep decisions depend only on (seed, row), never
//     on partitioning, and p = 1 is the identity;
//   * sparse-PPCA zeroes most loadings without giving up reconstruction
//     accuracy on a planted sparse-signal input, and the serve-time
//     Projector charges proportionally fewer QueryFlops for it;
//   * a fit killed mid-run (mid-power-round for rand_svd, mid-EM-sweep
//     for sparse-PPCA) and resumed from its on-disk checkpoint is
//     byte-identical to the run that was never interrupted.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "core/jobs.h"
#include "core/reconstruction_error.h"
#include "core/solver.h"
#include "core/spca.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "linalg/dense_matrix.h"
#include "obs/registry.h"
#include "serve/model_io.h"
#include "serve/projector.h"
#include "sketch/rand_svd.h"
#include "sketch/sparsifier.h"
#include "workload/synthetic.h"

namespace spca {
namespace {

using dist::ClusterSpec;
using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using linalg::DenseMatrix;
using sketch::RandSvdOptions;
using sketch::RandSvdPca;
using sketch::Sparsifier;
using sketch::SparsifierOptions;

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

DistMatrix LowRankInput(size_t rows, size_t cols, size_t rank,
                        size_t partitions, uint64_t seed) {
  workload::LowRankConfig config;
  config.rows = rows;
  config.cols = cols;
  config.rank = rank;
  config.noise_stddev = 0.05;
  config.seed = seed;
  return DistMatrix::FromDense(workload::GenerateLowRank(config), partitions);
}

RandSvdOptions FastRandSvdOptions(size_t d, int power_iterations) {
  RandSvdOptions options;
  options.num_components = d;
  options.power_iterations = power_iterations;
  options.target_accuracy_fraction = 2.0;  // run every round
  options.ideal_error_override = 1.0;      // skip the anchor fit
  options.error_sample_rows = 64;
  return options;
}

core::SpcaOptions FastSparseOptions(size_t d, int iterations,
                                    double l1_threshold) {
  core::SpcaOptions options;
  options.num_components = d;
  options.max_iterations = iterations;
  options.l1_threshold = l1_threshold;
  options.target_accuracy_fraction = 2.0;
  options.ideal_error_override = 1.0;
  options.error_sample_rows = 64;
  return options;
}

// All stored entries of a DistMatrix as (row, col, value) triples, in row
// order — partition-layout-free, so two matrices with different partition
// counts compare equal iff they hold the same logical entries.
std::vector<std::tuple<size_t, size_t, double>> Entries(const DistMatrix& m) {
  std::vector<std::tuple<size_t, size_t, double>> out;
  for (size_t i = 0; i < m.rows(); ++i) {
    m.ForEachEntry(i, [&](size_t j, double v) { out.emplace_back(i, j, v); });
  }
  return out;
}

uint64_t CounterValue(const obs::Registry& registry, const char* name) {
  const obs::Counter* counter = registry.FindCounter(name);
  return counter == nullptr ? 0 : counter->AsUint64();
}

// ---- rand_svd -----------------------------------------------------------

TEST(RandSvdTest, SameSeedIsBitIdenticalDifferentSeedIsNot) {
  const DistMatrix matrix = LowRankInput(300, 40, 4, 5, 31);

  Engine engine_a(ClusterSpec{}, EngineMode::kSpark);
  auto a = RandSvdPca(&engine_a, FastRandSvdOptions(4, 1)).Solve(matrix);
  ASSERT_TRUE(a.ok()) << a.status().ToString();

  Engine engine_b(ClusterSpec{}, EngineMode::kSpark);
  auto b = RandSvdPca(&engine_b, FastRandSvdOptions(4, 1)).Solve(matrix);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectModelsBitIdentical(a->model, b->model);

  RandSvdOptions reseeded = FastRandSvdOptions(4, 1);
  reseeded.seed = 99;
  Engine engine_c(ClusterSpec{}, EngineMode::kSpark);
  auto c = RandSvdPca(&engine_c, reseeded).Solve(matrix);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_GT(a->model.components.MaxAbsDiff(c->model.components), 0.0);
}

TEST(RandSvdTest, RecoversPlantedLowRankSubspace) {
  const DistMatrix matrix = LowRankInput(500, 48, 4, 6, 7);
  Engine engine(ClusterSpec{}, EngineMode::kSpark);
  auto result = RandSvdPca(&engine, FastRandSvdOptions(4, 2)).Solve(matrix);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->model.input_dim(), 48u);
  EXPECT_EQ(result->model.num_components(), 4u);
  EXPECT_GT(result->model.noise_variance, 0.0);

  // The planted model has unit-scale rank-4 signal over 0.05-stddev noise;
  // a basis that captures the subspace reconstructs the full matrix to a
  // small relative 1-norm error, a basis that misses it cannot get below
  // ~the signal scale.
  const double error = core::SampledReconstructionError(
      matrix, result->model.components, result->model.mean);
  EXPECT_LT(error, 0.2) << "rand_svd missed the planted subspace";
}

TEST(RandSvdTest, ShipsFewerBytesAndJobsThanEmSolverOnSameInput) {
  const DistMatrix matrix = LowRankInput(2000, 200, 5, 8, 11);

  core::SpcaOptions em_options;
  em_options.num_components = 6;
  em_options.max_iterations = 10;  // the paper's experiment budget
  em_options.target_accuracy_fraction = 2.0;
  em_options.ideal_error_override = 1.0;
  em_options.error_sample_rows = 64;
  Engine em_engine(ClusterSpec{}, EngineMode::kSpark);
  auto em = core::Spca(&em_engine, em_options).Solve(matrix);
  ASSERT_TRUE(em.ok()) << em.status().ToString();

  Engine sketch_engine(ClusterSpec{}, EngineMode::kSpark);
  auto sketched =
      RandSvdPca(&sketch_engine, FastRandSvdOptions(6, 1)).Solve(matrix);
  ASSERT_TRUE(sketched.ok()) << sketched.status().ToString();

  // Two consolidated rounds versus meanJob + FnormJob and ten EM sweeps of
  // one YtXJob each (the default driver_moments path): the sketch side
  // must win on both crossover axes. (Each rand_svd round ships a wider
  // D x k partial than an EM sweep's D x d ones — its advantage is needing
  // far fewer rounds, which bench_sketch pins at matched target accuracy.)
  EXPECT_LT(sketched->stats.jobs_launched, em->stats.jobs_launched);
  EXPECT_LT(sketched->stats.ShippedBytes(), em->stats.ShippedBytes());
}

// ---- Sparsifier ---------------------------------------------------------

TEST(SparsifierTest, KeepDecisionsIgnorePartitioningAndRepeatExactly) {
  workload::SparseLowRankConfig config;
  config.rows = 300;
  config.cols = 60;
  config.density = 0.2;
  linalg::SparseMatrix raw = workload::GenerateSparseLowRank(config);

  SparsifierOptions options;
  options.keep_probability = 0.5;
  options.seed = 41;
  const Sparsifier sparsifier(options);

  const DistMatrix coarse =
      sparsifier.Apply(DistMatrix::FromSparse(raw, /*num_partitions=*/2));
  const DistMatrix fine =
      sparsifier.Apply(DistMatrix::FromSparse(raw, /*num_partitions=*/11));
  const DistMatrix again =
      sparsifier.Apply(DistMatrix::FromSparse(raw, /*num_partitions=*/2));

  EXPECT_EQ(Entries(coarse), Entries(fine));
  EXPECT_EQ(Entries(coarse), Entries(again));
  EXPECT_EQ(coarse.num_partitions(), 2u);
  EXPECT_EQ(fine.num_partitions(), 11u);
}

TEST(SparsifierTest, KeepProbabilityOneIsTheIdentity) {
  const DistMatrix input = LowRankInput(80, 16, 3, 3, 5);
  SparsifierOptions options;
  options.keep_probability = 1.0;
  const DistMatrix output = Sparsifier(options).Apply(input);
  ASSERT_TRUE(output.is_sparse());  // output storage is always sparse
  EXPECT_EQ(Entries(output), Entries(input));
}

TEST(SparsifierTest, ReweightsSurvivorsAndRecordsCounters) {
  const DistMatrix input = LowRankInput(400, 32, 3, 4, 19);
  SparsifierOptions options;
  options.keep_probability = 0.25;
  options.seed = 77;
  const Sparsifier sparsifier(options);

  obs::Registry registry;
  const DistMatrix output = sparsifier.Apply(input, &registry);

  // Survivors carry the 1/p reweighting of the unbiased estimator; each
  // kept entry is the original value scaled by exactly 4.
  size_t checked = 0;
  for (size_t i = 0; i < 10; ++i) {
    std::vector<double> original(input.cols(), 0.0);
    input.ForEachEntry(i, [&](size_t j, double v) { original[j] = v; });
    output.ForEachEntry(i, [&](size_t j, double v) {
      EXPECT_DOUBLE_EQ(v, original[j] / options.keep_probability);
      ++checked;
    });
    // The kept count of row i is the popcount of its published mask.
    const std::vector<bool> mask = sparsifier.RowKeepMask(i, input.RowNnz(i));
    size_t mask_kept = 0;
    for (const bool keep : mask) mask_kept += keep ? 1 : 0;
    EXPECT_EQ(output.RowNnz(i), mask_kept);
  }
  ASSERT_GT(checked, 0u);

  // Keep rate lands near p (12800 draws; +-5 percentage points is ~7
  // sigma) and the counters reconcile with the matrices exactly.
  const double kept_fraction =
      static_cast<double>(output.StoredEntries()) / input.StoredEntries();
  EXPECT_NEAR(kept_fraction, options.keep_probability, 0.05);
  EXPECT_EQ(CounterValue(registry, "sketch.sparsify.input_entries"),
            input.StoredEntries());
  EXPECT_EQ(CounterValue(registry, "sketch.sparsify.kept_entries"),
            output.StoredEntries());
  EXPECT_EQ(CounterValue(registry, "sketch.sparsify.input_bytes"),
            input.ByteSize());
  EXPECT_EQ(CounterValue(registry, "sketch.sparsify.output_bytes"),
            output.ByteSize());
}

TEST(SparsifierTest, SparsifiedInputStillSolvesThroughTheEmSolver) {
  const DistMatrix input = LowRankInput(600, 48, 4, 5, 23);
  SparsifierOptions options;
  options.keep_probability = 0.5;
  const DistMatrix sparsified = Sparsifier(options).Apply(input);
  ASSERT_LT(sparsified.StoredEntries(), input.StoredEntries());

  core::SpcaOptions em_options;
  em_options.num_components = 4;
  em_options.max_iterations = 4;
  em_options.target_accuracy_fraction = 2.0;
  em_options.ideal_error_override = 1.0;
  em_options.error_sample_rows = 64;
  Engine engine(ClusterSpec{}, EngineMode::kSpark);
  auto result = core::Spca(&engine, em_options).Solve(sparsified);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Accuracy is measured honestly: against the ORIGINAL matrix. The
  // unbiased sampling estimator keeps the subspace recoverable at p=0.5.
  const double error = core::SampledReconstructionError(
      input, result->model.components, result->model.mean);
  EXPECT_LT(error, 0.35);
}

// ---- sparse-loadings PPCA ----------------------------------------------

TEST(SparsePpcaTest, ZeroesMostLoadingsWithoutGivingUpAccuracy) {
  workload::SparseSignalConfig config;  // rank 4, 8 active loadings each
  const DistMatrix matrix =
      DistMatrix::FromDense(workload::GenerateSparseSignal(config), 5);

  Engine sparse_engine(ClusterSpec{}, EngineMode::kSpark);
  auto sparse =
      core::Spca(&sparse_engine, FastSparseOptions(4, 8, 0.1)).Solve(matrix);
  ASSERT_TRUE(sparse.ok()) << sparse.status().ToString();

  core::SpcaOptions dense_options;
  dense_options.num_components = 4;
  dense_options.max_iterations = 8;
  dense_options.target_accuracy_fraction = 2.0;
  dense_options.ideal_error_override = 1.0;
  dense_options.error_sample_rows = 64;
  Engine dense_engine(ClusterSpec{}, EngineMode::kSpark);
  auto dense = core::Spca(&dense_engine, dense_options).Solve(matrix);
  ASSERT_TRUE(dense.ok()) << dense.status().ToString();

  const auto CountZeros = [](const DenseMatrix& c) {
    size_t zeros = 0;
    for (size_t i = 0; i < c.rows(); ++i) {
      for (size_t j = 0; j < c.cols(); ++j) zeros += c(i, j) == 0.0 ? 1 : 0;
    }
    return zeros;
  };
  const size_t total =
      sparse->model.components.rows() * sparse->model.components.cols();
  const size_t sparse_zeros = CountZeros(sparse->model.components);
  // The planted supports cover 32 of 256 loadings; thresholding must zero
  // at least half of all loadings while dense EM smears signal everywhere.
  EXPECT_GT(sparse_zeros, total / 2);
  EXPECT_LT(CountZeros(dense->model.components), total / 10);

  const double sparse_error = core::SampledReconstructionError(
      matrix, sparse->model.components, sparse->model.mean);
  const double dense_error = core::SampledReconstructionError(
      matrix, dense->model.components, dense->model.mean);
  EXPECT_LT(sparse_error, dense_error + 0.15)
      << "thresholding cost too much accuracy";

  // The engine's registry carries the sparsity telemetry.
  EXPECT_EQ(CounterValue(*sparse_engine.registry(), "spca.em_iterations"),
            8u);
  EXPECT_GT(
      CounterValue(*sparse_engine.registry(), "sketch.sparse_ppca.zeroed_loadings"),
      0u);
}

TEST(SparsePpcaTest, ShrinkIsTheSoftThresholdOperator) {
  EXPECT_DOUBLE_EQ(core::SoftThreshold(0.5, 0.1), 0.4);
  EXPECT_DOUBLE_EQ(core::SoftThreshold(-0.5, 0.1), -0.4);
  EXPECT_DOUBLE_EQ(core::SoftThreshold(0.05, 0.1), 0.0);
  EXPECT_DOUBLE_EQ(core::SoftThreshold(-0.05, 0.1), 0.0);
  EXPECT_DOUBLE_EQ(core::SoftThreshold(0.1, 0.1), 0.0);
}

// Sparse loadings must translate into proportionally fewer serve-time
// flops: the Projector's QueryFlops contract, checked as exact integers.
TEST(SparsePpcaTest, SparseLoadingsCutProjectorQueryFlopsProportionally) {
  const size_t dim = 40, d = 4;
  Rng rng(3);
  core::PcaModel dense_model;
  dense_model.components = DenseMatrix(dim, d);
  for (size_t i = 0; i < dim; ++i) {
    for (size_t j = 0; j < d; ++j) {
      dense_model.components(i, j) = rng.NextGaussian();
    }
  }
  dense_model.mean = linalg::DenseVector(dim);
  dense_model.noise_variance = 0.1;

  core::PcaModel half_model = dense_model;
  for (size_t i = 0; i < dim; i += 2) {  // zero every other input dim's row
    for (size_t j = 0; j < d; ++j) half_model.components(i, j) = 0.0;
  }

  auto dense_proj = serve::Projector::Create(dense_model);
  auto half_proj = serve::Projector::Create(half_model);
  ASSERT_TRUE(dense_proj.ok());
  ASSERT_TRUE(half_proj.ok());
  ASSERT_EQ(dense_proj->component_nnz(), dim * d);
  ASSERT_EQ(half_proj->component_nnz(), dim * d / 2);

  // Fully dense C reduces to the textbook 2*nnz*d + d + 2*d^2; halving
  // the stored loadings exactly halves the data-dependent term.
  const size_t nnz = 10;
  EXPECT_EQ(dense_proj->QueryFlops(nnz), 2 * nnz * d + d + 2 * d * d);
  EXPECT_EQ(half_proj->QueryFlops(nnz), nnz * d + d + 2 * d * d);
}

// ---- Checkpoint / restart ----------------------------------------------

// Kill a rand_svd fit right after its first power round (the checkpoint
// callback aborts the solve — a simulated driver crash), persist through
// the on-disk SPCM+SPCS pair, resume the remaining round into a fresh
// solver, and require the final model to be byte-identical to the run
// that was never killed.
TEST(SketchCheckpointTest, RandSvdKillMidPowerRoundThenResumeIsBitIdentical) {
  const DistMatrix matrix = LowRankInput(240, 32, 4, 4, 13);
  const int total_rounds = 3;  // one projection pass + two power rounds

  Engine clean_engine(ClusterSpec{}, EngineMode::kSpark);
  auto clean = RandSvdPca(&clean_engine, FastRandSvdOptions(4, total_rounds - 1))
                   .Solve(matrix);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  const std::string path = TempPath("sketch_rand_svd_checkpoint.spcm");
  Engine killed_engine(ClusterSpec{}, EngineMode::kSpark);
  RandSvdPca killed(&killed_engine, FastRandSvdOptions(4, total_rounds - 1));
  core::FitOptions fit;
  int checkpoints_written = 0;
  fit.on_checkpoint = [&](const core::PcaModel& model,
                          const core::SolverCheckpoint& state) -> Status {
    SPCA_RETURN_IF_ERROR(serve::SaveCheckpoint(model, state, path));
    ++checkpoints_written;
    if (state.step == 2) return Status::Internal("injected driver crash");
    return Status::Ok();
  };
  auto crashed = killed.Solve(matrix, fit);
  ASSERT_FALSE(crashed.ok());
  EXPECT_NE(crashed.status().ToString().find("injected driver crash"),
            std::string::npos);
  EXPECT_EQ(checkpoints_written, 2);

  auto loaded = serve::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->state.solver, "rand_svd");
  EXPECT_EQ(loaded->state.step, 2u);

  // Resume: the checkpoint holds the basis the third round would consume,
  // so the restored solver runs exactly total - step = 1 round
  // (power_iterations = 0).
  Engine resume_engine(ClusterSpec{}, EngineMode::kSpark);
  RandSvdPca resumed(&resume_engine,
                     FastRandSvdOptions(4, total_rounds - 2 - 1));
  ASSERT_TRUE(resumed.Init({}).ok());
  ASSERT_TRUE(resumed.Restore(loaded->model, loaded->state).ok());
  ASSERT_TRUE(resumed.Step(matrix).ok());
  auto result = resumed.Result();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ExpectModelsBitIdentical(result->model, clean->model);
}

// Same kill-then-resume contract for the thresholded EM solver: crash
// after sweep 3 of 6, resume the remaining 3 sweeps, bit-identical.
TEST(SketchCheckpointTest, SparsePpcaKillMidEmThenResumeIsBitIdentical) {
  workload::SparseSignalConfig config;
  config.rows = 400;
  const DistMatrix matrix =
      DistMatrix::FromDense(workload::GenerateSparseSignal(config), 4);

  Engine clean_engine(ClusterSpec{}, EngineMode::kSpark);
  auto clean =
      core::Spca(&clean_engine, FastSparseOptions(4, 6, 0.1)).Solve(matrix);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  const std::string path = TempPath("sketch_sparse_ppca_checkpoint.spcm");
  Engine killed_engine(ClusterSpec{}, EngineMode::kSpark);
  core::Spca killed(&killed_engine, FastSparseOptions(4, 6, 0.1));
  core::FitOptions fit;
  fit.on_checkpoint = [&](const core::PcaModel& model,
                          const core::SolverCheckpoint& state) -> Status {
    SPCA_RETURN_IF_ERROR(serve::SaveCheckpoint(model, state, path));
    if (state.step == 3) return Status::Internal("injected driver crash");
    return Status::Ok();
  };
  ASSERT_FALSE(killed.Solve(matrix, fit).ok());

  auto loaded = serve::LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->state.solver, "spca_sparse");
  EXPECT_EQ(loaded->state.step, 3u);

  Engine resume_engine(ClusterSpec{}, EngineMode::kSpark);
  core::Spca resumed(&resume_engine, FastSparseOptions(4, 3, 0.1));
  ASSERT_TRUE(resumed.Init({}).ok());
  ASSERT_TRUE(resumed.Restore(loaded->model, loaded->state).ok());
  ASSERT_TRUE(resumed.Step(matrix).ok());
  auto result = resumed.Result();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  ExpectModelsBitIdentical(result->model, clean->model);
}

TEST(SketchCheckpointTest, RestoreRejectsForeignOrIncompleteCheckpoints) {
  Engine engine(ClusterSpec{}, EngineMode::kSpark);
  RandSvdPca rand_svd(&engine, FastRandSvdOptions(4, 1));
  core::Spca sparse(&engine, FastSparseOptions(4, 3, 0.1));
  core::PcaModel model;

  // A checkpoint written by the other solver is rejected by both.
  core::SolverCheckpoint foreign;
  foreign.solver = "spca";
  EXPECT_FALSE(rand_svd.Restore(model, foreign).ok());
  EXPECT_FALSE(sparse.Restore(model, foreign).ok());

  // Right solver name but no basis: rejected.
  core::SolverCheckpoint incomplete;
  incomplete.solver = "rand_svd";
  incomplete.step = 1;
  EXPECT_FALSE(rand_svd.Restore(model, incomplete).ok());

  // A basis narrower than num_components cannot seed the eigen-solve.
  core::SolverCheckpoint narrow;
  narrow.solver = "rand_svd";
  narrow.step = 1;
  narrow.SetMatrix("Z", DenseMatrix(32, 2));
  EXPECT_FALSE(rand_svd.Restore(model, narrow).ok());
}

// ---- Persist / serve round trip ----------------------------------------

TEST(SketchServeTest, RandSvdModelSurvivesSaveLoadAndServes) {
  const DistMatrix matrix = LowRankInput(300, 40, 4, 5, 29);
  Engine engine(ClusterSpec{}, EngineMode::kSpark);
  auto fit = RandSvdPca(&engine, FastRandSvdOptions(4, 1)).Solve(matrix);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();

  const std::string path = TempPath("sketch_rand_svd_model.spcm");
  ASSERT_TRUE(serve::SaveModel(fit->model, path).ok());
  auto loaded = serve::LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectModelsBitIdentical(*loaded, fit->model);

  auto projector = serve::Projector::Create(*loaded);
  ASSERT_TRUE(projector.ok()) << projector.status().ToString();
  const linalg::DenseVector coords =
      projector->Project(matrix.dense().RowVector(0));
  ASSERT_EQ(coords.size(), 4u);
  double norm2 = 0.0;
  for (size_t i = 0; i < coords.size(); ++i) norm2 += coords[i] * coords[i];
  EXPECT_GT(norm2, 0.0);
}

}  // namespace
}  // namespace spca
