#include <gtest/gtest.h>

#include "baselines/cov_eig_pca.h"
#include "baselines/lanczos_pca.h"
#include "baselines/ssvd_pca.h"
#include "baselines/svd_bidiag_pca.h"
#include "common/rng.h"
#include "core/reconstruction_error.h"
#include "dist/engine.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace spca::baselines {
namespace {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using linalg::DenseMatrix;
using linalg::DenseVector;

/// Low-rank dense data plus its exact top-d principal subspace.
struct Planted {
  DistMatrix y;
  DenseMatrix truth;  // D x d exact eigenvectors of the sample covariance
};

Planted MakePlanted(size_t rows, size_t cols, size_t rank, uint64_t seed) {
  workload::LowRankConfig config;
  config.rows = rows;
  config.cols = cols;
  config.rank = rank;
  config.noise_stddev = 0.05;
  config.seed = seed;
  DenseMatrix y = workload::GenerateLowRank(config);
  const DenseVector mean = linalg::ColumnMeans(y);
  const DenseMatrix centered = linalg::MeanCenter(y, mean);
  const DenseMatrix cov = linalg::TransposeMultiply(centered, centered);
  auto eigen = linalg::SymmetricEigen(cov);
  SPCA_CHECK(eigen.ok());
  Planted planted;
  planted.truth = DenseMatrix(cols, rank);
  for (size_t j = 0; j < rank; ++j) {
    for (size_t i = 0; i < cols; ++i) {
      planted.truth(i, j) = eigen.value().vectors(i, j);
    }
  }
  planted.y = DistMatrix::FromDense(std::move(y), 4);
  return planted;
}

Engine MakeEngine(EngineMode mode = EngineMode::kSpark) {
  return Engine(dist::ClusterSpec{}, mode);
}

// ---- CovEigPca (MLlib-PCA analogue) -----------------------------------

TEST(CovEigPcaTest, RecoversExactSubspace) {
  const Planted planted = MakePlanted(300, 20, 3, 50);
  Engine engine = MakeEngine();
  CovEigOptions options;
  options.num_components = 3;
  auto result = CovEigPca(&engine, options).Solve(planted.y);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(test::MaxPrincipalAngle(result.value().model.components,
                                    planted.truth),
            0.02);
}

TEST(CovEigPcaTest, FailsWhenCovarianceExceedsDriverMemory) {
  const Planted planted = MakePlanted(100, 64, 3, 51);
  dist::ClusterSpec spec;
  // 64x64 doubles * factor 90 = ~2.9 MB; give the driver less.
  spec.driver_memory_bytes = 1024.0 * 1024.0;
  Engine engine(spec, EngineMode::kSpark);
  CovEigOptions options;
  options.num_components = 3;
  const auto result = CovEigPca(&engine, options).Solve(planted.y);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kOutOfMemory);
}

TEST(CovEigPcaTest, CommunicationScalesWithDSquared) {
  CovEigOptions options;
  options.num_components = 3;
  auto comm_for_dim = [&](size_t dim) {
    const Planted planted = MakePlanted(120, dim, 3, 52);
    Engine engine = MakeEngine();
    auto result = CovEigPca(&engine, options).Solve(planted.y);
    SPCA_CHECK(result.ok());
    return result.value().stats.result_bytes;
  };
  const uint64_t small = comm_for_dim(16);
  const uint64_t large = comm_for_dim(64);
  // 4x the dimensionality -> ~16x the communicated bytes.
  EXPECT_GT(large, 10 * small);
}

TEST(CovEigPcaTest, ValidatesArguments) {
  const Planted planted = MakePlanted(50, 10, 2, 53);
  Engine engine = MakeEngine();
  CovEigOptions options;
  options.num_components = 0;
  EXPECT_FALSE(CovEigPca(&engine, options).Solve(planted.y).ok());
  options.num_components = 11;
  EXPECT_FALSE(CovEigPca(&engine, options).Solve(planted.y).ok());
}

// ---- SsvdPca (Mahout-PCA analogue) ----------------------------------------

TEST(SsvdPcaTest, RecoversSubspaceWithPowerIterations) {
  const Planted planted = MakePlanted(300, 20, 3, 54);
  Engine engine = MakeEngine();
  SsvdOptions options;
  options.num_components = 3;
  options.oversampling = 8;
  options.max_power_iterations = 3;
  options.target_accuracy_fraction = 2.0;
  auto result = SsvdPca(&engine, options).Solve(planted.y);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(test::MaxPrincipalAngle(result.value().model.components,
                                    planted.truth),
            0.05);
  EXPECT_GT(result.value().trace.back().accuracy_percent, 95.0);
}

TEST(SsvdPcaTest, AccuracyImprovesWithPowerIterations) {
  const Planted planted = MakePlanted(400, 30, 6, 55);
  Engine engine = MakeEngine();
  SsvdOptions options;
  options.num_components = 6;
  options.oversampling = 2;  // small oversampling so round 0 is inaccurate
  options.max_power_iterations = 4;
  options.target_accuracy_fraction = 2.0;
  auto result = SsvdPca(&engine, options).Solve(planted.y);
  ASSERT_TRUE(result.ok());
  const auto& trace = result.value().trace;
  ASSERT_GE(trace.size(), 3u);
  EXPECT_GE(trace.back().accuracy_percent + 1e-9,
            trace.front().accuracy_percent);
}

TEST(SsvdPcaTest, MaterializesLargeIntermediateData) {
  // SSVD's N x k dense intermediates vs sPCA's accumulator-only traffic.
  const Planted planted = MakePlanted(500, 25, 3, 56);
  Engine engine = MakeEngine();
  SsvdOptions options;
  options.num_components = 3;
  options.max_power_iterations = 1;
  options.target_accuracy_fraction = 2.0;
  auto result = SsvdPca(&engine, options).Solve(planted.y);
  ASSERT_TRUE(result.ok());
  // At least Y0 and Q (N x k doubles each) were materialized.
  const uint64_t nk = 500ull * (3 + options.oversampling) * sizeof(double);
  EXPECT_GT(result.value().stats.intermediate_bytes, 2 * nk);
}

TEST(SsvdPcaTest, StopsAtTargetAccuracy) {
  const Planted planted = MakePlanted(300, 20, 3, 57);
  Engine engine = MakeEngine();
  SsvdOptions options;
  options.num_components = 3;
  options.max_power_iterations = 10;
  options.target_accuracy_fraction = 0.9;
  auto result = SsvdPca(&engine, options).Solve(planted.y);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().reached_target);
  EXPECT_LT(result.value().iterations_run, 11);
}

// ---- SvdBidiagPca ------------------------------------------------------------

TEST(SvdBidiagPcaTest, RecoversExactSubspace) {
  const Planted planted = MakePlanted(200, 16, 3, 58);
  Engine engine = MakeEngine();
  SvdBidiagOptions options;
  options.num_components = 3;
  auto result = SvdBidiagPca(&engine, options).Solve(planted.y);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(test::MaxPrincipalAngle(result.value().model.components,
                                    planted.truth),
            0.02);
}

TEST(SvdBidiagPcaTest, RequiresTallMatrix) {
  const Planted planted = MakePlanted(10, 16, 3, 59);
  Engine engine = MakeEngine();
  SvdBidiagOptions options;
  options.num_components = 3;
  EXPECT_FALSE(SvdBidiagPca(&engine, options).Solve(planted.y).ok());
}

// ---- LanczosPca -----------------------------------------------------------------

TEST(LanczosPcaTest, RecoversExactSubspace) {
  const Planted planted = MakePlanted(250, 18, 3, 60);
  Engine engine = MakeEngine();
  LanczosOptions options;
  options.num_components = 3;
  options.lanczos_steps = 12;
  auto result = LanczosPca(&engine, options).Solve(planted.y);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LT(test::MaxPrincipalAngle(result.value().model.components,
                                    planted.truth),
            0.02);
}

TEST(LanczosPcaTest, ChargedAtDenseCostOnSparseInput) {
  // The paper's point: Lanczos on the mean-centered matrix cannot exploit
  // sparsity. The flop accounting must reflect dense N*D per matvec.
  workload::BagOfWordsConfig config;
  config.rows = 300;
  config.vocab = 200;
  config.words_per_row = 6;  // 3% density
  const DistMatrix y =
      DistMatrix::FromSparse(workload::GenerateBagOfWords(config), 4);
  Engine engine = MakeEngine();
  LanczosOptions options;
  options.num_components = 4;
  options.lanczos_steps = 8;
  auto result = LanczosPca(&engine, options).Solve(y);
  ASSERT_TRUE(result.ok());
  // >= 2 * N * D flops per Lanczos step pair, for ~8 steps.
  const uint64_t dense_matvec = 2ull * 300 * 200;
  EXPECT_GT(result.value().stats.task_flops, 8 * dense_matvec);
}

// ---- Cross-method agreement (parameterized property) -------------------------

class MethodAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(MethodAgreementTest, AllMethodsFindTheSameSubspace) {
  const size_t rank = static_cast<size_t>(GetParam());
  const Planted planted = MakePlanted(300, 24, rank, 61 + rank);
  Engine engine = MakeEngine();

  CovEigOptions cov_options;
  cov_options.num_components = rank;
  auto cov = CovEigPca(&engine, cov_options).Solve(planted.y);
  ASSERT_TRUE(cov.ok());

  SsvdOptions ssvd_options;
  ssvd_options.num_components = rank;
  ssvd_options.max_power_iterations = 3;
  ssvd_options.target_accuracy_fraction = 2.0;
  ssvd_options.compute_accuracy_trace = false;
  auto ssvd = SsvdPca(&engine, ssvd_options).Solve(planted.y);
  ASSERT_TRUE(ssvd.ok());

  SvdBidiagOptions bidiag_options;
  bidiag_options.num_components = rank;
  auto bidiag = SvdBidiagPca(&engine, bidiag_options).Solve(planted.y);
  ASSERT_TRUE(bidiag.ok());

  LanczosOptions lanczos_options;
  lanczos_options.num_components = rank;
  lanczos_options.lanczos_steps = 4 * rank;
  auto lanczos = LanczosPca(&engine, lanczos_options).Solve(planted.y);
  ASSERT_TRUE(lanczos.ok());

  EXPECT_LT(test::MaxPrincipalAngle(cov.value().model.components,
                                    planted.truth),
            0.05);
  EXPECT_LT(test::MaxPrincipalAngle(ssvd.value().model.components,
                                    planted.truth),
            0.05);
  EXPECT_LT(test::MaxPrincipalAngle(bidiag.value().model.components,
                                    planted.truth),
            0.05);
  EXPECT_LT(test::MaxPrincipalAngle(lanczos.value().model.components,
                                    planted.truth),
            0.05);
}

INSTANTIATE_TEST_SUITE_P(Ranks, MethodAgreementTest,
                         ::testing::Values(1, 2, 3, 5));

}  // namespace
}  // namespace spca::baselines
