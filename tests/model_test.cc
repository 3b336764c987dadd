#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/pca_model.h"
#include "core/ppca_missing.h"
#include "core/reconstruction_error.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "workload/synthetic.h"

namespace spca::core {
namespace {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using linalg::DenseMatrix;
using linalg::DenseVector;

Engine MakeEngine() {
  return Engine(dist::ClusterSpec{}, EngineMode::kSpark);
}

DenseMatrix LowRank(size_t rows, size_t cols, size_t rank, uint64_t seed,
                    double noise = 0.05) {
  workload::LowRankConfig config;
  config.rows = rows;
  config.cols = cols;
  config.rank = rank;
  config.noise_stddev = noise;
  config.seed = seed;
  return workload::GenerateLowRank(config);
}

// ---- SampleRowIndices -------------------------------------------------

TEST(SampleRowIndicesTest, DistinctSortedInRange) {
  const auto sample = SampleRowIndices(100, 20, 5);
  EXPECT_EQ(sample.size(), 20u);
  for (size_t i = 0; i < sample.size(); ++i) {
    EXPECT_LT(sample[i], 100u);
    if (i > 0) {
      EXPECT_LT(sample[i - 1], sample[i]);
    }
  }
}

TEST(SampleRowIndicesTest, CountClampedToTotal) {
  const auto sample = SampleRowIndices(5, 50, 6);
  EXPECT_EQ(sample.size(), 5u);
}

TEST(SampleRowIndicesTest, Deterministic) {
  EXPECT_EQ(SampleRowIndices(1000, 30, 7), SampleRowIndices(1000, 30, 7));
  EXPECT_NE(SampleRowIndices(1000, 30, 7), SampleRowIndices(1000, 30, 8));
}

// ---- Reconstruction error ------------------------------------------------

TEST(ReconstructionErrorTest, WrongBasisGivesLargeError) {
  const DenseMatrix y = LowRank(60, 10, 2, 2, 0.0);
  const DistMatrix dist = DistMatrix::FromDense(y, 2);
  Rng rng(3);
  const DenseMatrix random_basis = DenseMatrix::GaussianRandom(10, 2, &rng);
  const DenseVector mean = linalg::ColumnMeans(y);
  const double error = SampledReconstructionError(dist, random_basis, mean);
  EXPECT_GT(error, 0.05);
}

TEST(AccuracyPercentTest, Semantics) {
  EXPECT_NEAR(AccuracyPercent(0.5, 0.25), 50.0, 1e-12);
  EXPECT_NEAR(AccuracyPercent(0.25, 0.25), 100.0, 1e-12);
  // Better-than-ideal (possible under the 1-norm) clamps to 100.
  EXPECT_NEAR(AccuracyPercent(0.2, 0.25), 100.0, 1e-12);
  EXPECT_NEAR(AccuracyPercent(0.0, 0.25), 100.0, 1e-12);
  EXPECT_NEAR(AccuracyPercent(1e9, 0.25), 0.0, 1e-6);
}

// ---- PcaModel ---------------------------------------------------------------

TEST(PcaModelTest, TransformProjectsOntoComponents) {
  const DenseMatrix y = LowRank(100, 15, 3, 5, 0.01);
  const DistMatrix dist = DistMatrix::FromDense(y, 4);
  Engine engine = MakeEngine();
  SpcaOptions options;
  options.num_components = 3;
  options.max_iterations = 25;
  options.target_accuracy_fraction = 2.0;
  auto fit = Spca(&engine, options).Solve(dist);
  ASSERT_TRUE(fit.ok());

  const DenseMatrix x = fit.value().model.Transform(&engine, dist);
  EXPECT_EQ(x.rows(), 100u);
  EXPECT_EQ(x.cols(), 3u);

  // Reconstruction from the projection should be close to the original.
  const DenseMatrix basis = fit.value().model.OrthonormalBasis();
  double error2 = 0.0, total2 = 0.0;
  for (size_t i = 0; i < y.rows(); ++i) {
    const DenseVector rec =
        fit.value().model.ReconstructRow(basis, x.RowVector(i));
    for (size_t j = 0; j < y.cols(); ++j) {
      const double diff = rec[j] - y(i, j);
      error2 += diff * diff;
      total2 += y(i, j) * y(i, j);
    }
  }
  EXPECT_LT(error2 / total2, 0.01);
}

TEST(PcaModelTest, ExplainedVariancesMatchCovarianceEigenvalues) {
  const DenseMatrix y = LowRank(400, 12, 3, 12, 0.05);
  const DistMatrix dist = DistMatrix::FromDense(y, 4);
  Engine engine = MakeEngine();
  SpcaOptions options;
  options.num_components = 3;
  options.max_iterations = 30;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  auto fit = Spca(&engine, options).Solve(dist);
  ASSERT_TRUE(fit.ok());
  const DenseVector variances =
      fit.value().model.ExplainedVariances(&engine, dist);

  // Exact top eigenvalues of the normalized sample covariance.
  const DenseVector mean = linalg::ColumnMeans(y);
  const DenseMatrix centered = linalg::MeanCenter(y, mean);
  DenseMatrix cov = linalg::TransposeMultiply(centered, centered);
  cov.Scale(1.0 / static_cast<double>(y.rows()));
  auto eigen = linalg::SymmetricEigen(cov);
  ASSERT_TRUE(eigen.ok());

  // The fitted basis spans (almost) the true principal subspace, so its
  // Rayleigh quotients sum to (almost) the sum of the top-3 eigenvalues,
  // and each variance is positive and bounded by the top eigenvalue.
  double variance_sum = 0.0;
  double eigen_sum = 0.0;
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_GT(variances[i], 0.0);
    EXPECT_LE(variances[i], eigen.value().values[0] * (1.0 + 1e-9));
    variance_sum += variances[i];
    eigen_sum += eigen.value().values[i];
  }
  EXPECT_NEAR(variance_sum, eigen_sum, 0.02 * eigen_sum);
}

TEST(PcaModelTest, OrthonormalBasisIsOrthonormal) {
  Rng rng(6);
  PcaModel model;
  model.components = DenseMatrix::GaussianRandom(12, 4, &rng);
  model.mean = DenseVector(12);
  const DenseMatrix basis = model.OrthonormalBasis();
  const DenseMatrix gram = linalg::TransposeMultiply(basis, basis);
  EXPECT_LT(gram.MaxAbsDiff(DenseMatrix::Identity(4)), 1e-10);
}

// ---- Missing values ----------------------------------------------------------

TEST(PpcaMissingTest, RecoversMissingEntries) {
  // Strongly low-rank data with 10% of cells hidden: the PPCA imputation
  // should reconstruct the hidden cells much better than column means do.
  const DenseMatrix y = LowRank(150, 12, 2, 7, 0.02);
  Rng rng(8);
  std::vector<uint8_t> observed(150 * 12, 1);
  size_t hidden = 0;
  for (auto& flag : observed) {
    if (rng.NextDouble() < 0.1) {
      flag = 0;
      ++hidden;
    }
  }
  ASSERT_GT(hidden, 50u);

  Engine engine = MakeEngine();
  MissingValueOptions options;
  options.spca.num_components = 2;
  options.spca.max_iterations = 20;
  options.spca.target_accuracy_fraction = 2.0;
  options.spca.compute_accuracy_trace = false;
  options.outer_iterations = 4;
  auto result = FitWithMissing(&engine, y, observed, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Column-mean baseline error on hidden cells.
  const DenseVector means = linalg::ColumnMeans(y);
  double ppca_error2 = 0.0, mean_error2 = 0.0;
  for (size_t i = 0; i < y.rows(); ++i) {
    for (size_t j = 0; j < y.cols(); ++j) {
      if (observed[i * y.cols() + j]) continue;
      const double truth = y(i, j);
      const double ppca_diff = result.value().imputed(i, j) - truth;
      const double mean_diff = means[j] - truth;
      ppca_error2 += ppca_diff * ppca_diff;
      mean_error2 += mean_diff * mean_diff;
    }
  }
  EXPECT_LT(ppca_error2, 0.25 * mean_error2);
}

TEST(PpcaMissingTest, ValidatesInputs) {
  Engine engine = MakeEngine();
  const DenseMatrix y = LowRank(20, 6, 2, 9);
  MissingValueOptions options;
  options.spca.num_components = 2;
  // Wrong mask size.
  EXPECT_FALSE(FitWithMissing(&engine, y, std::vector<uint8_t>(5, 1), options)
                   .ok());
  // Bad outer iteration count.
  options.outer_iterations = 0;
  EXPECT_FALSE(
      FitWithMissing(&engine, y, std::vector<uint8_t>(20 * 6, 1), options)
          .ok());
}

TEST(PpcaMissingTest, FullyObservedMatchesPlainFit) {
  const DenseMatrix y = LowRank(80, 10, 2, 10, 0.05);
  Engine engine = MakeEngine();
  MissingValueOptions options;
  options.spca.num_components = 2;
  options.spca.max_iterations = 10;
  options.spca.target_accuracy_fraction = 2.0;
  options.spca.compute_accuracy_trace = false;
  options.outer_iterations = 1;
  auto result =
      FitWithMissing(&engine, y, std::vector<uint8_t>(80 * 10, 1), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().final_delta, 0.0);
  // No cells changed.
  EXPECT_EQ(result.value().imputed.MaxAbsDiff(y), 0.0);
}

}  // namespace
}  // namespace spca::core
