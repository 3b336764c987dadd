#include "core/spca.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/reconstruction_error.h"
#include "dist/engine.h"
#include "linalg/eigen_sym.h"
#include "linalg/ops.h"
#include "test_util.h"
#include "workload/synthetic.h"

namespace spca {
namespace {

using core::Spca;
using core::SpcaOptions;
using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using linalg::DenseMatrix;
using linalg::DenseVector;

dist::ClusterSpec TestSpec() {
  dist::ClusterSpec spec;
  return spec;
}

/// Low-rank dense data where the true principal subspace is known.
DistMatrix LowRankMatrix(size_t rows, size_t cols, size_t rank,
                         size_t partitions, DenseMatrix* true_subspace) {
  workload::LowRankConfig config;
  config.rows = rows;
  config.cols = cols;
  config.rank = rank;
  config.noise_stddev = 0.05;
  config.seed = 99;
  DenseMatrix y = workload::GenerateLowRank(config);
  if (true_subspace != nullptr) {
    // Exact top-`rank` eigenvectors of the sample covariance.
    const DenseVector mean = linalg::ColumnMeans(y);
    const DenseMatrix centered = linalg::MeanCenter(y, mean);
    const DenseMatrix cov = linalg::TransposeMultiply(centered, centered);
    auto eigen = linalg::SymmetricEigen(cov);
    SPCA_CHECK(eigen.ok());
    *true_subspace = DenseMatrix(cols, rank);
    for (size_t j = 0; j < rank; ++j) {
      for (size_t i = 0; i < cols; ++i) {
        (*true_subspace)(i, j) = eigen.value().vectors(i, j);
      }
    }
  }
  return DistMatrix::FromDense(std::move(y), partitions);
}

SpcaOptions BasicOptions(size_t d, int iterations) {
  SpcaOptions options;
  options.num_components = d;
  options.max_iterations = iterations;
  options.target_accuracy_fraction = 2.0;  // run all iterations
  options.error_sample_rows = 128;
  return options;
}

TEST(SpcaTest, RecoversPlantedSubspace) {
  DenseMatrix truth;
  const DistMatrix y = LowRankMatrix(400, 30, 4, 4, &truth);
  Engine engine(TestSpec(), EngineMode::kSpark);
  Spca spca(&engine, BasicOptions(4, 40));
  auto result = spca.Solve(y);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const double angle =
      test::MaxPrincipalAngle(result.value().model.components, truth);
  EXPECT_LT(angle, 0.05) << "principal angle too large";
}

TEST(SpcaTest, ErrorDecreasesOverIterations) {
  const DistMatrix y = LowRankMatrix(300, 25, 3, 4, nullptr);
  Engine engine(TestSpec(), EngineMode::kSpark);
  Spca spca(&engine, BasicOptions(3, 15));
  auto result = spca.Solve(y);
  ASSERT_TRUE(result.ok());
  const auto& trace = result.value().trace;
  ASSERT_GE(trace.size(), 2u);
  EXPECT_LT(trace.back().error, trace.front().error);
  // Accuracy percent must be non-trivially high at the end.
  EXPECT_GT(trace.back().accuracy_percent, 90.0);
}

TEST(SpcaTest, SparseInputWorks) {
  workload::BagOfWordsConfig config;
  config.rows = 500;
  config.vocab = 200;
  config.words_per_row = 15;
  config.seed = 5;
  const DistMatrix y =
      DistMatrix::FromSparse(workload::GenerateBagOfWords(config), 4);
  Engine engine(TestSpec(), EngineMode::kSpark);
  Spca spca(&engine, BasicOptions(8, 10));
  auto result = spca.Solve(y);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().model.components.rows(), 200u);
  EXPECT_EQ(result.value().model.components.cols(), 8u);
  EXPECT_GT(result.value().trace.back().accuracy_percent, 50.0);
  EXPECT_GT(result.value().model.noise_variance, 0.0);
}

TEST(SpcaTest, StopConditionHaltsEarly) {
  const DistMatrix y = LowRankMatrix(300, 25, 3, 4, nullptr);
  Engine engine(TestSpec(), EngineMode::kSpark);
  SpcaOptions options = BasicOptions(3, 50);
  options.target_accuracy_fraction = 0.90;
  Spca spca(&engine, options);
  auto result = spca.Solve(y);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().reached_target);
  EXPECT_LT(result.value().iterations_run, 50);
}

TEST(SpcaTest, RejectsDegenerateInputs) {
  const DistMatrix y = LowRankMatrix(50, 10, 2, 2, nullptr);
  Engine engine(TestSpec(), EngineMode::kSpark);
  {
    Spca spca(&engine, BasicOptions(0, 5));
    EXPECT_FALSE(spca.Solve(y).ok());
  }
  {
    Spca spca(&engine, BasicOptions(11, 5));  // d > D
    EXPECT_FALSE(spca.Solve(y).ok());
  }
  {
    // Constant (all-zero-variance) matrix.
    DenseMatrix constant(20, 5);
    const DistMatrix zero = DistMatrix::FromDense(std::move(constant), 2);
    Spca spca(&engine, BasicOptions(2, 5));
    EXPECT_FALSE(spca.Solve(zero).ok());
  }
}

TEST(SpcaTest, DeterministicAcrossRuns) {
  const DistMatrix y = LowRankMatrix(200, 20, 3, 4, nullptr);
  Engine engine1(TestSpec(), EngineMode::kSpark);
  Engine engine2(TestSpec(), EngineMode::kSpark);
  Spca spca1(&engine1, BasicOptions(3, 5));
  Spca spca2(&engine2, BasicOptions(3, 5));
  auto r1 = spca1.Solve(y);
  auto r2 = spca2.Solve(y);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().model.components.MaxAbsDiff(
                r2.value().model.components),
            0.0);
  EXPECT_EQ(r1.value().model.noise_variance, r2.value().model.noise_variance);
}

TEST(SpcaTest, MapReduceAndSparkAgreeNumerically) {
  const DistMatrix y = LowRankMatrix(200, 20, 3, 4, nullptr);
  Engine mr(TestSpec(), EngineMode::kMapReduce);
  Engine spark(TestSpec(), EngineMode::kSpark);
  auto r1 = Spca(&mr, BasicOptions(3, 5)).Solve(y);
  auto r2 = Spca(&spark, BasicOptions(3, 5)).Solve(y);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  // Identical math, different platform: results match exactly; simulated
  // time and data routing differ.
  EXPECT_EQ(r1.value().model.components.MaxAbsDiff(
                r2.value().model.components),
            0.0);
  EXPECT_GT(r1.value().stats.simulated_seconds,
            r2.value().stats.simulated_seconds);
}

TEST(SpcaTest, SmartGuessConvergesFasterPerIteration) {
  DenseMatrix truth;
  const DistMatrix y = LowRankMatrix(3000, 30, 4, 4, &truth);
  Engine plain_engine(TestSpec(), EngineMode::kSpark);
  Engine sg_engine(TestSpec(), EngineMode::kSpark);

  SpcaOptions plain = BasicOptions(4, 3);
  SpcaOptions smart = plain;
  smart.smart_guess = true;
  smart.smart_guess_rows = 300;
  smart.smart_guess_iterations = 10;

  auto plain_result = Spca(&plain_engine, plain).Solve(y);
  auto smart_result = Spca(&sg_engine, smart).Solve(y);
  ASSERT_TRUE(plain_result.ok());
  ASSERT_TRUE(smart_result.ok());
  // After very few full iterations, the smart guess should be at least as
  // accurate as the cold start.
  EXPECT_GE(smart_result.value().trace.back().accuracy_percent + 1e-9,
            plain_result.value().trace.back().accuracy_percent);
}

TEST(SpcaTest, PartitionCountDoesNotChangeResults) {
  const DistMatrix y1 = LowRankMatrix(200, 20, 3, 1, nullptr);
  const DistMatrix y8 = LowRankMatrix(200, 20, 3, 8, nullptr);
  Engine e1(TestSpec(), EngineMode::kSpark);
  Engine e8(TestSpec(), EngineMode::kSpark);
  auto r1 = Spca(&e1, BasicOptions(3, 4)).Solve(y1);
  auto r8 = Spca(&e8, BasicOptions(3, 4)).Solve(y8);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r8.ok());
  EXPECT_LT(r1.value().model.components.MaxAbsDiff(
                r8.value().model.components),
            1e-9);
}

// ---- Property sweep: every combination of optimization toggles yields
// the same numerical results (the paper's claim that the optimizations
// "do not change any theoretical properties"). -------------------------

class SpcaToggleTest : public ::testing::TestWithParam<int> {};

TEST_P(SpcaToggleTest, TogglesPreserveResults) {
  const int mask = GetParam();
  SpcaOptions options = BasicOptions(3, 4);
  options.mean_propagation = (mask & 1) != 0;
  options.minimize_intermediate_data = (mask & 2) != 0;
  options.consolidate_jobs = (mask & 4) != 0;
  options.efficient_frobenius = (mask & 8) != 0;
  options.ss3_associativity = (mask & 16) != 0;
  options.driver_moments = (mask & 32) != 0;

  const DistMatrix y = LowRankMatrix(150, 18, 3, 4, nullptr);
  Engine reference_engine(TestSpec(), EngineMode::kSpark);
  Engine toggled_engine(TestSpec(), EngineMode::kSpark);
  auto reference = Spca(&reference_engine, BasicOptions(3, 4)).Solve(y);
  auto toggled = Spca(&toggled_engine, options).Solve(y);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(toggled.ok());
  EXPECT_LT(reference.value().model.components.MaxAbsDiff(
                toggled.value().model.components),
            1e-8);
  EXPECT_NEAR(reference.value().model.noise_variance,
              toggled.value().model.noise_variance, 1e-10);
}

// Every combination with driver_moments (bit 32) off. With it on,
// consolidate_jobs and ss3_associativity are ignored, so that half varies
// only the toggles still live: mean propagation, intermediate data and the
// Frobenius variant.
std::vector<int> ToggleMasks() {
  std::vector<int> masks;
  for (int mask = 0; mask < 32; ++mask) masks.push_back(mask);
  for (const int live : {0, 1, 2, 3, 8, 9, 10, 11}) {
    masks.push_back(32 | live);
  }
  return masks;
}

INSTANTIATE_TEST_SUITE_P(AllToggleCombinations, SpcaToggleTest,
                         ::testing::ValuesIn(ToggleMasks()));

// Sparse-input variant of the toggle sweep (mean propagation matters most
// for sparse inputs).
class SpcaSparseToggleTest : public ::testing::TestWithParam<int> {};

TEST_P(SpcaSparseToggleTest, TogglesPreserveResultsOnSparse) {
  const int mask = GetParam();
  SpcaOptions options = BasicOptions(4, 3);
  options.mean_propagation = (mask & 1) != 0;
  options.minimize_intermediate_data = (mask & 2) != 0;
  options.consolidate_jobs = (mask & 4) != 0;
  options.efficient_frobenius = (mask & 8) != 0;
  options.ss3_associativity = (mask & 16) != 0;
  options.driver_moments = (mask & 32) != 0;

  workload::BagOfWordsConfig config;
  config.rows = 200;
  config.vocab = 80;
  config.words_per_row = 10;
  config.seed = 21;
  const DistMatrix y =
      DistMatrix::FromSparse(workload::GenerateBagOfWords(config), 3);

  Engine reference_engine(TestSpec(), EngineMode::kSpark);
  Engine toggled_engine(TestSpec(), EngineMode::kSpark);
  auto reference = Spca(&reference_engine, BasicOptions(4, 3)).Solve(y);
  auto toggled = Spca(&toggled_engine, options).Solve(y);
  ASSERT_TRUE(reference.ok());
  ASSERT_TRUE(toggled.ok());
  EXPECT_LT(reference.value().model.components.MaxAbsDiff(
                toggled.value().model.components),
            1e-8);
}

INSTANTIATE_TEST_SUITE_P(AllToggleCombinations, SpcaSparseToggleTest,
                         ::testing::ValuesIn(ToggleMasks()));

}  // namespace
}  // namespace spca
