// Randomized property tests for the distributed jobs and the metric
// layer: invariants that must hold for any data, density, partitioning,
// and engine mode.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"
#include "core/jobs.h"
#include "core/reconstruction_error.h"
#include "dist/engine.h"
#include "linalg/ops.h"
#include "linalg/qr.h"
#include "linalg/solve.h"

namespace spca::core {
namespace {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using linalg::DenseMatrix;
using linalg::DenseVector;
using linalg::SparseMatrix;

struct RandomCase {
  DistMatrix matrix;
  DenseMatrix dense;
  DenseVector mean;
  DenseMatrix centered;
};

RandomCase MakeCase(uint64_t seed, bool sparse_storage) {
  Rng rng(seed);
  const size_t rows = 5 + rng.NextUint64Below(40);
  const size_t cols = 3 + rng.NextUint64Below(20);
  const double density = 0.1 + 0.6 * rng.NextDouble();
  const size_t partitions = 1 + rng.NextUint64Below(7);

  DenseMatrix dense(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng.NextDouble() < density) dense(i, j) = rng.NextGaussian();
    }
  }
  RandomCase c;
  c.dense = dense;
  c.mean = linalg::ColumnMeans(dense);
  c.centered = linalg::MeanCenter(dense, c.mean);
  c.matrix = sparse_storage
                 ? DistMatrix::FromSparse(SparseMatrix::FromDense(dense),
                                          partitions)
                 : DistMatrix::FromDense(dense, partitions);
  return c;
}

class JobsPropertySweep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {
 protected:
  uint64_t seed() const { return 4000 + std::get<0>(GetParam()); }
  bool sparse_storage() const { return std::get<1>(GetParam()); }
};

TEST_P(JobsPropertySweep, MeanJobMatchesReferenceForAnyPartitioning) {
  const RandomCase c = MakeCase(seed(), sparse_storage());
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  const DenseVector mean = MeanJob(&engine, c.matrix);
  for (size_t j = 0; j < c.mean.size(); ++j) {
    EXPECT_NEAR(mean[j], c.mean[j], 1e-12);
  }
}

TEST_P(JobsPropertySweep, FrobeniusVariantsAgreeWithReference) {
  const RandomCase c = MakeCase(seed() + 100, sparse_storage());
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  const double reference = c.centered.FrobeniusNorm2();
  const double fast =
      FrobeniusNormJob(&engine, c.matrix, c.mean, /*efficient=*/true);
  const double simple =
      FrobeniusNormJob(&engine, c.matrix, c.mean, /*efficient=*/false);
  const double tol = 1e-9 * std::max(1.0, reference);
  EXPECT_NEAR(fast, reference, tol);
  EXPECT_NEAR(simple, reference, tol);
}

TEST_P(JobsPropertySweep, YtXJobMatchesDenseReferenceBothModes) {
  const RandomCase c = MakeCase(seed() + 200, sparse_storage());
  Rng rng(seed() + 201);
  const size_t d = 1 + rng.NextUint64Below(4);
  const DenseMatrix cmat =
      DenseMatrix::GaussianRandom(c.matrix.cols(), d, &rng);
  DenseMatrix m = linalg::TransposeMultiply(cmat, cmat);
  m.AddScaledIdentity(0.3);
  auto minv = linalg::Inverse(m);
  ASSERT_TRUE(minv.ok());
  const DenseMatrix cm = linalg::Multiply(cmat, minv.value());
  const DenseVector xm = linalg::RowTimesMatrix(c.mean, cm);

  const DenseMatrix x_ref = linalg::Multiply(c.centered, cm);
  const DenseMatrix xtx_ref = linalg::TransposeMultiply(x_ref, x_ref);
  const DenseMatrix ytx_ref = linalg::TransposeMultiply(c.centered, x_ref);

  for (const EngineMode mode : {EngineMode::kSpark, EngineMode::kMapReduce}) {
    Engine engine(dist::ClusterSpec{}, mode);
    const YtXResult result =
        YtXJob(&engine, c.matrix, c.mean, xm, cm, nullptr, JobToggles{});
    EXPECT_LT(result.xtx.MaxAbsDiff(xtx_ref), 1e-9);
    EXPECT_LT(result.ytx.MaxAbsDiff(ytx_ref), 1e-9);
  }
}

TEST_P(JobsPropertySweep, Ss3JobMatchesTraceIdentity) {
  // ss3 = sum_n Xc_n * C' * Yc_n' == tr(C' * Yc'Xc).
  const RandomCase c = MakeCase(seed() + 300, sparse_storage());
  Rng rng(seed() + 301);
  const size_t d = 1 + rng.NextUint64Below(4);
  const DenseMatrix cmat =
      DenseMatrix::GaussianRandom(c.matrix.cols(), d, &rng);
  DenseMatrix m = linalg::TransposeMultiply(cmat, cmat);
  m.AddScaledIdentity(0.4);
  auto minv = linalg::Inverse(m);
  ASSERT_TRUE(minv.ok());
  const DenseMatrix cm = linalg::Multiply(cmat, minv.value());
  const DenseVector xm = linalg::RowTimesMatrix(c.mean, cm);

  const DenseMatrix x_ref = linalg::Multiply(c.centered, cm);
  const DenseMatrix ytx_ref = linalg::TransposeMultiply(c.centered, x_ref);
  double expected = 0.0;
  for (size_t i = 0; i < cmat.rows(); ++i) {
    for (size_t j = 0; j < d; ++j) expected += cmat(i, j) * ytx_ref(i, j);
  }

  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  const double ss3 =
      Ss3Job(&engine, c.matrix, c.mean, xm, cm, cmat, nullptr, JobToggles{});
  EXPECT_NEAR(ss3, expected, 1e-8 * std::max(1.0, std::fabs(expected)));
}

TEST_P(JobsPropertySweep, ReconstructionErrorIsScaleInvariant) {
  // The relative 1-norm error is invariant to scaling the data (same
  // basis; the mean scales with the data).
  const RandomCase c = MakeCase(seed() + 400, sparse_storage());
  Rng rng(seed() + 401);
  const size_t d = 1 + rng.NextUint64Below(3);
  const DenseMatrix basis =
      DenseMatrix::GaussianRandom(c.matrix.cols(), d, &rng);

  const double error = SampledReconstructionError(c.matrix, basis, c.mean);

  DenseMatrix scaled_dense = c.dense;
  scaled_dense.Scale(5.0);
  DenseVector scaled_mean = c.mean;
  scaled_mean.Scale(5.0);
  const DistMatrix scaled =
      DistMatrix::FromDense(std::move(scaled_dense), 2);
  const double scaled_error =
      SampledReconstructionError(scaled, basis, scaled_mean);
  EXPECT_NEAR(error, scaled_error, 1e-9 * std::max(1.0, error));
}

TEST_P(JobsPropertySweep, PerfectBasisMeansZeroError) {
  // Projecting onto a full orthonormal basis reconstructs exactly.
  const RandomCase c = MakeCase(seed() + 500, sparse_storage());
  const DenseMatrix eye = DenseMatrix::Identity(c.matrix.cols());
  const double error = SampledReconstructionError(c.matrix, eye, c.mean);
  EXPECT_NEAR(error, 0.0, 1e-9);
}

/// The error of rebuilding every row of `c` as mean + (Y_i - mean) * B * B'
/// with B the MGS2 orthonormalization of `basis`, from dense products.
double DenseMgs2Error(const RandomCase& c, const DenseMatrix& basis) {
  const DenseMatrix b = linalg::OrthonormalizeColumns(basis);
  const DenseMatrix rebuilt =
      linalg::MultiplyTranspose(linalg::Multiply(c.centered, b), b);
  double error = 0.0;
  double norm = 0.0;
  for (size_t i = 0; i < c.dense.rows(); ++i) {
    for (size_t j = 0; j < c.dense.cols(); ++j) {
      error += std::fabs(c.dense(i, j) - (c.mean[j] + rebuilt(i, j)));
      norm += std::fabs(c.dense(i, j));
    }
  }
  return norm == 0.0 ? 0.0 : error / norm;
}

TEST_P(JobsPropertySweep, ReconstructionErrorDependsOnlyOnTheSpan) {
  // The error projects onto span(C): C -> C * R for an invertible R
  // leaves it unchanged, and it equals the orthonormal projector's.
  const RandomCase c = MakeCase(seed() + 800, sparse_storage());
  Rng rng(seed() + 801);
  const size_t dim = c.matrix.cols();
  const size_t d = 1 + rng.NextUint64Below(std::min<size_t>(dim - 1, 5));
  const DenseMatrix basis = DenseMatrix::GaussianRandom(dim, d, &rng);
  // R = (I + 0.3 * N(0, 1) / sqrt(d)) * diag(s) with s in [0.5, 2].
  DenseMatrix r = DenseMatrix::Identity(d);
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = 0; b < d; ++b) {
      r(a, b) += 0.3 * rng.NextGaussian() / std::sqrt(static_cast<double>(d));
    }
  }
  for (size_t b = 0; b < d; ++b) {
    const double scale = 0.5 + 1.5 * rng.NextDouble();
    for (size_t a = 0; a < d; ++a) r(a, b) *= scale;
  }
  const double error = SampledReconstructionError(c.matrix, basis, c.mean);
  const double mixed = SampledReconstructionError(
      c.matrix, linalg::Multiply(basis, r), c.mean);
  EXPECT_NEAR(mixed, error, 1e-12 * std::max(1.0, error));
  EXPECT_NEAR(error, DenseMgs2Error(c, basis), 1e-12 * std::max(1.0, error));
}

TEST_P(JobsPropertySweep, ReconstructionErrorFallsBackToMgs2) {
  // Where C'C has no usable Cholesky factor the error takes the MGS2
  // projector, so it still matches the orthonormal reference: more
  // components than columns, a duplicated column, a zero column, and two
  // columns 1e-9 apart.
  const RandomCase c = MakeCase(seed() + 900, sparse_storage());
  Rng rng(seed() + 901);
  const size_t dim = c.matrix.cols();
  const size_t d = 2 + rng.NextUint64Below(std::min<size_t>(dim - 2, 4));
  const DenseMatrix base = DenseMatrix::GaussianRandom(dim, d, &rng);
  const DenseMatrix wide = DenseMatrix::GaussianRandom(dim, dim + 2, &rng);
  DenseMatrix duplicated = base;
  DenseMatrix zero_column = base;
  DenseMatrix near_duplicate = base;
  for (size_t k = 0; k < dim; ++k) {
    duplicated(k, 1) = base(k, 0);
    zero_column(k, d - 1) = 0.0;
    near_duplicate(k, 1) = base(k, 0) + 1e-9 * rng.NextGaussian();
  }
  const std::pair<const char*, const DenseMatrix*> cases[] = {
      {"d > D", &wide},
      {"duplicated column", &duplicated},
      {"zero column", &zero_column},
      {"columns 1e-9 apart", &near_duplicate}};
  for (const auto& [name, basis] : cases) {
    const double reference = DenseMgs2Error(c, *basis);
    EXPECT_NEAR(SampledReconstructionError(c.matrix, *basis, c.mean),
                reference, 1e-12 * std::max(1.0, reference))
        << name;
  }
}

// ---- Driver moments ----------------------------------------------------

/// Rows of planted rank `rank`: Y = U * V with sparse rows of V, so whole
/// columns are zero and sparse storage really skips entries. At least
/// 2 * D rows, so YtXJob's driver-side XtX runs.
DistMatrix PlantedRankMatrix(uint64_t seed, size_t rank, bool sparse_storage,
                             DenseVector* mean) {
  Rng rng(seed);
  const size_t cols = 8 + rng.NextUint64Below(12);
  const size_t rows = 2 * cols + rng.NextUint64Below(30);
  const DenseMatrix u = DenseMatrix::GaussianRandom(rows, rank, &rng);
  DenseMatrix v(rank, cols);
  for (size_t r = 0; r < rank; ++r) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng.NextDouble() < 0.6) v(r, j) = rng.NextGaussian();
    }
  }
  DenseMatrix dense = linalg::Multiply(u, v);
  *mean = linalg::ColumnMeans(dense);
  const size_t partitions = 1 + rng.NextUint64Below(5);
  return sparse_storage ? DistMatrix::FromSparse(
                              SparseMatrix::FromDense(dense), partitions)
                        : DistMatrix::FromDense(std::move(dense), partitions);
}

double RelativeFrobenius(const DenseMatrix& actual,
                         const DenseMatrix& expected) {
  DenseMatrix diff = actual;
  diff.AddScaled(-1.0, expected);
  return std::sqrt(diff.FrobeniusNorm2() / expected.FrobeniusNorm2());
}

/// On every engine mode, with mean propagation on and off and with X
/// generated on demand or materialised: the driver's XtX = CM' * YtX is
/// exactly symmetric and within 1e-12 relative of the job-side XtX (below
/// 2 * D rows, where the job keeps the per-row update, bit-identical), YtX
/// is bit-identical, and <C', YtX> is within 1e-12 relative of Ss3Job on
/// the M-step's C'.
void ExpectDriverMomentsMatchJobs(const DistMatrix& y, const DenseVector& ym,
                                  size_t d, uint64_t seed) {
  Rng rng(seed);
  const DenseMatrix c = DenseMatrix::GaussianRandom(y.cols(), d, &rng);
  for (const EngineMode mode : {EngineMode::kSpark, EngineMode::kMapReduce}) {
    for (const bool mean_propagation : {true, false}) {
      for (const bool materialize : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << dist::EngineModeToString(mode)
                     << " mean_propagation=" << mean_propagation
                     << " materialize=" << materialize << " d=" << d);
        Engine engine(dist::ClusterSpec{}, mode);
        auto e_step =
            PrepareEStep(&engine, c, linalg::TransposeMultiply(c, c), 0.3, ym);
        ASSERT_TRUE(e_step.ok());
        JobToggles job;
        job.driver_moments = false;
        job.mean_propagation = mean_propagation;
        job.minimize_intermediate_data = !materialize;
        JobToggles driver = job;
        driver.driver_moments = true;

        DenseMatrix x;
        const DenseMatrix* x_ptr = nullptr;
        if (materialize) {
          x = MaterializeXJob(&engine, y, ym, e_step->xm, e_step->cm, job);
          x_ptr = &x;
        }
        const YtXResult job_stats =
            YtXJob(&engine, y, ym, e_step->xm, e_step->cm, x_ptr, job);
        const YtXResult driver_stats =
            YtXJob(&engine, y, ym, e_step->xm, e_step->cm, x_ptr, driver);

        EXPECT_EQ(driver_stats.ytx.MaxAbsDiff(job_stats.ytx), 0.0);
        EXPECT_LE(RelativeFrobenius(driver_stats.xtx, job_stats.xtx), 1e-12);
        if (y.rows() < 2 * y.cols()) {
          EXPECT_EQ(driver_stats.xtx.MaxAbsDiff(job_stats.xtx), 0.0);
        }
        for (size_t a = 0; a < d; ++a) {
          for (size_t b = 0; b < d; ++b) {
            EXPECT_EQ(driver_stats.xtx(a, b), driver_stats.xtx(b, a));
          }
        }

        auto m_step = SolveMStep(&engine, *e_step, job_stats, 0.0);
        ASSERT_TRUE(m_step.ok());
        const double job_ss3 = Ss3Job(&engine, y, ym, e_step->xm, e_step->cm,
                                      m_step->c, x_ptr, job);
        const double driver_ss3 =
            Ss3FromYtX(&engine, m_step->c, driver_stats.ytx);
        EXPECT_LE(std::fabs(driver_ss3 - job_ss3), 1e-12 * std::fabs(job_ss3));
      }
    }
  }
}

TEST_P(JobsPropertySweep, DriverMomentsMatchJobMoments) {
  // MakeCase's shapes fall on both sides of 2 * D rows, so both ways of
  // getting XtX run.
  const RandomCase c = MakeCase(seed() + 600, sparse_storage());
  Rng rng(seed() + 601);
  const size_t d =
      1 + rng.NextUint64Below(std::min<size_t>(4, c.matrix.cols()));
  ExpectDriverMomentsMatchJobs(c.matrix, c.mean, d, seed() + 602);
}

TEST_P(JobsPropertySweep, DriverMomentsMatchJobMomentsBelowFullRank) {
  // d above the planted rank: X = Yc * CM is rank-deficient.
  DenseVector mean;
  const DistMatrix y =
      PlantedRankMatrix(seed() + 700, /*rank=*/2, sparse_storage(), &mean);
  ExpectDriverMomentsMatchJobs(y, mean, /*d=*/4, seed() + 701);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, JobsPropertySweep,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Bool()));

// ---- Engine-mode invariants -------------------------------------------------

TEST(JobsModeTest, SparkAndMapReduceProduceIdenticalNumbers) {
  for (int trial = 0; trial < 5; ++trial) {
    const RandomCase c = MakeCase(6000 + trial, trial % 2 == 0);
    Engine spark(dist::ClusterSpec{}, EngineMode::kSpark);
    Engine mapreduce(dist::ClusterSpec{}, EngineMode::kMapReduce);
    const DenseVector m1 = MeanJob(&spark, c.matrix);
    const DenseVector m2 = MeanJob(&mapreduce, c.matrix);
    for (size_t j = 0; j < m1.size(); ++j) EXPECT_EQ(m1[j], m2[j]);
    const double f1 = FrobeniusNormJob(&spark, c.matrix, m1, true);
    const double f2 = FrobeniusNormJob(&mapreduce, c.matrix, m2, true);
    EXPECT_EQ(f1, f2);
    // Costs differ: MapReduce pays launch + DFS round trips.
    EXPECT_GT(mapreduce.SimulatedSeconds(), spark.SimulatedSeconds());
  }
}

TEST(JobsModeTest, IntermediateDataRoutingConvention) {
  // MapReduce: partials are intermediate (DFS); Spark: partials are
  // accumulator results. Scalars are results in both modes.
  const RandomCase c = MakeCase(7000, /*sparse_storage=*/true);
  Rng rng(7001);
  const size_t d = 3;
  const DenseMatrix cmat =
      DenseMatrix::GaussianRandom(c.matrix.cols(), d, &rng);
  DenseMatrix m = linalg::TransposeMultiply(cmat, cmat);
  m.AddScaledIdentity(0.3);
  auto minv = linalg::Inverse(m);
  ASSERT_TRUE(minv.ok());
  const DenseMatrix cm = linalg::Multiply(cmat, minv.value());
  const DenseVector xm = linalg::RowTimesMatrix(c.mean, cm);

  Engine spark(dist::ClusterSpec{}, EngineMode::kSpark);
  Engine mapreduce(dist::ClusterSpec{}, EngineMode::kMapReduce);
  YtXJob(&spark, c.matrix, c.mean, xm, cm, nullptr, JobToggles{});
  YtXJob(&mapreduce, c.matrix, c.mean, xm, cm, nullptr, JobToggles{});
  EXPECT_EQ(spark.StatsSnapshot().intermediate_bytes, 0u);
  EXPECT_GT(spark.StatsSnapshot().result_bytes, 0u);
  EXPECT_GT(mapreduce.StatsSnapshot().intermediate_bytes, 0u);
}

TEST(JobsModeTest, SparseAccumulatorBytesUndercutDensePartials) {
  // On very sparse data the Spark accumulator passes only the touched
  // rows of each YtX partial (Section 4.2): the accounted bytes must be
  // far below the dense D x d partial a MapReduce mapper writes.
  const size_t rows = 60;
  const size_t cols = 500;
  SparseMatrix sparse(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    // Two non-zeros per row, confined to the first 20 columns.
    const uint32_t a = static_cast<uint32_t>(i % 10);
    sparse.AppendRow(i, std::vector<linalg::SparseEntry>{{a, 1.0},
                                                         {a + 10, 1.0}});
  }
  const DistMatrix matrix = DistMatrix::FromSparse(std::move(sparse), 2);
  const DenseVector mean = matrix.ColumnMeans();

  Rng rng(7100);
  const size_t d = 4;
  const DenseMatrix cmat = DenseMatrix::GaussianRandom(cols, d, &rng);
  DenseMatrix m = linalg::TransposeMultiply(cmat, cmat);
  m.AddScaledIdentity(0.3);
  auto minv = linalg::Inverse(m);
  ASSERT_TRUE(minv.ok());
  const DenseMatrix cm = linalg::Multiply(cmat, minv.value());
  const DenseVector xm = linalg::RowTimesMatrix(mean, cm);

  Engine spark(dist::ClusterSpec{}, EngineMode::kSpark);
  Engine mapreduce(dist::ClusterSpec{}, EngineMode::kMapReduce);
  YtXJob(&spark, matrix, mean, xm, cm, nullptr, JobToggles{});
  YtXJob(&mapreduce, matrix, mean, xm, cm, nullptr, JobToggles{});
  // Only 20 of 500 rows of the partial are touched: the sparse-aware
  // Spark accounting must be well under half of the dense MapReduce one.
  EXPECT_LT(2 * spark.StatsSnapshot().result_bytes,
            mapreduce.StatsSnapshot().intermediate_bytes);
}

}  // namespace
}  // namespace spca::core
