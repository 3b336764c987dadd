#include "core/jobs.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "linalg/kernels.h"
#include "linalg/ops.h"
#include "linalg/solve.h"
#include "sketch/rand_svd.h"
#include "stream/stream_solver.h"

namespace spca::core {
namespace {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using linalg::DenseMatrix;
using linalg::DenseVector;
using linalg::SparseMatrix;

/// Sparse-ish random test matrix plus dense reference copies.
struct Fixture {
  DistMatrix y;
  DenseMatrix dense;     // same content, dense
  DenseVector ym;        // column means
  DenseMatrix centered;  // dense - mean (reference Yc)
};

Fixture MakeFixture(size_t rows, size_t cols, uint64_t seed,
                    size_t partitions) {
  Rng rng(seed);
  DenseMatrix dense(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng.NextDouble() < 0.3) dense(i, j) = rng.NextGaussian();
    }
  }
  Fixture f;
  f.dense = dense;
  f.y = DistMatrix::FromSparse(SparseMatrix::FromDense(dense), partitions);
  f.ym = linalg::ColumnMeans(dense);
  f.centered = linalg::MeanCenter(dense, f.ym);
  return f;
}

Engine MakeEngine() {
  return Engine(dist::ClusterSpec{}, EngineMode::kSpark);
}

TEST(MeanJobTest, MatchesReference) {
  const Fixture f = MakeFixture(23, 9, 40, 4);
  Engine engine = MakeEngine();
  const DenseVector mean = MeanJob(&engine, f.y);
  for (size_t j = 0; j < 9; ++j) EXPECT_NEAR(mean[j], f.ym[j], 1e-12);
  EXPECT_EQ(engine.StatsSnapshot().jobs_launched, 1u);
}

TEST(FrobeniusJobTest, BothVariantsMatchReference) {
  const Fixture f = MakeFixture(17, 11, 41, 3);
  const double reference = f.centered.FrobeniusNorm2();
  Engine engine = MakeEngine();
  const double fast = FrobeniusNormJob(&engine, f.y, f.ym, /*efficient=*/true);
  const double simple =
      FrobeniusNormJob(&engine, f.y, f.ym, /*efficient=*/false);
  EXPECT_NEAR(fast, reference, 1e-9);
  EXPECT_NEAR(simple, reference, 1e-9);
}

TEST(FrobeniusJobTest, DenseStorageMatchesToo) {
  const Fixture f = MakeFixture(14, 6, 42, 2);
  const DistMatrix dense_matrix = DistMatrix::FromDense(f.dense, 2);
  Engine engine = MakeEngine();
  const double fast =
      FrobeniusNormJob(&engine, dense_matrix, f.ym, /*efficient=*/true);
  EXPECT_NEAR(fast, f.centered.FrobeniusNorm2(), 1e-9);
}

/// Reference X = Yc * C * M^-1 computation and downstream quantities.
struct Reference {
  DenseMatrix cm;
  DenseVector xm;
  DenseMatrix x;
  DenseMatrix xtx;
  DenseMatrix ytx;
  double ss3;
};

Reference ComputeReference(const Fixture& f, const DenseMatrix& c, double ss,
                           const DenseMatrix& c_for_ss3) {
  Reference r;
  DenseMatrix m = linalg::TransposeMultiply(c, c);
  m.AddScaledIdentity(ss);
  auto minv = linalg::Inverse(m);
  SPCA_CHECK(minv.ok());
  r.cm = linalg::Multiply(c, minv.value());
  r.xm = linalg::RowTimesMatrix(f.ym, r.cm);
  r.x = linalg::Multiply(f.centered, r.cm);
  r.xtx = linalg::TransposeMultiply(r.x, r.x);
  r.ytx = linalg::TransposeMultiply(f.centered, r.x);
  // ss3 = sum_n X_n * C' * Yc_n' = trace-style accumulation.
  const DenseMatrix xc = linalg::MultiplyTranspose(r.x, c_for_ss3);  // N x D
  r.ss3 = 0.0;
  for (size_t i = 0; i < xc.rows(); ++i) {
    for (size_t j = 0; j < xc.cols(); ++j) {
      r.ss3 += xc(i, j) * f.centered(i, j);
    }
  }
  return r;
}

class JobsToggleTest : public ::testing::TestWithParam<int> {
 protected:
  JobToggles TogglesFromMask(int mask) const {
    JobToggles toggles;
    toggles.mean_propagation = (mask & 1) != 0;
    toggles.minimize_intermediate_data = (mask & 2) != 0;
    toggles.consolidate_jobs = (mask & 4) != 0;
    toggles.ss3_associativity = (mask & 8) != 0;
    toggles.driver_moments = (mask & 16) != 0;
    return toggles;
  }
};

TEST_P(JobsToggleTest, YtXAndSs3MatchReference) {
  const JobToggles toggles = TogglesFromMask(GetParam());
  const Fixture f = MakeFixture(20, 8, 43, 3);
  Rng rng(99);
  const size_t d = 3;
  const DenseMatrix c = DenseMatrix::GaussianRandom(8, d, &rng);
  const DenseMatrix c2 = DenseMatrix::GaussianRandom(8, d, &rng);
  const double ss = 0.37;
  const Reference ref = ComputeReference(f, c, ss, c2);

  Engine engine = MakeEngine();
  DenseMatrix materialized;
  const DenseMatrix* x_ptr = nullptr;
  if (!toggles.minimize_intermediate_data) {
    materialized = MaterializeXJob(&engine, f.y, f.ym, ref.xm, ref.cm,
                                   toggles);
    EXPECT_LT(materialized.MaxAbsDiff(ref.x), 1e-9);
    x_ptr = &materialized;
  }
  const YtXResult result =
      YtXJob(&engine, f.y, f.ym, ref.xm, ref.cm, x_ptr, toggles);
  EXPECT_LT(result.xtx.MaxAbsDiff(ref.xtx), 1e-9);
  EXPECT_LT(result.ytx.MaxAbsDiff(ref.ytx), 1e-9);

  const double ss3 =
      toggles.driver_moments
          ? Ss3FromYtX(&engine, c2, result.ytx)
          : Ss3Job(&engine, f.y, f.ym, ref.xm, ref.cm, c2, x_ptr, toggles);
  EXPECT_NEAR(ss3, ref.ss3, 1e-8);
}

// Every combination with driver_moments off. With it on, consolidate_jobs
// and ss3_associativity are ignored, so that half varies only the two
// toggles still live.
std::vector<int> ToggleMasks() {
  std::vector<int> masks;
  for (int mask = 0; mask < 16; ++mask) masks.push_back(mask);
  for (int live = 0; live < 4; ++live) masks.push_back(16 | live);
  return masks;
}

INSTANTIATE_TEST_SUITE_P(AllToggleCombinations, JobsToggleTest,
                         ::testing::ValuesIn(ToggleMasks()));

TEST(JobsTest, ConsolidationReducesJobCount) {
  const Fixture f = MakeFixture(15, 6, 44, 3);
  Rng rng(1);
  const DenseMatrix c = DenseMatrix::GaussianRandom(6, 2, &rng);
  const double ss = 0.5;
  const Reference ref = ComputeReference(f, c, ss, c);

  // Consolidation shapes Algorithm 4's job-side XtX; driver moments have
  // no XtX job to fold.
  JobToggles consolidated;
  consolidated.driver_moments = false;
  JobToggles split = consolidated;
  split.consolidate_jobs = false;

  Engine e1 = MakeEngine();
  YtXJob(&e1, f.y, f.ym, ref.xm, ref.cm, nullptr, consolidated);
  Engine e2 = MakeEngine();
  YtXJob(&e2, f.y, f.ym, ref.xm, ref.cm, nullptr, split);
  EXPECT_EQ(e1.StatsSnapshot().jobs_launched + 1,
            e2.StatsSnapshot().jobs_launched);
  EXPECT_GT(e2.SimulatedSeconds(), e1.SimulatedSeconds());
}

TEST(JobsTest, DriverMomentsDropThePerRowXtXWork) {
  // Same single job, but no task pays the d x d update per row, no
  // partial ships a d x d XtX, and the driver pays 2 * D * d^2 instead.
  const Fixture f = MakeFixture(40, 12, 49, 3);
  Rng rng(6);
  const DenseMatrix c = DenseMatrix::GaussianRandom(12, 4, &rng);
  const Reference ref = ComputeReference(f, c, 0.3, c);

  JobToggles algorithm4;
  algorithm4.driver_moments = false;
  JobToggles driver;

  Engine e1 = MakeEngine();
  YtXJob(&e1, f.y, f.ym, ref.xm, ref.cm, nullptr, algorithm4);
  Engine e2 = MakeEngine();
  YtXJob(&e2, f.y, f.ym, ref.xm, ref.cm, nullptr, driver);
  const dist::CommStats s1 = e1.StatsSnapshot();
  const dist::CommStats s2 = e2.StatsSnapshot();
  EXPECT_EQ(s1.jobs_launched, s2.jobs_launched);
  EXPECT_EQ(s1.task_flops - s2.task_flops, 40u * 2 * 4 * 4);
  EXPECT_LT(s2.ShippedBytes(), s1.ShippedBytes());
  EXPECT_GT(s2.driver_flops, s1.driver_flops);
}

TEST(JobsTest, DriverMomentsKeepThePerRowXtXBelowTwiceDRows) {
  // On fewer than 2 * D rows the driver product would cost more than the
  // per-row update, so the one job is Algorithm 4's consolidated YtXJob,
  // bit for bit and cost for cost.
  const Fixture f = MakeFixture(23, 12, 50, 3);
  Rng rng(7);
  const DenseMatrix c = DenseMatrix::GaussianRandom(12, 4, &rng);
  const Reference ref = ComputeReference(f, c, 0.3, c);

  JobToggles algorithm4;
  algorithm4.driver_moments = false;

  Engine e1 = MakeEngine();
  const YtXResult r1 =
      YtXJob(&e1, f.y, f.ym, ref.xm, ref.cm, nullptr, algorithm4);
  Engine e2 = MakeEngine();
  const YtXResult r2 =
      YtXJob(&e2, f.y, f.ym, ref.xm, ref.cm, nullptr, JobToggles{});
  EXPECT_EQ(r2.xtx.MaxAbsDiff(r1.xtx), 0.0);
  EXPECT_EQ(r2.ytx.MaxAbsDiff(r1.ytx), 0.0);
  const dist::CommStats s1 = e1.StatsSnapshot();
  const dist::CommStats s2 = e2.StatsSnapshot();
  EXPECT_EQ(s2.jobs_launched, s1.jobs_launched);
  EXPECT_EQ(s2.task_flops, s1.task_flops);
  EXPECT_EQ(s2.driver_flops, s1.driver_flops);
  EXPECT_EQ(s2.ShippedBytes(), s1.ShippedBytes());
}

TEST(JobsTest, FusedYtXRowChargesTheFlopsAndBytesOfItsSteps) {
  // Sparse rows with generated X run as one fused kernel; the cost model
  // still charges each step it fuses (X_i = Y_i*CM - Xm: 2*nnz*d + d, the
  // outer product: 2*nnz*d, the per-row XtX below 2*D rows: 2*d*d) and
  // ships only the touched YtX rows of each partition.
  for (const size_t rows : {23u, 40u}) {
    const Fixture f = MakeFixture(rows, 12, 51, 3);
    Rng rng(8);
    const size_t d = 4;
    const DenseMatrix c = DenseMatrix::GaussianRandom(12, d, &rng);
    const Reference ref = ComputeReference(f, c, 0.3, c);
    const bool per_row_xtx = rows < 2 * 12;

    uint64_t flops = 0;
    uint64_t bytes = 0;
    for (const dist::RowRange& range : f.y.partitions()) {
      std::vector<bool> touched(12, false);
      for (size_t i = range.begin; i < range.end; ++i) {
        flops += 4 * f.y.RowNnz(i) * d + d + (per_row_xtx ? 2 * d * d : 0);
        f.y.ForEachEntry(i, [&](size_t k, double) { touched[k] = true; });
      }
      for (bool t : touched) {
        bytes += t ? d * (sizeof(double) + sizeof(uint32_t)) : 0;
      }
      bytes += d * sizeof(double) + (per_row_xtx ? d * d * sizeof(double) : 0);
    }

    Engine engine = MakeEngine();
    YtXJob(&engine, f.y, f.ym, ref.xm, ref.cm, nullptr, JobToggles{});
    EXPECT_EQ(engine.StatsSnapshot().task_flops, flops) << rows << " rows";
    EXPECT_EQ(engine.StatsSnapshot().result_bytes, bytes) << rows << " rows";
  }
}

bool SameBits(const DenseMatrix& a, const DenseMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     a.rows() * a.cols() * sizeof(double)) == 0;
}

bool SameBits(const DenseVector& a, const DenseVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(ScatterPassTest, AddRowsIsThePerRowComposite) {
  // The pass YtXJob, the Oja job and rand_svd's sketch job share: on sparse
  // input one range-kernel call, on dense rows the composite. Both must
  // reproduce a per-row loop of the composite (RowTimesMatrix, Subtract,
  // one AxpyRow per stored entry, Add) bit for bit on every kernel ISA,
  // over a range that starts mid-matrix, whether X is read back in blocks
  // or not at all, and charge 4 * nnz * d + d per row.
  const size_t dim = 57;
  const dist::RowRange range{2, 19};
  for (const size_t d : {1u, 3u, 5u, 13u, 50u}) {
    const Fixture f = MakeFixture(19, dim, 60 + d, 1);
    const DistMatrix dense = DistMatrix::FromDense(f.dense, 1);
    Rng rng(d);
    const DenseMatrix b = DenseMatrix::GaussianRandom(dim, d, &rng);
    DenseVector bm(d);
    for (size_t j = 0; j < d; ++j) bm[j] = rng.NextGaussian();
    for (const DistMatrix* y : {&f.y, &dense}) {
      DenseMatrix w(dim, d);
      DenseVector x_sum(d), x_ref(d);
      DenseMatrix x_rows(range.size(), d);
      std::vector<uint8_t> touched(dim, 0);
      uint64_t flops = 0;
      for (size_t i = range.begin; i < range.end; ++i) {
        y->RowTimesMatrix(i, b, &x_ref);
        x_ref.Subtract(bm);
        y->ForEachEntry(i, [&](size_t k, double v) {
          touched[k] = 1;
          linalg::kernels::AxpyRow(v, x_ref.data(), d, w.RowPtr(k));
        });
        x_sum.Add(x_ref);
        std::memcpy(x_rows.RowPtr(i - range.begin), x_ref.data(),
                    d * sizeof(double));
        flops += 4 * y->RowNnz(i) * d + d;
      }
      for (const size_t block : {0u, 1u, 4u, 64u}) {
        ScatterPartial shared(dim, d);
        DenseMatrix x_block(block, d);
        uint64_t charged = 0;
        if (block == 0) {
          charged = shared.AddRows(*y, range, b, bm, nullptr);
        }
        for (size_t begin = range.begin; block > 0 && begin < range.end;
             begin += block) {
          const dist::RowRange part{begin, std::min(range.end, begin + block)};
          charged += shared.AddRows(*y, part, b, bm, &x_block);
          for (size_t i = part.begin; i < part.end; ++i) {
            ASSERT_EQ(std::memcmp(x_block.RowPtr(i - part.begin),
                                  x_rows.RowPtr(i - range.begin),
                                  d * sizeof(double)),
                      0)
                << "d = " << d << ", row " << i << ", sparse "
                << y->is_sparse();
          }
        }
        const std::string context = "d = " + std::to_string(d) +
                                    ", blocks of " + std::to_string(block) +
                                    ", sparse " +
                                    std::to_string(y->is_sparse());
        EXPECT_EQ(charged, flops) << context;
        EXPECT_TRUE(SameBits(shared.w, w)) << context;
        EXPECT_TRUE(SameBits(shared.x_sum, x_sum)) << context;
        EXPECT_EQ(shared.touched, touched) << context;
      }
    }
  }
}

TEST(ScatterPassTest, MergeIsThePlainLoop) {
  // The driver's merge against the loops it replaced: every partial added
  // in task order, then w -= m * s per row with a non-zero mean. 37 rows
  // are two full merge blocks and a tail; 150 rows are two full driver
  // blocks (kDriverBlockRows) and a tail, on three threads.
  const size_t d = 13;
  Engine engine = MakeEngine();
  engine.SetLocalWorkers(3);
  for (const size_t dim : {size_t{37}, size_t{150}}) {
    Rng rng(61);
    std::vector<ScatterPartial> partials;
    for (int p = 0; p < 3; ++p) {
      ScatterPartial partial(dim, d);
      partial.w = DenseMatrix::GaussianRandom(dim, d, &rng);
      for (size_t j = 0; j < d; ++j) partial.x_sum[j] = rng.NextGaussian();
      partials.push_back(std::move(partial));
    }
    DenseVector ym(dim);
    for (size_t k = 0; k < dim; ++k) {
      ym[k] = k % 4 == 0 ? 0.0 : rng.NextGaussian();
    }
    std::vector<const ScatterPartial*> shares;
    DenseMatrix sum(dim, d);
    DenseVector s(d);
    for (const ScatterPartial& p : partials) {
      shares.push_back(&p);
      sum.Add(p.w);
      s.Add(p.x_sum);
    }
    DenseMatrix expected = sum;
    for (size_t r = 0; r < dim; ++r) {
      const double m = ym[r];
      if (m == 0.0) continue;
      for (size_t j = 0; j < d; ++j) expected(r, j) -= m * s[j];
    }

    // Without the mean term the merge is exact on every ISA, on the
    // engine's driver threads as in one block.
    EXPECT_TRUE(SameBits(MergeScatterPartials(&engine, shares, nullptr), sum))
        << dim;
    EXPECT_TRUE(SameBits(MergeScatterPartials(nullptr, shares, nullptr), sum))
        << dim;
    const DenseMatrix merged = MergeScatterPartials(&engine, shares, &ym);
    EXPECT_TRUE(SameBits(MergeScatterPartials(nullptr, shares, &ym), merged))
        << dim;
    if (linalg::kernels::DispatchedIsa() == linalg::kernels::Isa::kScalar) {
      EXPECT_TRUE(SameBits(merged, expected)) << dim;
    } else {
      // AVX2's AxpyRow fuses the multiply into the add: the tolerance tier.
      for (size_t r = 0; r < dim; ++r) {
        for (size_t j = 0; j < d; ++j) {
          EXPECT_NEAR(merged(r, j), expected(r, j),
                      1e-12 * std::max(1.0, std::fabs(expected(r, j))));
        }
      }
    }
  }
}

/// One E-step, YtXJob and M-step on `f` from components `c`.
MStep OneMStep(const Fixture& f, const DenseMatrix& c, double l1_threshold) {
  Engine engine = MakeEngine();
  auto e_step =
      PrepareEStep(&engine, c, linalg::TransposeMultiply(c, c), 0.3, f.ym);
  SPCA_CHECK(e_step.ok());
  const YtXResult stats = YtXJob(&engine, f.y, f.ym, e_step->xm, e_step->cm,
                                 nullptr, JobToggles{});
  auto m_step = SolveMStep(&engine, *e_step, stats, l1_threshold);
  SPCA_CHECK(m_step.ok());
  return std::move(m_step).value();
}

TEST(JobsTest, MStepKeepsTheCtCOfItsFinalLoadings) {
  // MStep::ctc is the same product of the returned C as a fresh
  // TransposeMultiply, also after the soft-threshold has zeroed loadings.
  const Fixture f = MakeFixture(40, 12, 52, 3);
  Rng rng(9);
  const DenseMatrix c = DenseMatrix::GaussianRandom(12, 4, &rng);
  const MStep dense = OneMStep(f, c, 0.0);
  EXPECT_TRUE(SameBits(dense.ctc, linalg::TransposeMultiply(dense.c, dense.c)));
  double mean_magnitude = 0.0;
  for (size_t i = 0; i < dense.c.rows(); ++i) {
    for (size_t j = 0; j < dense.c.cols(); ++j) {
      mean_magnitude += std::fabs(dense.c(i, j));
    }
  }
  mean_magnitude /= static_cast<double>(dense.c.rows() * dense.c.cols());
  const MStep sparse = OneMStep(f, c, mean_magnitude);
  ASSERT_LT(sparse.nnz_loadings, 12u * 4u);
  EXPECT_TRUE(
      SameBits(sparse.ctc, linalg::TransposeMultiply(sparse.c, sparse.c)));
  EXPECT_FALSE(SameBits(sparse.ctc, dense.ctc));
}

TEST(JobsTest, PrepareEStepOnTheMStepsCtCMatchesItsOwnProduct) {
  // The E-step after an M-step takes that M-step's C'C instead of forming
  // it again: M^-1, CM and Xm keep their bits, and the driver is still
  // charged for C'C (Algorithm 4 line 6 forms it).
  const Fixture f = MakeFixture(40, 12, 53, 3);
  Rng rng(10);
  const size_t dim = 12;
  const size_t d = 4;
  const MStep m_step =
      OneMStep(f, DenseMatrix::GaussianRandom(dim, d, &rng), 0.0);

  Engine handed = MakeEngine();
  Engine formed = MakeEngine();
  auto a = PrepareEStep(&handed, m_step.c, m_step.ctc, 0.2, f.ym);
  auto b = PrepareEStep(&formed, m_step.c,
                        linalg::TransposeMultiply(m_step.c, m_step.c), 0.2,
                        f.ym);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(SameBits(a->m_inverse, b->m_inverse));
  EXPECT_TRUE(SameBits(a->cm, b->cm));
  ASSERT_EQ(a->xm.size(), b->xm.size());
  EXPECT_EQ(std::memcmp(a->xm.data(), b->xm.data(), d * sizeof(double)), 0);
  EXPECT_EQ(handed.StatsSnapshot().driver_flops,
            formed.StatsSnapshot().driver_flops);
  EXPECT_EQ(handed.StatsSnapshot().driver_flops,
            2 * dim * d * d + 2 * d * d * d + 2 * dim * d * d + 2 * dim * d);
}

TEST(JobsTest, MinimizingIntermediateDataEliminatesXMaterialization) {
  const Fixture f = MakeFixture(30, 10, 45, 3);
  Rng rng(2);
  const DenseMatrix c = DenseMatrix::GaussianRandom(10, 4, &rng);
  const Reference ref = ComputeReference(f, c, 0.4, c);

  JobToggles optimized;
  Engine e1 = MakeEngine();
  YtXJob(&e1, f.y, f.ym, ref.xm, ref.cm, nullptr, optimized);
  EXPECT_EQ(e1.StatsSnapshot().intermediate_bytes, 0u);

  JobToggles naive;
  naive.minimize_intermediate_data = false;
  Engine e2 = MakeEngine();
  const DenseMatrix x =
      MaterializeXJob(&e2, f.y, f.ym, ref.xm, ref.cm, naive);
  YtXJob(&e2, f.y, f.ym, ref.xm, ref.cm, &x, naive);
  // The materialized X (N x d doubles) is intermediate data.
  EXPECT_EQ(e2.StatsSnapshot().intermediate_bytes, 30u * 4 * sizeof(double));
}

TEST(JobsTest, MeanPropagationCostsFewerFlopsOnSparseData) {
  const Fixture f = MakeFixture(40, 30, 46, 2);
  Rng rng(3);
  const DenseMatrix c = DenseMatrix::GaussianRandom(30, 3, &rng);
  const Reference ref = ComputeReference(f, c, 0.3, c);

  JobToggles with;
  JobToggles without;
  without.mean_propagation = false;

  Engine e1 = MakeEngine();
  YtXJob(&e1, f.y, f.ym, ref.xm, ref.cm, nullptr, with);
  Engine e2 = MakeEngine();
  YtXJob(&e2, f.y, f.ym, ref.xm, ref.cm, nullptr, without);
  // ~30% density: the dense path does ~3x the flops.
  EXPECT_GT(e2.StatsSnapshot().task_flops, 2 * e1.StatsSnapshot().task_flops);
}

TEST(JobsTest, Ss3AssociativityCostsFewerFlops) {
  const Fixture f = MakeFixture(40, 30, 47, 2);
  Rng rng(4);
  const DenseMatrix c = DenseMatrix::GaussianRandom(30, 3, &rng);
  const Reference ref = ComputeReference(f, c, 0.3, c);

  JobToggles with;
  JobToggles without;
  without.ss3_associativity = false;

  Engine e1 = MakeEngine();
  Ss3Job(&e1, f.y, f.ym, ref.xm, ref.cm, c, nullptr, with);
  Engine e2 = MakeEngine();
  Ss3Job(&e2, f.y, f.ym, ref.xm, ref.cm, c, nullptr, without);
  EXPECT_GT(e2.StatsSnapshot().task_flops, e1.StatsSnapshot().task_flops);
}

TEST(JobsTest, MapReduceRoutesPartialsAsIntermediateData) {
  // The stateful combiner's partial matrices travel mapper->reducer through
  // the DFS on MapReduce, but go to driver-side accumulators on Spark.
  const Fixture f = MakeFixture(25, 12, 48, 4);
  Rng rng(5);
  const DenseMatrix c = DenseMatrix::GaussianRandom(12, 3, &rng);
  const Reference ref = ComputeReference(f, c, 0.25, c);

  Engine spark(dist::ClusterSpec{}, EngineMode::kSpark);
  Engine mapreduce(dist::ClusterSpec{}, EngineMode::kMapReduce);
  JobToggles toggles;
  const YtXResult r1 =
      YtXJob(&spark, f.y, f.ym, ref.xm, ref.cm, nullptr, toggles);
  const YtXResult r2 =
      YtXJob(&mapreduce, f.y, f.ym, ref.xm, ref.cm, nullptr, toggles);
  EXPECT_LT(r1.ytx.MaxAbsDiff(r2.ytx), 1e-12);
  EXPECT_GT(mapreduce.StatsSnapshot().intermediate_bytes, 0u);
  EXPECT_EQ(spark.StatsSnapshot().intermediate_bytes, 0u);
  EXPECT_GT(spark.StatsSnapshot().result_bytes, 0u);
}

// ---- Driver loops: split over threads, the bits of one block -------------
// At D = 300 the E-step's CM, the merge and the M-step's product take five
// 64-row blocks, C'C and CM' * YtX (d = 13) one range per driver thread,
// and the 256-row error sample sixteen 16-row blocks. Three local workers
// run them on four threads; one runs every block inline, in order.

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Every charge, and the simulated seconds, of `split` equal `one`'s.
void ExpectSameCosts(const Engine& one, const Engine& split) {
  const dist::CommStats a = one.StatsSnapshot();
  const dist::CommStats b = split.StatsSnapshot();
  EXPECT_EQ(a.jobs_launched, b.jobs_launched);
  EXPECT_EQ(a.task_flops, b.task_flops);
  EXPECT_EQ(a.driver_flops, b.driver_flops);
  EXPECT_EQ(a.intermediate_bytes, b.intermediate_bytes);
  EXPECT_EQ(a.broadcast_bytes, b.broadcast_bytes);
  EXPECT_EQ(a.result_bytes, b.result_bytes);
  EXPECT_EQ(one.SimulatedSeconds(), split.SimulatedSeconds());
}

/// The model and every trace point's error, bit for bit.
void ExpectSameFit(const SolveResult& a, const SolveResult& b) {
  EXPECT_TRUE(SameBits(a.model.components, b.model.components));
  EXPECT_TRUE(SameBits(a.model.noise_variance, b.model.noise_variance));
  EXPECT_TRUE(SameBits(a.model.mean, b.model.mean));
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_TRUE(SameBits(a.trace[i].error, b.trace[i].error)) << i;
    EXPECT_TRUE(SameBits(a.trace[i].ss, b.trace[i].ss)) << i;
  }
}

/// Parameter: the input's rows, at least 2 * D (the driver's XtX) or fewer
/// (the tasks' per-row XtX).
class SpcaDriverLoopTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SpcaDriverLoopTest, SplitFitMatchesOneBlock) {
  const size_t dim = 300;
  const Fixture f = MakeFixture(GetParam(), dim, 71, 6);
  SpcaOptions options;
  options.num_components = 13;
  options.max_iterations = 3;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = true;
  options.ideal_error_override = 1.0;  // the errors, without an anchor fit
  Engine one = MakeEngine();
  one.SetLocalWorkers(1);
  Engine split = MakeEngine();
  split.SetLocalWorkers(3);
  ASSERT_EQ(split.DriverThreads(), 4u);
  auto a = Spca(&one, options).Solve(f.y);
  auto b = Spca(&split, options).Solve(f.y);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->trace.size(), 3u);
  ExpectSameFit(*a, *b);
  ExpectSameCosts(one, split);
}

INSTANTIATE_TEST_SUITE_P(
    XtX, SpcaDriverLoopTest, ::testing::Values(size_t{700}, size_t{400}),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return info.param >= 600 ? std::string("OnTheDriver")
                               : std::string("OnTheTasks");
    });

TEST(DriverLoopSplitTest, RandSvdSketchMergeMatchesOneBlock) {
  const Fixture f = MakeFixture(500, 300, 72, 6);
  sketch::RandSvdOptions options;
  options.num_components = 13;
  options.power_iterations = 2;
  options.error_sample_rows = 256;
  options.compute_accuracy_trace = true;
  options.ideal_error_override = 1.0;
  Engine one = MakeEngine();
  one.SetLocalWorkers(1);
  Engine split = MakeEngine();
  split.SetLocalWorkers(3);
  auto a = sketch::RandSvdPca(&one, options).Solve(f.y);
  auto b = sketch::RandSvdPca(&split, options).Solve(f.y);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->trace.size(), 3u);
  ExpectSameFit(*a, *b);
  ExpectSameCosts(one, split);
}

TEST(DriverLoopSplitTest, MiniBatchEmStepsMatchOneBlock) {
  const std::vector<Fixture> batches = {MakeFixture(200, 300, 73, 4),
                                        MakeFixture(200, 300, 74, 4)};
  stream::StreamSolverOptions options;
  options.num_components = 13;
  Engine one = MakeEngine();
  one.SetLocalWorkers(1);
  Engine split = MakeEngine();
  split.SetLocalWorkers(3);
  stream::MiniBatchEmSolver a(&one, options);
  stream::MiniBatchEmSolver b(&split, options);
  ASSERT_TRUE(a.Init({}).ok());
  ASSERT_TRUE(b.Init({}).ok());
  for (const Fixture& batch : batches) {
    ASSERT_TRUE(a.Step(batch.y).ok());
    ASSERT_TRUE(b.Step(batch.y).ok());
  }
  auto model_a = a.Snapshot();
  auto model_b = b.Snapshot();
  ASSERT_TRUE(model_a.ok());
  ASSERT_TRUE(model_b.ok());
  EXPECT_TRUE(SameBits(model_a->components, model_b->components));
  EXPECT_TRUE(SameBits(model_a->noise_variance, model_b->noise_variance));
  EXPECT_TRUE(SameBits(model_a->mean, model_b->mean));
  ExpectSameCosts(one, split);
}

}  // namespace
}  // namespace spca::core
