#include "core/jobs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/check.h"
#include "linalg/kernels.h"
#include "linalg/ops.h"
#include "linalg/solve.h"

namespace spca::core {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using dist::RowRange;
using dist::TaskContext;
using linalg::DenseMatrix;
using linalg::DenseVector;

namespace {

/// Computes one row of X. With mean propagation, X_i = Y_i*CM - Xm touches
/// only the stored entries of Y_i; without it, the dense centered row
/// Yc_i = Y_i - Ym is materialized in `dense_scratch` first and multiplied
/// densely (the cost the optimization removes). Returns flops spent.
uint64_t ComputeXRow(const DistMatrix& y, size_t i, const DenseMatrix& cm,
                     const DenseVector& ym, const DenseVector& xm,
                     bool mean_propagation, DenseVector* dense_scratch,
                     DenseVector* x_row) {
  const size_t d = cm.cols();
  if (mean_propagation) {
    y.RowTimesMatrix(i, cm, x_row);
    x_row->Subtract(xm);
    return 2ull * y.RowNnz(i) * d + d;
  }
  // Densify: Yc_i = Y_i - Ym (a full D-length vector), then Yc_i * CM.
  const size_t dim = y.cols();
  for (size_t k = 0; k < dim; ++k) (*dense_scratch)[k] = -ym[k];
  y.ForEachEntry(i, [&](size_t k, double v) { (*dense_scratch)[k] += v; });
  x_row->SetZero();
  linalg::kernels::RowGemm(dense_scratch->data(), dim, cm.data(),
                           cm.row_stride(), d, x_row->data());
  return 2ull * dim * d + dim;
}

/// Rows of the D x d result that MergeScatterPartials finishes at a time.
constexpr size_t kMergeBlockRows = 16;

}  // namespace

DenseVector ColumnSumJob(Engine* engine, const DistMatrix& y,
                         const dist::JobDesc& job) {
  const size_t dim = y.cols();
  auto partials = engine->RunMap<DenseVector>(
      job, y, [&](const RowRange& range, TaskContext* ctx) {
        DenseVector sums(dim);
        uint64_t entries = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          y.ForEachEntry(i, [&](size_t k, double v) { sums[k] += v; });
          entries += y.RowNnz(i);
        }
        ctx->CountFlops(entries);
        engine->EmitPartial(ctx, dim * sizeof(double));
        return sums;
      });
  DenseVector total(dim);
  for (const auto& partial : partials) total.Add(partial);
  return total;
}

DenseVector MeanJob(Engine* engine, const DistMatrix& y) {
  const size_t dim = y.cols();
  DenseVector mean =
      ColumnSumJob(engine, y, dist::JobDesc{"meanJob", "preprocess"});
  if (y.rows() > 0) mean.Scale(1.0 / static_cast<double>(y.rows()));
  engine->CountDriverFlops(y.num_partitions() * dim + dim);
  return mean;
}

double FrobeniusNormJob(Engine* engine, const DistMatrix& y,
                        const DenseVector& ym, bool efficient) {
  SPCA_CHECK_EQ(ym.size(), y.cols());
  engine->Broadcast(ym.size() * sizeof(double));
  const size_t dim = y.cols();

  std::vector<double> partials;
  if (efficient) {
    // Algorithm 3: msum = ||Ym||^2 once; per row, adjust only at stored
    // entries: (v - m)^2 replaces the m^2 already counted in msum.
    const double msum = ym.SquaredNorm();
    partials = engine->RunMap<double>(
        dist::JobDesc{"FnormJob", "preprocess"}, y,
        [&](const RowRange& range, TaskContext* ctx) {
          double sum = 0.0;
          uint64_t entries = 0;
          for (size_t i = range.begin; i < range.end; ++i) {
            double row_sum = msum;
            y.ForEachEntry(i, [&](size_t k, double v) {
              const double centered = v - ym[k];
              row_sum += centered * centered - ym[k] * ym[k];
            });
            sum += row_sum;
            entries += y.RowNnz(i);
          }
          ctx->CountFlops(4 * entries + range.size());
          ctx->EmitResult(sizeof(double));
          return sum;
        });
  } else {
    // Algorithm 2: densify Yc_i = Y_i - Ym and iterate all D entries.
    partials = engine->RunMap<double>(
        dist::JobDesc{"FnormJob(simple)", "preprocess"}, y,
        [&](const RowRange& range, TaskContext* ctx) {
          DenseVector dense(dim);
          double sum = 0.0;
          for (size_t i = range.begin; i < range.end; ++i) {
            for (size_t k = 0; k < dim; ++k) dense[k] = -ym[k];
            y.ForEachEntry(i, [&](size_t k, double v) { dense[k] += v; });
            // DotRow's `init` splices the squares into the running sum
            // left-to-right, exactly like the scalar loop it replaces.
            sum = linalg::kernels::DotRow(dense.data(), dense.data(), dim,
                                          sum);
          }
          ctx->CountFlops(3ull * dim * range.size());
          ctx->EmitResult(sizeof(double));
          return sum;
        });
  }
  double total = 0.0;
  for (double p : partials) total += p;
  return total;
}

ScatterPartial::ScatterPartial(size_t dim, size_t d)
    : w(dim, d), x_sum(d), touched(dim, 0) {}

void ScatterPartial::Scatter(const DistMatrix& y, size_t i,
                             const DenseVector& x) {
  x_sum.Add(x);
  y.ForEachEntry(i, [&](size_t k, double v) {
    touched[k] = 1;
    linalg::kernels::AxpyRow(v, x.data(), x.size(), w.RowPtr(k));
  });
}

uint64_t ScatterPartial::AddRows(const DistMatrix& y, const RowRange& range,
                                 const DenseMatrix& b, const DenseVector& bm,
                                 DenseMatrix* x_out) {
  const size_t d = b.cols();
  SPCA_CHECK_EQ(bm.size(), d);
  SPCA_CHECK_LE(range.end, y.rows());
  if (x_out != nullptr) {
    SPCA_CHECK_EQ(x_out->cols(), d);
    SPCA_CHECK_GE(x_out->rows(), range.size());
  }
  uint64_t nnz = 0;
  if (y.is_sparse()) {
    // The range kernel equals the per-row composite below bit for bit.
    const linalg::SparseMatrix& m = y.sparse();
    const uint64_t* row_ptr = m.row_ptr() + range.begin;
    linalg::kernels::SparseRowsProjectScatter(
        row_ptr, range.size(), m.entries(), b.data(), b.row_stride(),
        bm.data(), d, x_out == nullptr ? nullptr : x_out->data(),
        x_out == nullptr ? 0 : x_out->row_stride(), x_sum.data(), w.data(),
        w.row_stride(), touched.data());
    nnz = row_ptr[range.size()] - row_ptr[0];
  } else {
    DenseVector x(d);
    for (size_t i = range.begin; i < range.end; ++i) {
      y.RowTimesMatrix(i, b, &x);
      x.Subtract(bm);
      Scatter(y, i, x);
      if (x_out != nullptr) {
        std::memcpy(x_out->RowPtr(i - range.begin), x.data(),
                    d * sizeof(double));
      }
    }
    nnz = static_cast<uint64_t>(range.size()) * y.cols();
  }
  // Each row's product, 2*nnz*d + d, plus its outer product's 2*nnz*d.
  return 4ull * nnz * d + static_cast<uint64_t>(range.size()) * d;
}

uint64_t ScatterPartial::WireBytes(const Engine& engine, const DistMatrix& y,
                                   bool mean_propagation) const {
  if (engine.mode() == EngineMode::kSpark && y.is_sparse() &&
      mean_propagation) {
    const uint64_t rows = std::count(touched.begin(), touched.end(), 1);
    return rows * w.cols() * (sizeof(double) + sizeof(uint32_t));
  }
  return w.rows() * w.cols() * sizeof(double);
}

DenseMatrix MergeScatterPartials(
    std::span<const ScatterPartial* const> partials, const DenseVector* ym) {
  SPCA_CHECK(!partials.empty());
  const size_t dim = partials.front()->w.rows();
  const size_t d = partials.front()->w.cols();
  DenseVector x_sum(d);
  for (const ScatterPartial* p : partials) x_sum.Add(p->x_sum);
  // The partials are added one block of kMergeBlockRows result rows at a
  // time, so the block stays in cache across all P partials rather than
  // the D x d result being swept P times. Each entry still adds the
  // partials in task order, then its mean-propagation term.
  DenseMatrix w(dim, d);
  for (size_t begin = 0; begin < dim; begin += kMergeBlockRows) {
    const size_t end = std::min(dim, begin + kMergeBlockRows);
    double* block = w.RowPtr(begin);
    for (const ScatterPartial* p : partials) {
      linalg::kernels::AddRow(p->w.RowPtr(begin), (end - begin) * d, block);
    }
    if (ym == nullptr) continue;
    // W = sum_i Y_i' (x) x_i  -  Ym (x) sum_i x_i. AxpyRow with -m: (-m)*s
    // and then adding is bit-identical to subtracting m*s (IEEE negation
    // is exact).
    for (size_t k = begin; k < end; ++k) {
      const double m = (*ym)[k];
      if (m == 0.0) continue;
      linalg::kernels::AxpyRow(-m, x_sum.data(), d, w.RowPtr(k));
    }
  }
  return w;
}

DenseMatrix MaterializeXJob(Engine* engine, const DistMatrix& y,
                            const DenseVector& ym, const DenseVector& xm,
                            const DenseMatrix& cm, const JobToggles& toggles) {
  const size_t d = cm.cols();
  engine->Broadcast(cm.ByteSize() + (ym.size() + xm.size()) * sizeof(double));
  DenseMatrix x(y.rows(), d);
  engine->RunMap<int>(
      dist::JobDesc{"XJob", "em_iteration"}, y,
      [&](const RowRange& range, TaskContext* ctx) {
        DenseVector x_row(d);
        DenseVector dense_scratch(toggles.mean_propagation ? 0 : y.cols());
        uint64_t flops = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          flops += ComputeXRow(y, i, cm, ym, xm, toggles.mean_propagation,
                               &dense_scratch, &x_row);
          std::memcpy(x.RowPtr(i), x_row.data(), d * sizeof(double));
        }
        ctx->CountFlops(flops);
        // X is intermediate data: written out for the consumer jobs.
        ctx->EmitIntermediate(range.size() * d * sizeof(double));
        return 0;
      });
  return x;
}

namespace {

/// One YtXJob task's partials.
struct YtXPartial {
  ScatterPartial ytx;  // Yc' * X's share (empty if YtX not requested)
  DenseMatrix xtx;     // d x d (empty if XtX not requested)
};

YtXPartial RunYtXPartition(const DistMatrix& y, const RowRange& range,
                           const DenseVector& ym, const DenseVector& xm,
                           const DenseMatrix& cm,
                           const DenseMatrix* materialized_x,
                           const JobToggles& toggles, bool want_xtx,
                           bool want_ytx, TaskContext* ctx) {
  const size_t d = cm.cols();
  const size_t dim = y.cols();
  YtXPartial partial;
  if (want_xtx) partial.xtx = DenseMatrix(d, d);
  if (want_ytx) partial.ytx = ScatterPartial(dim, d);

  uint64_t flops = 0;
  // Upper triangle only; mirrored once after the rows. The flop count stays
  // the cost model's full 2*d*d — the model charges the algorithmic work,
  // not this implementation's execution speed.
  const auto add_xtx = [&](const double* x_row) {
    linalg::kernels::SymRank1Update(x_row, d, partial.xtx.data(),
                                    partial.xtx.row_stride());
    flops += 2ull * d * d;
  };
  if (want_ytx && toggles.mean_propagation && materialized_x == nullptr) {
    // Generated X rows with mean propagation take the shared projection-
    // scatter pass (X_i, the Xc sum and the outer product in one kernel
    // call). X itself comes out only for the per-row XtX update, a block
    // of rows at a time.
    if (!want_xtx) {
      flops += partial.ytx.AddRows(y, range, cm, xm, nullptr);
    } else {
      constexpr size_t kBlock = ScatterPartial::kXBlockRows;
      DenseMatrix x_block(std::min(kBlock, range.size()), d);
      for (size_t begin = range.begin; begin < range.end; begin += kBlock) {
        const RowRange block{begin, std::min(range.end, begin + kBlock)};
        flops += partial.ytx.AddRows(y, block, cm, xm, &x_block);
        for (size_t r = 0; r < block.size(); ++r) add_xtx(x_block.RowPtr(r));
      }
    }
  } else {
    DenseVector x_row(d);
    DenseVector dense_scratch(toggles.mean_propagation ? 0 : dim);
    for (size_t i = range.begin; i < range.end; ++i) {
      if (materialized_x != nullptr) {
        std::memcpy(x_row.data(), materialized_x->RowPtr(i),
                    d * sizeof(double));
      } else {
        flops += ComputeXRow(y, i, cm, ym, xm, toggles.mean_propagation,
                             &dense_scratch, &x_row);
      }
      if (want_xtx) add_xtx(x_row.data());
      if (!want_ytx) continue;
      if (toggles.mean_propagation) {
        // Sparse outer product Y_i' (x) x_row; the -Ym (x) sum(Xc) term is
        // applied once on the driver.
        partial.ytx.Scatter(y, i, x_row);
        flops += 2ull * y.RowNnz(i) * d;
      } else {
        // Dense centered row outer product (all D rows touched).
        for (size_t k = 0; k < dim; ++k) dense_scratch[k] = -ym[k];
        y.ForEachEntry(i,
                       [&](size_t k, double v) { dense_scratch[k] += v; });
        linalg::kernels::Rank1Update(dense_scratch.data(), dim, x_row.data(),
                                     d, partial.ytx.w.data(),
                                     partial.ytx.w.row_stride());
        flops += 2ull * dim * d + dim;
      }
    }
  }
  if (want_xtx) {
    linalg::kernels::SymMirrorLower(partial.xtx.data(), d,
                                    partial.xtx.row_stride());
  }
  ctx->CountFlops(flops);
  return partial;
}

}  // namespace

YtXResult YtXJob(Engine* engine, const DistMatrix& y, const DenseVector& ym,
                 const DenseVector& xm, const DenseMatrix& cm,
                 const DenseMatrix* materialized_x,
                 const JobToggles& toggles) {
  SPCA_CHECK_EQ(cm.rows(), y.cols());
  const size_t d = cm.cols();
  const size_t dim = y.cols();

  // CM, Ym, and Xm are broadcast to every worker (the in-memory matrix
  // multiplication of Section 3.3).
  engine->Broadcast(cm.ByteSize() + (ym.size() + xm.size()) * sizeof(double));

  auto run = [&](const dist::JobDesc& job, bool want_xtx, bool want_ytx) {
    return engine->RunMap<YtXPartial>(
        job, y, [&](const RowRange& range, TaskContext* ctx) {
          YtXPartial partial =
              RunYtXPartition(y, range, ym, xm, cm, materialized_x, toggles,
                              want_xtx, want_ytx, ctx);
          uint64_t bytes = d * sizeof(double);  // the Xc sum
          if (want_ytx) {
            bytes += partial.ytx.WireBytes(*engine, y,
                                           toggles.mean_propagation);
          }
          if (want_xtx) bytes += d * d * sizeof(double);
          engine->EmitPartial(ctx, bytes);
          return partial;
        });
  };

  // With driver_moments, XtX = CM' * YtX costs the driver 2 * D * d^2
  // flops against the tasks' N * d^2 for the per-row update, so the driver
  // takes it over only on inputs of at least 2 * D rows; shorter ones (a
  // stream mini-batch) keep the update in the one pass.
  const bool driver_xtx = toggles.driver_moments && y.rows() >= 2 * dim;
  const bool one_job = toggles.driver_moments || toggles.consolidate_jobs;
  std::vector<YtXPartial> xtx_partials;
  std::vector<YtXPartial> ytx_partials;
  if (one_job) {
    ytx_partials = run(dist::JobDesc{"YtXJob", "em_iteration"},
                       /*want_xtx=*/!driver_xtx, /*want_ytx=*/true);
  } else {
    // Unconsolidated: XtX and YtX as two distributed jobs, each generating
    // (or re-reading) X independently (Figure 2 before consolidation).
    xtx_partials = run(dist::JobDesc{"XtXJob", "em_iteration"},
                       /*want_xtx=*/true, /*want_ytx=*/false);
    ytx_partials = run(dist::JobDesc{"YtXJob(split)", "em_iteration"},
                       /*want_xtx=*/false, /*want_ytx=*/true);
  }

  YtXResult result;
  if (!driver_xtx) {
    result.xtx = DenseMatrix(d, d);
    for (const auto& p : one_job ? ytx_partials : xtx_partials) {
      result.xtx.Add(p.xtx);
    }
  }
  std::vector<const ScatterPartial*> shares;
  for (const auto& p : ytx_partials) shares.push_back(&p.ytx);
  result.ytx =
      MergeScatterPartials(shares, toggles.mean_propagation ? &ym : nullptr);
  if (toggles.mean_propagation) engine->CountDriverFlops(2ull * dim * d);
  const size_t merged_xtx = driver_xtx ? 0 : d * d;
  engine->CountDriverFlops(ytx_partials.size() * (dim * d + merged_xtx));
  if (driver_xtx) {
    // Every X row is Yc_i * CM, so X'X = CM' * (Yc'X). Averaging the two
    // triangles makes the d x d result exactly symmetric.
    result.xtx = linalg::TransposeMultiply(cm, result.ytx);
    for (size_t a = 0; a < d; ++a) {
      for (size_t b = a + 1; b < d; ++b) {
        const double average = 0.5 * (result.xtx(a, b) + result.xtx(b, a));
        result.xtx(a, b) = average;
        result.xtx(b, a) = average;
      }
    }
    engine->CountDriverFlops(2ull * dim * d * d);
  }
  return result;
}

double Ss3Job(Engine* engine, const DistMatrix& y, const DenseVector& ym,
              const DenseVector& xm, const DenseMatrix& cm,
              const DenseMatrix& c, const DenseMatrix* materialized_x,
              const JobToggles& toggles) {
  SPCA_CHECK_EQ(c.rows(), y.cols());
  const size_t d = c.cols();
  const size_t dim = y.cols();
  engine->Broadcast(cm.ByteSize() + c.ByteSize() +
                    (ym.size() + xm.size()) * sizeof(double));

  // Driver precomputes C' * Ym (mean propagation of the C' * Yc_n' term).
  DenseVector ctym;
  if (toggles.mean_propagation) {
    ctym = linalg::TransposeMultiplyVector(c, ym);
    engine->CountDriverFlops(2ull * dim * d);
  }

  auto partials = engine->RunMap<double>(
      dist::JobDesc{"ss3Job", "em_iteration"}, y,
      [&](const RowRange& range, TaskContext* ctx) {
        DenseVector x_row(d);
        DenseVector v(d);
        DenseVector dense_scratch(toggles.mean_propagation ? 0 : dim);
        DenseVector u(toggles.ss3_associativity ? 0 : dim);
        double sum = 0.0;
        uint64_t flops = 0;
        for (size_t i = range.begin; i < range.end; ++i) {
          if (materialized_x != nullptr) {
            std::memcpy(x_row.data(), materialized_x->RowPtr(i),
                        d * sizeof(double));
          } else {
            flops += ComputeXRow(y, i, cm, ym, xm, toggles.mean_propagation,
                                 &dense_scratch, &x_row);
          }
          if (toggles.ss3_associativity) {
            // Efficient order (Equation 3): v = C' * Yc_i', then X_i . v.
            if (toggles.mean_propagation) {
              v.SetZero();
              y.ForEachEntry(i, [&](size_t k, double val) {
                linalg::kernels::AxpyRow(val, c.RowPtr(k), d, v.data());
              });
              v.Subtract(ctym);
              flops += 2ull * y.RowNnz(i) * d + d;
            } else {
              for (size_t k = 0; k < dim; ++k) dense_scratch[k] = -ym[k];
              y.ForEachEntry(
                  i, [&](size_t k, double val) { dense_scratch[k] += val; });
              v.SetZero();
              linalg::kernels::RowGemm(dense_scratch.data(), dim, c.data(),
                                       c.row_stride(), d, v.data());
              flops += 2ull * dim * d + dim;
            }
            sum += x_row.Dot(v);
            flops += 2ull * d;
          } else {
            // Inefficient order: u = X_i * C' (a dense D-vector) first.
            for (size_t k = 0; k < dim; ++k) {
              u[k] = linalg::kernels::DotRow(x_row.data(), c.RowPtr(k), d);
            }
            flops += 2ull * dim * d;
            // Then u . Yc_i' (mean-propagated or dense).
            double dot = 0.0;
            y.ForEachEntry(i, [&](size_t k, double val) { dot += u[k] * val; });
            for (size_t k = 0; k < dim; ++k) dot -= u[k] * ym[k];
            flops += 2ull * (y.RowNnz(i) + dim);
            sum += dot;
          }
        }
        ctx->CountFlops(flops);
        ctx->EmitResult(sizeof(double));
        return sum;
      });

  double ss3 = 0.0;
  for (double p : partials) ss3 += p;
  return ss3;
}

double Ss3FromYtX(Engine* engine, const DenseMatrix& c,
                  const DenseMatrix& ytx) {
  SPCA_CHECK_EQ(c.rows(), ytx.rows());
  SPCA_CHECK_EQ(c.cols(), ytx.cols());
  const size_t d = c.cols();
  double ss3 = 0.0;
  for (size_t k = 0; k < c.rows(); ++k) {
    ss3 = linalg::kernels::DotRow(c.RowPtr(k), ytx.RowPtr(k), d, ss3);
  }
  engine->CountDriverFlops(2ull * c.rows() * d);
  return ss3;
}

StatusOr<EStep> MakeEStep(const DenseMatrix& c, const DenseMatrix& ctc,
                          double ss, const DenseVector& ym) {
  SPCA_CHECK_EQ(ctc.rows(), c.cols());
  SPCA_CHECK_EQ(ctc.cols(), c.cols());
  EStep e_step;
  e_step.ss = ss;
  DenseMatrix m = ctc;  // d x d
  m.AddScaledIdentity(ss);
  auto m_inverse = linalg::Inverse(m);
  if (!m_inverse.ok()) return m_inverse.status();
  e_step.m_inverse = std::move(m_inverse).value();
  e_step.cm = linalg::Multiply(c, e_step.m_inverse);  // D x d
  e_step.xm = linalg::TransposeMultiplyVector(e_step.cm, ym);
  return e_step;
}

StatusOr<EStep> PrepareEStep(Engine* engine, const DenseMatrix& c,
                             const DenseMatrix& ctc, double ss,
                             const DenseVector& ym) {
  const size_t dim = c.rows();
  const size_t d = c.cols();
  auto e_step = MakeEStep(c, ctc, ss, ym);
  if (!e_step.ok()) return e_step.status();
  // C'C is charged although the caller formed it: Algorithm 4 forms it
  // here and again for ss2 (line 12), and the cost model charges the
  // algorithm, not this implementation's reuse.
  engine->CountDriverFlops(2ull * dim * d * d +  // C'C
                           2ull * d * d * d +    // inverse
                           2ull * dim * d * d +  // C * M^-1
                           2ull * dim * d);      // Xm
  return e_step;
}

double SoftThreshold(double value, double threshold) {
  if (value > threshold) return value - threshold;
  if (value < -threshold) return value + threshold;
  return 0.0;
}

namespace {

/// Soft-thresholds C in place, protecting each column's largest-magnitude
/// entry (so no component ever collapses to the zero vector, which would
/// make C'C + ss*I ill-conditioned). Returns the number of non-zero
/// loadings remaining.
uint64_t ThresholdLoadings(DenseMatrix* c, double threshold) {
  uint64_t nnz = 0;
  for (size_t j = 0; j < c->cols(); ++j) {
    size_t keep = 0;
    double best = -1.0;
    for (size_t i = 0; i < c->rows(); ++i) {
      const double magnitude = std::fabs((*c)(i, j));
      if (magnitude > best) {
        best = magnitude;
        keep = i;
      }
    }
    for (size_t i = 0; i < c->rows(); ++i) {
      if (i != keep) (*c)(i, j) = SoftThreshold((*c)(i, j), threshold);
      if ((*c)(i, j) != 0.0) ++nnz;
    }
  }
  return nnz;
}

}  // namespace

StatusOr<MStep> SolveMStep(Engine* engine, const EStep& e_step,
                           const YtXResult& stats, double l1_threshold) {
  const size_t dim = stats.ytx.rows();
  const size_t d = stats.ytx.cols();
  // XtX += ss * M^-1 (line 10), then C' = YtX / XtX (line 11).
  DenseMatrix xtx = stats.xtx;
  xtx.AddScaled(e_step.ss, e_step.m_inverse);
  auto c_new = linalg::SolveRight(stats.ytx, xtx);
  if (!c_new.ok()) return c_new.status();
  engine->CountDriverFlops(2ull * d * d * d + 2ull * dim * d * d);

  MStep m_step;
  m_step.c = std::move(c_new).value();
  if (l1_threshold > 0.0) {
    // Sparse loadings: the prox runs *before* the variance update, so
    // (C', ss') stay mutually consistent and the model alone is the
    // complete resume state.
    m_step.nnz_loadings = ThresholdLoadings(&m_step.c, l1_threshold);
    engine->CountDriverFlops(2ull * dim * d);
  }

  // ss2 = trace(XtX * C'' * C') (line 12).
  m_step.ctc = linalg::TransposeMultiply(m_step.c, m_step.c);
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = 0; b < d; ++b) m_step.ss2 += xtx(a, b) * m_step.ctc(b, a);
  }
  engine->CountDriverFlops(2ull * dim * d * d + 2ull * d * d);
  return m_step;
}

double MStep::NoiseVariance(double ss1, double ss3, double rows) const {
  const double ss = (ss1 + ss2 - 2.0 * ss3) / rows /
                    static_cast<double>(c.rows());
  return std::max(ss, 1e-12);
}

}  // namespace spca::core
