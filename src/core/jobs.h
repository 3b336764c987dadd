#ifndef SPCA_CORE_JOBS_H_
#define SPCA_CORE_JOBS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "linalg/dense_matrix.h"

namespace spca::core {

// Purity contract: every task function these jobs submit to
// Engine::RunMap must depend only on its partition and the broadcast
// inputs — no mutable shared state, no ambient randomness. The
// fault-injection layer (dist/fault.h) re-executes failed attempts of the
// same partition function and discards all but the final attempt, so any
// hidden state would make recovery observable; purity is what keeps
// faulted runs bit-identical to clean ones (asserted by the chaos suite).

/// Per-iteration optimization toggles threaded through the distributed
/// jobs (see SpcaOptions for semantics).
struct JobToggles {
  bool mean_propagation = true;
  bool minimize_intermediate_data = true;
  bool consolidate_jobs = true;
  bool ss3_associativity = true;
  bool driver_moments = true;
};

/// Distributed column-sum job: per-partition column sums of the stored
/// entries, added up on the driver in partition order. Charges the tasks'
/// flops and partial bytes; the caller charges the driver's reduction.
linalg::DenseVector ColumnSumJob(dist::Engine* engine,
                                 const dist::DistMatrix& y,
                                 const dist::JobDesc& job);

/// Distributed column-mean job (Algorithm 4 line 3): ColumnSumJob scaled
/// by 1/N on the driver.
linalg::DenseVector MeanJob(dist::Engine* engine,
                            const dist::DistMatrix& y);

/// Distributed Frobenius-norm job (Algorithm 4 line 4): ||Y - Ym||_F^2.
/// `efficient` selects Algorithm 3 (touch only stored entries) versus
/// Algorithm 2 (densify each row first).
double FrobeniusNormJob(dist::Engine* engine, const dist::DistMatrix& y,
                        const linalg::DenseVector& ym, bool efficient);

// ---- The projection-scatter pass ---------------------------------------
// YtXJob, the Oja stream job (stream.ojaJob), rand_svd's sketch job and
// ssvd's Bt job all fold each row's projection x_i = Y_i * B - bm into
// W = sum_i Y_i' (x) x_i on the tasks (Algorithm 5); the driver adds the
// task partials and the mean-propagation term -Ym (x) sum_i x_i. Each
// caller keeps its own job name, flop count and byte charge.

/// One task's share of the pass.
struct ScatterPartial {
  /// Rows of X a caller that reads them takes per AddRows call.
  static constexpr size_t kXBlockRows = 64;

  linalg::DenseMatrix w;         // D x d: sum_i Y_i' (x) x_i, stored entries
  linalg::DenseVector x_sum;     // d: sum_i x_i
  std::vector<uint8_t> touched;  // 1 for each row of w an entry named

  ScatterPartial() = default;
  ScatterPartial(size_t dim, size_t d);

  /// x_sum += x, and W(k, :) += Y_ik * x for each stored entry k of row i.
  void Scatter(const dist::DistMatrix& y, size_t i,
               const linalg::DenseVector& x);

  /// For each row i of `range` in order: x_i = Y_i * B - bm, then
  /// Scatter(y, i, x_i). Sparse input runs the whole range as one
  /// kernels::SparseRowsProjectScatter call. x_i is written to row
  /// i - range.begin of `x_out` (at least range.size() x B.cols()) only
  /// when `x_out` is not null; callers that read X pass blocks of
  /// kXBlockRows rows, so no buffer grows with the partition. Returns
  /// YtXJob's charge, 4 * nnz_i * d + d summed over the rows.
  uint64_t AddRows(const dist::DistMatrix& y, const dist::RowRange& range,
                   const linalg::DenseMatrix& b, const linalg::DenseVector& bm,
                   linalg::DenseMatrix* x_out);

  /// Bytes the partial ships (Section 4.2): on Spark with sparse,
  /// mean-propagated input only the touched rows and their indices travel
  /// to the accumulator; otherwise (and always on MapReduce, whose
  /// stateful combiner writes it whole, Section 4.1) the dense D x d.
  uint64_t WireBytes(const dist::Engine& engine, const dist::DistMatrix& y,
                     bool mean_propagation) const;
};

/// The driver's merge: adds the partials' W in task order, one block of
/// rows at a time, then W -= Ym (x) sum(x_sum) when `ym` is not null.
linalg::DenseMatrix MergeScatterPartials(
    std::span<const ScatterPartial* const> partials,
    const linalg::DenseVector* ym);

/// Materializes X = Yc * CM as an N x d matrix — the *unoptimized* path
/// (Figure 1): X becomes intermediate data that every consumer job
/// re-reads. `xm` is Ym' * CM.
linalg::DenseMatrix MaterializeXJob(dist::Engine* engine,
                                    const dist::DistMatrix& y,
                                    const linalg::DenseVector& ym,
                                    const linalg::DenseVector& xm,
                                    const linalg::DenseMatrix& cm,
                                    const JobToggles& toggles);

/// Result of the consolidated YtXJob.
struct YtXResult {
  /// Yc' * X (D x d).
  linalg::DenseMatrix ytx;
  /// X' * X (d x d) — *without* the + ss * M^-1 term, which the driver adds.
  linalg::DenseMatrix xtx;
};

/// The paper's YtXJob (Algorithm 4 line 9 / Algorithm 5): computes XtX and
/// YtX in one pass, generating each row of X on demand from the broadcast
/// CM (unless `materialized_x` is non-null, in which case rows of X are
/// read from it — the unoptimized path). With consolidate_jobs off, XtX
/// and YtX run as two separate distributed jobs. With driver_moments on,
/// they always run as one job (consolidate_jobs is moot), and on inputs of
/// at least 2 * D rows that job accumulates only YtX and the driver
/// derives XtX = CM' * YtX (every X row is Yc_i * CM), symmetrised; on
/// shorter inputs that product costs more than the per-row update it saves.
YtXResult YtXJob(dist::Engine* engine, const dist::DistMatrix& y,
                 const linalg::DenseVector& ym, const linalg::DenseVector& xm,
                 const linalg::DenseMatrix& cm,
                 const linalg::DenseMatrix* materialized_x,
                 const JobToggles& toggles);

/// The paper's ss3Job (Algorithm 4 line 13): ss3 = sum_n X_n * C' * Yc_n'.
/// With ss3_associativity, each term is computed as X_n * (C' * Yc_n')
/// (Equation 3's efficient order); otherwise as (X_n * C') * Yc_n'.
double Ss3Job(dist::Engine* engine, const dist::DistMatrix& y,
              const linalg::DenseVector& ym, const linalg::DenseVector& xm,
              const linalg::DenseMatrix& cm, const linalg::DenseMatrix& c,
              const linalg::DenseMatrix* materialized_x,
              const JobToggles& toggles);

/// The same ss3 without a pass over Y: sum_n X_n * C' * Yc_n' equals
/// <C, Yc'X>_F, so it follows from the `ytx` YtXJob returned for the X the
/// sum is over. Runs on the driver (2 * D * d flops).
double Ss3FromYtX(dist::Engine* engine, const linalg::DenseMatrix& c,
                  const linalg::DenseMatrix& ytx);

// ---- Driver algebra of one EM iteration --------------------------------
// PrepareEStep (Algorithm 4 lines 6-8), YtXJob (line 9), SolveMStep (lines
// 10-12), ss3 on the new C (line 13), MStep::NoiseVariance (line 14):
// core::Spca and the mini-batch EM streaming solver both run exactly this
// sequence. With driver_moments off, line 13 is Ss3Job — Algorithm 4
// literally, two passes over Y per iteration. With it on (the default),
// line 13 is Ss3FromYtX and YtXJob is the iteration's only pass. Each step
// charges its own driver flops from the shapes (D, d).

/// The E-step's driver-side inputs (Algorithm 4 lines 6-8).
struct EStep {
  double ss = 0.0;                // the noise variance in M = C'C + ss * I
  linalg::DenseMatrix m_inverse;  // M^-1 (d x d)
  linalg::DenseMatrix cm;         // C * M^-1 (D x d), broadcast to the jobs
  linalg::DenseVector xm;         // Ym' * CM, the mean term of every X row
};

/// Builds the E-step map for components `c` (D x d), its C'C `ctc`
/// (linalg::TransposeMultiply(c, c); the previous MStep::ctc), noise
/// variance `ss` and column mean `ym`: every row's latent coordinates are
/// X_i = Y_i * CM - Xm. Fails as linalg::Inverse does when M is not
/// positive definite, ill-conditioned or not finite. Engine-free, so the
/// serving Projector builds the same map from a model.
StatusOr<EStep> MakeEStep(const linalg::DenseMatrix& c,
                          const linalg::DenseMatrix& ctc, double ss,
                          const linalg::DenseVector& ym);

/// MakeEStep, charging the driver's flops to `engine`.
StatusOr<EStep> PrepareEStep(dist::Engine* engine,
                             const linalg::DenseMatrix& c,
                             const linalg::DenseMatrix& ctc, double ss,
                             const linalg::DenseVector& ym);

/// The M-step's new model (Algorithm 4 lines 10-12).
struct MStep {
  linalg::DenseMatrix c;      // C' = YtX / (XtX + ss * M^-1) (D x d)
  linalg::DenseMatrix ctc;    // C''C' (d x d), for ss2 and the next E-step
  double ss2 = 0.0;           // trace(XtX * C'' * C')
  uint64_t nnz_loadings = 0;  // left non-zero by the soft-threshold, if run

  /// The noise-variance update (line 14) once ss3 is known for `c` over
  /// `rows` rows: (ss1 + ss2 - 2 * ss3) / rows / D, floored at 1e-12.
  double NoiseVariance(double ss1, double ss3, double rows) const;
};

/// Solves the M-step from YtXJob's statistics; only the d x d XtX is
/// copied, so the caller keeps `stats.ytx` for ss3. With `l1_threshold` > 0
/// the lasso prox (SoftThreshold on every loading except each column's
/// largest, so no component collapses) sparsifies C' before ss2; at 0 it
/// is skipped entirely. MStep::ctc is formed on the final C'.
StatusOr<MStep> SolveMStep(dist::Engine* engine, const EStep& e_step,
                           const YtXResult& stats, double l1_threshold);

/// The soft-threshold operator: sign(x) * max(|x| - threshold, 0).
double SoftThreshold(double value, double threshold);

}  // namespace spca::core

#endif  // SPCA_CORE_JOBS_H_
