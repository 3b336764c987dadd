#include "ml/ppca_mixture.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "linalg/ops.h"
#include "linalg/solve.h"

namespace spca::ml {

using dist::DistMatrix;
using dist::Engine;
using dist::RowRange;
using dist::TaskContext;
using linalg::DenseMatrix;
using linalg::DenseVector;

namespace {

/// Driver-side cached quantities for one mixture component, refreshed at
/// the start of every EM iteration.
struct ComponentState {
  DenseMatrix c;       // D x d
  DenseVector mean;    // D
  double ss = 1.0;
  double log_pi = 0.0;

  // Derived (Woodbury) quantities.
  DenseMatrix m_inverse;   // d x d
  DenseMatrix cm;          // D x d: C * M^-1
  DenseVector c_t_mean;    // d: C' * mean
  double mean_norm2 = 0.0;
  double log_det_sigma = 0.0;  // (D-d) log ss + log|M|
};

/// Weighted sufficient statistics for one component, accumulated over a
/// partition. See the derivation in ppca_mixture.h / FitPpcaMixture: all
/// mean-corrected quantities are recovered from these raw moments.
struct ComponentStats {
  double rw = 0.0;        // sum of responsibilities
  double s2 = 0.0;        // sum r * ||y||^2
  DenseVector s1;         // sum r * y                (D)
  DenseVector b;          // sum r * (y * CM)         (d)
  DenseMatrix a;          // sum r * (y CM)'(y CM)    (d x d)
  DenseMatrix g;          // sum r * y' (x) (y CM)    (D x d)
};

struct MixturePartial {
  std::vector<ComponentStats> stats;
  double log_likelihood = 0.0;
};

double LogDetFromCholesky(const DenseMatrix& l) {
  double log_det = 0.0;
  for (size_t i = 0; i < l.rows(); ++i) log_det += std::log(l(i, i));
  return 2.0 * log_det;
}

}  // namespace

StatusOr<PpcaMixtureResult> FitPpcaMixture(Engine* engine,
                                           const DistMatrix& y,
                                           const PpcaMixtureOptions& options) {
  const size_t k = options.num_models;
  const size_t d = options.num_components;
  const size_t dim = y.cols();
  const size_t n = y.rows();
  if (k == 0) return Status::InvalidArgument("num_models must be positive");
  if (d == 0 || d >= dim) {
    return Status::InvalidArgument("need 0 < num_components < columns");
  }
  if (n < 2 * k) return Status::InvalidArgument("too few rows for k models");

  const auto stats_before = engine->stats();
  Stopwatch wall;
  Rng rng(options.seed);

  // Initialization: means at random data rows, random subspaces, unit
  // noise, uniform mixing weights.
  std::vector<ComponentState> components(k);
  for (size_t i = 0; i < k; ++i) {
    components[i].c = DenseMatrix::GaussianRandom(dim, d, &rng);
    components[i].mean = DenseVector(dim);
    const size_t row = rng.NextUint64Below(n);
    y.ForEachEntry(row,
                   [&](size_t j, double v) { components[i].mean[j] = v; });
    components[i].ss = 1.0;
    components[i].log_pi = -std::log(static_cast<double>(k));
  }

  PpcaMixtureResult result;
  result.hard_assignments.assign(n, 0);
  double previous_log_likelihood = -std::numeric_limits<double>::infinity();

  for (int iteration = 1; iteration <= options.em_iterations; ++iteration) {
    // Refresh the derived per-component quantities on the driver.
    for (auto& component : components) {
      DenseMatrix m = linalg::TransposeMultiply(component.c, component.c);
      m.AddScaledIdentity(component.ss);
      auto chol = linalg::CholeskyFactor(m);
      if (!chol.ok()) return chol.status();
      auto m_inverse = linalg::Inverse(m);
      if (!m_inverse.ok()) return m_inverse.status();
      component.m_inverse = std::move(m_inverse.value());
      component.cm = linalg::Multiply(component.c, component.m_inverse);
      component.c_t_mean =
          linalg::TransposeMultiplyVector(component.c, component.mean);
      component.mean_norm2 = component.mean.SquaredNorm();
      component.log_det_sigma =
          static_cast<double>(dim - d) * std::log(component.ss) +
          LogDetFromCholesky(chol.value());
      engine->CountDriverFlops(4ull * dim * d * d + 2ull * d * d * d);
    }
    uint64_t broadcast_bytes = 0;
    for (const auto& component : components) {
      broadcast_bytes += component.c.ByteSize() + component.cm.ByteSize() +
                         component.mean.size() * sizeof(double);
    }
    engine->Broadcast(broadcast_bytes);

    // One distributed pass: responsibilities + weighted moments.
    auto partials = engine->RunMap<std::unique_ptr<MixturePartial>>(
        dist::JobDesc{"mixture.emJob"}, y,
        [&](const RowRange& range, TaskContext* ctx) {
          auto partial = std::make_unique<MixturePartial>();
          partial->stats.resize(k);
          for (auto& s : partial->stats) {
            s.s1 = DenseVector(dim);
            s.b = DenseVector(d);
            s.a = DenseMatrix(d, d);
            s.g = DenseMatrix(dim, d);
          }
          const double log_2pi = std::log(2.0 * M_PI);
          std::vector<double> log_p(k);
          std::vector<DenseVector> t(k, DenseVector(d));   // y * CM
          std::vector<DenseVector> cy(k, DenseVector(d));  // C' * y
          uint64_t flops = 0;
          for (size_t row = range.begin; row < range.end; ++row) {
            const double y_norm2 = y.RowSquaredNorm(row);
            for (size_t i = 0; i < k; ++i) {
              const ComponentState& cs = components[i];
              // Sparse products against the broadcast matrices.
              y.RowTimesMatrix(row, cs.cm, &t[i]);
              y.RowTimesMatrix(row, cs.c, &cy[i]);
              const double y_dot_mean = y.RowDot(row, cs.mean);
              flops += 4ull * y.RowNnz(row) * d;

              // q = yc' Sigma^-1 yc via Woodbury:
              //   (||yc||^2 - (C'yc)' M^-1 (C'yc)) / ss,
              // and (C'yc)' M^-1 (C'yc) = (C'yc) . (yc*CM).
              const double yc_norm2 =
                  y_norm2 - 2.0 * y_dot_mean + cs.mean_norm2;
              double quad = 0.0;
              for (size_t a = 0; a < d; ++a) {
                const double c_yc = cy[i][a] - cs.c_t_mean[a];
                // yc*CM = y*CM - mean'*CM; mean'*CM = (M^-1 C'mean)'.
                double mean_cm = 0.0;
                for (size_t bcol = 0; bcol < d; ++bcol) {
                  mean_cm += cs.m_inverse(a, bcol) * cs.c_t_mean[bcol];
                }
                quad += c_yc * (t[i][a] - mean_cm);
              }
              flops += 2ull * d * d;
              const double mahalanobis = (yc_norm2 - quad) / cs.ss;
              log_p[i] = cs.log_pi -
                         0.5 * (static_cast<double>(dim) * log_2pi +
                                cs.log_det_sigma + mahalanobis);
            }

            // Responsibilities by log-sum-exp.
            const double max_log =
                *std::max_element(log_p.begin(), log_p.end());
            double denom = 0.0;
            for (size_t i = 0; i < k; ++i) {
              denom += std::exp(log_p[i] - max_log);
            }
            partial->log_likelihood += max_log + std::log(denom);
            size_t best = 0;
            for (size_t i = 0; i < k; ++i) {
              const double r = std::exp(log_p[i] - max_log) / denom;
              if (log_p[i] > log_p[best]) best = i;
              if (r < 1e-12) continue;
              ComponentStats& s = partial->stats[i];
              s.rw += r;
              s.s2 += r * y_norm2;
              y.ForEachEntry(row, [&](size_t j, double v) {
                s.s1[j] += r * v;
                for (size_t a = 0; a < d; ++a) s.g(j, a) += r * v * t[i][a];
              });
              for (size_t a = 0; a < d; ++a) {
                const double ta = t[i][a];
                s.b[a] += r * ta;
                for (size_t bcol = 0; bcol < d; ++bcol) {
                  s.a(a, bcol) += r * ta * t[i][bcol];
                }
              }
              flops += 2ull * y.RowNnz(row) * d + 2ull * d * d;
            }
            result.hard_assignments[row] = static_cast<uint32_t>(best);
          }
          ctx->CountFlops(flops);
          ctx->EmitResult(k * (dim + dim * d + d * d + d + 3) *
                          sizeof(double));
          return partial;
        });

    // Merge partials (partition order: deterministic).
    std::vector<ComponentStats> merged(k);
    double log_likelihood = 0.0;
    for (size_t i = 0; i < k; ++i) {
      merged[i].s1 = DenseVector(dim);
      merged[i].b = DenseVector(d);
      merged[i].a = DenseMatrix(d, d);
      merged[i].g = DenseMatrix(dim, d);
    }
    for (const auto& partial : partials) {
      log_likelihood += partial->log_likelihood;
      for (size_t i = 0; i < k; ++i) {
        merged[i].rw += partial->stats[i].rw;
        merged[i].s2 += partial->stats[i].s2;
        merged[i].s1.Add(partial->stats[i].s1);
        merged[i].b.Add(partial->stats[i].b);
        merged[i].a.Add(partial->stats[i].a);
        merged[i].g.Add(partial->stats[i].g);
      }
    }
    engine->CountDriverFlops(partials.size() * k * (dim * d + d * d + dim));

    // M-step: one exact weighted Tipping–Bishop PPCA update per model.
    for (size_t i = 0; i < k; ++i) {
      const ComponentStats& s = merged[i];
      if (s.rw < 1e-8) continue;  // starved component: keep as-is
      ComponentState& cs = components[i];
      const double inv_rw = 1.0 / s.rw;

      // mu_new = S1 / Rw;   sum r ||yc||^2 = S2 - ||S1||^2 / Rw.
      DenseVector mean_new = s.s1;
      mean_new.Scale(inv_rw);
      const double yc_norm2_sum = s.s2 - s.s1.SquaredNorm() * inv_rw;

      // YtX_w = G - S1 (x) b / Rw;   sum r Xc'Xc = A - b (x) b / Rw.
      DenseMatrix ytx = s.g;
      for (size_t j = 0; j < dim; ++j) {
        const double sj = s.s1[j] * inv_rw;
        if (sj == 0.0) continue;
        for (size_t a = 0; a < d; ++a) ytx(j, a) -= sj * s.b[a];
      }
      DenseMatrix xtx = s.a;
      for (size_t a = 0; a < d; ++a) {
        for (size_t bcol = 0; bcol < d; ++bcol) {
          xtx(a, bcol) -= s.b[a] * s.b[bcol] * inv_rw;
        }
      }
      // sum r <x x'> = sum r Xc'Xc + Rw * ss * M^-1 (exact TB E-step).
      xtx.AddScaled(s.rw * cs.ss, cs.m_inverse);

      auto c_new = linalg::SolveRight(ytx, xtx);
      if (!c_new.ok()) return c_new.status();
      const DenseMatrix ctc =
          linalg::TransposeMultiply(c_new.value(), c_new.value());
      double cross = 0.0;  // tr(C_new' * YtX_w)
      for (size_t j = 0; j < dim; ++j) {
        for (size_t a = 0; a < d; ++a) {
          cross += c_new.value()(j, a) * ytx(j, a);
        }
      }
      double quad = 0.0;  // tr(XtX_w * C_new'C_new)
      for (size_t a = 0; a < d; ++a) {
        for (size_t bcol = 0; bcol < d; ++bcol) {
          quad += xtx(a, bcol) * ctc(bcol, a);
        }
      }
      const double ss_new = (yc_norm2_sum - 2.0 * cross + quad) /
                            (s.rw * static_cast<double>(dim));
      engine->CountDriverFlops(4ull * dim * d * d + 2ull * d * d * d);

      cs.c = std::move(c_new.value());
      cs.mean = std::move(mean_new);
      cs.ss = std::max(ss_new, 1e-12);
      cs.log_pi = std::log(std::max(s.rw / static_cast<double>(n), 1e-300));
    }

    result.log_likelihood = log_likelihood;
    result.iterations_run = iteration;
    if (log_likelihood - previous_log_likelihood <
        options.tolerance * static_cast<double>(n) &&
        iteration > 1) {
      break;
    }
    previous_log_likelihood = log_likelihood;
  }

  result.components.resize(k);
  for (size_t i = 0; i < k; ++i) {
    result.components[i].model.components = components[i].c;
    result.components[i].model.mean = components[i].mean;
    result.components[i].model.noise_variance = components[i].ss;
    result.components[i].weight = std::exp(components[i].log_pi);
  }
  result.stats = dist::StatsDiff(engine->stats(), stats_before);
  result.stats.wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace spca::ml
