// Reproduces Table 3 of the paper: the effect of each individual
// optimization, measured by running the distributed operation it applies
// to with and without the optimization (on a Tweets subset, like the
// paper's 100K-row experiment):
//
//   - Mean propagation (Section 3.1)   -> the YtX job
//   - Minimizing intermediate data (3.2) -> computing {X, XtX, YtX}
//   - Efficient Frobenius norm (3.4)   -> the Fnorm job
//
// Paper shape: every optimized operation is orders of magnitude faster;
// mean propagation is the largest win, then intermediate-data
// minimization, then the Frobenius norm. The first three columns run
// Algorithm 4's jobs (driver_moments off). A fourth column, beyond the
// paper, measures SpcaOptions::driver_moments: YtXJob + ss3Job against
// the one YtXJob whose YtX yields XtX and ss3 on the driver.

#include <cstdio>

#include "bench_util.h"
#include "common/rng.h"
#include "core/jobs.h"
#include "dist/engine.h"
#include "linalg/ops.h"
#include "linalg/solve.h"

namespace spca::bench {
namespace {

using core::JobToggles;
using dist::DistMatrix;
using dist::Engine;
using linalg::DenseMatrix;
using linalg::DenseVector;

struct Inputs {
  DenseVector ym;
  DenseMatrix c;
  DenseMatrix cm;
  DenseVector xm;
};

Inputs PrepareInputs(Engine* engine, const DistMatrix& y, size_t d) {
  Inputs inputs;
  inputs.ym = core::MeanJob(engine, y);
  Rng rng(33);
  inputs.c = DenseMatrix::GaussianRandom(y.cols(), d, &rng);
  DenseMatrix m = linalg::TransposeMultiply(inputs.c, inputs.c);
  m.AddScaledIdentity(0.5);
  auto minv = linalg::Inverse(m);
  SPCA_CHECK(minv.ok());
  inputs.cm = linalg::Multiply(inputs.c, minv.value());
  inputs.xm = linalg::RowTimesMatrix(inputs.ym, inputs.cm);
  return inputs;
}

/// Simulated *operation* seconds of `body`: compute + data movement of the
/// distributed jobs it launches, excluding the fixed per-job launch
/// overhead. The paper measured these operations on Spark, where stage
/// launch (~0.2 s) is negligible against the operation costs; at this
/// repository's scaled row counts launch would otherwise dominate and
/// compress every ratio toward 1.
struct CellTiming {
  /// Operation seconds at this repository's scaled row count.
  double measured = 0.0;
  /// Operation seconds replayed at the paper's 1.26B rows (per-row flops,
  /// input, and the N-proportional materialized-X intermediate scale up;
  /// the D x d partials do not).
  double paper_scale = 0.0;
};

constexpr double kPaperRowScale = 1264812931.0 / 20000.0;

template <typename Fn>
CellTiming Timed(Engine* engine, Fn&& body) {
  const size_t jobs_before = engine->traces().size();
  body();
  CellTiming timing;
  for (size_t j = jobs_before; j < engine->traces().size(); ++j) {
    const dist::JobTrace& trace = engine->traces()[j];
    timing.measured += trace.compute_sec + trace.data_sec;
    dist::ReplayScales scales;
    scales.flops = kPaperRowScale;
    scales.input_bytes = kPaperRowScale;
    // Only the materialized X (the XJob's output) grows with the rows.
    scales.intermediate_bytes = trace.name == "XJob" ? kPaperRowScale : 1.0;
    timing.paper_scale +=
        dist::ReplayJobCost(trace, engine->spec(), engine->mode(), scales)
            .Total() -
        engine->spec().job_launch_sec(engine->mode());
  }
  return timing;
}

void Run(obs::Registry* registry) {
  PrintHeader("Table 3: effect of the individual optimizations",
              "Simulated seconds per distributed operation, Tweets subset, "
              "d = 50, Spark engine");

  const size_t d = 50;
  const workload::Dataset dataset = workload::MakeDataset(
      workload::DatasetKind::kTweets, ScaledRows(20000), 7150, 4);
  Engine engine(PaperSpec(), dist::EngineMode::kSpark, registry);
  const Inputs inputs = PrepareInputs(&engine, dataset.matrix, d);

  // --- Mean propagation: the YtX job with sparse+propagated vs densified
  // rows.
  JobToggles optimized;
  optimized.driver_moments = false;  // Algorithm 4's jobs
  JobToggles no_mean_prop = optimized;
  no_mean_prop.mean_propagation = false;
  const CellTiming mean_prop_on = Timed(&engine, [&] {
    core::YtXJob(&engine, dataset.matrix, inputs.ym, inputs.xm, inputs.cm,
                 nullptr, optimized);
  });
  const CellTiming mean_prop_off = Timed(&engine, [&] {
    core::YtXJob(&engine, dataset.matrix, inputs.ym, inputs.xm, inputs.cm,
                 nullptr, no_mean_prop);
  });

  // --- Minimizing intermediate data: {XtX, YtX} with X generated
  // on demand vs materialized-and-reread.
  const CellTiming minimize_on = Timed(&engine, [&] {
    core::YtXJob(&engine, dataset.matrix, inputs.ym, inputs.xm, inputs.cm,
                 nullptr, optimized);
  });
  JobToggles no_minimize = optimized;
  no_minimize.minimize_intermediate_data = false;
  const CellTiming minimize_off = Timed(&engine, [&] {
    const DenseMatrix x = core::MaterializeXJob(
        &engine, dataset.matrix, inputs.ym, inputs.xm, inputs.cm,
        no_minimize);
    core::YtXJob(&engine, dataset.matrix, inputs.ym, inputs.xm, inputs.cm,
                 &x, no_minimize);
  });

  // --- Frobenius norm: Algorithm 3 vs Algorithm 2.
  const CellTiming frobenius_on = Timed(&engine, [&] {
    core::FrobeniusNormJob(&engine, dataset.matrix, inputs.ym,
                           /*efficient=*/true);
  });
  const CellTiming frobenius_off = Timed(&engine, [&] {
    core::FrobeniusNormJob(&engine, dataset.matrix, inputs.ym,
                           /*efficient=*/false);
  });

  // --- Driver moments: Algorithm 4's YtXJob (with the per-row XtX update)
  // then ss3Job, vs one YtXJob whose YtX yields XtX and ss3 on the driver.
  // Like every cell, only the distributed jobs are timed; the driver side
  // adds 2 * D * d^2 + 2 * D * d flops.
  JobToggles driver_moments;
  const CellTiming driver_moments_on = Timed(&engine, [&] {
    const core::YtXResult stats =
        core::YtXJob(&engine, dataset.matrix, inputs.ym, inputs.xm, inputs.cm,
                     nullptr, driver_moments);
    core::Ss3FromYtX(&engine, inputs.c, stats.ytx);
  });
  const CellTiming driver_moments_off = Timed(&engine, [&] {
    core::YtXJob(&engine, dataset.matrix, inputs.ym, inputs.xm, inputs.cm,
                 nullptr, optimized);
    core::Ss3Job(&engine, dataset.matrix, inputs.ym, inputs.xm, inputs.cm,
                 inputs.c, nullptr, optimized);
  });

  std::printf("Measured at %zu rows (operation seconds, launch excluded):\n",
              dataset.matrix.rows());
  std::printf("%-12s %14s %16s %12s %16s\n", "", "Mean Prop.",
              "Intermed. Data", "Frobenius", "Driver Moments");
  std::printf("%-12s %14.3f %16.3f %12.4f %16.3f\n", "W/ Opt.",
              mean_prop_on.measured, minimize_on.measured,
              frobenius_on.measured, driver_moments_on.measured);
  std::printf("%-12s %14.3f %16.3f %12.4f %16.3f\n", "W/O Opt.",
              mean_prop_off.measured, minimize_off.measured,
              frobenius_off.measured, driver_moments_off.measured);
  std::printf("%-12s %13.0fx %15.0fx %11.0fx %15.1fx\n", "Speedup",
              mean_prop_off.measured / std::max(1e-9, mean_prop_on.measured),
              minimize_off.measured / std::max(1e-9, minimize_on.measured),
              frobenius_off.measured / std::max(1e-9, frobenius_on.measured),
              driver_moments_off.measured /
                  std::max(1e-9, driver_moments_on.measured));

  std::printf("\nReplayed at the paper's 1.26B rows:\n");
  std::printf("%-12s %14.0f %16.0f %12.1f %16.0f\n", "W/ Opt.",
              mean_prop_on.paper_scale, minimize_on.paper_scale,
              frobenius_on.paper_scale, driver_moments_on.paper_scale);
  std::printf("%-12s %14.0f %16.0f %12.1f %16.0f\n", "W/O Opt.",
              mean_prop_off.paper_scale, minimize_off.paper_scale,
              frobenius_off.paper_scale, driver_moments_off.paper_scale);
  std::printf("%-12s %13.0fx %15.1fx %11.0fx %15.1fx\n", "Speedup",
              mean_prop_off.paper_scale /
                  std::max(1e-9, mean_prop_on.paper_scale),
              minimize_off.paper_scale /
                  std::max(1e-9, minimize_on.paper_scale),
              frobenius_off.paper_scale /
                  std::max(1e-9, frobenius_on.paper_scale),
              driver_moments_off.paper_scale /
                  std::max(1e-9, driver_moments_on.paper_scale));
  std::printf(
      "\nExpected shape (paper, Tweets 100K rows): mean propagation is the "
      "biggest win (2 s vs 5,400 s), then intermediate-data minimization "
      "(3 s vs 2,640 s), then the Frobenius norm (0.4 s vs 102 s).\n");
}

}  // namespace
}  // namespace spca::bench

int main(int argc, char** argv) {
  spca::bench::BenchEnv env(argc, argv);
  spca::bench::Run(env.registry());
  return 0;
}
