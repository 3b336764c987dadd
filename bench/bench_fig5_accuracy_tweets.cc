// Reproduces Figure 5 of the paper: accuracy versus time on the (large,
// very sparse) Tweets dataset — sPCA-MapReduce, Mahout-PCA, and the
// smart-guess variant sPCA-SG, which first fits on a small row sample and
// warm-starts the full run.
//
// Paper shapes: sPCA's accuracy exceeds Mahout-PCA's at every time budget;
// sPCA-SG pays an up-front delay (527 s in the paper) but starts at much
// higher accuracy than the cold-started run.
//
// Method: all three algorithms run for real at this repository's scaled
// row count; the per-iteration job boundaries recorded in their traces are
// then replayed under the cost model at the paper's 1.26B-row scale, where
// full-data iterations are expensive but sPCA-SG's sample pre-fit is not —
// which is exactly why smart guessing pays off at scale.

#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/spca.h"
#include "dist/engine.h"

namespace spca::bench {
namespace {

constexpr double kPaperRows = 1264812931.0;

void PrintSeries(const char* name,
                 const std::vector<std::pair<double, double>>& points) {
  std::printf("%s (time_s, accuracy_%%):\n", name);
  for (const auto& [time_s, accuracy] : points) {
    std::printf("  %10.1f  %6.2f\n", time_s, accuracy);
  }
}

/// Replays the cumulative time of each trace point at the paper's row
/// count. Jobs with index < full_fit_first_job ran on the fixed-size
/// sample pre-fit and are not row-scaled; for Mahout, the N x k
/// materializing jobs' intermediates scale with the rows as well.
std::vector<std::pair<double, double>> ReplaySeries(
    const std::vector<core::IterationTrace>& trace,
    const std::vector<dist::JobTrace>& jobs, size_t full_fit_first_job,
    double row_scale, bool scale_nk_intermediates) {
  std::vector<double> job_seconds;
  job_seconds.reserve(jobs.size());
  for (size_t j = 0; j < jobs.size(); ++j) {
    dist::ReplayScales scales;
    const bool full_data_job = j >= full_fit_first_job;
    scales.flops = full_data_job ? row_scale : 1.0;
    scales.input_bytes = scales.flops;
    scales.intermediate_bytes = 1.0;
    if (scale_nk_intermediates && full_data_job &&
        (jobs[j].name == "ssvd.QJob" || jobs[j].name == "ssvd.powerYJob" ||
         jobs[j].name == "qrQJob")) {
      scales.intermediate_bytes = row_scale;
    }
    job_seconds.push_back(
        dist::ReplayJobCost(jobs[j], dist::ClusterSpec{},
                            dist::EngineMode::kMapReduce, scales)
            .Total());
  }
  std::vector<double> cumulative(jobs.size() + 1, 0.0);
  for (size_t j = 0; j < jobs.size(); ++j) {
    cumulative[j + 1] = cumulative[j] + job_seconds[j];
  }
  std::vector<std::pair<double, double>> points;
  for (const auto& t : trace) {
    points.emplace_back(cumulative[std::min(t.jobs_completed, jobs.size())],
                        t.accuracy_percent);
  }
  return points;
}

std::vector<std::pair<double, double>> MeasuredSeries(
    const std::vector<core::IterationTrace>& trace) {
  std::vector<std::pair<double, double>> points;
  for (const auto& t : trace) {
    points.emplace_back(t.simulated_seconds, t.accuracy_percent);
  }
  return points;
}

void Run(obs::Registry* registry) {
  PrintHeader("Figure 5: accuracy vs. time, Tweets dataset",
              "sPCA-MapReduce vs sPCA-SG vs Mahout-PCA, d = 50; measured at "
              "scaled rows, then replayed at the paper's 1.26B rows");

  const size_t rows = ScaledRows(60000);
  const double row_scale = kPaperRows / static_cast<double>(rows);
  const workload::Dataset dataset = workload::MakeDataset(
      workload::DatasetKind::kTweets, rows, 7150, 16);
  const double ideal = DatasetIdealError(dataset.matrix, 50);

  // --- sPCA-MapReduce (cold start) and sPCA-SG.
  struct SpcaRun {
    core::SolveResult result;
    std::vector<dist::JobTrace> jobs;
  };
  auto run_spca = [&](bool smart_guess) {
    dist::Engine engine(PaperSpec(), dist::EngineMode::kMapReduce, registry);
    core::SpcaOptions options;
    options.num_components = 50;
    options.max_iterations = 10;
    options.target_accuracy_fraction = 2.0;
    options.smart_guess = smart_guess;
    options.smart_guess_rows = 2000;
    options.smart_guess_iterations = 8;
    options.ideal_error_override = ideal;
    options.driver_moments = false;  // Algorithm 4's job sequence
    auto result = core::Spca(&engine, options).Solve(dataset.matrix);
    SPCA_CHECK(result.ok());
    return SpcaRun{std::move(result.value()), engine.traces()};
  };
  const SpcaRun cold = run_spca(false);
  const SpcaRun smart = run_spca(true);

  // --- Mahout-PCA.
  dist::Engine mahout_engine(PaperSpec(), dist::EngineMode::kMapReduce,
                             registry);
  baselines::SsvdOptions mahout_options;
  mahout_options.num_components = 50;
  mahout_options.max_power_iterations = 6;
  mahout_options.target_accuracy_fraction = 2.0;
  mahout_options.ideal_error_override = ideal;
  auto mahout =
      baselines::SsvdPca(&mahout_engine, mahout_options).Solve(dataset.matrix);
  SPCA_CHECK(mahout.ok());

  std::printf("--- Replayed at the paper's scale (1.26B rows) ---\n");
  PrintSeries("sPCA-MapReduce",
              ReplaySeries(cold.result.trace, cold.jobs,
                           cold.result.first_job_index, row_scale, false));
  PrintSeries("sPCA-SG",
              ReplaySeries(smart.result.trace, smart.jobs,
                           smart.result.first_job_index, row_scale, false));
  PrintSeries("Mahout-PCA",
              ReplaySeries(mahout.value().trace, mahout_engine.traces(), 0,
                           row_scale, true));

  std::printf("\n--- Measured at %zu rows (launch-overhead dominated) ---\n",
              rows);
  PrintSeries("sPCA-MapReduce", MeasuredSeries(cold.result.trace));
  PrintSeries("sPCA-SG", MeasuredSeries(smart.result.trace));
  PrintSeries("Mahout-PCA", MeasuredSeries(mahout.value().trace));

  std::printf(
      "\nExpected shapes (paper): sPCA above Mahout-PCA at every time "
      "budget; sPCA-SG's first point is delayed (sample pre-fit; 527 s in "
      "the paper) but starts at higher accuracy than cold-started sPCA's "
      "first iterations.\n");
}

}  // namespace
}  // namespace spca::bench

int main(int argc, char** argv) {
  spca::bench::BenchEnv env(argc, argv);
  spca::bench::Run(env.registry());
  return 0;
}
