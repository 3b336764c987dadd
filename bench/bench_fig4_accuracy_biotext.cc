// Reproduces Figure 4 of the paper: accuracy versus time on the Bio-Text
// dataset, sPCA-MapReduce against Mahout-PCA.
//
// Paper shape: sPCA reaches >90% of the ideal accuracy within its first
// couple of iterations and converges quickly; Mahout-PCA needs several
// times longer to approach the same accuracy.

#include <cstdio>

#include "bench_util.h"
#include "core/spca.h"
#include "dist/engine.h"

namespace spca::bench {
namespace {

void PrintSeries(const char* name,
                 const std::vector<core::IterationTrace>& trace) {
  std::printf("%s (time_s, accuracy_%%):\n", name);
  for (const auto& point : trace) {
    std::printf("  %10.1f  %6.2f\n", point.simulated_seconds,
                point.accuracy_percent);
  }
}

void Run(obs::Registry* registry) {
  PrintHeader("Figure 4: accuracy vs. time, Bio-Text dataset",
              "sPCA-MapReduce vs Mahout-PCA, d = 50, 10 iterations");

  const workload::Dataset dataset = workload::MakeDataset(
      workload::DatasetKind::kBioText, ScaledRows(20000), 4000, 16);
  const double ideal = DatasetIdealError(dataset.matrix, 50);

  {
    dist::Engine engine(PaperSpec(), dist::EngineMode::kMapReduce, registry);
    core::SpcaOptions options;
    options.num_components = 50;
    options.max_iterations = 10;
    options.target_accuracy_fraction = 2.0;  // trace all iterations
    options.ideal_error_override = ideal;
    options.driver_moments = false;  // Algorithm 4's job sequence
    auto result = core::Spca(&engine, options).Solve(dataset.matrix);
    if (result.ok()) {
      PrintSeries("sPCA-MapReduce", result.value().trace);
    } else {
      std::printf("sPCA-MapReduce failed: %s\n",
                  result.status().ToString().c_str());
    }
  }
  {
    dist::Engine engine(PaperSpec(), dist::EngineMode::kMapReduce, registry);
    baselines::SsvdOptions options;
    options.num_components = 50;
    options.max_power_iterations = 6;
    options.target_accuracy_fraction = 2.0;
    options.ideal_error_override = ideal;
    auto result = baselines::SsvdPca(&engine, options).Solve(dataset.matrix);
    if (result.ok()) {
      PrintSeries("Mahout-PCA", result.value().trace);
    } else {
      std::printf("Mahout-PCA failed: %s\n",
                  result.status().ToString().c_str());
    }
  }
  std::printf(
      "\nExpected shape (paper): sPCA reaches ~93%% accuracy in its second "
      "iteration and converges far sooner than Mahout-PCA.\n");
}

}  // namespace
}  // namespace spca::bench

int main(int argc, char** argv) {
  spca::bench::BenchEnv env(argc, argv);
  spca::bench::Run(env.registry());
  return 0;
}
