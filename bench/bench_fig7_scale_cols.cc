// Reproduces Figure 7 of the paper: time to reach 95% of the ideal
// accuracy on the Tweets dataset as the number of columns D grows,
// sPCA-Spark versus MLlib-PCA.
//
// Paper shapes: MLlib-PCA's running time grows quadratically with D and
// the algorithm fails outright ("Fail") once the D x D covariance no
// longer fits in the 32 GB driver (D > ~6,000); sPCA grows linearly in D.

#include <cstdio>
#include <vector>

#include "bench_util.h"

namespace spca::bench {
namespace {

void Run(obs::Registry* registry) {
  PrintHeader("Figure 7: time to 95% of ideal accuracy vs. #columns (Tweets)",
              "sPCA-Spark vs MLlib-PCA, d = 50");

  const std::vector<size_t> col_counts = {1000, 2000, 4000, 6000, 7150};
  const size_t rows = ScaledRows(20000);
  // sPCA's wall seconds are this machine's time for the same fit. The
  // bench runs Algorithm 4 literally (driver_moments off), so they time
  // the YtX range kernel's per-row X path at each D.
  std::printf("%12s %14s %14s %14s\n", "columns", "sPCA-Spark_s",
              "sPCA_wall_s", "MLlib-PCA_s");
  for (const size_t cols : col_counts) {
    const workload::Dataset dataset =
        workload::MakeDataset(workload::DatasetKind::kTweets, rows, cols, 16);
    const double ideal = DatasetIdealError(dataset.matrix, 50);
    const RunOutcome spca = RunSpca(dist::EngineMode::kSpark, dataset.matrix,
                                    50, 0.95, 10, false, ideal, registry);
    const RunOutcome mllib = RunMllibPca(dataset.matrix, 50, registry);
    char mllib_cell[32];
    if (mllib.ok) {
      std::snprintf(mllib_cell, sizeof(mllib_cell), "%.0f",
                    mllib.simulated_seconds);
    } else {
      std::snprintf(mllib_cell, sizeof(mllib_cell), "Fail");
    }
    std::printf("%12zu %14.0f %14.3f %14s\n", cols, spca.simulated_seconds,
                spca.wall_seconds, mllib_cell);
  }
  std::printf(
      "\nExpected shapes (paper): MLlib-PCA grows ~quadratically in D and "
      "fails for D > 6,000; sPCA grows linearly and keeps working at the "
      "full dimensionality.\n");
}

}  // namespace
}  // namespace spca::bench

int main(int argc, char** argv) {
  spca::bench::BenchEnv env(argc, argv);
  spca::bench::Run(env.registry());
  return 0;
}
