// Empirically validates Table 1 of the paper: the time and communication
// complexity of the four PCA methods —
//
//   Eigendecomposition of the covariance  O(ND*min(N,D))   comm O(D^2)
//   SVD-Bidiag                            O(ND^2 + D^3)    comm O(max((N+D)d, D^2))
//   Stochastic SVD (SSVD)                 O(NDd)           comm O(max(Nd, d^2))
//   Probabilistic PCA (sPCA)              O(NDd)           comm O(Dd)
//
// The bench runs every method on dense low-rank matrices while sweeping
// D (fixed N) and N (fixed D), measures executed flops and communicated
// bytes from the engine's accounting, and reports the log-log growth
// exponent of each. The exponents should match the table: quadratic /
// cubic growth in D for the first two methods versus linear for SSVD and
// PPCA, and D^2 communication for covariance versus D*d for sPCA; in N,
// SSVD's communication grows linearly (its N x k intermediates) while
// sPCA's stays flat.

#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "baselines/cov_eig_pca.h"
#include "baselines/lanczos_pca.h"
#include "baselines/ssvd_pca.h"
#include "baselines/svd_bidiag_pca.h"
#include "bench_util.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "workload/synthetic.h"

namespace spca::bench {
namespace {

constexpr size_t kComponents = 10;

struct Measurement {
  double flops = 0.0;
  double comm_bytes = 0.0;
};

using MethodFn =
    std::function<Measurement(const dist::DistMatrix&)>;

dist::DistMatrix MakeData(size_t rows, size_t cols) {
  workload::LowRankConfig config;
  config.rows = rows;
  config.cols = cols;
  config.rank = kComponents;
  config.noise_stddev = 0.1;
  config.seed = 71;
  return dist::DistMatrix::FromDense(workload::GenerateLowRank(config), 8);
}

Measurement FromStats(const dist::CommStats& stats) {
  Measurement m;
  m.flops = static_cast<double>(stats.task_flops + stats.driver_flops);
  m.comm_bytes = static_cast<double>(stats.TotalCommunicatedBytes());
  return m;
}

std::vector<std::pair<std::string, MethodFn>> Methods(
    obs::Registry* registry) {
  return {
      {"Covariance+eigen (MLlib)",
       [registry](const dist::DistMatrix& y) {
         dist::Engine engine(PaperSpec(), dist::EngineMode::kSpark,
                             registry);
         baselines::CovEigOptions options;
         options.num_components = kComponents;
         auto result = baselines::CovEigPca(&engine, options).Solve(y);
         SPCA_CHECK(result.ok());
         return FromStats(result.value().stats);
       }},
      {"SVD-Bidiag (RScaLAPACK)",
       [registry](const dist::DistMatrix& y) {
         dist::Engine engine(PaperSpec(), dist::EngineMode::kSpark,
                             registry);
         baselines::SvdBidiagOptions options;
         options.num_components = kComponents;
         auto result = baselines::SvdBidiagPca(&engine, options).Solve(y);
         SPCA_CHECK(result.ok());
         return FromStats(result.value().stats);
       }},
      {"SSVD (Mahout)",
       [registry](const dist::DistMatrix& y) {
         dist::Engine engine(PaperSpec(), dist::EngineMode::kSpark,
                             registry);
         baselines::SsvdOptions options;
         options.num_components = kComponents;
         options.max_power_iterations = 1;
         options.target_accuracy_fraction = 2.0;
         options.compute_accuracy_trace = false;
         auto result = baselines::SsvdPca(&engine, options).Solve(y);
         SPCA_CHECK(result.ok());
         return FromStats(result.value().stats);
       }},
      {"PPCA (sPCA)",
       [registry](const dist::DistMatrix& y) {
         dist::Engine engine(PaperSpec(), dist::EngineMode::kSpark,
                             registry);
         core::SpcaOptions options;
         options.num_components = kComponents;
         options.max_iterations = 3;
         options.target_accuracy_fraction = 2.0;
         options.compute_accuracy_trace = false;
         options.driver_moments = false;  // Algorithm 4's job sequence
         auto result = core::Spca(&engine, options).Solve(y);
         SPCA_CHECK(result.ok());
         return FromStats(result.value().stats);
       }},
      {"SVD-Lanczos (dense-cost)",
       [registry](const dist::DistMatrix& y) {
         dist::Engine engine(PaperSpec(), dist::EngineMode::kSpark,
                             registry);
         baselines::LanczosOptions options;
         options.num_components = kComponents;
         options.lanczos_steps = 2 * kComponents;
         auto result = baselines::LanczosPca(&engine, options).Solve(y);
         SPCA_CHECK(result.ok());
         return FromStats(result.value().stats);
       }},
  };
}

double Slope(double y0, double y1, double x0, double x1) {
  return std::log(y1 / y0) / std::log(x1 / x0);
}

void SweepDimension(obs::Registry* registry) {
  std::printf("Sweep over D (N = 2000, d = %zu): growth exponent of flops "
              "and communicated bytes in D\n",
              kComponents);
  const std::vector<size_t> dims = {64, 128, 256};
  std::printf("%-28s %12s %12s\n", "Method", "flops~D^a", "comm~D^b");
  for (const auto& [name, fn] : Methods(registry)) {
    std::vector<Measurement> measurements;
    for (const size_t dim : dims) measurements.push_back(fn(MakeData(2000, dim)));
    const double flop_slope =
        Slope(measurements.front().flops, measurements.back().flops,
              static_cast<double>(dims.front()),
              static_cast<double>(dims.back()));
    const double comm_slope =
        Slope(measurements.front().comm_bytes, measurements.back().comm_bytes,
              static_cast<double>(dims.front()),
              static_cast<double>(dims.back()));
    std::printf("%-28s %12.2f %12.2f\n", name.c_str(), flop_slope,
                comm_slope);
  }
}

void SweepRows(obs::Registry* registry) {
  std::printf("\nSweep over N (D = 128, d = %zu): growth exponent of flops "
              "and communicated bytes in N\n",
              kComponents);
  const std::vector<size_t> rows = {1000, 2000, 4000};
  std::printf("%-28s %12s %12s\n", "Method", "flops~N^a", "comm~N^b");
  for (const auto& [name, fn] : Methods(registry)) {
    std::vector<Measurement> measurements;
    for (const size_t n : rows) measurements.push_back(fn(MakeData(n, 128)));
    const double flop_slope =
        Slope(measurements.front().flops, measurements.back().flops,
              static_cast<double>(rows.front()),
              static_cast<double>(rows.back()));
    const double comm_slope =
        Slope(measurements.front().comm_bytes, measurements.back().comm_bytes,
              static_cast<double>(rows.front()),
              static_cast<double>(rows.back()));
    std::printf("%-28s %12.2f %12.2f\n", name.c_str(), flop_slope,
                comm_slope);
  }
}

void Run(obs::Registry* registry) {
  PrintHeader("Table 1: complexity of the PCA methods (empirical exponents)",
              "Expected: covariance/bidiag super-linear in D (~2-3) with "
              "O(D^2) communication; SSVD and PPCA linear in D; SSVD "
              "communication linear in N; sPCA communication flat in N");
  SweepDimension(registry);
  SweepRows(registry);
}

}  // namespace
}  // namespace spca::bench

int main(int argc, char** argv) {
  spca::bench::BenchEnv env(argc, argv);
  spca::bench::Run(env.registry());
  return 0;
}
