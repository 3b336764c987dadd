// Simulated-cost regression suite: what each solver costs the modeled
// cluster — jobs launched, task flops, shipped bytes, iterations and
// simulated seconds — rendered to text and compared against a checked-in
// golden file. It covers every algorithm spca_cli's --algorithm accepts,
// built with spca_cli's defaults, on a small tweets matrix under Spark and
// a small biotext matrix under MapReduce, and both stream solvers on a
// short seeded stream.
//
// Every run has a fixed iteration count (target 2.0: no accuracy stop),
// so the file is the same under every kernel dispatch. A change that only
// moves the last bits of a model leaves it alone; a change to any charge
// of the cost model shows up as a one-line diff.
//
// To update after an intentional cost-model change:
//   SPCA_REGENERATE_GOLDEN=1 ./sim_cost_golden_test
// and commit the rewritten tests/golden/sim_cost.golden.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "baselines/cov_eig_pca.h"
#include "baselines/lanczos_pca.h"
#include "baselines/ssvd_pca.h"
#include "baselines/svd_bidiag_pca.h"
#include "core/solver.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "sketch/rand_svd.h"
#include "stream/stream_solver.h"
#include "workload/datasets.h"
#include "workload/row_stream.h"

namespace spca {
namespace {

constexpr size_t kRows = 400;
constexpr size_t kCols = 80;
constexpr size_t kComponents = 4;
constexpr int kIterations = 3;
constexpr double kTarget = 2.0;
constexpr uint64_t kSeed = 1;

const char* const kAlgorithms[] = {"spca",    "mllib",    "mahout",
                                   "lanczos", "bidiag",   "rand_svd",
                                   "spca_sparse"};

/// spca_cli's MakeSolver at its flag defaults, with the sizes above.
std::unique_ptr<core::Solver> MakeCliSolver(const std::string& algorithm,
                                            dist::Engine* engine) {
  if (algorithm == "spca" || algorithm == "spca_sparse") {
    core::SpcaOptions options;
    options.num_components = kComponents;
    options.max_iterations = kIterations;
    options.target_accuracy_fraction = kTarget;
    options.seed = kSeed;
    if (algorithm == "spca_sparse") {
      options.l1_threshold = 0.1;
      options.error_sample_rows = 1000;
    }
    return std::make_unique<core::Spca>(engine, options);
  }
  if (algorithm == "mllib") {
    baselines::CovEigOptions options;
    options.num_components = kComponents;
    options.seed = kSeed;
    return std::make_unique<baselines::CovEigPca>(engine, options);
  }
  if (algorithm == "mahout") {
    baselines::SsvdOptions options;
    options.num_components = kComponents;
    options.max_power_iterations = kIterations;
    options.target_accuracy_fraction = kTarget;
    options.seed = kSeed;
    return std::make_unique<baselines::SsvdPca>(engine, options);
  }
  if (algorithm == "lanczos") {
    baselines::LanczosOptions options;
    options.num_components = kComponents;
    options.seed = kSeed;
    return std::make_unique<baselines::LanczosPca>(engine, options);
  }
  if (algorithm == "bidiag") {
    baselines::SvdBidiagOptions options;
    options.num_components = kComponents;
    return std::make_unique<baselines::SvdBidiagPca>(engine, options);
  }
  sketch::RandSvdOptions options;
  options.num_components = kComponents;
  options.power_iterations = 1;
  options.target_accuracy_fraction = kTarget;
  options.seed = kSeed;
  return std::make_unique<sketch::RandSvdPca>(engine, options);
}

std::string CostLine(const std::string& name, const dist::Engine& engine,
                     int iterations) {
  const dist::CommStats stats = engine.StatsSnapshot();
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "%s jobs=%llu task_flops=%llu shipped_bytes=%llu "
                "iterations=%d sim_seconds=%.17g\n",
                name.c_str(),
                static_cast<unsigned long long>(stats.jobs_launched),
                static_cast<unsigned long long>(stats.task_flops),
                static_cast<unsigned long long>(stats.ShippedBytes()),
                iterations, stats.simulated_seconds);
  return buffer;
}

std::string RenderBatchSection(workload::DatasetKind kind, const char* label,
                               dist::EngineMode mode) {
  std::string out = std::string("[") + label + "]\n";
  const dist::DistMatrix y =
      workload::MakeDataset(kind, kRows, kCols, 16, kSeed).matrix;
  for (const char* algorithm : kAlgorithms) {
    dist::Engine engine(dist::ClusterSpec{}, mode);
    auto solver = MakeCliSolver(algorithm, &engine);
    auto result = core::RunSolver(solver.get(), y, core::FitOptions{});
    if (!result.ok()) {
      ADD_FAILURE() << algorithm << ": " << result.status().ToString();
      continue;
    }
    out += CostLine(algorithm, engine, result.value().iterations_run);
  }
  return out;
}

std::string RenderStreamSection() {
  std::string out = "[stream/spark]\n";
  workload::RowStreamConfig config;
  config.dim = 48;
  config.rank = 3;
  config.batch_rows = 64;
  config.partitions_per_batch = 3;
  config.seed = 11;
  stream::StreamSolverOptions options;
  options.num_components = 3;
  options.seed = 7;
  for (const bool oja : {false, true}) {
    dist::Engine engine(dist::ClusterSpec{}, dist::EngineMode::kSpark);
    std::unique_ptr<stream::StreamSolver> solver;
    if (oja) {
      solver = std::make_unique<stream::OjaSolver>(&engine, options);
    } else {
      solver = std::make_unique<stream::MiniBatchEmSolver>(&engine, options);
    }
    workload::RowStream rows(config);
    Status status = solver->Init(core::FitOptions{});
    for (int batch = 0; status.ok() && batch < 6; ++batch) {
      status = solver->Step(rows.NextBatch());
    }
    if (!status.ok()) {
      ADD_FAILURE() << solver->name() << ": " << status.ToString();
      continue;
    }
    auto result = solver->Result();
    if (!result.ok()) {
      ADD_FAILURE() << solver->name() << ": " << result.status().ToString();
      continue;
    }
    out += CostLine(std::string(solver->name()), engine,
                    result.value().iterations_run);
  }
  return out;
}

std::string Render() {
  return RenderBatchSection(workload::DatasetKind::kTweets, "tweets/spark",
                            dist::EngineMode::kSpark) +
         RenderBatchSection(workload::DatasetKind::kBioText,
                            "biotext/mapreduce",
                            dist::EngineMode::kMapReduce) +
         RenderStreamSection();
}

TEST(SimCostGolden, EverySolversCostMatchesGolden) {
  const std::string rendered = Render();
  ASSERT_FALSE(rendered.empty());

  const std::string golden_path =
      std::string(SPCA_TEST_SRCDIR) + "/golden/sim_cost.golden";
  if (std::getenv("SPCA_REGENERATE_GOLDEN") != nullptr) {
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << rendered;
    ASSERT_TRUE(out.good());
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }

  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (run with SPCA_REGENERATE_GOLDEN=1 to create)";
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(rendered, golden.str())
      << "a solver's simulated cost drifted from the checked-in golden — if "
         "the cost-model change is intentional, regenerate with "
         "SPCA_REGENERATE_GOLDEN=1";
}

}  // namespace
}  // namespace spca
