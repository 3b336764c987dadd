// bench_sketch — the cost-crossover benchmark for the sketching solver
// family (src/sketch/), emitting BENCH_sketch.json plus the Figure 4/5
// crossover table. Every table row is also appended to the metrics
// registry as a solver.fit summary span, so a --trace-out file regenerates
// the printed table byte-for-byte through `trace_report --crossover`.
//
// Regime A ("biotext", sparse bag-of-words): ppca (the paper's sPCA),
// mahout SSVD, mllib cov_eig, the single-pass rand_svd range finder, and
// ppca over a Sparsifier-sampled input — all measured against one shared
// ideal-error anchor, with accuracy recomputed uniformly on the *original*
// matrix sample (so the sparsified run's accuracy loss is honest).
//
// Regime B ("sparse_signal", dense rows with sparse true loadings): ppca
// versus the L1-thresholded sparse-loadings PPCA, reporting the stored
// loadings fraction and the serve-time Projector::QueryFlops both pay.
//
// Gates (all quantities are deterministic under the simulated cost model,
// so the gate is CI-safe across hosts); violations exit 4 after the JSON
// is written:
//   * rand_svd accuracy        >= --gate-accuracy-floor   (default 85)
//   * rand_svd sim_seconds     <  ppca sim_seconds        (matched target)
//   * rand_svd shipped bytes   <= --gate-shipped-ratio * ppca shipped
//   * spca_sparse query flops  <  dense ppca query flops  (regime B)
//
// Usage: bench_sketch [--rows N] [--cols N] [--components d]
//                     [--iterations N] [--target F] [--sparsify-keep P]
//                     [--l1-threshold T]
//                     [--out FILE] [--trace-out FILE] [--seed S]
//                     [--gate-accuracy-floor PCT] [--gate-shipped-ratio R]
// (standalone flags; this bench does not use BenchEnv).

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "core/reconstruction_error.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "obs/trace_report.h"
#include "serve/projector.h"
#include "sketch/rand_svd.h"
#include "sketch/sparsifier.h"
#include "workload/synthetic.h"

namespace {

using spca::bench::RunOutcome;
using spca::obs::CrossoverRow;
using spca::obs::JsonNumber;

constexpr const char* kUsage =
    "usage: bench_sketch [--rows N] [--cols N] [--components d] "
    "[--iterations N] [--target F] [--sparsify-keep P] "
    "[--l1-threshold T] [--out FILE] [--trace-out FILE] [--seed S] "
    "[--gate-accuracy-floor PCT] [--gate-shipped-ratio R]\n";

struct BenchOptions {
  size_t rows = 6000;
  size_t cols = 800;
  size_t components = 10;
  int iterations = 10;
  double target = 0.98;
  double sparsify_keep = 0.25;
  double l1_threshold = 0.1;
  std::string out = "BENCH_sketch.json";
  std::string trace_out;
  uint64_t seed = 1;
  double gate_accuracy_floor = 85.0;
  double gate_shipped_ratio = 0.9;
};

/// One solver's measurement: the crossover row plus the regime-B serving
/// numbers (0 when not applicable).
struct SketchRun {
  CrossoverRow row;
  bool ok = false;
  std::string failure;
  double loadings_nnz_fraction = 0.0;
  double query_flops = 0.0;
};

/// Uniform accuracy for every solver in a regime: sampled 1-norm
/// reconstruction error of the fitted model on the ORIGINAL matrix's
/// sample rows, against the regime's shared ideal anchor. (Solvers fitted
/// on transformed inputs — the sparsified run — are thereby measured on
/// the data they claim to model, not on what they were shown.)
double UniformAccuracy(const spca::dist::DistMatrix& sample,
                       const spca::core::PcaModel& model, double ideal_error) {
  const double error = spca::core::SampledReconstructionError(
      sample, model.components, model.mean);
  return spca::core::AccuracyPercent(error, ideal_error);
}

SketchRun FromOutcome(const std::string& solver, const RunOutcome& outcome,
                      const spca::dist::DistMatrix& matrix,
                      const spca::dist::DistMatrix& sample,
                      size_t d, double ideal_error) {
  SketchRun run;
  run.row.solver = solver;
  run.row.rows = static_cast<double>(matrix.rows());
  run.row.cols = static_cast<double>(matrix.cols());
  run.row.components = static_cast<double>(d);
  run.ok = outcome.ok;
  run.failure = outcome.failure;
  if (!outcome.ok) return run;
  run.row.iterations = static_cast<double>(outcome.iterations);
  run.row.sim_seconds = outcome.stats.simulated_seconds;
  run.row.accuracy_percent = UniformAccuracy(sample, outcome.model,
                                             ideal_error);
  run.row.shipped_bytes = static_cast<double>(outcome.stats.ShippedBytes());
  run.row.jobs = static_cast<double>(outcome.stats.jobs_launched);
  return run;
}

SketchRun FromResult(const std::string& solver,
                     const spca::StatusOr<spca::core::SolveResult>& result,
                     const spca::dist::DistMatrix& matrix,
                     const spca::dist::DistMatrix& sample,
                     size_t d, double ideal_error) {
  SketchRun run;
  run.row.solver = solver;
  run.row.rows = static_cast<double>(matrix.rows());
  run.row.cols = static_cast<double>(matrix.cols());
  run.row.components = static_cast<double>(d);
  if (!result.ok()) {
    run.failure = result.status().ToString();
    return run;
  }
  run.ok = true;
  run.row.iterations = static_cast<double>(result.value().iterations_run);
  run.row.sim_seconds = result.value().stats.simulated_seconds;
  run.row.accuracy_percent = UniformAccuracy(sample, result.value().model,
                                             ideal_error);
  run.row.shipped_bytes =
      static_cast<double>(result.value().stats.ShippedBytes());
  run.row.jobs = static_cast<double>(result.value().stats.jobs_launched);
  return run;
}

/// Serve-side cost of one dense query against the fitted model: the stored
/// loadings fraction and Projector::QueryFlops(cols).
void AttachServingCost(SketchRun* run, const spca::core::PcaModel& model) {
  auto projector = spca::serve::Projector::Create(model);
  if (!projector.ok()) return;
  const double dense_nnz = static_cast<double>(model.input_dim()) *
                           static_cast<double>(model.num_components());
  run->loadings_nnz_fraction =
      dense_nnz > 0.0
          ? static_cast<double>(projector->component_nnz()) / dense_nnz
          : 0.0;
  run->query_flops =
      static_cast<double>(projector->QueryFlops(model.input_dim()));
}

std::string RunJson(const SketchRun& run) {
  std::string json = "      {\"solver\":\"" + run.row.solver + "\"";
  json += ",\"ok\":" + std::string(run.ok ? "true" : "false");
  json += ",\"iterations\":" + JsonNumber(run.row.iterations);
  json += ",\"sim_seconds\":" + JsonNumber(run.row.sim_seconds);
  json += ",\"accuracy_percent\":" + JsonNumber(run.row.accuracy_percent);
  json += ",\"shipped_bytes\":" + JsonNumber(run.row.shipped_bytes);
  json += ",\"jobs\":" + JsonNumber(run.row.jobs);
  json += ",\"loadings_nnz_fraction\":" +
          JsonNumber(run.loadings_nnz_fraction);
  json += ",\"query_flops\":" + JsonNumber(run.query_flops);
  json += "}";
  return json;
}

int Main(int argc, char** argv) {
  BenchOptions options;
  spca::FlagSet flags;
  flags.Int("--rows", &options.rows, size_t{1});
  flags.Int("--cols", &options.cols, size_t{1});
  flags.Int("--components", &options.components, size_t{1});
  flags.Int("--iterations", &options.iterations, 0);
  flags.Double("--target", &options.target);
  flags.Double("--sparsify-keep", &options.sparsify_keep);
  flags.Double("--l1-threshold", &options.l1_threshold);
  flags.String("--out", &options.out);
  flags.String("--trace-out", &options.trace_out);
  flags.Int("--seed", &options.seed);
  flags.Double("--gate-accuracy-floor", &options.gate_accuracy_floor);
  flags.Double("--gate-shipped-ratio", &options.gate_shipped_ratio);
  spca::Status status = flags.Parse(argc, argv);
  if (status.ok() &&
      !(options.sparsify_keep > 0.0 && options.sparsify_keep <= 1.0)) {
    status =
        spca::Status::InvalidArgument("--sparsify-keep must be in (0, 1]");
  }
  if (!status.ok()) return spca::FlagError(status, kUsage);

  spca::obs::Registry registry;
  const size_t d = options.components;

  // ---- Regime A: sparse bag-of-words (the paper's Bio-Text shape) ------
  spca::bench::PrintHeader(
      "bench_sketch / regime A (biotext)",
      "sparse bag-of-words " + spca::bench::SizeLabel(options.rows,
                                                      options.cols) +
          ", shared ideal anchor, accuracy on the original sample");
  const spca::dist::DistMatrix matrix =
      spca::workload::MakeDataset(spca::workload::DatasetKind::kBioText,
                                  options.rows, options.cols, 16,
                                  options.seed)
          .matrix;
  const auto sample_indices = spca::core::SampleRowIndices(
      matrix.rows(), spca::core::SpcaOptions{}.error_sample_rows,
      spca::core::kErrorSampleSeed);
  const spca::dist::DistMatrix sample = matrix.SampleRows(sample_indices, 1);
  const double ideal = spca::bench::DatasetIdealError(matrix, d);
  std::printf("ideal sampled error: %.6f\n", ideal);

  std::vector<SketchRun> regime_a;
  regime_a.push_back(FromOutcome(
      "ppca",
      spca::bench::RunSpca(spca::dist::EngineMode::kSpark, matrix, d,
                           options.target, options.iterations, false, ideal,
                           &registry),
      matrix, sample, d, ideal));
  regime_a.push_back(FromOutcome(
      "mahout_ssvd",
      spca::bench::RunMahoutPca(matrix, d, options.target,
                                options.iterations, ideal, &registry),
      matrix, sample, d, ideal));
  regime_a.push_back(
      FromOutcome("mllib_cov_eig",
                  spca::bench::RunMllibPca(matrix, d, &registry), matrix,
                  sample, d, ideal));
  {
    spca::dist::Engine engine(spca::bench::PaperSpec(),
                              spca::dist::EngineMode::kSpark, &registry);
    spca::sketch::RandSvdOptions rand_options;
    rand_options.num_components = d;
    rand_options.power_iterations = 1;
    rand_options.target_accuracy_fraction = options.target;
    rand_options.ideal_error_override = ideal;
    rand_options.seed = options.seed;
    regime_a.push_back(FromResult(
        "rand_svd",
        spca::sketch::RandSvdPca(&engine, rand_options).Solve(matrix),
        matrix, sample, d, ideal));
  }
  {
    spca::sketch::SparsifierOptions sparsify;
    sparsify.keep_probability = options.sparsify_keep;
    sparsify.seed = options.seed;
    const spca::dist::DistMatrix sparsified =
        spca::sketch::Sparsifier(sparsify).Apply(matrix, &registry);
    SketchRun run = FromOutcome(
        "ppca_sparsified",
        spca::bench::RunSpca(spca::dist::EngineMode::kSpark, sparsified, d,
                             options.target, options.iterations, false, ideal,
                             &registry),
        matrix, sample, d, ideal);
    // The fit itself ran on the sparsified rows; the crossover map charges
    // the shape it actually computed on.
    run.row.rows = static_cast<double>(sparsified.rows());
    run.row.cols = static_cast<double>(sparsified.cols());
    regime_a.push_back(std::move(run));
  }
  // The headline sketch.* counter: what entry sampling cost in accuracy,
  // measured on the original data.
  if (regime_a[0].ok && regime_a.back().ok) {
    registry.gauge("sketch.sparsify.accuracy_loss_percent")
        ->Set(regime_a[0].row.accuracy_percent -
              regime_a.back().row.accuracy_percent);
  }

  // ---- Regime B: dense rows, sparse true loadings ----------------------
  spca::workload::SparseSignalConfig signal;
  signal.rows = options.rows < 2400 ? options.rows : 2400;
  signal.seed = options.seed + 16;
  const size_t d_b = signal.rank;
  spca::bench::PrintHeader(
      "bench_sketch / regime B (sparse_signal)",
      "dense " + spca::bench::SizeLabel(signal.rows, signal.cols) +
          ", sparse true loadings: dense PPCA vs L1-thresholded PPCA");
  const spca::dist::DistMatrix matrix_b = spca::dist::DistMatrix::FromDense(
      spca::workload::GenerateSparseSignal(signal), 8);
  const auto sample_indices_b = spca::core::SampleRowIndices(
      matrix_b.rows(), spca::core::SpcaOptions{}.error_sample_rows,
      spca::core::kErrorSampleSeed);
  const spca::dist::DistMatrix sample_b =
      matrix_b.SampleRows(sample_indices_b, 1);
  const double ideal_b = spca::bench::DatasetIdealError(matrix_b, d_b);
  std::printf("ideal sampled error: %.6f\n", ideal_b);

  std::vector<SketchRun> regime_b;
  {
    RunOutcome dense = spca::bench::RunSpca(
        spca::dist::EngineMode::kSpark, matrix_b, d_b, 2.0,
        options.iterations, false, ideal_b, &registry);
    SketchRun run = FromOutcome("ppca", dense, matrix_b, sample_b, d_b,
                                ideal_b);
    if (dense.ok) AttachServingCost(&run, dense.model);
    regime_b.push_back(std::move(run));
  }
  {
    spca::dist::Engine engine(spca::bench::PaperSpec(),
                              spca::dist::EngineMode::kSpark, &registry);
    spca::core::SpcaOptions sparse_options;
    sparse_options.num_components = d_b;
    sparse_options.max_iterations = options.iterations;
    sparse_options.l1_threshold = options.l1_threshold;
    sparse_options.target_accuracy_fraction = 2.0;
    sparse_options.error_sample_rows = 1000;
    sparse_options.ideal_error_override = ideal_b;
    sparse_options.seed = options.seed;
    sparse_options.driver_moments = false;  // Algorithm 4's job sequence
    auto result = spca::core::Spca(&engine, sparse_options).Solve(matrix_b);
    SketchRun run = FromResult("spca_sparse", result, matrix_b, sample_b,
                               d_b, ideal_b);
    if (result.ok()) AttachServingCost(&run, result.value().model);
    regime_b.push_back(std::move(run));
  }

  // ---- Crossover table: printed AND appended to the trace --------------
  std::vector<CrossoverRow> table;
  for (const auto* regime : {&regime_a, &regime_b}) {
    for (const SketchRun& run : *regime) {
      if (!run.ok) {
        std::printf("  %-18s FAILED: %s\n", run.row.solver.c_str(),
                    run.failure.c_str());
        continue;
      }
      table.push_back(run.row);
      spca::obs::AppendCrossoverSpan(&registry, run.row);
    }
  }
  std::fputs("\n", stdout);
  std::fputs(spca::obs::CrossoverTable(table).c_str(), stdout);
  for (const SketchRun& run : regime_b) {
    if (!run.ok) continue;
    std::printf("  %-18s loadings nnz %.3f  query flops %.0f\n",
                run.row.solver.c_str(), run.loadings_nnz_fraction,
                run.query_flops);
  }

  // ---- Gates -----------------------------------------------------------
  const SketchRun* ppca = nullptr;
  const SketchRun* rand_svd = nullptr;
  for (const SketchRun& run : regime_a) {
    if (run.row.solver == "ppca" && run.ok) ppca = &run;
    if (run.row.solver == "rand_svd" && run.ok) rand_svd = &run;
  }
  std::vector<std::string> violations;
  if (ppca == nullptr || rand_svd == nullptr) {
    violations.push_back("ppca or rand_svd run failed");
  } else {
    char reason[192];
    if (rand_svd->row.accuracy_percent < options.gate_accuracy_floor) {
      std::snprintf(reason, sizeof(reason),
                    "rand_svd accuracy %.2f%% below floor %.2f%%",
                    rand_svd->row.accuracy_percent,
                    options.gate_accuracy_floor);
      violations.push_back(reason);
    }
    if (rand_svd->row.sim_seconds >= ppca->row.sim_seconds) {
      std::snprintf(reason, sizeof(reason),
                    "rand_svd sim %.3fs not below ppca sim %.3fs",
                    rand_svd->row.sim_seconds, ppca->row.sim_seconds);
      violations.push_back(reason);
    }
    if (rand_svd->row.shipped_bytes >
        options.gate_shipped_ratio * ppca->row.shipped_bytes) {
      std::snprintf(reason, sizeof(reason),
                    "rand_svd shipped %.0f above %.2f x ppca %.0f",
                    rand_svd->row.shipped_bytes, options.gate_shipped_ratio,
                    ppca->row.shipped_bytes);
      violations.push_back(reason);
    }
  }
  if (regime_b.size() == 2 && regime_b[0].ok && regime_b[1].ok) {
    if (regime_b[1].query_flops >= regime_b[0].query_flops) {
      violations.push_back(
          "spca_sparse query flops not below dense ppca query flops");
    }
  } else {
    violations.push_back("regime B run failed");
  }

  // ---- JSON + trace ----------------------------------------------------
  std::string json = "{\n  \"bench\": \"sketch\",\n";
  json += "  \"schema\": \"spca.bench_sketch.v1\",\n";
  json += "  \"rows\": " + JsonNumber(static_cast<double>(options.rows)) +
          ",\n";
  json += "  \"cols\": " + JsonNumber(static_cast<double>(options.cols)) +
          ",\n";
  json += "  \"components\": " + JsonNumber(static_cast<double>(d)) + ",\n";
  json += "  \"target\": " + JsonNumber(options.target) + ",\n";
  json += "  \"iterations\": " +
          JsonNumber(static_cast<double>(options.iterations)) + ",\n";
  json += "  \"sparsify_keep\": " + JsonNumber(options.sparsify_keep) + ",\n";
  json += "  \"l1_threshold\": " + JsonNumber(options.l1_threshold) + ",\n";
  json += "  \"regimes\": [\n";
  const struct {
    const char* name;
    double ideal;
    const std::vector<SketchRun>* runs;
  } regimes[] = {{"biotext", ideal, &regime_a},
                 {"sparse_signal", ideal_b, &regime_b}};
  for (size_t r = 0; r < 2; ++r) {
    json += "    {\"name\": \"" + std::string(regimes[r].name) + "\",\n";
    json += "     \"ideal_error\": " + JsonNumber(regimes[r].ideal) + ",\n";
    json += "     \"solvers\": [\n";
    const auto& runs = *regimes[r].runs;
    for (size_t i = 0; i < runs.size(); ++i) {
      json += RunJson(runs[i]);
      if (i + 1 < runs.size()) json += ",";
      json += "\n";
    }
    json += "     ]}";
    if (r == 0) json += ",";
    json += "\n";
  }
  json += "  ],\n";
  json += "  \"gates\": {\n";
  json += "    \"accuracy_floor\": " + JsonNumber(options.gate_accuracy_floor) +
          ",\n";
  json += "    \"shipped_ratio\": " + JsonNumber(options.gate_shipped_ratio) +
          ",\n";
  json += "    \"violations\": [";
  for (size_t i = 0; i < violations.size(); ++i) {
    json += "\"" + spca::obs::JsonEscape(violations[i]) + "\"";
    if (i + 1 < violations.size()) json += ",";
  }
  json += "],\n";
  json += "    \"pass\": " +
          std::string(violations.empty() ? "true" : "false") + "\n  }\n}\n";

  status = spca::obs::WriteFile(options.out, json);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", options.out.c_str());
  if (!options.trace_out.empty()) {
    const spca::Status trace_status = spca::obs::WriteFile(
        options.trace_out, spca::obs::ChromeTraceJson(registry));
    if (!trace_status.ok()) {
      std::fprintf(stderr, "error: %s\n", trace_status.ToString().c_str());
      return 1;
    }
    std::printf("wrote trace to %s\n", options.trace_out.c_str());
  }
  if (!violations.empty()) {
    for (const std::string& violation : violations) {
      std::printf("GATE FAIL: %s\n", violation.c_str());
    }
    return 4;
  }
  std::printf("gates OK: rand_svd beats ppca on sim-time and shipped bytes "
              "at >= %.0f%% accuracy; sparse loadings serve cheaper\n",
              options.gate_accuracy_floor);
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
