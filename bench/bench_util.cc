#include "bench_util.h"

#include <climits>
#include <cstdlib>
#include <utility>

#include "common/check.h"
#include "common/flags.h"
#include "core/reconstruction_error.h"
#include "obs/export.h"

namespace spca::bench {

namespace {

constexpr const char* kBenchUsage =
    "benchmark flags:\n"
    "  --metrics            print the metrics table after the bench\n"
    "  --trace-out FILE     write a Chrome trace (chrome://tracing) at exit\n"
    "  --trace-stream FILE  stream spans as JSON lines while running\n"
    "  --flush-every N      streaming flush window in jobs (default 32)\n"
    "  --fault-rate P       deterministic task failure probability\n"
    "  --straggler-rate P   straggler probability\n"
    "  --straggler-slowdown F  straggler compute multiplier (default 4)\n"
    "  --max-retries N      retries per task (default 3)\n"
    "  --retry-backoff SEC  rescheduling delay charged per retry\n"
    "  --fault-seed N       seed of the fault schedule\n";

// Installed by BenchEnv from the fault flags; consulted by every Run*
// helper (results are bit-identical either way — only the charged
// recovery cost changes).
dist::FaultPlan g_fault_plan;

// Applies the bench-wide fault plan to a freshly constructed engine.
void ApplyBenchFaults(dist::Engine* engine) {
  if (g_fault_plan.active()) engine->SetFaultPlan(g_fault_plan);
}

// The RunOutcome row of one solve, labelled `algorithm`.
RunOutcome ToOutcome(std::string algorithm,
                     StatusOr<core::SolveResult> result) {
  RunOutcome outcome;
  outcome.algorithm = std::move(algorithm);
  if (!result.ok()) {
    outcome.failure = result.status().code() == StatusCode::kOutOfMemory
                          ? "Fail (driver OOM)"
                          : result.status().ToString();
    return outcome;
  }
  core::SolveResult& solve = result.value();
  outcome.ok = true;
  outcome.simulated_seconds = solve.stats.simulated_seconds;
  outcome.wall_seconds = solve.stats.wall_seconds;
  outcome.iterations = solve.iterations_run;
  outcome.stats = solve.stats;
  outcome.driver_bytes = solve.driver_bytes;
  if (!solve.trace.empty()) {
    outcome.accuracy_percent = solve.trace.back().accuracy_percent;
  }
  outcome.model = std::move(solve.model);
  return outcome;
}

}  // namespace

const dist::FaultPlan& BenchFaultPlan() { return g_fault_plan; }

BenchEnv::BenchEnv(int argc, char** argv) {
  std::string stream_path;
  size_t flush_every = obs::TraceStreamer::kDefaultFlushEveryJobs;
  dist::FaultSpec fault_spec;
  int max_retries = fault_spec.max_task_attempts - 1;
  FlagSet flags;
  flags.Bool("--metrics", &print_metrics_);
  flags.String("--trace-out", &trace_out_path_);
  flags.String("--trace-stream", &stream_path);
  flags.Int("--flush-every", &flush_every, size_t{1});
  flags.Double("--fault-rate", &fault_spec.task_failure_probability);
  flags.Double("--straggler-rate", &fault_spec.straggler_probability);
  flags.Double("--straggler-slowdown", &fault_spec.straggler_slowdown);
  flags.Int("--max-retries", &max_retries, 0);
  flags.Double("--retry-backoff", &fault_spec.retry_backoff_sec);
  flags.Int("--fault-seed", &fault_spec.seed);
  Status status = flags.Parse(argc, argv);
  if (status.ok()) {
    // Saturates instead of overflowing the int attempt count.
    fault_spec.max_task_attempts =
        max_retries < INT_MAX ? max_retries + 1 : INT_MAX;
    status = fault_spec.Validate();
  }
  if (!status.ok()) std::exit(FlagError(status, kBenchUsage));
  g_fault_plan = dist::FaultPlan(fault_spec);
  if (g_fault_plan.active()) {
    std::printf(
        "[fault injection: rate %.3g, straggler %.3g x%.3g, max retries %d, "
        "seed %llu — results identical, recovery cost charged]\n",
        fault_spec.task_failure_probability,
        fault_spec.straggler_probability, fault_spec.straggler_slowdown,
        fault_spec.max_task_attempts - 1,
        static_cast<unsigned long long>(fault_spec.seed));
  }
  if (!stream_path.empty()) {
    streamer_ = std::make_unique<obs::TraceStreamer>(&registry_, flush_every);
    status = streamer_->Open(stream_path);
    if (!status.ok()) {
      std::fprintf(stderr, "--trace-stream: %s\n",
                   status.ToString().c_str());
      std::exit(2);
    }
  }
}

BenchEnv::~BenchEnv() {
  if (streamer_ != nullptr && streamer_->is_open()) {
    const std::string path = streamer_->path();
    const Status status = streamer_->Close();
    if (status.ok()) {
      std::printf("\n[streamed %zu spans in %zu flushes to %s]\n",
                  streamer_->spans_written(), streamer_->flushes(),
                  path.c_str());
    } else {
      std::fprintf(stderr, "trace stream: %s\n", status.ToString().c_str());
    }
  }
  if (!trace_out_path_.empty()) {
    const Status status =
        obs::WriteFile(trace_out_path_, obs::ChromeTraceJson(registry_));
    if (status.ok()) {
      std::printf("\n[trace written to %s]\n", trace_out_path_.c_str());
    } else {
      std::fprintf(stderr, "--trace-out: %s\n", status.ToString().c_str());
    }
  }
  if (print_metrics_) {
    std::printf("\n--- metrics ---\n%s", obs::MetricsTable(registry_).c_str());
  }
}

dist::ClusterSpec PaperSpec() {
  dist::ClusterSpec spec;  // defaults already mirror the paper's cluster
  return spec;
}

double BenchScale() {
  const char* env = std::getenv("SPCA_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double scale = std::atof(env);
  return scale > 0.0 ? scale : 1.0;
}

size_t ScaledRows(size_t rows) {
  const double scaled = static_cast<double>(rows) * BenchScale();
  return scaled < 2.0 ? 2 : static_cast<size_t>(scaled);
}

double DatasetIdealError(const dist::DistMatrix& matrix, size_t d) {
  core::SpcaOptions probe;
  const auto indices = core::SampleRowIndices(
      matrix.rows(), probe.error_sample_rows, core::kErrorSampleSeed);
  const dist::DistMatrix sample = matrix.SampleRows(indices, 1);
  auto ideal = core::ConvergedIdealError(PaperSpec(), matrix, d, sample);
  SPCA_CHECK_MSG(ideal.ok(), "dataset ideal-error fit failed");
  return ideal.value();
}

RunOutcome RunSpca(dist::EngineMode mode, const dist::DistMatrix& matrix,
                   size_t d, double target_accuracy, int max_iterations,
                   bool smart_guess, double ideal_error,
                   obs::Registry* registry) {
  const char* algorithm = smart_guess ? "sPCA-SG"
                          : mode == dist::EngineMode::kMapReduce
                              ? "sPCA-MapReduce"
                              : "sPCA-Spark";
  dist::Engine engine(PaperSpec(), mode, registry);
  ApplyBenchFaults(&engine);
  core::SpcaOptions options;
  options.num_components = d;
  options.max_iterations = max_iterations;
  options.target_accuracy_fraction = target_accuracy;
  options.smart_guess = smart_guess;
  options.ideal_error_override = ideal_error;
  options.driver_moments = false;  // Algorithm 4's job sequence
  RunOutcome outcome =
      ToOutcome(algorithm, core::Spca(&engine, options).Solve(matrix));
  // sPCA's driver footprint is the engine's peak reservation.
  if (outcome.ok) outcome.driver_bytes = engine.peak_driver_memory();
  return outcome;
}

RunOutcome RunMahoutPca(const dist::DistMatrix& matrix, size_t d,
                        double target_accuracy, int max_power_iterations,
                        double ideal_error, obs::Registry* registry) {
  dist::Engine engine(PaperSpec(), dist::EngineMode::kMapReduce, registry);
  ApplyBenchFaults(&engine);
  baselines::SsvdOptions options;
  options.num_components = d;
  options.max_power_iterations = max_power_iterations;
  options.target_accuracy_fraction = target_accuracy;
  options.ideal_error_override = ideal_error;
  return ToOutcome("Mahout-PCA",
                   baselines::SsvdPca(&engine, options).Solve(matrix));
}

RunOutcome RunMllibPca(const dist::DistMatrix& matrix, size_t d,
                       obs::Registry* registry) {
  dist::Engine engine(PaperSpec(), dist::EngineMode::kSpark, registry);
  ApplyBenchFaults(&engine);
  baselines::CovEigOptions options;
  options.num_components = d;
  // Keep the stand-in subspace iteration affordable on one machine; the
  // charged simulated cost is the full dense eigendecomposition regardless.
  options.subspace_iterations = 60;
  return ToOutcome("MLlib-PCA",
                   baselines::CovEigPca(&engine, options).Solve(matrix));
}

std::string SizeLabel(size_t rows, size_t cols) {
  auto compact = [](size_t v) -> std::string {
    char buf[32];
    if (v >= 1000000) {
      std::snprintf(buf, sizeof(buf), "%.2gM", v / 1e6);
    } else if (v >= 1000) {
      std::snprintf(buf, sizeof(buf), "%.3gK", v / 1e3);
    } else {
      std::snprintf(buf, sizeof(buf), "%zu", v);
    }
    return buf;
  };
  return compact(rows) + " x " + compact(cols);
}

double ReplayAtScale(
    const std::vector<dist::JobTrace>& traces, const dist::CommStats& stats,
    const dist::ClusterSpec& spec, dist::EngineMode mode, double row_scale,
    const std::function<double(const dist::JobTrace&)>&
        intermediate_row_scale,
    obs::Registry* registry, const std::string& label, double sim_start_sec) {
  return dist::ReplayRun(
      traces, stats, spec, mode,
      [&](const dist::JobTrace& trace) {
        dist::ReplayScales scales;
        scales.flops = row_scale;
        scales.input_bytes = row_scale;
        scales.intermediate_bytes = intermediate_row_scale(trace);
        scales.result_bytes = 1.0;
        return scales;
      },
      registry, label, sim_start_sec);
}

void PrintHeader(const std::string& title, const std::string& subtitle) {
  std::printf("\n=== %s ===\n%s\n", title.c_str(), subtitle.c_str());
  std::printf(
      "(simulated times assume the paper's 8-node/64-core cluster; datasets "
      "are synthetic, scaled-down analogues — see DESIGN.md)\n\n");
}

}  // namespace spca::bench
