// bench_stream — streaming-solver benchmark, emitting BENCH_stream.json
// (see EXPERIMENTS.md "Streaming benchmark").
//
// Each streaming solver (mini-batch EM, Oja) ingests the same stationary
// synthetic row stream through the full train-while-serving pipeline
// (solver -> snapshot -> ModelPublisher -> live ModelRegistry), publishing
// every few batches. For every published snapshot the bench refits a
// full-batch sPCA on exactly the rows the stream had emitted by then and
// reports the largest principal angle between the two subspaces — the
// accuracy-vs-full-batch curve — alongside ingest throughput (rows/sec,
// real wall-clock) and snapshot-to-serving swap latency percentiles.
//
// Usage: bench_stream [--out FILE] [--dim D] [--components d]
//                     [--batch-rows N] [--batches N] [--publish-every N]
//                     [--seed S]
// (standalone flags; this bench does not use BenchEnv).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "core/solver.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/registry.h"
#include "serve/model_registry.h"
#include "stream/drift.h"
#include "stream/pipeline.h"
#include "stream/publisher.h"
#include "stream/stream_solver.h"
#include "workload/row_stream.h"

namespace {

using spca::obs::JsonNumber;

constexpr const char* kUsage =
    "usage: bench_stream [--out FILE] [--dim D] "
    "[--components d] [--batch-rows N] [--batches N] "
    "[--publish-every N] [--seed S]\n";

struct BenchOptions {
  std::string out = "BENCH_stream.json";
  size_t dim = 256;
  size_t components = 8;
  size_t batch_rows = 512;
  size_t batches = 24;
  size_t publish_every = 4;
  uint64_t seed = 1;
};

/// One published snapshot compared against the full-batch refit over the
/// same rows.
struct CurvePoint {
  size_t after_batches = 0;
  uint64_t rows = 0;
  double swap_ms = 0.0;
  double angle_vs_truth_deg = 0.0;
  double angle_vs_batch_deg = 0.0;
};

struct SolverRun {
  std::string solver;
  uint64_t rows = 0;
  size_t batches = 0;
  size_t publishes = 0;
  size_t publish_failures = 0;
  double wall_seconds = 0.0;
  double rows_per_sec = 0.0;
  double swap_p50_ms = 0.0;
  double swap_p99_ms = 0.0;
  std::vector<CurvePoint> curve;
};

double QuantileMs(std::vector<double> seconds, double q) {
  if (seconds.empty()) return 0.0;
  std::sort(seconds.begin(), seconds.end());
  const size_t index = std::min(
      seconds.size() - 1, static_cast<size_t>(q * (seconds.size() - 1) + 0.5));
  return 1e3 * seconds[index];
}

std::unique_ptr<spca::core::Solver> MakeStreamSolver(
    const std::string& name, spca::dist::Engine* engine,
    const BenchOptions& options) {
  spca::stream::StreamSolverOptions solver_options;
  solver_options.num_components = options.components;
  solver_options.seed = options.seed + 7;  // never the stream's own seed
  if (name == "oja") {
    return std::make_unique<spca::stream::OjaSolver>(engine, solver_options);
  }
  return std::make_unique<spca::stream::MiniBatchEmSolver>(engine,
                                                           solver_options);
}

SolverRun MeasureSolver(const std::string& name, const BenchOptions& options) {
  spca::dist::Engine engine(spca::dist::ClusterSpec{},
                            spca::dist::EngineMode::kSpark);

  spca::workload::RowStreamConfig stream_config;
  stream_config.dim = options.dim;
  stream_config.rank = options.components;
  stream_config.batch_rows = options.batch_rows;
  stream_config.partitions_per_batch = 4;
  stream_config.drift_every_batches = 0;  // stationary: curve = convergence
  stream_config.seed = options.seed;
  spca::workload::RowStream stream(stream_config);

  spca::obs::Registry metrics;
  spca::serve::ModelRegistry registry(&metrics);
  spca::stream::PublisherOptions publisher_options;
  publisher_options.registry = &registry;
  publisher_options.model_name = "bench";
  publisher_options.metrics = &metrics;
  spca::stream::ModelPublisher publisher(publisher_options);

  auto solver = MakeStreamSolver(name, &engine, options);
  SPCA_CHECK(solver->Init({}).ok());

  // Retain every ingested batch so each published snapshot can be compared
  // against a full-batch refit over exactly the rows seen by then.
  std::vector<spca::dist::DistMatrix> seen;
  seen.reserve(options.batches);

  spca::stream::StreamPipelineOptions pipeline_options;
  pipeline_options.publish_every_batches = options.publish_every;
  pipeline_options.max_batches = options.batches;
  pipeline_options.keep_snapshots = true;
  pipeline_options.metrics = &metrics;
  spca::stream::StreamPipeline pipeline(solver.get(), &publisher,
                                        pipeline_options);
  auto summary = pipeline.Run(
      [&]() -> std::optional<spca::dist::DistMatrix> {
        auto batch = stream.NextBatch();
        seen.push_back(batch);
        return batch;
      },
      [&] { return stream.basis(); });
  SPCA_CHECK(summary.ok());

  SolverRun run;
  run.solver = name;
  run.rows = summary->rows_ingested;
  run.batches = summary->batches;
  run.publishes = summary->publishes;
  run.publish_failures = summary->publish_failures;
  run.wall_seconds = summary->wall_seconds;
  run.rows_per_sec = summary->wall_seconds > 0.0
                         ? static_cast<double>(summary->rows_ingested) /
                               summary->wall_seconds
                         : 0.0;

  std::vector<double> swap_seconds;
  for (const auto& record : summary->publish_log) {
    swap_seconds.push_back(record.swap_latency_sec);
  }
  run.swap_p50_ms = QuantileMs(swap_seconds, 0.50);
  run.swap_p99_ms = QuantileMs(swap_seconds, 0.99);

  // Full-batch refits: one cold sPCA fit per publish point, over the prefix
  // of the stream the snapshot had seen. The angle between the streaming
  // snapshot and this refit is the accuracy-vs-full-batch curve.
  spca::core::SpcaOptions batch_options;
  batch_options.num_components = options.components;
  batch_options.max_iterations = 10;
  batch_options.target_accuracy_fraction = 2.0;  // fixed iteration count
  batch_options.compute_accuracy_trace = false;
  batch_options.seed = options.seed + 7;
  const spca::core::Spca batch_solver(&engine, batch_options);
  for (const auto& record : summary->publish_log) {
    SPCA_CHECK(record.snapshot.has_value());
    CurvePoint point;
    point.after_batches = record.after_batches;
    point.rows = record.rows_ingested;
    point.swap_ms = 1e3 * record.swap_latency_sec;
    point.angle_vs_truth_deg =
        record.angle_to_reference_rad >= 0.0
            ? record.angle_to_reference_rad * (180.0 / 3.14159265358979323846)
            : -1.0;
    const std::vector<spca::dist::DistMatrix> prefix(
        seen.begin(), seen.begin() + static_cast<long>(record.after_batches));
    auto y = spca::core::ConcatBatches(prefix);
    SPCA_CHECK(y.ok());
    auto refit = batch_solver.Solve(*y);
    SPCA_CHECK(refit.ok());
    point.angle_vs_batch_deg = spca::stream::SubspaceAngleDegrees(
        record.snapshot->components, refit->model.components);
    run.curve.push_back(point);
  }
  return run;
}

std::string CurveJson(const CurvePoint& point) {
  std::string json = "      {\"after_batches\":" +
                     JsonNumber(static_cast<double>(point.after_batches));
  json += ",\"rows\":" + JsonNumber(static_cast<double>(point.rows));
  json += ",\"swap_ms\":" + JsonNumber(point.swap_ms);
  json += ",\"angle_vs_truth_deg\":" + JsonNumber(point.angle_vs_truth_deg);
  json += ",\"angle_vs_batch_deg\":" + JsonNumber(point.angle_vs_batch_deg);
  json += "}";
  return json;
}

std::string RunJson(const SolverRun& run) {
  std::string json = "    {\"solver\":\"" + run.solver + "\"";
  json += ",\"rows\":" + JsonNumber(static_cast<double>(run.rows));
  json += ",\"batches\":" + JsonNumber(static_cast<double>(run.batches));
  json += ",\"publishes\":" + JsonNumber(static_cast<double>(run.publishes));
  json += ",\"publish_failures\":" +
          JsonNumber(static_cast<double>(run.publish_failures));
  json += ",\"wall_seconds\":" + JsonNumber(run.wall_seconds);
  json += ",\"rows_per_sec\":" + JsonNumber(run.rows_per_sec);
  json += ",\"swap_p50_ms\":" + JsonNumber(run.swap_p50_ms);
  json += ",\"swap_p99_ms\":" + JsonNumber(run.swap_p99_ms);
  json += ",\n     \"curve\":[\n";
  for (size_t i = 0; i < run.curve.size(); ++i) {
    json += CurveJson(run.curve[i]);
    if (i + 1 < run.curve.size()) json += ",";
    json += "\n";
  }
  json += "     ]}";
  return json;
}

int Main(int argc, char** argv) {
  BenchOptions options;
  spca::FlagSet flags;
  flags.String("--out", &options.out);
  flags.Int("--dim", &options.dim, size_t{1});
  flags.Int("--components", &options.components, size_t{1});
  flags.Int("--batch-rows", &options.batch_rows, size_t{1});
  // At least one batch: the row stream is unbounded, so 0 would never end.
  flags.Int("--batches", &options.batches, size_t{1});
  flags.Int("--publish-every", &options.publish_every, size_t{1});
  flags.Int("--seed", &options.seed);
  spca::Status status = flags.Parse(argc, argv);
  if (status.ok() && options.components > options.dim) {
    status = spca::Status::InvalidArgument("--components must be <= --dim");
  }
  if (!status.ok()) return spca::FlagError(status, kUsage);

  std::printf("bench_stream: D=%zu d=%zu, %zu batches x %zu rows, "
              "publish every %zu\n",
              options.dim, options.components, options.batches,
              options.batch_rows, options.publish_every);

  std::vector<SolverRun> runs;
  for (const char* name : {"minibatch_em", "oja"}) {
    runs.push_back(MeasureSolver(name, options));
    const SolverRun& run = runs.back();
    std::printf("  %-12s %9.0f rows/s  %zu publishes  swap p50 %6.3f ms "
                "p99 %6.3f ms\n",
                run.solver.c_str(), run.rows_per_sec, run.publishes,
                run.swap_p50_ms, run.swap_p99_ms);
    for (const CurvePoint& point : run.curve) {
      std::printf("    after %2zu batches: vs truth %6.2f deg, "
                  "vs full-batch refit %6.2f deg\n",
                  point.after_batches, point.angle_vs_truth_deg,
                  point.angle_vs_batch_deg);
    }
  }

  std::string json = "{\n  \"bench\": \"stream\",\n";
  json += "  \"dim\": " + JsonNumber(static_cast<double>(options.dim)) + ",\n";
  json += "  \"components\": " +
          JsonNumber(static_cast<double>(options.components)) + ",\n";
  json += "  \"batch_rows\": " +
          JsonNumber(static_cast<double>(options.batch_rows)) + ",\n";
  json += "  \"batches\": " + JsonNumber(static_cast<double>(options.batches)) +
          ",\n";
  json += "  \"publish_every\": " +
          JsonNumber(static_cast<double>(options.publish_every)) + ",\n";
  json += "  \"solvers\": [\n";
  for (size_t i = 0; i < runs.size(); ++i) {
    json += RunJson(runs[i]);
    if (i + 1 < runs.size()) json += ",";
    json += "\n";
  }
  json += "  ]\n}\n";
  status = spca::obs::WriteFile(options.out, json);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", options.out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
