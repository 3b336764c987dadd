// spca_stream — train-while-serving: ingest an unbounded (optionally
// drifting) row stream with a streaming solver, periodically snapshot the
// model and hot-swap it into a live ModelRegistry while closed-loop query
// traffic keeps flowing against the ProjectionService.
//
//   # Drifting stream, mini-batch EM, a swap every 8 batches, 4 query
//   # threads hammering the service the whole time:
//   spca_stream --solver minibatch --dim 256 --rank 8 --components 8
//               --batches 48 --publish-every 8 --drift-every 16
//               --serve-concurrency 4 --metrics
//
// Run with --help for the full flag list.

#include <atomic>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "dist/engine.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "serve/model_registry.h"
#include "serve/service.h"
#include "stream/pipeline.h"
#include "stream/publisher.h"
#include "stream/stream_solver.h"
#include "workload/load_gen.h"
#include "workload/row_stream.h"

namespace {

using spca::Status;

constexpr const char* kUsage = R"(spca_stream — streaming PCA with hot model swaps

Stream:
  --dim D               row dimensionality (default 256)
  --rank K              true generating rank (default 8)
  --batch-rows N        rows per mini-batch (default 256)
  --batches N           mini-batches to ingest (default 48)
  --partitions N        partitions per batch (default 4)
  --drift-every N       rotate the true subspace every N batches (default 16;
                        0 = stationary stream)
  --drift-amount F      drift step magnitude (default 0.15)
  --noise F             observation noise stddev (default 0.05)
  --seed N              stream + solver seed (default 1)

Solver:
  --solver NAME         minibatch (default) | oja
  --components D        principal components (default = --rank)
  --decay F             EMA decay for running statistics (default 0.2;
                        0 = flat average, for stationary streams)
  --eta0 F --tau F      Oja learning-rate schedule eta0/(1+t/tau)
  --reorth-every N      Oja lazy reorthonormalization period (default 8)

Publishing:
  --publish-every N     snapshot + hot-swap every N batches (default 8)
  --name NAME           registry name served (default "stream")
  --spool PATH          durable spool file: publish via SaveModel + atomic
                        rename + registry Load instead of in-memory install
  --background-publisher  publish from a dedicated thread (swaps overlap
                        ingestion; latest snapshot wins)
  --checkpoint-every-batches N  durably checkpoint the solver every N
                        ingested batches (default 0 = never); a killed run
                        restarts from the latest checkpointed batch
                        boundary, bit-identical to never having died
  --checkpoint-path PATH  where the checkpoint pair (model + solver resume
                        sidecar) lands; required when checkpointing

Serving (query traffic during ingest):
  --serve-concurrency N closed-loop query driver threads (default 2;
                        0 = no query traffic)
  --threads N           service worker threads (default 2)
  --batch-max N         service batch size bound (default 32)
  --queue-cap N         admission-control queue bound (default 1024)

Cluster model:
  --nodes N             simulated cluster nodes (default 8)

Checks / output:
  --require-swaps N     exit non-zero unless at least N hot swaps landed
  --metrics             print the metrics registry at exit

Flags accept both "--flag value" and "--flag=value".
)";

struct Options {
  size_t dim = 256;
  size_t rank = 8;
  size_t batch_rows = 256;
  size_t batches = 48;
  size_t partitions = 4;
  size_t drift_every = 16;
  double drift_amount = 0.15;
  double noise = 0.05;
  uint64_t seed = 1;

  std::string solver = "minibatch";
  size_t components = 0;  // 0: defaults to rank
  double decay = 0.2;
  double eta0 = 2.0;
  double tau = 50.0;
  size_t reorth_every = 8;

  size_t publish_every = 8;
  std::string name = "stream";
  std::string spool;
  bool background_publisher = false;
  size_t checkpoint_every = 0;
  std::string checkpoint_path;

  size_t serve_concurrency = 2;
  size_t threads = 2;
  size_t batch_max = 32;
  size_t queue_cap = 1024;

  int nodes = 8;
  size_t require_swaps = 0;
  bool print_metrics = false;
  bool help = false;
};

Status ParseOptions(int argc, char** argv, Options* out) {
  spca::FlagSet flags;
  flags.Int("--dim", &out->dim, size_t{1});
  flags.Int("--rank", &out->rank, size_t{1});
  flags.Int("--batch-rows", &out->batch_rows, size_t{1});
  flags.Int("--batches", &out->batches, size_t{1});
  flags.Int("--partitions", &out->partitions, size_t{1});
  flags.Int("--drift-every", &out->drift_every);
  flags.Double("--drift-amount", &out->drift_amount);
  flags.Double("--noise", &out->noise);
  flags.Int("--seed", &out->seed);
  flags.String("--solver", &out->solver);
  flags.Int("--components", &out->components);
  flags.Double("--decay", &out->decay);
  flags.Double("--eta0", &out->eta0);
  flags.Double("--tau", &out->tau);
  flags.Int("--reorth-every", &out->reorth_every);
  flags.Int("--publish-every", &out->publish_every);
  flags.String("--name", &out->name);
  flags.String("--spool", &out->spool);
  flags.Bool("--background-publisher", &out->background_publisher);
  flags.Int("--checkpoint-every-batches", &out->checkpoint_every);
  flags.String("--checkpoint-path", &out->checkpoint_path);
  flags.Int("--serve-concurrency", &out->serve_concurrency);
  flags.Int("--threads", &out->threads, size_t{1});
  flags.Int("--batch-max", &out->batch_max, size_t{1});
  flags.Int("--queue-cap", &out->queue_cap);
  flags.Int("--nodes", &out->nodes, 1);
  flags.Int("--require-swaps", &out->require_swaps);
  flags.Bool("--metrics", &out->print_metrics);
  flags.Bool("--help", &out->help);
  SPCA_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (out->help) return Status::Ok();
  if (out->rank > out->dim) {
    return Status::InvalidArgument("--rank must be <= --dim");
  }
  if (out->components == 0) out->components = out->rank;
  if (out->solver != "minibatch" && out->solver != "oja") {
    return Status::InvalidArgument("--solver must be minibatch or oja");
  }
  if (out->checkpoint_every > 0 && out->checkpoint_path.empty()) {
    return Status::InvalidArgument(
        "--checkpoint-every-batches requires --checkpoint-path");
  }
  return Status::Ok();
}

/// Closed-loop query drivers: each keeps one dense projection request
/// outstanding against the service until told to stop. Queries start before
/// the first publish (kNoModel responses) and keep flowing across every hot
/// swap — the train-while-serving traffic the swap protocol must not tear.
struct QueryTraffic {
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> no_model{0};
  std::atomic<uint64_t> other{0};
  std::vector<std::thread> drivers;

  void Start(spca::serve::ProjectionService* service, const std::string& model,
             size_t concurrency, size_t dim, uint64_t seed) {
    spca::workload::QuerySetConfig config;
    config.num_queries = 256;
    config.dim = dim;
    config.dense = true;
    config.seed = seed + 0x9e3779b9ull;
    auto queries = std::make_shared<std::vector<spca::workload::Query>>(
        spca::workload::GenerateQueries(config));
    for (size_t t = 0; t < concurrency; ++t) {
      drivers.emplace_back([this, service, model, queries, t] {
        size_t i = t;
        while (!stop.load(std::memory_order_relaxed)) {
          spca::serve::ProjectionRequest request;
          request.model = model;
          request.dense = (*queries)[i % queries->size()].dense;
          auto response = service->Submit(std::move(request)).get();
          switch (response.outcome) {
            case spca::serve::RequestOutcome::kOk:
              ok.fetch_add(1, std::memory_order_relaxed);
              break;
            case spca::serve::RequestOutcome::kNoModel:
              no_model.fetch_add(1, std::memory_order_relaxed);
              break;
            default:
              other.fetch_add(1, std::memory_order_relaxed);
              break;
          }
          i += 7;  // stride through the query set
        }
      });
    }
  }

  void Stop() {
    stop.store(true);
    for (auto& driver : drivers) driver.join();
    drivers.clear();
  }
};

int Main(int argc, char** argv) {
  Options options;
  if (const Status status = ParseOptions(argc, argv, &options); !status.ok()) {
    return spca::FlagError(status, kUsage);
  }
  if (options.help) {
    std::fputs(kUsage, stdout);
    return 0;
  }

  spca::obs::Registry registry;
  spca::serve::ModelRegistry models(&registry);

  spca::serve::ServiceOptions service_options;
  service_options.num_threads = options.threads;
  service_options.batch_max = options.batch_max;
  service_options.queue_capacity = options.queue_cap;
  service_options.metrics = &registry;
  spca::serve::ProjectionService service(&models, service_options);
  if (const Status status = service.Start(); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  QueryTraffic traffic;
  if (options.serve_concurrency > 0) {
    traffic.Start(&service, options.name, options.serve_concurrency,
                  options.dim, options.seed);
  }

  spca::dist::ClusterSpec spec;
  spec.num_nodes = options.nodes;
  spca::dist::Engine engine(spec, spca::dist::EngineMode::kSpark, &registry);

  spca::stream::StreamSolverOptions solver_options;
  solver_options.num_components = options.components;
  solver_options.seed = options.seed;
  solver_options.decay = options.decay;
  solver_options.eta0 = options.eta0;
  solver_options.tau = options.tau;
  solver_options.reorth_every = options.reorth_every;
  std::unique_ptr<spca::core::Solver> solver;
  if (options.solver == "oja") {
    solver =
        std::make_unique<spca::stream::OjaSolver>(&engine, solver_options);
  } else {
    solver = std::make_unique<spca::stream::MiniBatchEmSolver>(
        &engine, solver_options);
  }
  if (const Status status = solver->Init({}); !status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }

  spca::stream::PublisherOptions publisher_options;
  publisher_options.registry = &models;
  publisher_options.model_name = options.name;
  publisher_options.spool_path = options.spool;
  publisher_options.metrics = &registry;
  spca::stream::ModelPublisher publisher(publisher_options);

  spca::workload::RowStreamConfig stream_config;
  stream_config.dim = options.dim;
  stream_config.rank = options.rank;
  stream_config.batch_rows = options.batch_rows;
  stream_config.partitions_per_batch = options.partitions;
  stream_config.noise_stddev = options.noise;
  stream_config.drift_every_batches = options.drift_every;
  stream_config.drift_amount = options.drift_amount;
  stream_config.seed = options.seed;
  spca::workload::RowStream stream(stream_config);

  spca::stream::StreamPipelineOptions pipeline_options;
  pipeline_options.publish_every_batches = options.publish_every;
  pipeline_options.max_batches = options.batches;
  pipeline_options.background_publisher = options.background_publisher;
  pipeline_options.checkpoint_every_batches = options.checkpoint_every;
  pipeline_options.checkpoint_path = options.checkpoint_path;
  pipeline_options.metrics = &registry;
  spca::stream::StreamPipeline pipeline(solver.get(), &publisher,
                                        pipeline_options);

  std::printf(
      "streaming %s: dim=%zu rank=%zu components=%zu, %zu batches x %zu "
      "rows, drift every %zu batches, publish every %zu (%s)\n",
      options.solver.c_str(), options.dim, options.rank, options.components,
      options.batches, options.batch_rows, options.drift_every,
      options.publish_every, options.spool.empty()
                                 ? "in-memory install"
                                 : ("spool " + options.spool).c_str());
  if (options.checkpoint_every > 0) {
    std::printf("checkpointing every %zu batches to %s\n",
                options.checkpoint_every, options.checkpoint_path.c_str());
  }

  auto summary = pipeline.Run(
      [&]() -> std::optional<spca::dist::DistMatrix> {
        return stream.NextBatch();
      },
      [&]() { return stream.basis(); });
  if (options.serve_concurrency > 0) traffic.Stop();
  service.Stop();
  if (!summary.ok()) {
    std::fprintf(stderr, "error: %s\n", summary.status().ToString().c_str());
    return 1;
  }

  const auto& run = summary.value();
  std::printf("ingested %llu rows in %zu batches (%.0f rows/sec), "
              "%zu hot swaps (%zu failed), %zu drift events\n",
              static_cast<unsigned long long>(run.rows_ingested), run.batches,
              run.wall_seconds > 0.0 ? run.rows_ingested / run.wall_seconds
                                     : 0.0,
              run.publishes, run.publish_failures, stream.drifts_applied());
  if (options.checkpoint_every > 0) {
    std::printf("wrote %zu checkpoints to %s\n", run.checkpoints,
                options.checkpoint_path.c_str());
  }
  double previous_angle = -1.0;
  for (const auto& publish : run.publish_log) {
    const double degrees = publish.angle_to_reference_rad * 180.0 /
                           3.14159265358979323846;
    std::printf("  swap gen %llu after batch %zu: angle to true basis "
                "%6.2f deg%s, swap latency %.2f ms%s\n",
                static_cast<unsigned long long>(publish.generation),
                publish.after_batches, degrees,
                previous_angle >= 0.0
                    ? (degrees < previous_angle ? " (improved)" : " (drifted)")
                    : "",
                publish.swap_latency_sec * 1e3, publish.ok ? "" : " FAILED");
    previous_angle = degrees;
  }
  if (options.serve_concurrency > 0) {
    std::printf("query traffic: %llu ok, %llu before first swap (no model), "
                "%llu other\n",
                static_cast<unsigned long long>(traffic.ok.load()),
                static_cast<unsigned long long>(traffic.no_model.load()),
                static_cast<unsigned long long>(traffic.other.load()));
  }
  const auto info = models.GetInfo(options.name);
  if (info.has_value()) {
    std::printf("served model '%s': generation %llu, age %.2f s\n",
                options.name.c_str(),
                static_cast<unsigned long long>(info->generation),
                info->age_seconds);
  }

  if (options.print_metrics) {
    models.RefreshAgeMetrics();
    std::printf("\n%s", spca::obs::MetricsTable(registry).c_str());
  }
  if (options.require_swaps > 0 && run.publishes < options.require_swaps) {
    std::fprintf(stderr, "error: required %zu hot swaps, got %zu\n",
                 options.require_swaps, run.publishes);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
