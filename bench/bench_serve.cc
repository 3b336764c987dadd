// bench_serve — throughput/latency benchmark of the projection service,
// emitting BENCH_serve.json schema v2 (the serving-layer perf baseline;
// see EXPERIMENTS.md "Serving benchmark").
//
// A synthetic model (Gaussian components, deterministic seed) is saved and
// reloaded through the model file format, then served under a closed-loop
// load at several concurrency levels plus one open-loop point at the
// seeded Poisson arrival schedule. Latency percentiles come from the
// serve.latency_sec fine-bucket histogram — the same numbers spca_serve
// --metrics prints.
//
// The socket leg measures the full SPCQ wire path: --shards service
// shards behind the consistent-hash router fronted by the poll()-loop
// SocketServer, driven by --connections pipelined client connections
// keeping --window requests outstanding each. Its latencies are
// client-side wire round trips (encode -> socket -> parse -> route ->
// batch -> project -> encode -> socket -> decode), so under deep
// pipelining they are queueing-dominated (Little's law: about
// window/qps per connection).
//
// --slo-p99-ms / --slo-min-qps turn the socket point into a regression
// gate: the bench exits non-zero when the measured p99 exceeds or the
// throughput undershoots the bound, and the bounds are recorded in the
// JSON so CI and the checked-in baseline agree on what was promised.
//
// Usage: bench_serve [--out FILE] [--duration SEC] [--threads N]
//                    [--batch-max N] [--dim D] [--components d]
//                    [--shards N] [--connections N] [--window N]
//                    [--models N] [--slo-p99-ms MS] [--slo-min-qps QPS]
//                    [--no-socket]
// (standalone flags; this bench does not use BenchEnv).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/flags.h"
#include "common/rng.h"
#include "net/client.h"
#include "net/server.h"
#include "net/shard_set.h"
#include "obs/json.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "serve/model_io.h"
#include "serve/model_registry.h"
#include "serve/service.h"
#include "workload/load_gen.h"

namespace {

using spca::obs::JsonNumber;

constexpr const char* kUsage =
    "usage: bench_serve [--out FILE] [--duration SEC] "
    "[--threads N] [--batch-max N] [--dim D] "
    "[--components d] [--shards N] [--connections N] "
    "[--window N] [--models N] [--slo-p99-ms MS] "
    "[--slo-min-qps QPS] [--no-socket]\n";

struct BenchOptions {
  std::string out = "BENCH_serve.json";
  double duration_sec = 2.0;
  size_t threads = 4;
  size_t batch_max = 64;
  size_t dim = 2000;
  size_t components = 50;
  // Socket leg.
  bool no_socket = false;
  size_t shards = 4;
  size_t connections = 2;
  size_t window = 1024;  // outstanding requests per connection
  size_t num_models = 8;
  double slo_p99_ms = 0.0;   // 0 = gate off
  double slo_min_qps = 0.0;  // 0 = gate off
};

struct LoadPoint {
  std::string mode;  // "closed" | "open" | "socket"
  double offered_qps = 0.0;  // open loop only
  size_t concurrency = 0;    // closed loop only
  size_t shards = 0;         // socket only
  size_t connections = 0;    // socket only
  size_t window = 0;         // socket only
  uint64_t ok = 0;
  uint64_t shed = 0;
  double seconds = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_batch = 0.0;
};

spca::core::PcaModel SyntheticModel(size_t dim, size_t components) {
  spca::Rng rng(17);
  spca::core::PcaModel model;
  model.components =
      spca::linalg::DenseMatrix::GaussianRandom(dim, components, &rng, 0.1);
  model.mean = spca::linalg::DenseVector(dim);
  for (size_t j = 0; j < dim; ++j) model.mean[j] = rng.NextGaussian(0.0, 0.5);
  model.noise_variance = 0.01;
  return model;
}

LoadPoint MeasurePoint(spca::obs::Registry* registry,
                       spca::serve::ModelRegistry* models,
                       const BenchOptions& options,
                       const std::vector<spca::workload::Query>& queries,
                       double offered_qps, size_t concurrency) {
  registry->ResetMetricsWithPrefix("serve.");
  spca::serve::ServiceOptions service_options;
  service_options.num_threads = options.threads;
  service_options.batch_max = options.batch_max;
  service_options.queue_capacity = 4096;
  service_options.metrics = registry;
  spca::serve::ProjectionService service(models, service_options);
  SPCA_CHECK(service.Start().ok());

  LoadPoint point;
  point.offered_qps = offered_qps;
  point.concurrency = concurrency;
  auto submit = [&](size_t i) {
    spca::serve::ProjectionRequest request;
    request.model = "bench";
    request.sparse = queries[i % queries.size()].sparse;
    return service.Submit(std::move(request));
  };

  const auto start = std::chrono::steady_clock::now();
  if (offered_qps > 0.0) {
    point.mode = "open";
    spca::workload::ArrivalScheduleConfig schedule_config;
    schedule_config.qps = offered_qps;
    schedule_config.num_arrivals =
        static_cast<size_t>(offered_qps * options.duration_sec);
    schedule_config.seed = 3;
    const std::vector<double> schedule =
        spca::workload::GenerateArrivalSchedule(schedule_config);
    std::vector<std::future<spca::serve::ProjectionResponse>> futures;
    futures.reserve(schedule.size());
    for (size_t i = 0; i < schedule.size(); ++i) {
      std::this_thread::sleep_until(
          start +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(schedule[i])));
      futures.push_back(submit(i));
    }
    for (auto& future : futures) {
      const auto outcome = future.get().outcome;
      if (outcome == spca::serve::RequestOutcome::kOk) ++point.ok;
      if (outcome == spca::serve::RequestOutcome::kShed) ++point.shed;
    }
  } else {
    point.mode = "closed";
    std::vector<std::thread> drivers;
    std::vector<uint64_t> ok_per_driver(concurrency, 0);
    const auto deadline =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(options.duration_sec));
    for (size_t t = 0; t < concurrency; ++t) {
      drivers.emplace_back([&, t] {
        size_t i = t;
        while (std::chrono::steady_clock::now() < deadline) {
          if (submit(i).get().outcome == spca::serve::RequestOutcome::kOk) {
            ++ok_per_driver[t];
          }
          i += concurrency;
        }
      });
    }
    for (auto& driver : drivers) driver.join();
    for (const uint64_t n : ok_per_driver) point.ok += n;
  }
  point.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  service.Stop();

  point.qps = point.seconds > 0.0 ? static_cast<double>(point.ok) /
                                        point.seconds
                                  : 0.0;
  if (const auto* latency = registry->FindHistogram("serve.latency_sec");
      latency != nullptr && latency->count() > 0) {
    point.p50_ms = 1e3 * latency->Quantile(0.50);
    point.p95_ms = 1e3 * latency->Quantile(0.95);
    point.p99_ms = 1e3 * latency->Quantile(0.99);
  }
  if (const auto* batches = registry->FindCounter("serve.batches");
      batches != nullptr && batches->value() > 0) {
    point.mean_batch = static_cast<double>(point.ok) / batches->value();
  }
  return point;
}

/// The socket leg: a fresh ShardSet + SocketServer, options.num_models
/// copies of the model spread across the shards by the router, and one
/// pipelined client connection per driver thread. Latencies are measured
/// client-side per request (stamped at flush, matched on the echoed
/// request id).
LoadPoint MeasureSocketPoint(spca::obs::Registry* registry,
                             const BenchOptions& options,
                             const spca::core::PcaModel& model,
                             const std::vector<spca::workload::Query>& queries) {
  registry->ResetMetricsWithPrefix("serve.");
  registry->ResetMetricsWithPrefix("net.");
  spca::net::ShardSetOptions shard_options;
  shard_options.num_shards = options.shards;
  shard_options.service.num_threads = options.threads;
  shard_options.service.batch_max = options.batch_max;
  shard_options.service.queue_capacity = 1u << 16;
  // Tens of thousands of batches/s across four dispatchers would all
  // serialize on the registry's span mutex; keep spans out of the hot
  // path (counters and histograms still record).
  shard_options.service.record_batch_spans = false;
  shard_options.metrics = registry;
  spca::net::ShardSet shards(shard_options);
  SPCA_CHECK(shards.Start().ok());
  std::vector<std::string> model_names;
  for (size_t m = 0; m < options.num_models; ++m) {
    model_names.push_back("bench" + std::to_string(m));
    SPCA_CHECK(shards.InstallModel(model_names.back(), model).ok());
  }
  spca::net::ServerOptions server_options;
  server_options.metrics = registry;
  spca::net::SocketServer server(&shards, server_options);
  SPCA_CHECK(server.Start().ok());

  struct ConnStats {
    uint64_t ok = 0;
    uint64_t shed = 0;
    std::vector<double> latencies;
  };
  std::vector<ConnStats> stats(options.connections);
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(options.duration_sec));
  auto now_sec = [] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  // Flushing every request would cost a syscall per query; flushing too
  // rarely starves the window. A quarter window keeps the pipe full —
  // and the burst size here is also the shard-batch size upstream: each
  // flush fans out across the shards, so bigger bursts mean bigger
  // batches and fewer dispatcher wakeups per request.
  const size_t flush_every =
      std::max<size_t>(1, std::min<size_t>(256, options.window / 4));

  std::vector<std::thread> drivers;
  drivers.reserve(options.connections);
  for (size_t c = 0; c < options.connections; ++c) {
    drivers.emplace_back([&, c] {
      ConnStats* out = &stats[c];
      spca::net::Client client;
      SPCA_CHECK(client.Connect("127.0.0.1", server.port()).ok());
      std::vector<double> send_time;  // by request_id - 1
      std::vector<uint64_t> unflushed;
      uint64_t next_id = 0;
      size_t qi = c;
      auto queue_one = [&] {
        const auto& query = queries[qi % queries.size()];
        const std::string& name = model_names[qi % model_names.size()];
        qi += options.connections;
        ++next_id;
        client.QueueSparse(/*tenant=*/c, next_id, name, query.sparse.View());
        send_time.push_back(0.0);
        unflushed.push_back(next_id);
      };
      auto flush = [&] {
        const double stamp = now_sec();
        for (const uint64_t id : unflushed) send_time[id - 1] = stamp;
        unflushed.clear();
        SPCA_CHECK(client.Flush().ok());
      };
      for (size_t k = 0; k < options.window; ++k) queue_one();
      flush();
      size_t outstanding = options.window;
      size_t since_flush = 0;
      bool sending = true;
      spca::net::ClientResponse response;
      out->latencies.reserve(1u << 20);
      while (outstanding > 0) {
        SPCA_CHECK(client.Receive(&response).ok());
        --outstanding;
        out->latencies.push_back(now_sec() -
                                 send_time[response.request_id - 1]);
        if (response.outcome == spca::serve::RequestOutcome::kOk) {
          ++out->ok;
        } else if (response.outcome == spca::serve::RequestOutcome::kShed) {
          ++out->shed;
        }
        if (sending && std::chrono::steady_clock::now() >= deadline) {
          sending = false;
        }
        if (sending) {
          queue_one();
          ++outstanding;
          if (++since_flush >= flush_every) {
            flush();
            since_flush = 0;
          }
        } else if (!unflushed.empty()) {
          flush();  // drain: everything queued must still go out
        }
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  LoadPoint point;
  point.mode = "socket";
  point.shards = options.shards;
  point.connections = options.connections;
  point.window = options.window;
  point.seconds = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  server.Stop();
  shards.Stop();

  std::vector<double> latencies;
  for (ConnStats& s : stats) {
    point.ok += s.ok;
    point.shed += s.shed;
    latencies.insert(latencies.end(), s.latencies.begin(), s.latencies.end());
  }
  point.qps = point.seconds > 0.0
                  ? static_cast<double>(point.ok) / point.seconds
                  : 0.0;
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double q) {
      const size_t idx = std::min(
          latencies.size() - 1,
          static_cast<size_t>(q * static_cast<double>(latencies.size() - 1) +
                              0.5));
      return 1e3 * latencies[idx];
    };
    point.p50_ms = pct(0.50);
    point.p95_ms = pct(0.95);
    point.p99_ms = pct(0.99);
  }
  if (const auto* batches = registry->FindCounter("serve.batches");
      batches != nullptr && batches->value() > 0) {
    point.mean_batch = static_cast<double>(point.ok) / batches->value();
  }
  return point;
}

std::string PointJson(const LoadPoint& point) {
  std::string json = "    {\"mode\":\"" + point.mode + "\"";
  if (point.mode == "open") {
    json += ",\"offered_qps\":" + JsonNumber(point.offered_qps);
  } else if (point.mode == "socket") {
    json += ",\"shards\":" + JsonNumber(static_cast<double>(point.shards));
    json += ",\"connections\":" +
            JsonNumber(static_cast<double>(point.connections));
    json += ",\"window\":" + JsonNumber(static_cast<double>(point.window));
  } else {
    json += ",\"concurrency\":" + JsonNumber(
                                      static_cast<double>(point.concurrency));
  }
  json += ",\"ok\":" + JsonNumber(static_cast<double>(point.ok));
  json += ",\"shed\":" + JsonNumber(static_cast<double>(point.shed));
  json += ",\"seconds\":" + JsonNumber(point.seconds);
  json += ",\"qps\":" + JsonNumber(point.qps);
  json += ",\"p50_ms\":" + JsonNumber(point.p50_ms);
  json += ",\"p95_ms\":" + JsonNumber(point.p95_ms);
  json += ",\"p99_ms\":" + JsonNumber(point.p99_ms);
  json += ",\"mean_batch\":" + JsonNumber(point.mean_batch);
  json += "}";
  return json;
}

int Main(int argc, char** argv) {
  BenchOptions options;
  spca::FlagSet flags;
  flags.String("--out", &options.out);
  flags.Double("--duration", &options.duration_sec);
  flags.Int("--threads", &options.threads, size_t{1});
  flags.Int("--batch-max", &options.batch_max, size_t{1});
  flags.Int("--dim", &options.dim, size_t{1});
  flags.Int("--components", &options.components, size_t{1});
  flags.Int("--shards", &options.shards, size_t{1});
  flags.Int("--connections", &options.connections, size_t{1});
  flags.Int("--window", &options.window, size_t{1});
  flags.Int("--models", &options.num_models, size_t{1});
  flags.Double("--slo-p99-ms", &options.slo_p99_ms);
  flags.Double("--slo-min-qps", &options.slo_min_qps);
  flags.Bool("--no-socket", &options.no_socket);
  spca::Status status = flags.Parse(argc, argv);
  if (status.ok() && options.duration_sec <= 0.0) {
    status = spca::Status::InvalidArgument("--duration must be > 0");
  }
  if (!status.ok()) return spca::FlagError(status, kUsage);

  std::printf("bench_serve: D=%zu d=%zu, %zu threads, batch max %zu, "
              "%.1f s per point\n",
              options.dim, options.components, options.threads,
              options.batch_max, options.duration_sec);

  // Round-trip the model through the on-disk format so the bench also
  // covers the load path spca_serve takes.
  const spca::core::PcaModel model =
      SyntheticModel(options.dim, options.components);
  const std::string model_path = options.out + ".model.tmp";
  SPCA_CHECK(spca::serve::SaveModel(model, model_path).ok());
  spca::obs::Registry registry;
  spca::serve::ModelRegistry models(&registry);
  SPCA_CHECK(models.Load("bench", model_path).ok());
  std::remove(model_path.c_str());

  spca::workload::QuerySetConfig query_config;
  query_config.num_queries = 2048;
  query_config.dim = options.dim;
  query_config.nnz_per_query = 12.0;
  query_config.seed = 5;
  const std::vector<spca::workload::Query> queries =
      spca::workload::GenerateQueries(query_config);

  std::vector<LoadPoint> points;
  for (const size_t concurrency : {1, 4, 16}) {
    points.push_back(MeasurePoint(&registry, &models, options, queries,
                                  /*offered_qps=*/0.0, concurrency));
    const LoadPoint& p = points.back();
    std::printf("  closed c=%-3zu %8.0f qps  p50 %7.3f ms  p95 %7.3f ms  "
                "p99 %7.3f ms  mean batch %.1f\n",
                p.concurrency, p.qps, p.p50_ms, p.p95_ms, p.p99_ms,
                p.mean_batch);
  }
  {
    // Open-loop point offered at half the best closed-loop throughput, so
    // it measures latency under load rather than saturation.
    double best_qps = 0.0;
    for (const LoadPoint& p : points) best_qps = std::max(best_qps, p.qps);
    const double offered = std::max(100.0, 0.5 * best_qps);
    points.push_back(MeasurePoint(&registry, &models, options, queries,
                                  offered, /*concurrency=*/0));
    const LoadPoint& p = points.back();
    std::printf("  open %6.0f of %6.0f qps  p50 %7.3f ms  p95 %7.3f ms  "
                "p99 %7.3f ms  shed %llu\n",
                p.qps, p.offered_qps, p.p50_ms, p.p95_ms, p.p99_ms,
                static_cast<unsigned long long>(p.shed));
  }
  if (!options.no_socket) {
    points.push_back(MeasureSocketPoint(&registry, options, model, queries));
    const LoadPoint& p = points.back();
    std::printf("  socket %zu shards, %zu conns x window %zu: %8.0f qps  "
                "p50 %7.3f ms  p95 %7.3f ms  p99 %7.3f ms  mean batch %.1f  "
                "shed %llu\n",
                p.shards, p.connections, p.window, p.qps, p.p50_ms, p.p95_ms,
                p.p99_ms, p.mean_batch,
                static_cast<unsigned long long>(p.shed));
  }

  std::string json = "{\n  \"bench\": \"serve\",\n";
  json += "  \"schema\": \"spca.bench_serve.v2\",\n";
  json += "  \"dim\": " + JsonNumber(static_cast<double>(options.dim)) + ",\n";
  json += "  \"components\": " +
          JsonNumber(static_cast<double>(options.components)) + ",\n";
  json += "  \"threads\": " + JsonNumber(static_cast<double>(options.threads)) +
          ",\n";
  json += "  \"batch_max\": " +
          JsonNumber(static_cast<double>(options.batch_max)) + ",\n";
  json += "  \"duration_sec\": " + JsonNumber(options.duration_sec) + ",\n";
  json += "  \"slo\": {\"p99_ms\": " + JsonNumber(options.slo_p99_ms) +
          ", \"min_qps\": " + JsonNumber(options.slo_min_qps) + "},\n";
  json += "  \"points\": [\n";
  for (size_t i = 0; i < points.size(); ++i) {
    json += PointJson(points[i]);
    if (i + 1 < points.size()) json += ",";
    json += "\n";
  }
  json += "  ]\n}\n";
  status = spca::obs::WriteFile(options.out, json);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", options.out.c_str());

  // The SLO gate: regression in the socket point fails the bench run.
  int violations = 0;
  if (!options.no_socket &&
      (options.slo_p99_ms > 0.0 || options.slo_min_qps > 0.0)) {
    const LoadPoint& p = points.back();
    if (options.slo_p99_ms > 0.0 && p.p99_ms > options.slo_p99_ms) {
      std::fprintf(stderr,
                   "SLO VIOLATION: socket p99 %.3f ms exceeds bound %.3f ms\n",
                   p.p99_ms, options.slo_p99_ms);
      ++violations;
    }
    if (options.slo_min_qps > 0.0 && p.qps < options.slo_min_qps) {
      std::fprintf(stderr,
                   "SLO VIOLATION: socket qps %.0f below bound %.0f\n",
                   p.qps, options.slo_min_qps);
      ++violations;
    }
    if (violations == 0) {
      std::printf("SLO ok: p99 %.3f ms <= %.3f ms, qps %.0f >= %.0f\n",
                  p.p99_ms,
                  options.slo_p99_ms > 0.0 ? options.slo_p99_ms : p.p99_ms,
                  p.qps,
                  options.slo_min_qps > 0.0 ? options.slo_min_qps : 0.0);
    }
  }
  return violations > 0 ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
