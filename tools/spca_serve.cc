// spca_serve — serve projection queries against saved PCA models and
// measure latency/throughput under a deterministic generated load.
//
// Train and save a model, then serve it:
//   spca_cli --generate tweets --rows 20000 --cols 2000 --components 50
//            --save-model tweets.spcm
//   spca_serve --model tweets.spcm --threads 4 --batch-max 64
//              --queue-cap 1024 --qps 2000 --duration 5
//
// The load is open-loop by default (Poisson arrivals at --qps, replayed
// from a seeded schedule); --qps 0 switches to closed-loop with
// --concurrency outstanding requests. Models are spread across --shards
// independent service shards by a consistent-hash router, and --listen
// fronts the shards with the SPCQ socket server:
//   spca_serve --model a=a.spcm --model b=b.spcm --shards 4 --listen 7077
// serves the socket for --duration seconds; adding --loopback instead
// drives the configured load through a client against the bound port
// (the full wire round trip, self-contained — used by the smoke tests).
// Run with --help for the full list.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "net/client.h"
#include "net/server.h"
#include "net/shard_set.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/stream.h"
#include "serve/service.h"
#include "workload/load_gen.h"

namespace {

using spca::Status;

constexpr const char* kUsage = R"(spca_serve — batched PCA projection service

Models:
  --model PATH          model file written by spca_cli --save-model; repeat
                        the flag to serve several (NAME=PATH names one);
                        tenants are pinned round-robin across the models

Service:
  --shards N            independent service shards behind the
                        consistent-hash router (default 1)
  --threads N           worker threads per shard executing batches
                        (default 4)
  --batch-max N         max requests coalesced into one batch (default 64)
  --queue-cap N         per-shard admission queue bound; requests beyond
                        it are shed (default 1024)
  --timeout-sec SEC     per-request deadline while queued (default: none)

Socket front-end:
  --listen PORT         accept SPCQ connections on 127.0.0.1:PORT (0 picks
                        an ephemeral port, printed at startup) and serve
                        for --duration seconds instead of self-driving
  --loopback            with --listen: drive the configured load through a
                        socket client against the bound port, then exit

Load:
  --qps RATE            open-loop offered load, Poisson arrivals (default
                        2000); 0 switches to closed-loop driving
  --duration SEC        measurement / serving length (default 5)
  --concurrency N       closed-loop outstanding requests (default 8)
  --queries N           distinct query rows generated (default 4096)
  --nnz N               mean non-zeros per sparse query (default 12)
  --dense               send dense query rows instead of sparse
  --tenants N           tenant ids drawn Zipf(--tenant-zipf) per query
                        (default 8); tenant t targets model t %% #models
  --tenant-zipf S       tenant popularity skew (default 1.0)
  --burst-factor F      offered-rate multiplier during burst windows
                        (default 1 = flat)
  --burst-period SEC    burst window period; with --burst-duration SEC the
                        first SEC of every period runs at F x qps
  --burst-duration SEC  burst window length within each period
  --seed N              query/schedule seed (default 1)

Observability:
  --metrics             print the metrics registry at exit (includes the
                        serve.latency_sec p50/p95/p99 columns)
  --trace-stream PATH   stream serve.batch spans as JSON-lines while
                        running (single shard only)
  --flush-every N       streaming flush window in batches (default 32)

Flags accept both "--flag value" and "--flag=value".
)";

struct Options {
  std::vector<std::pair<std::string, std::string>> models;  // name, path
  size_t shards = 1;
  size_t threads = 4;
  size_t batch_max = 64;
  size_t queue_cap = 1024;
  double timeout_sec = 0.0;  // <= 0: none
  int listen_port = -1;      // < 0: no socket front-end
  bool loopback = false;
  double qps = 2000.0;
  double duration_sec = 5.0;
  size_t concurrency = 8;
  size_t num_queries = 4096;
  double nnz = 12.0;
  bool dense = false;
  size_t tenants = 8;
  double tenant_zipf = 1.0;
  double burst_factor = 1.0;
  double burst_period_sec = 0.0;
  double burst_duration_sec = 0.0;
  uint64_t seed = 1;
  bool print_metrics = false;
  std::string trace_stream_path;
  size_t flush_every = 32;
  bool help = false;
};

Status ParseOptions(int argc, char** argv, Options* out) {
  std::vector<std::string> models;
  spca::FlagSet flags;
  flags.Strings("--model", &models);
  flags.Int("--shards", &out->shards, size_t{1});
  flags.Int("--threads", &out->threads, size_t{1});
  flags.Int("--batch-max", &out->batch_max, size_t{1});
  flags.Int("--queue-cap", &out->queue_cap);
  flags.Double("--timeout-sec", &out->timeout_sec);
  flags.Int("--listen", &out->listen_port, 0);
  flags.Bool("--loopback", &out->loopback);
  flags.Double("--qps", &out->qps);
  flags.Double("--duration", &out->duration_sec);
  flags.Int("--concurrency", &out->concurrency, size_t{1});
  flags.Int("--queries", &out->num_queries, size_t{1});
  flags.Double("--nnz", &out->nnz);
  flags.Bool("--dense", &out->dense);
  flags.Int("--tenants", &out->tenants, size_t{1});
  flags.Double("--tenant-zipf", &out->tenant_zipf);
  flags.Double("--burst-factor", &out->burst_factor);
  flags.Double("--burst-period", &out->burst_period_sec);
  flags.Double("--burst-duration", &out->burst_duration_sec);
  flags.Int("--seed", &out->seed);
  flags.Bool("--metrics", &out->print_metrics);
  flags.String("--trace-stream", &out->trace_stream_path);
  flags.Int("--flush-every", &out->flush_every, size_t{1});
  flags.Bool("--help", &out->help);
  SPCA_RETURN_IF_ERROR(flags.Parse(argc, argv));
  if (out->help) return Status::Ok();
  for (const std::string& model : models) {
    // NAME=PATH names the model; a bare PATH is served as "model<i>".
    const size_t eq = model.find('=');
    if (eq == std::string::npos) {
      out->models.emplace_back("model" + std::to_string(out->models.size()),
                               model);
    } else {
      out->models.emplace_back(model.substr(0, eq), model.substr(eq + 1));
    }
  }
  if (out->models.empty()) {
    return Status::InvalidArgument("need at least one --model");
  }
  if (out->duration_sec <= 0.0) {
    return Status::InvalidArgument("--duration must be > 0");
  }
  if (out->listen_port > 65535) {
    return Status::InvalidArgument("--listen port out of range");
  }
  if (out->loopback && out->listen_port < 0) {
    return Status::InvalidArgument("--loopback requires --listen");
  }
  if (!out->trace_stream_path.empty() && out->shards != 1) {
    return Status::InvalidArgument(
        "--trace-stream supports a single shard (one dispatcher driving the "
        "stream)");
  }
  return Status::Ok();
}

struct OutcomeCounts {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> shed{0};
  std::atomic<uint64_t> deadline{0};
  std::atomic<uint64_t> other{0};

  void Count(spca::serve::RequestOutcome outcome) {
    switch (outcome) {
      case spca::serve::RequestOutcome::kOk:
        ++ok;
        break;
      case spca::serve::RequestOutcome::kShed:
        ++shed;
        break;
      case spca::serve::RequestOutcome::kDeadlineExceeded:
        ++deadline;
        break;
      default:
        ++other;
        break;
    }
  }
  uint64_t Total() const { return ok + shed + deadline + other; }
};

spca::serve::ProjectionRequest MakeRequest(
    const std::string& model, uint64_t tenant,
    const spca::workload::Query& query, double timeout_sec) {
  spca::serve::ProjectionRequest request;
  request.model = model;
  request.tenant = tenant;
  if (query.is_dense()) {
    request.dense = query.dense;
  } else {
    request.sparse = query.sparse;
  }
  if (timeout_sec > 0.0) request.timeout_sec = timeout_sec;
  return request;
}

/// Replays the seeded arrival schedule in real time, one Submit per
/// arrival, then waits for every response. Returns measured seconds.
double RunOpenLoop(spca::net::ShardSet* shards,
                   const std::vector<std::string>& model_names,
                   const std::vector<spca::workload::TaggedQuery>& queries,
                   const std::vector<double>& schedule, double timeout_sec,
                   OutcomeCounts* counts) {
  std::vector<std::future<spca::serve::ProjectionResponse>> futures;
  futures.reserve(schedule.size());
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < schedule.size(); ++i) {
    const auto arrival =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(schedule[i]));
    std::this_thread::sleep_until(arrival);
    const auto& tagged = queries[i % queries.size()];
    futures.push_back(shards->Submit(MakeRequest(
        model_names[tagged.model_index], tagged.tenant, tagged.query,
        timeout_sec)));
  }
  for (auto& future : futures) counts->Count(future.get().outcome);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// --qps 0: N driver threads each keep one request outstanding until the
/// measurement window closes.
double RunClosedLoop(spca::net::ShardSet* shards,
                     const std::vector<std::string>& model_names,
                     const std::vector<spca::workload::TaggedQuery>& queries,
                     double duration_sec, size_t concurrency,
                     double timeout_sec, OutcomeCounts* counts) {
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(duration_sec));
  std::vector<std::thread> drivers;
  drivers.reserve(concurrency);
  for (size_t t = 0; t < concurrency; ++t) {
    drivers.emplace_back([&, t] {
      size_t i = t;  // stagger which query each driver cycles through
      while (std::chrono::steady_clock::now() < deadline) {
        const auto& tagged = queries[i % queries.size()];
        auto future = shards->Submit(MakeRequest(
            model_names[tagged.model_index], tagged.tenant, tagged.query,
            timeout_sec));
        counts->Count(future.get().outcome);
        i += concurrency;
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

void QueueTagged(spca::net::Client* client, uint64_t request_id,
                 const std::vector<std::string>& model_names,
                 const spca::workload::TaggedQuery& tagged) {
  const std::string& model = model_names[tagged.model_index];
  if (tagged.query.is_dense()) {
    client->QueueDense(tagged.tenant, request_id, model, tagged.query.dense);
  } else {
    client->QueueSparse(tagged.tenant, request_id, model,
                        tagged.query.sparse.View());
  }
}

/// Open loop over the socket: the main thread ships frames per the
/// arrival schedule, a receiver thread counts every response. One write
/// and one read stream on the same connection are safe from two threads —
/// the client keeps separate send/receive buffers.
double RunOpenLoopSocket(uint16_t port,
                         const std::vector<std::string>& model_names,
                         const std::vector<spca::workload::TaggedQuery>& queries,
                         const std::vector<double>& schedule,
                         OutcomeCounts* counts) {
  spca::net::Client client;
  const Status status = client.Connect("127.0.0.1", port);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
    std::exit(1);
  }
  std::atomic<bool> receiver_failed{false};
  std::thread receiver([&] {
    spca::net::ClientResponse response;
    for (size_t i = 0; i < schedule.size(); ++i) {
      const Status recv = client.Receive(&response);
      if (!recv.ok()) {
        std::fprintf(stderr, "error: %s\n", recv.ToString().c_str());
        receiver_failed = true;
        return;
      }
      counts->Count(response.outcome);
    }
  });
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < schedule.size() && !receiver_failed; ++i) {
    const auto arrival =
        start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double>(schedule[i]));
    std::this_thread::sleep_until(arrival);
    QueueTagged(&client, i + 1, model_names, queries[i % queries.size()]);
    const Status flush = client.Flush();
    if (!flush.ok()) {
      std::fprintf(stderr, "error: %s\n", flush.ToString().c_str());
      std::exit(1);
    }
  }
  receiver.join();
  if (receiver_failed) std::exit(1);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Closed loop over the socket: one pipelined connection per driver
/// thread, --concurrency/driver requests outstanding.
double RunClosedLoopSocket(uint16_t port,
                           const std::vector<std::string>& model_names,
                           const std::vector<spca::workload::TaggedQuery>&
                               queries,
                           double duration_sec, size_t concurrency,
                           OutcomeCounts* counts) {
  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(duration_sec));
  std::vector<std::thread> drivers;
  drivers.reserve(concurrency);
  for (size_t t = 0; t < concurrency; ++t) {
    drivers.emplace_back([&, t] {
      spca::net::Client client;
      if (!client.Connect("127.0.0.1", port).ok()) return;
      size_t i = t;
      spca::net::ClientResponse response;
      while (std::chrono::steady_clock::now() < deadline) {
        QueueTagged(&client, i + 1, model_names, queries[i % queries.size()]);
        if (!client.Flush().ok() || !client.Receive(&response).ok()) return;
        counts->Count(response.outcome);
        i += concurrency;
      }
    });
  }
  for (auto& driver : drivers) driver.join();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

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
  spca::obs::TraceStreamer streamer(&registry, options.flush_every);
  if (!options.trace_stream_path.empty()) {
    const Status status = streamer.Open(options.trace_stream_path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  spca::net::ShardSetOptions shard_options;
  shard_options.num_shards = options.shards;
  shard_options.service.num_threads = options.threads;
  shard_options.service.batch_max = options.batch_max;
  shard_options.service.queue_capacity = options.queue_cap;
  // The dispatcher is the only thread completing "jobs" here (single
  // shard enforced at parse time), so it may drive the streaming
  // exporter directly.
  shard_options.service.notify_job_listener = streamer.is_open();
  shard_options.metrics = &registry;
  spca::net::ShardSet shards(shard_options);
  {
    const Status status = shards.Start();
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
  }

  std::vector<std::string> model_names;
  for (const auto& [name, path] : options.models) {
    const Status status = shards.LoadModel(name, path);
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    const auto projector = shards.GetModel(name);
    std::printf("model %s: %s, %zu x %zu, noise variance %.6g, shard %zu\n",
                name.c_str(), path.c_str(), projector->input_dim(),
                projector->num_components(), projector->model().noise_variance,
                shards.ShardOf(name));
    model_names.push_back(name);
  }
  const size_t dim = shards.GetModel(model_names.front())->input_dim();
  for (const auto& name : model_names) {
    if (shards.GetModel(name)->input_dim() != dim) {
      std::fprintf(stderr,
                   "error: all models must share input_dim to serve one "
                   "query set (%s differs)\n",
                   name.c_str());
      return 1;
    }
  }

  spca::workload::TenantMixConfig mix_config;
  mix_config.num_tenants = options.tenants;
  mix_config.tenant_zipf_exponent = options.tenant_zipf;
  mix_config.models = model_names;
  mix_config.query.num_queries = options.num_queries;
  mix_config.query.dim = dim;
  mix_config.query.dense = options.dense;
  mix_config.query.nnz_per_query = options.nnz;
  mix_config.query.seed = options.seed;
  const std::vector<spca::workload::TaggedQuery> queries =
      spca::workload::GenerateTenantMix(mix_config);

  std::unique_ptr<spca::net::SocketServer> server;
  if (options.listen_port >= 0) {
    spca::net::ServerOptions server_options;
    server_options.port = static_cast<uint16_t>(options.listen_port);
    server_options.metrics = &registry;
    server = std::make_unique<spca::net::SocketServer>(&shards,
                                                       server_options);
    const Status status = server->Start();
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("listening on 127.0.0.1:%u (%zu shards)\n",
                unsigned{server->port()}, shards.num_shards());
    std::fflush(stdout);
  }

  OutcomeCounts counts;
  double elapsed = options.duration_sec;
  const bool self_drive = options.listen_port < 0 || options.loopback;
  if (!self_drive) {
    // Front-end mode: serve the socket for the duration, then exit.
    std::this_thread::sleep_for(
        std::chrono::duration<double>(options.duration_sec));
  } else if (options.qps > 0.0) {
    spca::workload::ArrivalScheduleConfig schedule_config;
    schedule_config.qps = options.qps;
    schedule_config.num_arrivals = static_cast<size_t>(options.qps *
                                                       options.duration_sec);
    schedule_config.seed = options.seed;
    schedule_config.burst_factor = options.burst_factor;
    schedule_config.burst_period_sec = options.burst_period_sec;
    schedule_config.burst_duration_sec = options.burst_duration_sec;
    const std::vector<double> schedule =
        spca::workload::GenerateArrivalSchedule(schedule_config);
    std::printf("open loop%s: %zu arrivals at %.0f qps offered (seed %llu, "
                "%zu tenants, zipf %.2f)\n",
                options.loopback ? " over socket" : "", schedule.size(),
                options.qps, static_cast<unsigned long long>(options.seed),
                options.tenants, options.tenant_zipf);
    elapsed = options.loopback
                  ? RunOpenLoopSocket(server->port(), model_names, queries,
                                      schedule, &counts)
                  : RunOpenLoop(&shards, model_names, queries, schedule,
                                options.timeout_sec, &counts);
  } else {
    std::printf("closed loop%s: %zu outstanding for %.1f s\n",
                options.loopback ? " over socket" : "", options.concurrency,
                options.duration_sec);
    elapsed = options.loopback
                  ? RunClosedLoopSocket(server->port(), model_names, queries,
                                        options.duration_sec,
                                        options.concurrency, &counts)
                  : RunClosedLoop(&shards, model_names, queries,
                                  options.duration_sec, options.concurrency,
                                  options.timeout_sec, &counts);
  }
  if (server != nullptr) server->Stop();
  shards.Stop();

  const auto* latency = registry.FindHistogram("serve.latency_sec");
  const auto* batches = registry.FindCounter("serve.batches");
  if (self_drive) {
    std::printf(
        "served %llu requests in %.2f s: %llu ok (%.0f qps), %llu shed, "
        "%llu deadline-exceeded, %llu other\n",
        static_cast<unsigned long long>(counts.Total()), elapsed,
        static_cast<unsigned long long>(counts.ok.load()),
        static_cast<double>(counts.ok.load()) / elapsed,
        static_cast<unsigned long long>(counts.shed.load()),
        static_cast<unsigned long long>(counts.deadline.load()),
        static_cast<unsigned long long>(counts.other.load()));
  } else {
    const auto* frames = registry.FindCounter("net.frames_in");
    std::printf("served socket for %.2f s: %llu frames\n", elapsed,
                static_cast<unsigned long long>(
                    frames != nullptr ? frames->AsUint64() : 0));
  }
  if (latency != nullptr && latency->count() > 0) {
    std::printf("latency: p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms "
                "(%llu batches, mean batch %.1f)\n",
                1e3 * latency->Quantile(0.50), 1e3 * latency->Quantile(0.95),
                1e3 * latency->Quantile(0.99), 1e3 * latency->max(),
                static_cast<unsigned long long>(
                    batches != nullptr ? batches->AsUint64() : 0),
                batches != nullptr && batches->value() > 0
                    ? static_cast<double>(counts.ok.load()) / batches->value()
                    : 0.0);
  }

  if (streamer.is_open()) {
    const Status status = streamer.Close();
    if (!status.ok()) {
      std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("streamed %zu spans in %zu flushes to %s\n",
                streamer.spans_written(), streamer.flushes(),
                streamer.path().c_str());
  }
  if (options.print_metrics) {
    // Age gauges are only as fresh as the last swap; re-publish them so the
    // table shows each model's age as of now.
    for (size_t s = 0; s < shards.num_shards(); ++s) {
      shards.shard_models(s)->RefreshAgeMetrics();
    }
    std::printf("\n%s", spca::obs::MetricsTable(registry).c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
