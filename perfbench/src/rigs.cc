#include "rigs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/jobs.h"
#include "core/reconstruction_error.h"
#include "core/spca.h"
#include "linalg/kernels.h"
#include "linalg/ops.h"
#include "linalg/solve.h"
#include "net/client.h"
#include "net/protocol.h"
#include "serve/projector.h"
#include "workload/datasets.h"

namespace perfbench {

using spca::Stopwatch;
using spca::dist::Engine;
using spca::linalg::DenseMatrix;
using spca::linalg::DenseVector;

namespace {

bool AllFinite(const DenseVector& v) {
  for (size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) return false;
  }
  return v.size() > 0;
}

/// Median over `batches` timed batches of `calls` invocations of
/// fn(call_index), in nanoseconds per call.
template <typename Fn>
double NsPerCall(size_t calls, int batches, Fn&& fn) {
  std::vector<double> per_call;
  size_t index = 0;
  for (int b = 0; b < batches; ++b) {
    Stopwatch watch;
    for (size_t i = 0; i < calls; ++i) fn(index++);
    per_call.push_back(watch.ElapsedSeconds() * 1e9 /
                       static_cast<double>(calls));
  }
  return Median(std::move(per_call));
}

/// Median wall milliseconds of `repeats` calls of fn().
template <typename Fn>
double MedianMs(int repeats, Fn&& fn) {
  std::vector<double> ms;
  for (int r = 0; r < repeats; ++r) {
    Stopwatch watch;
    fn();
    ms.push_back(watch.ElapsedSeconds() * 1e3);
  }
  return Median(std::move(ms));
}

}  // namespace

Sizes DefaultSizes() { return Sizes{}; }

Sizes TinySizes() {
  Sizes sizes;
  sizes.dim = 300;
  sizes.components = 10;
  sizes.fit_rows = 6000;
  sizes.fit_partitions = 8;
  sizes.serve_train_rows = 2000;
  sizes.queries = 256;
  sizes.batch_rows = 64;
  sizes.serve_fit_iterations = 2;
  return sizes;
}

DistMatrix TweetsRows(size_t rows, size_t dim, size_t partitions,
                      uint64_t seed) {
  constexpr uint64_t kCorpusSeed = 4;
  const size_t pool_rows = 2 * rows;
  const DistMatrix pool =
      spca::workload::MakeDataset(spca::workload::DatasetKind::kTweets,
                                  pool_rows, dim, 1, kCorpusSeed)
          .matrix;
  std::vector<size_t> pick(pool_rows);
  std::iota(pick.begin(), pick.end(), 0);
  spca::Rng rng(seed);
  for (size_t i = 0; i < rows; ++i) {
    std::swap(pick[i], pick[i + rng.NextUint64Below(pool_rows - i)]);
  }
  pick.resize(rows);
  return pool.SampleRows(pick, partitions);
}

DistMatrix SliceRows(const DistMatrix& m, size_t begin, size_t end,
                     size_t partitions) {
  std::vector<size_t> rows(end - begin);
  std::iota(rows.begin(), rows.end(), begin);
  return m.SampleRows(rows, partitions);
}

std::unique_ptr<Engine> MakeEngine(obs::Registry* registry, size_t workers) {
  auto engine = std::make_unique<Engine>(spca::dist::ClusterSpec{},
                                         spca::dist::EngineMode::kSpark,
                                         registry);
  engine->SetLocalWorkers(workers);
  return engine;
}

FitInputs SetUpFit(const Sizes& sizes, uint64_t seed) {
  FitInputs in;
  {
    const DistMatrix all = TweetsRows(sizes.fit_rows + sizes.queries,
                                      sizes.dim, sizes.fit_partitions, seed);
    in.y = SliceRows(all, 0, sizes.fit_rows, sizes.fit_partitions);
    in.queries =
        SliceRows(all, sizes.fit_rows, sizes.fit_rows + sizes.queries, 1);
  }
  // The anchor follows core::ConvergedIdealError's recipe, but on the
  // bench's own 2-worker engine (the shadow engine there would size its
  // pool to every hardware thread).
  const spca::core::SpcaOptions defaults;
  spca::core::SpcaOptions options;
  options.num_components = sizes.components;
  options.max_iterations = defaults.ideal_fit_iterations;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  options.seed = 1;
  auto engine = MakeEngine(nullptr, 2);
  auto fit = spca::core::Spca(engine.get(), options).Solve(in.y);
  SPCA_CHECK_MSG(fit.ok(), "anchor fit failed");
  const auto rows = spca::core::SampleRowIndices(
      in.y.rows(), defaults.error_sample_rows, spca::core::kErrorSampleSeed);
  in.sample = in.y.SampleRows(rows, 1);
  in.anchor = spca::core::SampledReconstructionError(
      in.sample, fit.value().model.components, fit.value().model.mean);
  return in;
}

FitOutcome RunFit(Engine* engine, const FitInputs& inputs, const Sizes& sizes) {
  FitOutcome out;
  engine->ResetStats();  // cold start: nothing cached from earlier fits
  spca::core::SpcaOptions options;
  options.num_components = sizes.components;
  options.seed = 1;
  options.ideal_error_override = inputs.anchor;
  auto result = spca::core::Spca(engine, options).Solve(inputs.y);
  if (!result.ok()) {
    out.why = "Solve: " + result.status().ToString();
    return out;
  }
  auto& r = result.value();
  out.iterations = r.iterations_run;
  out.sim_s = r.stats.simulated_seconds;
  out.accuracy_percent =
      r.trace.empty() ? 0.0 : r.trace.back().accuracy_percent;
  for (const auto& point : r.trace) {
    out.accuracy_trace.push_back(point.accuracy_percent);
  }
  out.stats = r.stats;
  out.model = std::move(r.model);
  if (!r.reached_target || out.accuracy_percent < 95.0) {
    out.why = "fit stopped at " + std::to_string(out.accuracy_percent) +
              "% of the anchor after " + std::to_string(out.iterations) +
              " iterations";
    return out;
  }
  out.ok = true;
  return out;
}

// ---- serving stack ---------------------------------------------------------

namespace {

spca::net::ShardSetOptions StackOptions(obs::Registry* metrics) {
  spca::net::ShardSetOptions options;
  options.num_shards = 1;
  options.service.num_threads = 1;
  options.service.queue_capacity = 4096;
  options.service.record_batch_spans = false;
  options.metrics = metrics;
  return options;
}

}  // namespace

ServeStack::ServeStack(obs::Registry* metrics)
    : shards_(StackOptions(metrics)), metrics_(metrics) {}

ServeStack::~ServeStack() {
  if (server_) server_->Stop();
  shards_.Stop();
}

spca::Status ServeStack::Start() {
  SPCA_RETURN_IF_ERROR(shards_.Start());
  spca::net::ServerOptions options;
  options.metrics = metrics_;
  server_ = std::make_unique<spca::net::SocketServer>(&shards_, options);
  return server_->Start();
}

void RunClosedLoop(uint16_t port, const ClosedLoopSpec& spec, ClientLog* log) {
  SPCA_CHECK_EQ(log->latency_ms.size(), spec.total);
  spca::net::Client client;
  SPCA_CHECK(client.Connect("127.0.0.1", port).ok());
  const auto& names = *spec.names;
  const DistMatrix& queries = *spec.queries;
  const size_t num_queries = queries.rows();
  log->stamp_every = std::max<size_t>(1, spec.stamp_every);
  log->completion_sec.clear();
  log->completion_sec.reserve(spec.total / log->stamp_every + 1);
  // At most `window` requests are in flight, so send stamps live in a
  // ring indexed by request id.
  const size_t ring = spec.window;
  std::vector<double> sent_at(ring, 0.0);
  std::vector<double> encode_at(ring, 0.0);
  std::vector<uint64_t> unflushed;
  const size_t flush_every =
      std::max<size_t>(1, std::min(spec.flush_every, spec.window));

  uint64_t next_id = 0;
  auto queue_one = [&] {
    ++next_id;
    const size_t q = (next_id - 1) % num_queries;
    if (spec.trace_every > 0) encode_at[next_id % ring] = NowSeconds();
    client.QueueSparse(/*tenant=*/0, next_id,
                       names[(next_id - 1) % names.size()],
                       queries.sparse().Row(q));
    unflushed.push_back(next_id);
  };
  auto flush = [&] {
    const double stamp = NowSeconds();
    for (const uint64_t id : unflushed) sent_at[id % ring] = stamp;
    unflushed.clear();
    SPCA_CHECK(client.Flush().ok());
  };

  const double cpu_before = ThreadCpuSeconds();
  log->start_sec = NowSeconds();
  const size_t first = std::min(spec.window, spec.total);
  for (size_t k = 0; k < first; ++k) queue_one();
  flush();
  size_t outstanding = first;
  size_t since_flush = 0;
  size_t done = 0;
  spca::net::ClientResponse response;
  while (outstanding > 0) {
    SPCA_CHECK(client.Receive(&response).ok());
    const double now = NowSeconds();
    --outstanding;
    const uint64_t id = response.request_id;
    log->latency_ms[done++] = (now - sent_at[id % ring]) * 1e3;
    if (done % log->stamp_every == 0) log->completion_sec.push_back(now);
    bool good = response.outcome == spca::serve::RequestOutcome::kOk;
    if (good && spec.expected != nullptr) {
      const auto& want = (*spec.expected)[(id - 1) % num_queries];
      good = response.coordinates.size() == want.size() &&
             std::memcmp(response.coordinates.data(), want.data(),
                         want.size() * sizeof(double)) == 0;
    } else if (good) {
      good = AllFinite(response.coordinates);
    }
    if (good) {
      ++log->ok;
    } else if (log->bad++ == 0) {
      log->first_bad = "request " + std::to_string(id) + " outcome " +
                       spca::serve::RequestOutcomeToString(response.outcome);
    }
    if (spec.trace_every > 0 && id % spec.trace_every == 0) {
      const double encoded = encode_at[id % ring];
      const double sent = sent_at[id % ring];
      PendingSpan span{"client.request", encoded, now, id, {}};
      span.children.push_back({"client.encode_queue", encoded, sent, id, {}});
      span.children.push_back({"client.round_trip", sent, now, id, {}});
      log->spans.push_back(std::move(span));
    }
    if (next_id < spec.total) {
      queue_one();
      ++outstanding;
      // flush_every <= window keeps at least one flushed request in flight
      // while the rest wait, so the loop can never stall on itself.
      if (++since_flush >= flush_every || next_id == spec.total) {
        flush();
        since_flush = 0;
      }
    }
  }
  log->sent = next_id;
  log->client_cpu_s = ThreadCpuSeconds() - cpu_before;
}

PacedReader::PacedReader(uint16_t port, std::string name,
                         const DistMatrix* queries, double period_sec,
                         size_t trace_every)
    : port_(port),
      name_(std::move(name)),
      queries_(queries),
      period_sec_(period_sec),
      trace_every_(trace_every) {}

PacedReader::~PacedReader() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

void PacedReader::Start() { thread_ = std::thread([this] { Loop(); }); }

ClientLog PacedReader::Stop() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
  log_.lateness_ms_p50 = Median(lateness_ms_);
  log_.lateness_ms_max =
      lateness_ms_.empty() ? 0.0 : Quantile(lateness_ms_, 1.0);
  return std::move(log_);
}

void PacedReader::Loop() {
  spca::net::Client client;
  SPCA_CHECK(client.Connect("127.0.0.1", port_).ok());
  const double cpu_before = ThreadCpuSeconds();
  const auto origin = std::chrono::steady_clock::now();
  spca::net::ClientResponse response;
  for (uint64_t k = 1; !stop_.load(); ++k) {
    using Duration = std::chrono::steady_clock::duration;
    const auto due_point =
        origin + std::chrono::duration_cast<Duration>(
                     std::chrono::duration<double>(period_sec_ * k));
    std::this_thread::sleep_until(due_point);
    if (stop_.load()) break;
    const double due = std::chrono::duration<double>(
                           due_point.time_since_epoch())
                           .count();
    const double sent = NowSeconds();
    client.QueueSparse(0, k, name_, queries_->sparse().Row((k - 1) %
                                                           queries_->rows()));
    SPCA_CHECK(client.Flush().ok());
    SPCA_CHECK(client.Receive(&response).ok());
    const double now = NowSeconds();
    ++log_.sent;
    lateness_ms_.push_back((sent - due) * 1e3);
    log_.latency_ms.push_back((now - due) * 1e3);
    const bool good = response.outcome == spca::serve::RequestOutcome::kOk &&
                      response.request_id == k &&
                      AllFinite(response.coordinates);
    if (good) {
      ++log_.ok;
    } else if (log_.bad++ == 0) {
      log_.first_bad = "reader request " + std::to_string(k) + " outcome " +
                       spca::serve::RequestOutcomeToString(response.outcome);
    }
    if (trace_every_ > 0 && k % trace_every_ == 0) {
      PendingSpan span{"reader.request", due, now, k, {}};
      span.children.push_back({"reader.timer_lateness", due, sent, k, {}});
      span.children.push_back({"client.round_trip", sent, now, k, {}});
      log_.spans.push_back(std::move(span));
    }
  }
  log_.client_cpu_s = ThreadCpuSeconds() - cpu_before;
}

// ---- stream ingest ---------------------------------------------------------

namespace {

spca::stream::StreamSolverOptions IngestOptions(const Sizes& sizes,
                                                uint64_t seed) {
  spca::stream::StreamSolverOptions options;
  options.num_components = sizes.components;
  options.seed = seed;
  return options;
}

}  // namespace

StreamIngest::StreamIngest(const Sizes& sizes, uint64_t seed,
                           obs::Registry* registry, bool traced,
                           spca::serve::ModelRegistry* models,
                           const std::string& model_name)
    : engine_(MakeEngine(registry, 1)),
      trace_(traced ? registry : nullptr),
      solver_(engine_.get(), IngestOptions(sizes, seed)),
      publisher_(spca::stream::PublisherOptions{models, model_name, "",
                                                nullptr, {}, {}}) {
  SPCA_CHECK(solver_.Init(spca::core::FitOptions{}).ok());
}

StreamIngest::Cycle StreamIngest::RunCycle(const DistMatrix& a,
                                           const DistMatrix& b) {
  Cycle cycle;
  const DistMatrix* batches[2] = {&a, &b};
  for (int s = 0; s < 2; ++s) {
    Stopwatch watch;
    const spca::Status status = solver_.Step(*batches[s]);
    cycle.step_ms[s] = watch.ElapsedSeconds() * 1e3;
    if (!status.ok()) {
      cycle.why = "Step: " + status.ToString();
      return cycle;
    }
  }
  {
    obs::Span span(trace_, "stream.snapshot", "bench");
    Stopwatch watch;
    auto snapshot = solver_.Snapshot();
    cycle.snapshot_ms = watch.ElapsedSeconds() * 1e3;
    if (!snapshot.ok()) {
      cycle.why = "Snapshot: " + snapshot.status().ToString();
      return cycle;
    }
    cycle.snapshot = std::move(snapshot.value());
  }
  obs::Span span(trace_, "stream.publish", "bench");
  Stopwatch watch;
  auto generation = publisher_.Publish(cycle.snapshot);
  cycle.publish_ms = watch.ElapsedSeconds() * 1e3;
  if (!generation.ok()) {
    cycle.why = "Publish: " + generation.status().ToString();
    return cycle;
  }
  cycle.generation = generation.value();
  cycle.ok = true;
  return cycle;
}

// ---- layer probes ---------------------------------------------------------

void ProbeLayers(const DistMatrix& y, const DistMatrix& sample,
                 const DistMatrix& queries, const PcaModel& model,
                 spca::net::ShardSet* shards, const std::string& model_name,
                 Report* report) {
  namespace kernels = spca::linalg::kernels;
  const DenseMatrix& c = model.components;
  const size_t d = c.cols();
  const size_t nq = queries.rows();
  const auto& rows = queries.sparse();
  double sink = 0.0;

  // linalg: the three inner-loop kernels at the workload's row shape.
  DenseVector out(d);
  DenseMatrix acc(d, d);
  double nnz_sum = 0.0;
  for (size_t q = 0; q < nq; ++q) {
    nnz_sum += static_cast<double>(rows.Row(q).nnz());
  }
  const double nnz = nnz_sum / static_cast<double>(nq);
  const double gemv_ns = NsPerCall(4096, 31, [&](size_t i) {
    const auto row = rows.Row(i % nq);
    kernels::SparseRowGemv(row.begin(), row.nnz(), c.data(), c.row_stride(), d,
                           out.data());
  });
  const double axpy_ns = NsPerCall(16384, 31, [&](size_t i) {
    kernels::AxpyRow(1e-9 * static_cast<double>(i & 7), c.RowPtr(i % c.rows()),
                     d, out.data());
  });
  const double rank1_ns = NsPerCall(2048, 31, [&](size_t i) {
    kernels::SymRank1Update(c.RowPtr(i % c.rows()), d, acc.data(),
                            acc.row_stride());
  });
  sink += out[0] + acc(0, 0);
  const double dd = static_cast<double>(d);
  report->Add("linalg.sparse_row_gemv_ns", gemv_ns, "ns");
  report->Add("linalg.axpy_row_ns", axpy_ns, "ns");
  report->Add("linalg.sym_rank1_update_ns", rank1_ns, "ns");
  char line[256];
  std::snprintf(line, sizeof(line),
                "linalg per call (computed): sparse_row_gemv nnz=%.1f d=%zu "
                "%.0f flops %.0f bytes; axpy_row n=%zu %.0f flops %.0f bytes; "
                "sym_rank1_update d=%zu %.0f flops %.0f bytes",
                nnz, d, 2.0 * nnz * dd, nnz * (dd * 8.0 + 16.0) + dd * 8.0, d,
                2.0 * dd, 3.0 * dd * 8.0, d, dd * (dd + 1.0),
                dd * (dd + 1.0) * 8.0 + dd * 8.0);
  report->Diag(line);

  // core: error sampling and the D x d driver algebra of one EM iteration.
  report->Add("core.error_sample_ms", MedianMs(7, [&] {
                sink += spca::core::SampledReconstructionError(
                    sample, model.components, model.mean);
              }),
              "ms");
  DenseMatrix cm;
  DenseMatrix m_inverse;
  report->Add("core.driver_algebra_ms", MedianMs(7, [&] {
                DenseMatrix m = spca::linalg::TransposeMultiply(c, c);
                m.AddScaledIdentity(model.noise_variance);
                m_inverse = spca::linalg::Inverse(m).value();
                cm = spca::linalg::Multiply(c, m_inverse);
                auto solved = spca::linalg::SolveRight(cm, m);
                sink += solved.value()(0, 0);
              }),
              "ms");

  // dist: how busy a direct YtXJob keeps the 2-worker pool.
  {
    auto engine = MakeEngine(nullptr, 2);
    DenseVector xm(d);
    for (size_t k = 0; k < c.rows(); ++k) {
      for (size_t j = 0; j < d; ++j) xm[j] += model.mean[k] * cm(k, j);
    }
    std::vector<double> utilization;
    for (int r = 0; r < 5; ++r) {
      const double cpu = ProcessCpuSeconds();
      Stopwatch watch;
      auto result = spca::core::YtXJob(engine.get(), y, model.mean, xm, cm,
                                       nullptr, spca::core::JobToggles{});
      const double wall = watch.ElapsedSeconds();
      sink += result.xtx(0, 0);
      if (wall > 0.0) {
        utilization.push_back((ProcessCpuSeconds() - cpu) / wall / 2.0);
      }
    }
    report->Add("dist.pool_utilization", Median(utilization), "ratio");
  }

  // serve: building a Projector (every publish pays it) and one projection.
  report->Add("serve.projector_create_ms", MedianMs(7, [&] {
                auto projector = spca::serve::Projector::Create(model);
                sink += projector.ok() ? 1.0 : 0.0;
              }),
              "ms");
  auto projector = spca::serve::Projector::Create(model);
  SPCA_CHECK(projector.ok());
  report->Add("serve.project_sparse_ns", NsPerCall(4096, 31, [&](size_t i) {
                projector.value().ProjectSparse(rows.Row(i % nq), out.data());
              }),
              "ns");

  // net: the codec and the router, per request.
  std::vector<std::vector<uint8_t>> frames(nq);
  double wire_bytes = 0.0;
  std::vector<uint8_t> response_frame;
  for (size_t q = 0; q < nq; ++q) {
    spca::net::EncodeSparseRequest(0, q + 1, model_name, rows.Row(q),
                                   &frames[q]);
    response_frame.clear();
    spca::net::EncodeResponse(spca::net::WireOutcome::kOk, q + 1, out.data(),
                              d, &response_frame);
    wire_bytes += static_cast<double>(frames[q].size() + response_frame.size());
  }
  report->Add("net.decode_ns", NsPerCall(4096, 31, [&](size_t i) {
                const auto& frame = frames[i % nq];
                spca::net::RequestFrame decoded;
                size_t consumed = 0;
                const auto error = spca::net::DecodeRequest(
                    frame.data(), frame.size(),
                    spca::net::kDefaultMaxFrameBytes, &decoded, &consumed);
                if (error == spca::net::FrameError::kOk) {
                  sink += static_cast<double>(
                      spca::net::ToProjectionRequest(decoded).nnz());
                }
              }),
              "ns");
  report->Add("net.encode_ns", NsPerCall(4096, 31, [&](size_t i) {
                response_frame.clear();
                spca::net::EncodeResponse(spca::net::WireOutcome::kOk, i,
                                          out.data(), d, &response_frame);
              }),
              "ns");
  report->Add("net.route_ns", NsPerCall(16384, 31, [&](size_t) {
                sink += static_cast<double>(shards->ShardOf(model_name));
              }),
              "ns");
  report->Add("net.bytes_per_req", wire_bytes / static_cast<double>(nq),
              "bytes");
  report->Diag("probe checksum " + std::to_string(sink));
}

}  // namespace perfbench
