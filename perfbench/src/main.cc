// Repository benchmark driver.
//
//   perfbench_driver --workload fit_tweets|serve_socket|stream_publish
//                    --seed N --seconds S --trace 0|1
//                    [--tiny] [--corrupt] [--out-dir DIR] [--git-sha SHA]
//
// Each workload puts a different module on the critical path (see
// perfbench/README.md for why each exists and what each metric should
// and should not move). BENCHMARK.json gates fit_tweets and serve_socket;
// stream_publish runs the same way but is not gated, because its timings
// and memory did not hold steady on a shared guest (README.md has the
// measurements). A run is bounded by a fixed number of operations,
// derived from --seconds through a nominal per-workload rate, never by
// elapsed time: mini-batch EM's resident memory grows with the number of
// steps taken, so a time-bounded run would turn memory into speed.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same
// operations untraced and then traced, and prints the per-layer metrics:
// bench-side spans around public calls, the engine's own job spans, the
// serve.* / net.* histograms, and timed calls into each module (probes).
// The traced spans are written out as Chrome trace JSON.
//
// Every check that fails counts as a failed operation. The last stdout
// line is the JSON result; every other line starts with "# ".

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "core/reconstruction_error.h"
#include "core/spca.h"
#include "harness.h"
#include "linalg/kernel_dispatch.h"
#include "obs/export.h"
#include "rigs.h"
#include "serve/model_io.h"
#include "serve/projector.h"

namespace perfbench {
namespace {

using spca::Stopwatch;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool corrupt = false;
  std::string out_dir = ".bench_build/out";
  std::string git_sha = "unknown";
};

// Nominal operation rates: a run does rate * --seconds operations, which
// takes about --seconds on a 4-vCPU x86-64 KVM guest.
constexpr double kFitsPerSecond = 1.3;
constexpr double kRequestsPerSecond = 80000.0;
constexpr double kCyclesPerSecond = 7.5;
// Set-up is timed several times per run and reported as the median; the
// fit's set-up (input plus a 15-iteration anchor fit) is the expensive one.
constexpr int kFitSetups = 3;
constexpr int kServeSetups = 5;
constexpr int kStreamSetups = 5;

constexpr size_t kServeWindow = 32;
constexpr size_t kServeFlushEvery = 8;
constexpr double kReaderPeriodSec = 0.0005;  // ~2k req/s

size_t OpBudget(const Options& o, double per_second, size_t tiny_ops,
                size_t min_ops) {
  if (o.tiny) return tiny_ops;
  return std::max<size_t>(
      min_ops, static_cast<size_t>(std::llround(per_second * o.seconds)));
}

std::string Fmt(const char* format, double a, double b = 0.0,
                double c = 0.0, double d = 0.0) {
  char line[512];
  std::snprintf(line, sizeof(line), format, a, b, c, d);
  return line;
}

void DiagTail(Report* report, const std::string& what,
              const std::vector<double>& values) {
  std::string line = what + Fmt(": p50 %.4f ms, p99 %.4f ms over n=%.0f",
                                Quantile(values, 0.5), Quantile(values, 0.99),
                                static_cast<double>(values.size()));
  const Tail tail = SupportedTail(values);
  line += tail.q == 0.0
              ? std::string("; too few samples for a supported tail")
              : Fmt("; highest supported tail p%.1f = %.4f ms", tail.q * 100.0,
                    tail.value);
  report->Diag(line);
}

void DrainSpans(obs::Registry* registry) {
  std::vector<obs::SpanRecord> dropped;
  registry->DrainSpans(false, &dropped);
}

double OverheadPct(double traced, double untraced) {
  return untraced > 0.0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
}

/// serve.* and net.outside_service from the shard histograms of one pass.
void AddServeMetrics(Report* report, const obs::Registry& metrics,
                     const ClientLog& log, double server_cpu_s) {
  auto p50_ms = [&](const char* name) {
    const auto* h = metrics.FindHistogram(name);
    return h != nullptr ? h->Quantile(0.5) * 1e3 : 0.0;
  };
  const auto* batch = metrics.FindHistogram("serve.batch_size");
  const double service_p50 = p50_ms("serve.latency_sec");
  report->Add("serve.queue_wait_p50_ms", p50_ms("serve.queue_sec"), "ms");
  report->Add("serve.batch_exec_p50_ms", p50_ms("serve.batch_exec_sec"), "ms");
  report->Add("serve.batch_size_mean", batch != nullptr ? batch->mean() : 0.0,
              "count");
  report->Add("serve.latency_p50_ms", service_p50, "ms");
  report->Add("serve.cpu_us_per_req",
              log.sent > 0 ? server_cpu_s * 1e6 / static_cast<double>(log.sent)
                           : 0.0,
              "us");
  report->Add("net.outside_service_p50_ms",
              Median(log.latency_ms) - service_p50, "ms");
}

struct StreamTimes {
  std::vector<double> step_ms;
  std::vector<double> snapshot_ms;
  std::vector<double> publish_ms;
  void Add(const StreamIngest::Cycle& cycle) {
    step_ms.push_back(cycle.step_ms[0]);
    step_ms.push_back(cycle.step_ms[1]);
    snapshot_ms.push_back(cycle.snapshot_ms);
    publish_ms.push_back(cycle.publish_ms);
  }
};

void AddStreamMetrics(Report* report, const StreamTimes& times,
                      double rss_kb_per_step) {
  report->Add("stream.step_ms", Median(times.step_ms), "ms");
  report->Add("stream.snapshot_ms", Median(times.snapshot_ms), "ms");
  report->Add("stream.publish_ms", Median(times.publish_ms), "ms");
  report->Add("stream.rss_kb_per_step", rss_kb_per_step, "kB");
}

/// Job-span timings of the EM jobs (`iteration_span` is the span whose
/// self time is the driver's share of one iteration).
void AddCoreSpanMetrics(Report* report,
                        const std::vector<obs::SpanRecord>& spans,
                        const std::string& iteration_span,
                        const std::vector<std::string>& pre_jobs, size_t ops) {
  double pre_ms = 0.0;
  for (const auto& name : pre_jobs) {
    for (double ms : SpanDurationsMs(spans, name)) pre_ms += ms;
  }
  report->Add("core.ytx_job_ms", Median(SpanDurationsMs(spans, "YtXJob")),
              "ms");
  report->Add("core.ss3_job_ms", Median(SpanDurationsMs(spans, "ss3Job")),
              "ms");
  report->Add("core.pre_jobs_ms", pre_ms / static_cast<double>(ops), "ms");
  report->Add("core.iteration_self_ms",
              Median(SpanSelfMs(spans, iteration_span)), "ms");
}

/// The serving path for a workload that does not serve: one closed-loop
/// connection, window 1, against this workload's model.
void ServePathProbe(const PcaModel& model, const DistMatrix& queries,
                    size_t requests, Report* report) {
  obs::Registry metrics;
  ServeStack stack(&metrics);
  SPCA_CHECK(stack.Start().ok());
  SPCA_CHECK(stack.shards()->InstallModel("probe", model).ok());
  const std::vector<std::string> names = {"probe"};
  ClosedLoopSpec spec;
  spec.total = requests;
  spec.window = 1;
  spec.flush_every = 1;
  spec.names = &names;
  spec.queries = &queries;
  ClientLog log;
  log.latency_ms.resize(requests);
  const double cpu0 = ProcessCpuSeconds();
  RunClosedLoop(stack.port(), spec, &log);
  const double cpu = ProcessCpuSeconds() - cpu0;
  report->CountOps(log.sent, log.bad);
  if (log.bad > 0) report->NoteFailure("serve probe: " + log.first_bad);
  AddServeMetrics(report, metrics, log, cpu - log.client_cpu_s);
}

/// The streaming path for a workload that does not stream: a few publish
/// cycles over this workload's rows into an in-process registry.
void StreamPathProbe(const DistMatrix& source, const Sizes& sizes,
                     uint64_t seed, Report* report) {
  constexpr size_t kCycles = 4;
  obs::Registry engine_registry;
  spca::serve::ModelRegistry models;
  StreamIngest ingest(sizes, seed, &engine_registry, false, &models, "probe");
  StreamTimes times;
  const double rss0 = CurrentRssKb();
  for (size_t c = 0; c < kCycles; ++c) {
    const size_t b = sizes.batch_rows;
    const auto cycle = ingest.RunCycle(
        SliceRows(source, (2 * c) * b, (2 * c + 1) * b, 4),
        SliceRows(source, (2 * c + 1) * b, (2 * c + 2) * b, 4));
    report->CountOp(cycle.ok && cycle.generation == c + 1);
    if (!cycle.ok) report->NoteFailure("stream probe: " + cycle.why);
    times.Add(cycle);
  }
  AddStreamMetrics(report, times,
                   std::max(0.0, CurrentRssKb() - rss0) / (2.0 * kCycles));
}

/// Writes the traced run's spans (bench-side and the engine's own, which
/// share the registry) and prints per-span self times.
void ExportTrace(const Options& o, obs::Registry* trace, Report* report) {
  const auto spans = trace->spans();
  auto self = SelfTimes(spans);
  std::sort(self.begin(), self.end(),
            [](const SelfTime& a, const SelfTime& b) {
              return a.self_ms > b.self_ms;
            });
  for (size_t i = 0; i < std::min<size_t>(12, self.size()); ++i) {
    report->Diag("self time " + self[i].name +
                 Fmt(": n=%.0f total %.3f ms self %.3f ms",
                     static_cast<double>(self[i].count), self[i].total_ms,
                     self[i].self_ms));
  }
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string path = o.out_dir + "/trace_" + o.workload + "_seed" +
                           std::to_string(o.seed) + ".json";
  const auto status =
      spca::obs::WriteFile(path, spca::obs::ChromeTraceJson(*trace));
  report->Diag("trace: " + std::to_string(spans.size()) + " spans -> " +
               (status.ok() ? path : status.ToString()));
}

// ---- fit_tweets ------------------------------------------------------------

struct FitPass {
  std::vector<double> op_ms;
  double cpu_s = 0.0;
  double rate = 0.0;
  double steal_s = 0.0;
  PcaModel model;
};

struct FitReference {
  bool set = false;
  int iterations = 0;
  double sim_s = 0.0;
  double accuracy = 0.0;
  std::vector<double> accuracy_trace;
  spca::dist::CommStats stats;
};

FitPass RunFitPass(const Options& o, const Sizes& sizes,
                   const FitInputs& inputs, size_t ops, obs::Registry* trace,
                   FitReference* ref, Report* report) {
  FitPass pass;
  obs::Registry discard;
  auto engine = MakeEngine(trace != nullptr ? trace : &discard, 2);
  std::vector<double> completions;
  const double steal0 = HostStealSeconds();
  const double cpu0 = ProcessCpuSeconds();
  const double start = NowSeconds();
  std::vector<uint64_t> op_span_ids;
  for (size_t op = 0; op < ops; ++op) {
    obs::Span span(trace, "bench.fit", "bench");
    span.SetAttribute("op", static_cast<uint64_t>(op));
    op_span_ids.push_back(span.id());
    Stopwatch watch;
    FitOutcome outcome = RunFit(engine.get(), inputs, sizes);
    pass.op_ms.push_back(watch.ElapsedSeconds() * 1e3);
    completions.push_back(NowSeconds());
    span.End();
    bool ok = outcome.ok;
    if (!ok) report->NoteFailure(outcome.why);
    if (!ref->set) {
      ref->set = true;
      ref->iterations = outcome.iterations;
      ref->sim_s = outcome.sim_s;
      ref->accuracy = outcome.accuracy_percent;
      ref->accuracy_trace = outcome.accuracy_trace;
      ref->stats = outcome.stats;
      // The self-test's corrupted expectation: every later op must now
      // disagree with the reference and count as failed.
      if (o.corrupt) ref->sim_s = std::nextafter(ref->sim_s, 1e300);
    } else if (outcome.iterations != ref->iterations ||
               outcome.sim_s != ref->sim_s) {
      ok = false;
      report->NoteFailure(
          "fit " + std::to_string(op) + Fmt(": %.0f iterations, sim %.17g s;",
                                            outcome.iterations, outcome.sim_s) +
          Fmt(" reference %.0f iterations, sim %.17g s", ref->iterations,
              ref->sim_s));
    }
    report->CountOp(ok);
    pass.model = std::move(outcome.model);
    if (trace == nullptr) DrainSpans(&discard);
  }
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  pass.rate = MedianIntervalRate(completions, start, 1);
  pass.steal_s = HostStealSeconds() - steal0;
  TagOps(trace, op_span_ids);
  return pass;
}

void FitTweets(const Options& o, Report* report) {
  const Sizes sizes = o.tiny ? TinySizes() : DefaultSizes();
  const size_t ops = OpBudget(o, kFitsPerSecond, 3, 3);
  FitInputs inputs;
  std::vector<double> setup_s;
  for (int r = 0; r < (o.trace ? 1 : kFitSetups); ++r) {
    inputs = FitInputs{};
    Stopwatch watch;
    inputs = SetUpFit(sizes, o.seed);
    setup_s.push_back(watch.ElapsedSeconds());
  }
  report->Diag(Fmt("fit_tweets: %.0f x %.0f, %.0f stored entries, anchor "
                   "error %.6f",
                   inputs.y.rows(), inputs.y.cols(),
                   inputs.y.StoredEntries(), inputs.anchor) +
               Fmt(", %.0f fits", ops));
  EndSetUpMemory();

  FitReference ref;
  const FitPass base = RunFitPass(o, sizes, inputs, ops, nullptr, &ref, report);
  report->Diag(Fmt("fits: %.0f iterations to %.2f%% of the anchor, sim %.6f s, "
                   "steal %.3f s while measuring",
                   ref.iterations, ref.accuracy, ref.sim_s, base.steal_s));
  std::string trace_line = "accuracy by iteration (% of anchor):";
  for (double pct : ref.accuracy_trace) trace_line += Fmt(" %.2f", pct);
  report->Diag(trace_line);
  std::string ops_line = "fit times (ms):";
  for (double ms : base.op_ms) ops_line += Fmt(" %.1f", ms);
  report->Diag(ops_line);
  DiagTail(report, "fit time tail", base.op_ms);
  if (!o.trace) {
    const double peak_mb = PeakRssKb() / 1024.0;
    report->Add("op_p50_ms", Median(base.op_ms), "ms");
    report->Add("cpu_ms_per_op", base.cpu_s * 1e3 / static_cast<double>(ops),
                "ms");
    report->Add("throughput_per_s", base.rate, "1/s");
    report->Add("sim_s", ref.sim_s, "s");
    report->Add("peak_rss_mb", peak_mb, "MB");
    report->Add("setup_s", Median(setup_s), "s");
    return;
  }

  obs::Registry trace;
  const FitPass traced =
      RunFitPass(o, sizes, inputs, ops, &trace, &ref, report);
  const auto spans = trace.spans();
  report->Add("dist.jobs_per_op", static_cast<double>(ref.stats.jobs_launched),
              "count");
  report->Add("dist.task_flops_per_op",
              static_cast<double>(ref.stats.task_flops), "flops");
  report->Add("dist.shipped_bytes_per_op",
              static_cast<double>(ref.stats.ShippedBytes()), "bytes");
  report->Add("core.iterations", ref.iterations, "count");
  AddCoreSpanMetrics(report, spans, "spca.em_iteration",
                     {"meanJob", "FnormJob"}, ops);
  spca::net::ShardSetOptions router_only;
  router_only.service.num_threads = 1;
  spca::net::ShardSet shards(router_only);
  ProbeLayers(inputs.y, inputs.sample, inputs.queries, traced.model, &shards,
              "tweets", report);
  ServePathProbe(traced.model, inputs.queries, o.tiny ? 200 : 2000, report);
  StreamPathProbe(inputs.y, sizes, o.seed, report);
  report->Add("obs.trace_overhead_pct",
              OverheadPct(Median(traced.op_ms), Median(base.op_ms)), "%");
  report->Add("obs.spans_held", static_cast<double>(trace.SpansHeld()),
              "count");
  ExportTrace(o, &trace, report);
}

// ---- serve_socket ----------------------------------------------------------

struct ServeSetup {
  std::unique_ptr<obs::Registry> metrics;
  std::unique_ptr<ServeStack> stack;
  DistMatrix train;
  DistMatrix queries;
  PcaModel model;
  double fit_sim_s = 0.0;
  std::vector<std::string> names;
  std::vector<std::vector<double>> expected;
  std::vector<double> latency_buffer;  // the client's, sized in set-up
};

ServeSetup SetUpServe(const Options& o, const Sizes& sizes, size_t total,
                      obs::Registry* trace) {
  ServeSetup s;
  const DistMatrix all = TweetsRows(sizes.serve_train_rows + sizes.queries,
                                      sizes.dim, 8, o.seed);
  s.train = SliceRows(all, 0, sizes.serve_train_rows, 8);
  s.queries = SliceRows(all, sizes.serve_train_rows,
                        sizes.serve_train_rows + sizes.queries, 1);
  // Train -> save -> load: the served models come through the file format.
  obs::Registry discard;
  auto engine = MakeEngine(trace != nullptr ? trace : &discard, 2);
  spca::core::SpcaOptions options;
  options.num_components = sizes.components;
  options.max_iterations = sizes.serve_fit_iterations;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  options.seed = 1;
  auto fit = spca::core::Spca(engine.get(), options).Solve(s.train);
  SPCA_CHECK_MSG(fit.ok(), "serve_socket set-up fit failed");
  s.fit_sim_s = fit.value().stats.simulated_seconds;
  s.model = fit.value().model;
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  const std::string path = o.out_dir + "/serve_model_seed" +
                           std::to_string(o.seed) + ".spcm";
  SPCA_CHECK(spca::serve::SaveModel(s.model, path).ok());

  s.metrics = std::make_unique<obs::Registry>();
  s.stack = std::make_unique<ServeStack>(s.metrics.get());
  SPCA_CHECK(s.stack->Start().ok());
  s.names = {"tweets-a", "tweets-b", "tweets-c"};
  for (const auto& name : s.names) {
    SPCA_CHECK(s.stack->shards()->LoadModel(name, path).ok());
  }
  // Expected responses: the same rows projected in process.
  const auto projector = s.stack->shards()->GetModel(s.names[0]);
  s.expected.resize(s.queries.rows());
  for (size_t q = 0; q < s.queries.rows(); ++q) {
    s.expected[q].resize(sizes.components);
    projector->ProjectSparse(s.queries.sparse().Row(q), s.expected[q].data());
  }
  // Warm the connection path once before anything is timed.
  ClosedLoopSpec warm;
  warm.total = o.tiny ? 256 : 4096;
  warm.window = kServeWindow;
  warm.flush_every = kServeFlushEvery;
  warm.names = &s.names;
  warm.queries = &s.queries;
  warm.expected = &s.expected;
  ClientLog log;
  log.latency_ms.resize(warm.total);
  RunClosedLoop(s.stack->port(), warm, &log);
  SPCA_CHECK_MSG(log.bad == 0, "serve_socket warm-up saw bad responses");
  s.latency_buffer.resize(total);
  return s;
}

struct ServePass {
  ClientLog log;
  double cpu_s = 0.0;
  double steal_s = 0.0;
  double peak_rss_kb = 0.0;
};

ServePass RunServePass(ServeSetup* s, size_t total, size_t trace_every,
                       const std::vector<std::vector<double>>& expected,
                       Report* report) {
  ServePass pass;
  s->metrics->ResetMetricsWithPrefix("serve.");
  s->metrics->ResetMetricsWithPrefix("net.");
  ClosedLoopSpec spec;
  spec.total = total;
  spec.window = kServeWindow;
  spec.flush_every = kServeFlushEvery;
  spec.trace_every = trace_every;
  // Short intervals: a host stall then slows a few of them, not the median.
  spec.stamp_every = 1000;
  spec.names = &s->names;
  spec.queries = &s->queries;
  spec.expected = &expected;
  pass.log.latency_ms = std::move(s->latency_buffer);
  const double steal0 = HostStealSeconds();
  const double cpu0 = ProcessCpuSeconds();
  RunClosedLoop(s->stack->port(), spec, &pass.log);
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  pass.peak_rss_kb = PeakRssKb();
  pass.steal_s = HostStealSeconds() - steal0;
  report->CountOps(pass.log.sent, pass.log.bad);
  if (pass.log.bad > 0) {
    report->NoteFailure(std::to_string(pass.log.bad) +
                        " responses differ from the in-process projection; "
                        "first: " + pass.log.first_bad);
  }
  return pass;
}

void ServeSocket(const Options& o, Report* report) {
  const Sizes sizes = o.tiny ? TinySizes() : DefaultSizes();
  const size_t total = OpBudget(o, kRequestsPerSecond, 2000, 10000);
  obs::Registry trace;
  obs::Registry* trace_ptr = o.trace ? &trace : nullptr;
  std::unique_ptr<ServeSetup> setup;
  std::vector<double> setup_s;
  for (int r = 0; r < (o.trace ? 1 : kServeSetups); ++r) {
    setup.reset();  // tear the previous stack down before timing the next
    Stopwatch watch;
    setup =
        std::make_unique<ServeSetup>(SetUpServe(o, sizes, total, trace_ptr));
    setup_s.push_back(watch.ElapsedSeconds());
  }
  ServeSetup& s = *setup;
  std::vector<std::vector<double>> expected = s.expected;
  if (o.corrupt) expected[0][0] = std::nextafter(expected[0][0], 1e300);
  report->Diag(Fmt("serve_socket: %.0f requests, window %.0f, %.0f query "
                   "rows, 1 shard x 1 service thread",
                   total, kServeWindow, s.queries.rows()));
  EndSetUpMemory();

  const ServePass base = RunServePass(&s, total, 0, expected, report);
  const double client_p50 = Median(base.log.latency_ms);
  DiagTail(report, "round-trip tail", base.log.latency_ms);
  report->Diag(Fmt("steal %.3f s while measuring; %.0f ok of %.0f",
                   base.steal_s, base.log.ok, base.log.sent));
  if (!o.trace) {
    report->Add("op_p50_ms", client_p50, "ms");
    report->Add("cpu_ms_per_op",
                base.cpu_s * 1e3 / static_cast<double>(base.log.sent), "ms");
    report->Add("throughput_per_s",
                MedianIntervalRate(base.log.completion_sec, base.log.start_sec,
                                   base.log.stamp_every),
                "1/s");
    report->Add("sim_s", s.fit_sim_s, "s");
    report->Add("peak_rss_mb", base.peak_rss_kb / 1024.0, "MB");
    report->Add("setup_s", Median(setup_s), "s");
    return;
  }

  s.latency_buffer.resize(total);
  const ServePass traced = RunServePass(&s, total, 512, expected, report);
  FlushPendingSpans(&trace, traced.log.spans);
  const auto spans = trace.spans();
  // No engine job and no EM iteration runs per request; the job timings
  // come from the set-up fit that trained the served model.
  report->Add("dist.jobs_per_op", 0.0, "count");
  report->Add("dist.task_flops_per_op", 0.0, "flops");
  report->Add("dist.shipped_bytes_per_op", 0.0, "bytes");
  report->Add("core.iterations", 0.0, "count");
  AddCoreSpanMetrics(report, spans, "spca.em_iteration",
                     {"meanJob", "FnormJob"}, 1);
  const auto rows = spca::core::SampleRowIndices(
      s.train.rows(), spca::core::SpcaOptions{}.error_sample_rows,
      spca::core::kErrorSampleSeed);
  ProbeLayers(s.train, s.train.SampleRows(rows, 1), s.queries, s.model,
              s.stack->shards(), s.names[0], report);
  AddServeMetrics(report, *s.metrics, traced.log,
                  traced.cpu_s - traced.log.client_cpu_s);
  StreamPathProbe(s.train, sizes, o.seed, report);
  report->Add("obs.trace_overhead_pct",
              OverheadPct(Median(traced.log.latency_ms), client_p50), "%");
  report->Add("obs.spans_held", static_cast<double>(trace.SpansHeld()),
              "count");
  ExportTrace(o, &trace, report);
}

// ---- stream_publish --------------------------------------------------------

struct StreamSetup {
  std::unique_ptr<obs::Registry> metrics;
  std::unique_ptr<ServeStack> stack;
  std::unique_ptr<obs::Registry> engine_registry;
  std::unique_ptr<StreamIngest> ingest;
  DistMatrix source;
  DistMatrix queries;
  std::vector<DistMatrix> batches;
};

const char* const kLiveModel = "live";

StreamSetup SetUpStream(const Options& o, const Sizes& sizes, size_t cycles) {
  StreamSetup s;
  const size_t b = sizes.batch_rows;
  const size_t rows = (cycles + 1) * 2 * b;  // one warm-up cycle
  const DistMatrix all =
      TweetsRows(rows + sizes.queries, sizes.dim, 1, o.seed);
  s.source = SliceRows(all, 0, rows, 8);
  s.queries = SliceRows(all, rows, rows + sizes.queries, 1);
  for (size_t i = 0; i < 2 * (cycles + 1); ++i) {
    s.batches.push_back(SliceRows(all, i * b, (i + 1) * b, 4));
  }
  s.metrics = std::make_unique<obs::Registry>();
  s.stack = std::make_unique<ServeStack>(s.metrics.get());
  SPCA_CHECK(s.stack->Start().ok());
  s.engine_registry = std::make_unique<obs::Registry>();
  s.ingest = std::make_unique<StreamIngest>(sizes, o.seed,
                                            s.engine_registry.get(), false,
                                            s.stack->models(), kLiveModel);
  // Generation 1 serves before the reader starts, so kNoModel never counts.
  const auto first = s.ingest->RunCycle(s.batches[0], s.batches[1]);
  SPCA_CHECK_MSG(first.ok && first.generation == 1,
                 "stream_publish warm-up publish failed");
  DrainSpans(s.engine_registry.get());
  return s;
}

struct StreamPass {
  std::vector<double> cycle_ms;
  StreamTimes times;
  ClientLog reader;
  double cpu_s = 0.0;
  double server_cpu_s = 0.0;
  double sim_s = 0.0;
  double rate = 0.0;
  double steal_s = 0.0;
  double rss_kb_per_step = 0.0;
  double peak_rss_kb = 0.0;
  double faults_per_op = 0.0;
  spca::dist::CommStats stats;
};

StreamPass RunStreamPass(const Options& o, StreamSetup* s,
                         StreamIngest* ingest, size_t cycles,
                         obs::Registry* trace, Report* report) {
  StreamPass pass;
  s->metrics->ResetMetricsWithPrefix("serve.");
  s->metrics->ResetMetricsWithPrefix("net.");
  PacedReader reader(s->stack->port(), kLiveModel, &s->queries,
                     kReaderPeriodSec, trace != nullptr ? 16 : 0);
  reader.Start();
  spca::dist::Engine* engine = ingest->engine();
  const auto stats0 = engine->StatsSnapshot();
  const double sim0 = engine->SimulatedSeconds();
  const double rss0 = CurrentRssKb();
  const double steal0 = HostStealSeconds();
  const double faults0 = ProcessMinorFaults();
  const double cpu0 = ProcessCpuSeconds();
  const double main_cpu0 = ThreadCpuSeconds();
  const double start = NowSeconds();
  std::vector<double> completions;
  uint64_t generation = 0;
  PcaModel last;
  std::vector<uint64_t> op_span_ids;
  for (size_t c = 0; c < cycles; ++c) {
    obs::Span span(trace, "bench.cycle", "bench");
    span.SetAttribute("op", static_cast<uint64_t>(c));
    op_span_ids.push_back(span.id());
    Stopwatch watch;
    auto cycle =
        ingest->RunCycle(s->batches[2 * c + 2], s->batches[2 * c + 3]);
    pass.cycle_ms.push_back(watch.ElapsedSeconds() * 1e3);
    completions.push_back(NowSeconds());
    span.End();
    bool ok = cycle.ok && cycle.generation > generation;
    if (!cycle.ok) {
      report->NoteFailure("cycle " + std::to_string(c) + ": " + cycle.why);
    } else if (!ok) {
      report->NoteFailure("generation did not increase");
    }
    generation = cycle.generation;
    report->CountOp(ok);
    pass.times.Add(cycle);
    last = std::move(cycle.snapshot);
    if (trace == nullptr) DrainSpans(engine->registry());
  }
  const double main_cpu = ThreadCpuSeconds() - main_cpu0;
  pass.peak_rss_kb = PeakRssKb();
  TagOps(trace, op_span_ids);
  pass.reader = reader.Stop();
  pass.cpu_s = ProcessCpuSeconds() - cpu0;
  pass.server_cpu_s = pass.cpu_s - main_cpu - pass.reader.client_cpu_s;
  pass.steal_s = HostStealSeconds() - steal0;
  pass.faults_per_op =
      (ProcessMinorFaults() - faults0) / static_cast<double>(cycles);
  pass.sim_s =
      (engine->SimulatedSeconds() - sim0) / static_cast<double>(cycles);
  pass.rate = MedianIntervalRate(completions, start, 1);
  pass.rss_kb_per_step =
      std::max(0.0, pass.peak_rss_kb - rss0) / static_cast<double>(2 * cycles);
  pass.stats = spca::dist::StatsDiff(engine->StatsSnapshot(), stats0);

  report->CountOps(pass.reader.sent, pass.reader.bad);
  if (pass.reader.bad > 0) report->NoteFailure(pass.reader.first_bad);
  // After the last cycle the served model must be exactly the snapshot.
  const auto served = s->stack->models()->Get(kLiveModel);
  auto reference = spca::serve::Projector::Create(last);
  bool identical = served != nullptr && reference.ok();
  const size_t d = last.num_components();
  std::vector<double> got(d + 4), want(d + 4);
  for (size_t q = 0; identical && q < std::min<size_t>(64, s->queries.rows());
       ++q) {
    served->ProjectSparse(s->queries.sparse().Row(q), got.data());
    reference.value().ProjectSparse(s->queries.sparse().Row(q), want.data());
    if (o.corrupt && q == 0) want[0] = std::nextafter(want[0], 1e300);
    identical = std::memcmp(got.data(), want.data(), d * sizeof(double)) == 0;
  }
  if (!identical) {
    report->FailCounted("served model does not project like the final "
                        "snapshot");
  }
  return pass;
}

void StreamPublish(const Options& o, Report* report) {
  const Sizes sizes = o.tiny ? TinySizes() : DefaultSizes();
  const size_t cycles = OpBudget(o, kCyclesPerSecond, 6, 20);
  std::unique_ptr<StreamSetup> setup;
  std::vector<double> setup_s;
  for (int r = 0; r < (o.trace ? 1 : kStreamSetups); ++r) {
    setup.reset();  // tear the previous stack down before timing the next
    Stopwatch watch;
    setup = std::make_unique<StreamSetup>(SetUpStream(o, sizes, cycles));
    setup_s.push_back(watch.ElapsedSeconds());
  }
  StreamSetup& s = *setup;
  report->Diag(Fmt("stream_publish: %.0f cycles of 2 x %.0f-row batches, "
                   "D=%.0f, d=%.0f",
                   cycles, sizes.batch_rows, sizes.dim, sizes.components) +
               Fmt("; reader every %.2f ms", kReaderPeriodSec * 1e3));
  EndSetUpMemory();

  const StreamPass base =
      RunStreamPass(o, &s, s.ingest.get(), cycles, nullptr, report);
  DiagTail(report, "cycle time tail", base.cycle_ms);
  DiagTail(report, "reader round-trip tail", base.reader.latency_ms);
  report->Diag(Fmt("reader lateness p50 %.4f ms max %.4f ms; steal %.3f s "
                   "while measuring; %.0f reader requests",
                   base.reader.lateness_ms_p50, base.reader.lateness_ms_max,
                   base.steal_s, base.reader.sent) +
               Fmt("; %.0f minor page faults per cycle", base.faults_per_op));
  if (!o.trace) {
    report->Add("op_p50_ms", Median(base.cycle_ms), "ms");
    report->Add("cpu_ms_per_op", base.cpu_s * 1e3 / static_cast<double>(cycles),
                "ms");
    report->Add("throughput_per_s", base.rate, "1/s");
    report->Add("sim_s", base.sim_s, "s");
    report->Add("peak_rss_mb", base.peak_rss_kb / 1024.0, "MB");
    report->Add("setup_s", Median(setup_s), "s");
    return;
  }

  // The traced pass replays the same batches through a fresh ingest whose
  // engine records into the trace registry.
  obs::Registry trace;
  StreamIngest ingest(sizes, o.seed, &trace, true, s.stack->models(),
                      kLiveModel);
  const auto warm = ingest.RunCycle(s.batches[0], s.batches[1]);
  report->CountOp(warm.ok);
  const StreamPass traced =
      RunStreamPass(o, &s, &ingest, cycles, &trace, report);
  FlushPendingSpans(&trace, traced.reader.spans);
  const auto spans = trace.spans();
  const double n = static_cast<double>(cycles);
  report->Add("dist.jobs_per_op",
              static_cast<double>(traced.stats.jobs_launched) / n, "count");
  report->Add("dist.task_flops_per_op",
              static_cast<double>(traced.stats.task_flops) / n, "flops");
  report->Add("dist.shipped_bytes_per_op",
              static_cast<double>(traced.stats.ShippedBytes()) / n, "bytes");
  const double steps =
      static_cast<double>(SpanDurationsMs(spans, "stream.step").size());
  report->Add("core.iterations", steps / (n + 1.0), "count");
  AddCoreSpanMetrics(report, spans, "stream.step",
                     {"stream.sumJob", "FnormJob"}, cycles + 1);
  const auto rows = spca::core::SampleRowIndices(
      s.source.rows(), spca::core::SpcaOptions{}.error_sample_rows,
      spca::core::kErrorSampleSeed);
  auto model = s.stack->shards()->GetModel(kLiveModel);
  ProbeLayers(s.source, s.source.SampleRows(rows, 1), s.queries,
              model->model(), s.stack->shards(), kLiveModel, report);
  AddServeMetrics(report, *s.metrics, traced.reader, traced.server_cpu_s);
  AddStreamMetrics(report, traced.times, base.rss_kb_per_step);
  report->Add("obs.trace_overhead_pct",
              OverheadPct(Median(traced.cycle_ms), Median(base.cycle_ms)), "%");
  report->Add("obs.spans_held", static_cast<double>(trace.SpansHeld()),
              "count");
  ExportTrace(o, &trace, report);
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--tiny") {
      o->tiny = true;
    } else if (flag == "--corrupt") {
      o->corrupt = true;
    } else {
      const char* v = value();
      if (v == nullptr) return false;
      char* end = nullptr;
      if (flag == "--workload") {
        o->workload = v;
      } else if (flag == "--seed") {
        o->seed = std::strtoull(v, &end, 10);
        if (*end != '\0') return false;
      } else if (flag == "--seconds") {
        o->seconds = std::strtod(v, &end);
        if (*end != '\0' || !(o->seconds > 0.0)) return false;
      } else if (flag == "--trace") {
        if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
        o->trace = v[0] == '1';
      } else if (flag == "--out-dir") {
        o->out_dir = v;
      } else if (flag == "--git-sha") {
        o->git_sha = v;
      } else {
        return false;
      }
    }
  }
  return !o->workload.empty();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--tiny] [--corrupt] [--out-dir DIR] "
                 "[--git-sha SHA]\n");
    return 2;
  }
  Report report;
  report.Diag("host: isa=" +
              std::string(spca::linalg::kernels::DispatchedIsaName()) +
              " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
              " git=" + o.git_sha + " workload=" + o.workload +
              " seed=" + std::to_string(o.seed) +
              " trace=" + (o.trace ? "1" : "0"));
  const double steal0 = HostStealSeconds();
  if (o.workload == "fit_tweets") {
    FitTweets(o, &report);
  } else if (o.workload == "serve_socket") {
    ServeSocket(o, &report);
  } else if (o.workload == "stream_publish") {
    StreamPublish(o, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  report.Diag(Fmt("host steal over the whole run: %.3f s",
                  HostStealSeconds() - steal0));
  std::printf("%s\n", report.Json().c_str());
  return 0;
}
