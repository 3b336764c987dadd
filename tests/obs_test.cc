// Observability layer: metric semantics, span nesting, exporter goldens,
// and the end-to-end guarantees that engine/solver telemetry is complete
// (one span per job, registry counters == CommStats == JobTrace sums).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "core/spca.h"
#include "dist/engine.h"
#include "dist/fault.h"
#include "dist/worker_pool.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/registry.h"
#include "obs/runtime.h"
#include "workload/synthetic.h"

namespace spca::obs {
namespace {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using dist::JobDesc;
using dist::RowRange;
using dist::TaskContext;

DistMatrix SmallData(size_t rows, size_t cols, uint64_t seed,
                     size_t partitions = 4) {
  workload::LowRankConfig config;
  config.rows = rows;
  config.cols = cols;
  config.rank = std::min<size_t>(3, cols);
  config.noise_stddev = 0.05;
  config.seed = seed;
  return DistMatrix::FromDense(workload::GenerateLowRank(config), partitions);
}

uint64_t AttrUint(const SpanRecord& span, std::string_view key) {
  const AttrValue* value = span.FindAttribute(key);
  EXPECT_NE(value, nullptr) << "missing attribute " << key;
  if (value == nullptr || !std::holds_alternative<uint64_t>(*value)) return 0;
  return std::get<uint64_t>(*value);
}

// ---------------------------------------------------------------- metrics

TEST(CounterTest, AddIncrementAndIntegerView) {
  Counter c;
  EXPECT_EQ(c.value(), 0.0);
  c.Add(2.5);
  c.Increment();
  EXPECT_DOUBLE_EQ(c.value(), 3.5);
  c.Add(996.5);
  EXPECT_EQ(c.AsUint64(), 1000u);
  c.Reset();
  EXPECT_EQ(c.value(), 0.0);
}

TEST(CounterTest, ConcurrentAddsDoNotLoseUpdates) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kAddsPerThread; ++i) c.Add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.AsUint64(), static_cast<uint64_t>(kThreads) * kAddsPerThread);
}

TEST(GaugeTest, SetAddSetMax) {
  Gauge g;
  g.Set(10.0);
  g.Add(-3.0);
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.SetMax(5.0);  // lower: no effect
  EXPECT_DOUBLE_EQ(g.value(), 7.0);
  g.SetMax(12.0);
  EXPECT_DOUBLE_EQ(g.value(), 12.0);
}

TEST(HistogramTest, SummaryStatistics) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.min(), 0.0);
  h.Observe(0.5);
  h.Observe(20.0);
  h.Observe(2.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 22.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 20.0);
  EXPECT_DOUBLE_EQ(h.mean(), 7.5);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
}

TEST(HistogramTest, DecadeBuckets) {
  // Decade buckets: (10^(i-10), 10^(i-9)] roughly; what matters for the
  // exporters is that every value lands in exactly one bucket and the
  // bounds are monotone.
  EXPECT_EQ(Histogram::BucketIndex(0.5), 9);
  EXPECT_EQ(Histogram::BucketIndex(1.0), 9);
  EXPECT_EQ(Histogram::BucketIndex(2.0), 10);
  EXPECT_EQ(Histogram::BucketIndex(20.0), 11);
  EXPECT_EQ(Histogram::BucketIndex(1e-12), 0);
  EXPECT_EQ(Histogram::BucketIndex(1e15), Histogram::kNumBuckets - 1);
  for (int i = 1; i < Histogram::kNumBuckets - 1; ++i) {
    EXPECT_LT(Histogram::BucketUpperBound(i - 1),
              Histogram::BucketUpperBound(i));
  }
  Histogram h;
  h.Observe(0.5);
  h.Observe(20.0);
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), static_cast<size_t>(Histogram::kNumBuckets));
  uint64_t total = 0;
  for (const uint64_t b : buckets) total += b;
  EXPECT_EQ(total, 2u);
  EXPECT_EQ(buckets[9], 1u);
  EXPECT_EQ(buckets[11], 1u);
}

TEST(RegistryTest, MetricsAreCreatedOnceWithStablePointers) {
  Registry registry;
  Counter* a = registry.counter("x.count");
  Counter* b = registry.counter("x.count");
  EXPECT_EQ(a, b);
  a->Add(5.0);
  EXPECT_EQ(registry.FindCounter("x.count"), a);
  EXPECT_EQ(registry.FindCounter("missing"), nullptr);
  EXPECT_EQ(registry.FindGauge("x.count"), nullptr);  // kinds are separate
  registry.gauge("b.gauge")->Set(1.0);
  registry.histogram("a.hist")->Observe(1.0);
  EXPECT_EQ(registry.CounterNames(), std::vector<std::string>{"x.count"});
  EXPECT_EQ(registry.GaugeNames(), std::vector<std::string>{"b.gauge"});
  EXPECT_EQ(registry.HistogramNames(), std::vector<std::string>{"a.hist"});
}

TEST(RegistryTest, ResetMetricsWithPrefixIsSelective) {
  Registry registry;
  registry.counter("engine.jobs")->Add(4.0);
  registry.counter("spca.iterations")->Add(7.0);
  registry.gauge("engine.memory")->Set(100.0);
  registry.histogram("engine.job.sec")->Observe(1.0);
  registry.ResetMetricsWithPrefix("engine.");
  EXPECT_EQ(registry.FindCounter("engine.jobs")->value(), 0.0);
  EXPECT_EQ(registry.FindGauge("engine.memory")->value(), 0.0);
  EXPECT_EQ(registry.FindHistogram("engine.job.sec")->count(), 0u);
  EXPECT_EQ(registry.FindCounter("spca.iterations")->value(), 7.0);
}

TEST(RegistryTest, RecordKernelIsaStampsGaugesIdempotently) {
  Registry registry;
  RecordKernelIsa(&registry, "avx2", 1);
  ASSERT_NE(registry.FindGauge("kernel.isa_id"), nullptr);
  EXPECT_EQ(registry.FindGauge("kernel.isa_id")->value(), 1.0);
  ASSERT_NE(registry.FindGauge("kernel.isa.avx2"), nullptr);
  EXPECT_EQ(registry.FindGauge("kernel.isa.avx2")->value(), 1.0);

  // Dispatch resolves once per process, so every owner of a registry may
  // stamp it again without drift.
  RecordKernelIsa(&registry, "avx2", 1);
  EXPECT_EQ(registry.FindGauge("kernel.isa_id")->value(), 1.0);
  EXPECT_EQ(registry.FindGauge("kernel.isa.avx2")->value(), 1.0);
  EXPECT_EQ(registry.FindGauge("kernel.isa.scalar"), nullptr);

  RecordKernelIsa(nullptr, "avx2", 1);  // null registry: no-op
}

// ----------------------------------------------------------------- spans

TEST(SpanTest, OpenStackProvidesParentChildNesting) {
  Registry registry;
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  uint64_t sibling_id = 0;
  {
    Span outer(&registry, "outer", "algorithm");
    outer_id = outer.id();
    {
      Span inner(&registry, "inner", "job");
      inner_id = inner.id();
    }
    {
      Span sibling(&registry, "sibling", "job");
      sibling_id = sibling.id();
    }
  }
  Span root(&registry, "root2");
  root.End();

  const auto spans = registry.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[outer_id - 1].parent_id, 0u);
  EXPECT_EQ(spans[inner_id - 1].parent_id, outer_id);
  EXPECT_EQ(spans[sibling_id - 1].parent_id, outer_id);
  EXPECT_EQ(spans[3].parent_id, 0u);  // opened after outer closed
  for (const auto& span : spans) {
    EXPECT_TRUE(span.closed);
    EXPECT_GE(span.duration_sec(), 0.0);
    EXPECT_EQ(span.track, Track::kWall);
  }
}

TEST(SpanTest, NullRegistryIsANoOp) {
  Span span(nullptr, "nothing", "job");
  span.SetAttribute("k", static_cast<uint64_t>(1));
  span.End();
  EXPECT_EQ(span.id(), 0u);
  EXPECT_EQ(span.registry(), nullptr);
}

TEST(SpanTest, AttributesAndIdempotentEnd) {
  Registry registry;
  Span span(&registry, "job1", "job");
  span.SetAttribute("flops", static_cast<uint64_t>(123));
  span.SetAttribute("seconds", 1.5);
  span.SetAttribute("phase", std::string("preprocess"));
  span.End();
  span.End();  // second End must not corrupt anything
  const auto spans = registry.spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(AttrUint(spans[0], "flops"), 123u);
  EXPECT_DOUBLE_EQ(std::get<double>(*spans[0].FindAttribute("seconds")), 1.5);
  EXPECT_EQ(std::get<std::string>(*spans[0].FindAttribute("phase")),
            "preprocess");
  EXPECT_EQ(spans[0].FindAttribute("missing"), nullptr);
}

TEST(SpanTest, AddCompleteSpanUsesExplicitTimesAndParent) {
  Registry registry;
  Span open(&registry, "job", "job");
  const uint64_t child =
      registry.AddCompleteSpan("compute", "sim_phase", Track::kSim, 10.0, 2.5,
                               /*parent_id=*/0);  // 0 -> innermost open span
  const uint64_t explicit_child = registry.AddCompleteSpan(
      "data", "sim_phase", Track::kSim, 12.5, 1.0, open.id());
  open.End();
  const auto spans = registry.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[child - 1].parent_id, open.id());
  EXPECT_EQ(spans[explicit_child - 1].parent_id, open.id());
  EXPECT_DOUBLE_EQ(spans[child - 1].start_sec, 10.0);
  EXPECT_DOUBLE_EQ(spans[child - 1].end_sec, 12.5);
  EXPECT_EQ(spans[child - 1].track, Track::kSim);
  EXPECT_TRUE(spans[child - 1].closed);
}

// ------------------------------------------------------------- exporters

TEST(ExportTest, MetricsJsonLinesGolden) {
  Registry registry;
  registry.counter("jobs")->Add(3.0);
  registry.gauge("mem")->Set(2.5);
  Histogram* h = registry.histogram("lat");
  h->Observe(0.5);
  h->Observe(20.0);
  const std::string expected =
      "{\"metric\":\"jobs\",\"type\":\"counter\",\"value\":3}\n"
      "{\"metric\":\"mem\",\"type\":\"gauge\",\"value\":2.5}\n"
      "{\"metric\":\"lat\",\"type\":\"histogram\",\"count\":2,\"sum\":20.5,"
      "\"min\":0.5,\"max\":20,"
      "\"p50\":" + JsonNumber(h->Quantile(0.50)) +
      ",\"p95\":" + JsonNumber(h->Quantile(0.95)) +
      ",\"p99\":" + JsonNumber(h->Quantile(0.99)) +
      ",\"buckets\":"
      "[0,0,0,0,0,0,0,0,0,1,0,1,0,0,0,0,0,0,0,0,0,0]}\n";
  EXPECT_EQ(MetricsJsonLines(registry), expected);
}

TEST(HistogramTest, QuantileEstimatesFromFineBuckets) {
  Histogram h;
  // 1..100 milliseconds when observing seconds: quantiles should come back
  // within the fine track's ~3.7% relative error.
  for (int i = 1; i <= 100; ++i) h.Observe(static_cast<double>(i) * 1e-3);
  EXPECT_NEAR(h.Quantile(0.50), 0.050, 0.050 * 0.05);
  EXPECT_NEAR(h.Quantile(0.95), 0.095, 0.095 * 0.05);
  EXPECT_NEAR(h.Quantile(0.99), 0.099, 0.099 * 0.05);
  // Edges are exact.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0.001);
  EXPECT_DOUBLE_EQ(h.Quantile(1.0), 0.100);
  // Empty histogram reports 0, single observation collapses to it.
  Histogram empty;
  EXPECT_DOUBLE_EQ(empty.Quantile(0.5), 0.0);
  Histogram one;
  one.Observe(0.25);
  EXPECT_DOUBLE_EQ(one.Quantile(0.5), 0.25);
  EXPECT_DOUBLE_EQ(one.Quantile(0.99), 0.25);
  // Out-of-range observations clamp into the edge buckets but stay within
  // the observed [min, max].
  Histogram wide;
  wide.Observe(0.0);
  wide.Observe(1e9);
  EXPECT_GE(wide.Quantile(0.5), 0.0);
  EXPECT_LE(wide.Quantile(0.99), 1e9);
  // Reset clears the fine track too.
  h.Reset();
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(ExportTest, MetricsTableListsEveryMetric) {
  Registry registry;
  registry.counter("engine.jobs_launched")->Add(2.0);
  registry.gauge("engine.pool.threads")->Set(8.0);
  registry.histogram("engine.job.compute_sec")->Observe(0.25);
  const std::string table = MetricsTable(registry);
  EXPECT_NE(table.find("engine.jobs_launched"), std::string::npos);
  EXPECT_NE(table.find("counter"), std::string::npos);
  EXPECT_NE(table.find("engine.pool.threads"), std::string::npos);
  EXPECT_NE(table.find("gauge"), std::string::npos);
  EXPECT_NE(table.find("engine.job.compute_sec"), std::string::npos);
  EXPECT_NE(table.find("count=1"), std::string::npos);
}

TEST(ExportTest, ChromeTraceJsonGolden) {
  Registry registry;
  registry.AddCompleteSpan("compute", "sim_phase", Track::kSim, 1.0, 0.5,
                           /*parent_id=*/0,
                           {{"flops", static_cast<uint64_t>(42)}});
  const std::string expected =
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
      "\"args\":{\"name\":\"wall clock\"}},\n"
      "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":2,"
      "\"args\":{\"name\":\"simulated cluster\"}},\n"
      "{\"name\":\"compute\",\"cat\":\"sim_phase\",\"ph\":\"X\","
      "\"ts\":1000000.000,\"dur\":500000.000,\"pid\":1,\"tid\":2,"
      "\"args\":{\"flops\":42,\"span_id\":1,\"parent_id\":0}}\n"
      "]}\n";
  EXPECT_EQ(ChromeTraceJson(registry), expected);
}

TEST(ExportTest, ChromeTraceJsonEscapesNames) {
  Registry registry;
  registry.AddCompleteSpan("weird\"name\n", "c", Track::kWall, 0.0, 1.0, 0);
  const std::string json = ChromeTraceJson(registry);
  EXPECT_NE(json.find("weird\\\"name\\n"), std::string::npos);
}

TEST(ExportTest, WriteFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/obs_write_test.json";
  ASSERT_TRUE(WriteFile(path, "hello\n").ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char buf[16] = {};
  const size_t n = std::fread(buf, 1, sizeof(buf), f);
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(std::string(buf, n), "hello\n");
  EXPECT_FALSE(WriteFile("/nonexistent-dir/x/y", "x").ok());
}

// ------------------------------------------------------------ worker pool

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnceAcrossJobs) {
  dist::WorkerPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  for (int job = 0; job < 50; ++job) {
    const size_t num_tasks = 1 + (job % 7);
    std::vector<std::atomic<int>> hits(num_tasks);
    pool.Run(num_tasks, [&](size_t task) { hits[task].fetch_add(1); });
    for (size_t t = 0; t < num_tasks; ++t) EXPECT_EQ(hits[t].load(), 1);
  }
}

TEST(WorkerPoolTest, ZeroTasksReturnsImmediately) {
  dist::WorkerPool pool(2);
  pool.Run(0, [](size_t) { FAIL() << "no task should run"; });
}

// ------------------------------------------- engine/solver integration

TEST(ObsEngineTest, OneJobSpanPerTraceWithMatchingAttributes) {
  const DistMatrix y = SmallData(120, 10, 1);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  core::SpcaOptions options;
  options.num_components = 3;
  options.max_iterations = 3;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  auto result = core::Spca(&engine, options).Solve(y);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const auto spans = engine.registry()->spans();
  std::vector<SpanRecord> job_spans;
  for (const auto& span : spans) {
    if (span.category == "job") job_spans.push_back(span);
  }
  const auto& traces = engine.traces();
  ASSERT_EQ(job_spans.size(), traces.size());
  for (size_t i = 0; i < traces.size(); ++i) {
    EXPECT_EQ(job_spans[i].name, traces[i].name);
    EXPECT_TRUE(job_spans[i].closed);
    EXPECT_EQ(AttrUint(job_spans[i], "flops"), traces[i].stats.task_flops);
    EXPECT_EQ(AttrUint(job_spans[i], "intermediate_bytes"),
              traces[i].stats.intermediate_bytes);
    EXPECT_EQ(AttrUint(job_spans[i], "result_bytes"),
              traces[i].stats.result_bytes);
    EXPECT_EQ(AttrUint(job_spans[i], "tasks"),
              static_cast<uint64_t>(traces[i].num_tasks));
    // The cost model's phases hang off the job span on the sim track.
    int sim_children = 0;
    double sim_child_total = 0.0;
    for (const auto& child : spans) {
      if (child.parent_id != job_spans[i].id) continue;
      EXPECT_EQ(child.track, Track::kSim);
      EXPECT_EQ(child.category, "sim_phase");
      ++sim_children;
      sim_child_total += child.duration_sec();
    }
    EXPECT_EQ(sim_children, 3);  // launch + compute + data
    EXPECT_NEAR(sim_child_total, traces[i].stats.simulated_seconds, 1e-12);
  }
}

TEST(ObsEngineTest, CommStatsAndJobTracesMatchRegistryCounters) {
  const DistMatrix y = SmallData(150, 12, 2);
  Engine engine(dist::ClusterSpec{}, EngineMode::kMapReduce);
  core::SpcaOptions options;
  options.num_components = 3;
  options.max_iterations = 4;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  auto result = core::Spca(&engine, options).Solve(y);
  ASSERT_TRUE(result.ok());

  const Registry* registry = engine.registry();
  const dist::CommStats stats = engine.StatsSnapshot();
  auto counter = [&](const char* name) {
    const Counter* c = registry->FindCounter(name);
    return c == nullptr ? 0.0 : c->value();
  };
  EXPECT_EQ(stats.jobs_launched,
            static_cast<uint64_t>(counter("engine.jobs_launched")));
  EXPECT_EQ(stats.task_flops,
            static_cast<uint64_t>(counter("engine.task_flops")));
  EXPECT_EQ(stats.driver_flops,
            static_cast<uint64_t>(counter("engine.driver_flops")));
  EXPECT_EQ(stats.intermediate_bytes,
            static_cast<uint64_t>(counter("engine.intermediate_bytes")));
  EXPECT_EQ(stats.broadcast_bytes,
            static_cast<uint64_t>(counter("engine.broadcast_bytes")));
  EXPECT_EQ(stats.result_bytes,
            static_cast<uint64_t>(counter("engine.result_bytes")));
  EXPECT_DOUBLE_EQ(stats.simulated_seconds,
                   counter("engine.simulated_seconds"));
  EXPECT_DOUBLE_EQ(engine.SimulatedSeconds(),
                   counter("engine.simulated_seconds"));

  // JobTrace snapshots are produced from the same accounting, so their
  // sums equal the counters (modulo driver-side flops/broadcasts which
  // have no job).
  dist::CommStats from_traces;
  for (const auto& trace : engine.traces()) from_traces.Add(trace.stats);
  EXPECT_EQ(from_traces.jobs_launched, stats.jobs_launched);
  EXPECT_EQ(from_traces.task_flops, stats.task_flops);
  EXPECT_EQ(from_traces.intermediate_bytes, stats.intermediate_bytes);
  EXPECT_EQ(from_traces.result_bytes, stats.result_bytes);

  // The per-job histograms saw one observation per job.
  const Histogram* compute = registry->FindHistogram("engine.job.compute_sec");
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(compute->count(), stats.jobs_launched);
}

// The registry==CommStats identity must survive task re-execution: with an
// active FaultPlan the engine re-runs failed attempts and charges retry
// flops / re-shipped bytes, and everything StatsSnapshot() reports — the
// fault fields included — must still equal the registry counters, with the
// trace sums agreeing in turn.
TEST(ObsEngineTest, CommStatsMatchRegistryCountersUnderReExecution) {
  const DistMatrix y = SmallData(150, 12, 2);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  engine.SetLocalWorkers(3);  // route jobs through the worker pool
  dist::FaultSpec fault_spec;
  fault_spec.seed = 17;
  fault_spec.task_failure_probability = 0.4;
  fault_spec.straggler_probability = 0.3;
  fault_spec.retry_backoff_sec = 0.25;
  engine.SetFaultPlan(dist::FaultPlan(fault_spec));

  core::SpcaOptions options;
  options.num_components = 3;
  options.max_iterations = 4;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  auto result = core::Spca(&engine, options).Solve(y);
  ASSERT_TRUE(result.ok());

  const Registry* registry = engine.registry();
  const dist::CommStats stats = engine.StatsSnapshot();
  auto counter = [&](const char* name) {
    const Counter* c = registry->FindCounter(name);
    return c == nullptr ? 0.0 : c->value();
  };
  // Re-execution must actually have happened for this test to mean
  // anything (rate 0.4 across 4 iterations' jobs always fires).
  EXPECT_GT(stats.task_retries, 0u);
  EXPECT_EQ(stats.task_retries,
            static_cast<uint64_t>(counter("engine.retries.attempts")));
  EXPECT_EQ(stats.straggler_tasks,
            static_cast<uint64_t>(counter("engine.stragglers.tasks")));
  EXPECT_EQ(stats.jobs_launched,
            static_cast<uint64_t>(counter("engine.jobs_launched")));
  EXPECT_EQ(stats.task_flops,
            static_cast<uint64_t>(counter("engine.task_flops")));
  EXPECT_EQ(stats.intermediate_bytes,
            static_cast<uint64_t>(counter("engine.intermediate_bytes")));
  EXPECT_EQ(stats.result_bytes,
            static_cast<uint64_t>(counter("engine.result_bytes")));
  EXPECT_DOUBLE_EQ(stats.simulated_seconds,
                   counter("engine.simulated_seconds"));

  // Retry breakdown: attempts land per-task, the distinct-task counter
  // can only be smaller, and the re-shipped share never exceeds the total
  // shipped bytes.
  EXPECT_LE(counter("engine.retries.tasks"),
            counter("engine.retries.attempts"));
  EXPECT_LE(counter("engine.retries.reshipped_intermediate_bytes"),
            counter("engine.intermediate_bytes"));
  EXPECT_LE(counter("engine.retries.reshipped_result_bytes"),
            counter("engine.result_bytes"));
  EXPECT_DOUBLE_EQ(counter("engine.retries.backoff_sec"),
                   fault_spec.retry_backoff_sec *
                       counter("engine.retries.attempts"));

  // Trace sums reproduce the counters even though tasks ran 1 + extra
  // times: the fault fields ride in each JobTrace's stats.
  dist::CommStats from_traces;
  for (const auto& trace : engine.traces()) from_traces.Add(trace.stats);
  EXPECT_EQ(from_traces.jobs_launched, stats.jobs_launched);
  EXPECT_EQ(from_traces.task_flops, stats.task_flops);
  EXPECT_EQ(from_traces.intermediate_bytes, stats.intermediate_bytes);
  EXPECT_EQ(from_traces.result_bytes, stats.result_bytes);
  EXPECT_EQ(from_traces.task_retries, stats.task_retries);
  EXPECT_EQ(from_traces.straggler_tasks, stats.straggler_tasks);

  // The pool gauge reflects the worker override, re-execution or not.
  const Gauge* threads = registry->FindGauge("engine.pool.threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_DOUBLE_EQ(threads->value(), 3.0);
}

TEST(ObsEngineTest, EmIterationSpansArePresentAndNested) {
  const DistMatrix y = SmallData(100, 8, 3);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  core::SpcaOptions options;
  options.num_components = 2;
  options.max_iterations = 5;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  auto result = core::Spca(&engine, options).Solve(y);
  ASSERT_TRUE(result.ok());

  const auto spans = engine.registry()->spans();
  uint64_t fit_id = 0;
  for (const auto& span : spans) {
    if (span.name == "spca.fit") fit_id = span.id;
  }
  ASSERT_NE(fit_id, 0u);
  int iteration_spans = 0;
  for (const auto& span : spans) {
    if (span.name != "spca.em_iteration") continue;
    ++iteration_spans;
    EXPECT_EQ(span.category, "iteration");
    EXPECT_EQ(span.parent_id, fit_id);
    EXPECT_NE(span.FindAttribute("iteration"), nullptr);
    EXPECT_NE(span.FindAttribute("ss"), nullptr);
  }
  EXPECT_EQ(iteration_spans, result.value().iterations_run);
  EXPECT_EQ(engine.registry()->FindCounter("spca.em_iterations")->AsUint64(),
            static_cast<uint64_t>(result.value().iterations_run));
}

TEST(ObsEngineTest, ExternalRegistryReceivesAllTelemetry) {
  Registry registry;
  const DistMatrix y = SmallData(60, 6, 4);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark, &registry);
  EXPECT_EQ(engine.registry(), &registry);
  core::SpcaOptions options;
  options.num_components = 2;
  options.max_iterations = 2;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  ASSERT_TRUE(core::Spca(&engine, options).Solve(y).ok());
  EXPECT_GT(registry.FindCounter("engine.jobs_launched")->value(), 0.0);
  EXPECT_FALSE(registry.spans().empty());
}

TEST(ObsEngineTest, FitInitRegistryOverridesSolverSpans) {
  Registry solver_registry;
  const DistMatrix y = SmallData(60, 6, 5);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  core::SpcaOptions options;
  options.num_components = 2;
  options.max_iterations = 2;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  core::FitOptions init;
  init.registry = &solver_registry;
  ASSERT_TRUE(core::Spca(&engine, options).Solve(y, init).ok());
  // Solver spans land in the override; engine job spans stay with the
  // engine's own registry.
  bool solver_has_fit = false;
  for (const auto& span : solver_registry.spans()) {
    if (span.name == "spca.fit") solver_has_fit = true;
    EXPECT_NE(span.category, "job");
  }
  EXPECT_TRUE(solver_has_fit);
  EXPECT_GT(engine.registry()->FindCounter("engine.jobs_launched")->value(),
            0.0);
}

TEST(ObsEngineTest, PersistentPoolRecordsSpawnSavings) {
  const DistMatrix y = SmallData(120, 8, 7, /*partitions=*/8);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  engine.SetLocalWorkers(4);  // force the pooled path on any machine
  auto run_once = [&] {
    engine.RunMap<int>(JobDesc{"noop"}, y, [](const RowRange&, TaskContext*) {
      return 0;
    });
  };
  run_once();  // creates the pool
  const Gauge* threads = engine.registry()->FindGauge("engine.pool.threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_GT(threads->value(), 0.0);
  run_once();  // reuses it
  run_once();
  const Gauge* saved =
      engine.registry()->FindGauge("engine.pool.spawns_avoided");
  ASSERT_NE(saved, nullptr);
  EXPECT_DOUBLE_EQ(saved->value(), 2.0 * threads->value());
}

TEST(ObsEngineTest, PooledExecutionMatchesInlineExecution) {
  const DistMatrix y = SmallData(150, 10, 11, /*partitions=*/8);
  core::SpcaOptions options;
  options.num_components = 3;
  options.max_iterations = 3;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;

  Engine inline_engine(dist::ClusterSpec{}, EngineMode::kSpark);
  inline_engine.SetLocalWorkers(1);
  Engine pooled_engine(dist::ClusterSpec{}, EngineMode::kSpark);
  pooled_engine.SetLocalWorkers(4);
  auto inline_fit = core::Spca(&inline_engine, options).Solve(y);
  auto pooled_fit = core::Spca(&pooled_engine, options).Solve(y);
  ASSERT_TRUE(inline_fit.ok());
  ASSERT_TRUE(pooled_fit.ok());
  // Partition-ordered results make the numerics independent of scheduling,
  // and so is the simulated cost model.
  EXPECT_EQ(inline_fit.value().model.components.MaxAbsDiff(
                pooled_fit.value().model.components),
            0.0);
  EXPECT_EQ(inline_engine.StatsSnapshot().task_flops,
            pooled_engine.StatsSnapshot().task_flops);
  EXPECT_DOUBLE_EQ(inline_engine.SimulatedSeconds(),
                   pooled_engine.SimulatedSeconds());
}

TEST(ObsEngineTest, UncacheableJobAlwaysChargesInput) {
  const DistMatrix y = SmallData(80, 8, 8, /*partitions=*/4);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  auto noop = [](const RowRange&, TaskContext*) { return 0; };
  const JobDesc uncacheable{"scanJob", "", /*cacheable=*/false};
  engine.RunMap<int>(uncacheable, y, noop);
  engine.RunMap<int>(uncacheable, y, noop);
  // Spark would normally cache after the first touch; cacheable=false
  // forces a re-read both times (and must not poison the cache for
  // ordinary jobs that follow).
  ASSERT_EQ(engine.traces().size(), 2u);
  EXPECT_GT(engine.traces()[0].charged_input_bytes, 0.0);
  EXPECT_GT(engine.traces()[1].charged_input_bytes, 0.0);
  engine.RunMap<int>(JobDesc{"cachedJob"}, y, noop);
  engine.RunMap<int>(JobDesc{"cachedJob"}, y, noop);
  EXPECT_GT(engine.traces()[2].charged_input_bytes, 0.0);  // first touch
  EXPECT_EQ(engine.traces()[3].charged_input_bytes, 0.0);  // cached
}

TEST(ObsEngineTest, ResetStatsClearsEngineMetricsButKeepsSolverCounters) {
  const DistMatrix y = SmallData(60, 6, 9);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  core::SpcaOptions options;
  options.num_components = 2;
  options.max_iterations = 2;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  ASSERT_TRUE(core::Spca(&engine, options).Solve(y).ok());
  ASSERT_GT(engine.StatsSnapshot().jobs_launched, 0u);
  engine.ResetStats();
  EXPECT_EQ(engine.StatsSnapshot().jobs_launched, 0u);
  EXPECT_EQ(engine.StatsSnapshot().task_flops, 0u);
  EXPECT_EQ(engine.SimulatedSeconds(), 0.0);
  EXPECT_TRUE(engine.traces().empty());
  // Non-engine metrics in the shared registry survive.
  EXPECT_GT(engine.registry()->FindCounter("spca.em_iterations")->value(),
            0.0);
}

}  // namespace
}  // namespace spca::obs
