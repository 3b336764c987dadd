// Verifies the trace_report pipeline's core promise: the accuracy-vs-time
// table regenerated from a trace *file* alone equals, byte for byte, what
// the in-memory SolveResult trace would print — through both trace formats
// (Chrome --trace-out JSON and streamed --trace-stream JSON-lines,
// including mid-run flushes that drain spans out of the registry).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/spca.h"
#include "dist/engine.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/stream.h"
#include "obs/trace_file.h"
#include "obs/trace_report.h"
#include "workload/synthetic.h"

namespace spca {
namespace {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;

DistMatrix TestMatrix() {
  workload::BagOfWordsConfig config;
  config.rows = 400;
  config.vocab = 100;
  config.words_per_row = 6;
  config.seed = 31;
  return DistMatrix::FromSparse(workload::GenerateBagOfWords(config), 4);
}

core::SpcaOptions TestOptions() {
  core::SpcaOptions options;
  options.num_components = 4;
  options.max_iterations = 4;
  options.target_accuracy_fraction = 2.0;  // run all iterations
  options.compute_accuracy_trace = true;
  options.ideal_error_override = 1.0;  // skip the hidden anchor fit
  options.seed = 11;
  return options;
}

// The rows a benchmark prints from the in-memory result — the byte-exact
// reference AccuracyTimeReport must reproduce from the file.
std::string ExpectedReport(uint64_t fit_span_id, const DistMatrix& matrix,
                           const core::SolveResult& result) {
  char line[160];
  std::snprintf(line, sizeof(line),
                "spca.fit #%llu rows=%zu cols=%zu components=4 "
                "(time_s, accuracy_%%):\n",
                static_cast<unsigned long long>(fit_span_id), matrix.rows(),
                matrix.cols());
  std::string expected = line;
  for (const core::IterationTrace& point : result.trace) {
    std::snprintf(line, sizeof(line), "  %10.1f  %6.2f\n",
                  point.simulated_seconds, point.accuracy_percent);
    expected += line;
  }
  return expected;
}

TEST(TraceReport, ChromeTraceReproducesAccuracyTableExactly) {
  const DistMatrix matrix = TestMatrix();
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  auto fit = core::Spca(&engine, TestOptions()).Solve(matrix);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  ASSERT_EQ(fit->trace.size(), 4u);

  auto parsed = obs::ParseTrace(obs::ChromeTraceJson(*engine.registry()));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto fits = parsed->SpansNamed("spca.fit");
  ASSERT_EQ(fits.size(), 1u);

  EXPECT_EQ(obs::AccuracyTimeReport(parsed.value()),
            ExpectedReport(fits[0]->id, matrix, fit.value()));

  const std::string phases = obs::PhaseBreakdownReport(parsed.value());
  EXPECT_NE(phases.find("em_iteration"), std::string::npos);
  EXPECT_NE(phases.find("preprocess"), std::string::npos);
  EXPECT_NE(phases.find("total"), std::string::npos);
}

TEST(TraceReport, StreamedTraceReproducesAccuracyTableExactly) {
  const std::string path = ::testing::TempDir() + "/report_stream.jsonl";
  const DistMatrix matrix = TestMatrix();

  obs::Registry registry;
  // flush_every=3 forces several mid-run drains: the report must work on
  // spans that left the registry long before the run ended.
  obs::TraceStreamer streamer(&registry, /*flush_every=*/3);
  ASSERT_TRUE(streamer.Open(path).ok());
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark, &registry);
  auto fit = core::Spca(&engine, TestOptions()).Solve(matrix);
  ASSERT_TRUE(fit.ok()) << fit.status().ToString();
  ASSERT_GT(streamer.flushes(), 1u);
  ASSERT_TRUE(streamer.Close().ok());

  auto parsed = obs::LoadTraceFile(path);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const auto fits = parsed->SpansNamed("spca.fit");
  ASSERT_EQ(fits.size(), 1u);

  EXPECT_EQ(obs::AccuracyTimeReport(parsed.value()),
            ExpectedReport(fits[0]->id, matrix, fit.value()));

  // The streamed file carries the final engine.phase.* counters, so the
  // phase breakdown comes from the authoritative metric path — and must
  // agree with the span-aggregation path the Chrome format uses.
  Engine chrome_engine(dist::ClusterSpec{}, EngineMode::kSpark);
  auto chrome_fit = core::Spca(&chrome_engine, TestOptions()).Solve(matrix);
  ASSERT_TRUE(chrome_fit.ok());
  auto chrome_parsed =
      obs::ParseTrace(obs::ChromeTraceJson(*chrome_engine.registry()));
  ASSERT_TRUE(chrome_parsed.ok());
  EXPECT_EQ(obs::PhaseBreakdownReport(parsed.value()),
            obs::PhaseBreakdownReport(chrome_parsed.value()));

  std::remove(path.c_str());
}

TEST(TraceReport, PhaseBreakdownDiffFlagsRegressions) {
  const DistMatrix matrix = TestMatrix();
  Engine engine_a(dist::ClusterSpec{}, EngineMode::kSpark);
  ASSERT_TRUE(core::Spca(&engine_a, TestOptions()).Solve(matrix).ok());
  auto parsed_a = obs::ParseTrace(obs::ChromeTraceJson(*engine_a.registry()));
  ASSERT_TRUE(parsed_a.ok());

  // Identical traces: every per-phase delta is exactly zero.
  const obs::PhaseDiffResult self_diff =
      obs::PhaseBreakdownDiff(parsed_a.value(), parsed_a.value());
  EXPECT_EQ(self_diff.max_relative_delta, 0.0);
  EXPECT_NE(self_diff.table.find("em_iteration"), std::string::npos);
  EXPECT_NE(self_diff.table.find("total"), std::string::npos);

  // A run with half the iterations: the em_iteration phase shrinks, and the
  // diff must report a non-zero worst phase.
  core::SpcaOptions short_options = TestOptions();
  short_options.max_iterations = 2;
  Engine engine_b(dist::ClusterSpec{}, EngineMode::kSpark);
  ASSERT_TRUE(core::Spca(&engine_b, short_options).Solve(matrix).ok());
  auto parsed_b = obs::ParseTrace(obs::ChromeTraceJson(*engine_b.registry()));
  ASSERT_TRUE(parsed_b.ok());

  const obs::PhaseDiffResult diff =
      obs::PhaseBreakdownDiff(parsed_a.value(), parsed_b.value());
  EXPECT_GT(diff.max_relative_delta, 0.0);
  EXPECT_FALSE(diff.worst_phase.empty());
  EXPECT_NE(diff.table.find(diff.worst_phase), std::string::npos);
  // Symmetric comparison flags the same phases (relative deltas are
  // normalized by A, so the magnitudes differ but non-zero-ness agrees).
  const obs::PhaseDiffResult reverse =
      obs::PhaseBreakdownDiff(parsed_b.value(), parsed_a.value());
  EXPECT_GT(reverse.max_relative_delta, 0.0);
}

// Every solver whose iterations carry accuracy gets a table, in trace
// order and headed by its own fit span's name: sketch fits order their
// power rounds by "round", sPCA by "iteration".
TEST(TraceReport, AccuracyTableCoversEveryAccuracyTracedSolver) {
  obs::ParsedTrace trace;
  auto add = [&trace](uint64_t id, uint64_t parent, const char* name,
                      std::vector<obs::Attribute> attributes) {
    obs::ParsedSpan span;
    span.id = id;
    span.parent_id = parent;
    span.name = name;
    span.attributes = std::move(attributes);
    trace.spans.push_back(span);
  };
  auto point = [](const char* order, double index, double sim_seconds,
                  double accuracy) {
    return std::vector<obs::Attribute>{{order, index},
                                       {"sim_seconds", sim_seconds},
                                       {"accuracy_percent", accuracy}};
  };
  const std::vector<obs::Attribute> shape = {
      {"rows", 100.0}, {"cols", 20.0}, {"components", 3.0}};
  add(1, 0, "ssvd.fit", shape);
  add(2, 1, "ssvd.power_round", point("round", 1, 2.0, 90.0));
  add(3, 1, "ssvd.power_round", point("round", 0, 1.0, 80.0));
  add(4, 0, "randsvd.fit", shape);
  add(5, 4, "randsvd.power_round", point("round", 1, 0.5, 97.5));
  add(6, 4, "randsvd.power_round", {});  // no accuracy: skipped
  add(7, 0, "spca.fit", shape);
  add(8, 7, "spca.em_iteration", point("iteration", 1, 3.0, 50.0));

  EXPECT_EQ(obs::AccuracyTimeReport(trace),
            "ssvd.fit #1 rows=100 cols=20 components=3 (time_s, accuracy_%):\n"
            "         1.0   80.00\n"
            "         2.0   90.00\n"
            "randsvd.fit #4 rows=100 cols=20 components=3 "
            "(time_s, accuracy_%):\n"
            "         0.5   97.50\n"
            "spca.fit #7 rows=100 cols=20 components=3 (time_s, accuracy_%):\n"
            "         3.0   50.00\n");
}

// The flame graph is an exact text rendering — pin it down byte for byte
// on a hand-built trace covering every rule at once: sibling merging with
// the " xN" suffix, total-descending child order, self-time subtraction,
// wall-track frames that appear on the path but contribute no time, and
// wall spans with no sim descendants vanishing entirely.
TEST(TraceReport, FlameGraphRendersHandBuiltTraceExactly) {
  obs::ParsedTrace trace;
  auto add = [&trace](uint64_t id, uint64_t parent, const char* name,
                      obs::Track track, double dur_sec) {
    obs::ParsedSpan span;
    span.id = id;
    span.parent_id = parent;
    span.name = name;
    span.track = track;
    span.dur_sec = dur_sec;
    trace.spans.push_back(span);
  };
  add(1, 0, "spca.fit", obs::Track::kSim, 10.0);
  add(2, 1, "spca.em_iteration", obs::Track::kSim, 3.0);
  add(3, 1, "spca.em_iteration", obs::Track::kSim, 4.0);
  add(4, 2, "job.ym", obs::Track::kSim, 1.5);
  add(5, 3, "job.ym", obs::Track::kSim, 2.0);
  // Wall-track span with no sim descendants: absent from the flame graph.
  add(6, 1, "trace.flush", obs::Track::kWall, 99.0);
  // Wall-track parent of a sim span: appears on the path with zero time.
  add(7, 0, "serve.batch_loop", obs::Track::kWall, 5.0);
  add(8, 7, "serve.project", obs::Track::kSim, 0.5);

  const std::string expected =
      "Flame graph (sim-track spans; total sim_s, self sim_s):\n"
      "  spca.fit                                        10.000       "
      "3.000\n"
      "    spca.em_iteration x2                           7.000       "
      "3.500\n"
      "      job.ym x2                                    3.500       "
      "3.500\n"
      "  serve.batch_loop                                 0.000       "
      "0.000\n"
      "    serve.project                                  0.500       "
      "0.500\n";
  EXPECT_EQ(obs::FlameGraphReport(trace), expected);

  // Rendering is pure: a second pass over the same trace is identical.
  EXPECT_EQ(obs::FlameGraphReport(trace), obs::FlameGraphReport(trace));
}

// The crossover table a benchmark prints from in-memory rows must be
// regenerated byte-identically from the trace file those rows were appended
// to — through both on-disk formats, including awkward doubles (huge byte
// counts, non-round accuracies) that must round-trip through JSON exactly.
TEST(TraceReport, CrossoverTableRoundTripsThroughBothTraceFormats) {
  std::vector<obs::CrossoverRow> rows;
  obs::CrossoverRow ppca;
  ppca.solver = "ppca";
  ppca.rows = 70000;
  ppca.cols = 300000;
  ppca.components = 10;
  ppca.iterations = 15;
  ppca.sim_seconds = 1234.56789012345;
  ppca.accuracy_percent = 97.4310987654321;
  ppca.shipped_bytes = 137438953472.0;  // 128 GiB, > 2^32
  ppca.jobs = 61;
  rows.push_back(ppca);
  obs::CrossoverRow rand_svd;
  rand_svd.solver = "rand_svd";
  rand_svd.rows = 70000;
  rand_svd.cols = 300000;
  rand_svd.components = 10;
  rand_svd.iterations = 2;
  rand_svd.sim_seconds = 0.1 + 0.2;  // deliberately non-representable
  rand_svd.accuracy_percent = 96.05;
  rand_svd.shipped_bytes = 1.5e9;
  rand_svd.jobs = 5;
  rows.push_back(rand_svd);

  const std::string path = ::testing::TempDir() + "/crossover_stream.jsonl";
  obs::Registry registry;
  obs::TraceStreamer streamer(&registry, /*flush_every=*/1);
  ASSERT_TRUE(streamer.Open(path).ok());
  for (const obs::CrossoverRow& row : rows) {
    obs::AppendCrossoverSpan(&registry, row);
  }
  const std::string chrome_json = obs::ChromeTraceJson(registry);
  ASSERT_TRUE(streamer.Close().ok());

  const std::string expected = obs::CrossoverTable(rows);
  EXPECT_NE(expected.find("ppca"), std::string::npos);
  EXPECT_NE(expected.find("rand_svd"), std::string::npos);

  auto chrome = obs::ParseTrace(chrome_json);
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
  EXPECT_EQ(obs::CrossoverReport(chrome.value()), expected);

  auto streamed = obs::LoadTraceFile(path);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(obs::CrossoverReport(streamed.value()), expected);
  std::remove(path.c_str());
}

TEST(TraceReport, CrossoverReportEmptyTrace) {
  obs::ParsedTrace trace;
  EXPECT_EQ(obs::CrossoverReport(trace),
            "no solver.fit crossover spans in this file\n");
}

TEST(TraceReport, FlameGraphReportsEmptySimTrack) {
  obs::ParsedTrace trace;
  obs::ParsedSpan wall_only;
  wall_only.id = 1;
  wall_only.name = "serve.batch";
  wall_only.track = obs::Track::kWall;
  wall_only.dur_sec = 1.0;
  trace.spans.push_back(wall_only);
  EXPECT_EQ(obs::FlameGraphReport(trace),
            "Flame graph (sim-track spans; total sim_s, self sim_s):\n"
            "  (no sim-track spans)\n");
}

// A real engine-produced trace renders with the (wall-track) fit and
// iteration frames on the path and the sim-phase spans merged beneath
// them — and two identically-seeded runs captured through the two on-disk
// trace formats must render byte-identically.
TEST(TraceReport, FlameGraphAgreesAcrossTraceFormats) {
  const std::string path = ::testing::TempDir() + "/flame_stream.jsonl";
  const DistMatrix matrix = TestMatrix();

  obs::Registry registry;
  obs::TraceStreamer streamer(&registry, /*flush_every=*/3);
  ASSERT_TRUE(streamer.Open(path).ok());
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark, &registry);
  ASSERT_TRUE(core::Spca(&engine, TestOptions()).Solve(matrix).ok());
  ASSERT_TRUE(streamer.Close().ok());
  auto streamed = obs::LoadTraceFile(path);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();

  Engine chrome_engine(dist::ClusterSpec{}, EngineMode::kSpark);
  ASSERT_TRUE(core::Spca(&chrome_engine, TestOptions()).Solve(matrix).ok());
  auto chrome =
      obs::ParseTrace(obs::ChromeTraceJson(*chrome_engine.registry()));
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();

  const std::string report = obs::FlameGraphReport(chrome.value());
  EXPECT_NE(report.find("spca.fit"), std::string::npos);
  EXPECT_NE(report.find("spca.em_iteration"), std::string::npos);
  EXPECT_NE(report.find(" x"), std::string::npos);  // merged sim frames
  EXPECT_EQ(report.find("(no sim-track spans)"), std::string::npos);
  EXPECT_EQ(report, obs::FlameGraphReport(streamed.value()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace spca
