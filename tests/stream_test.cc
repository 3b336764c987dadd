// Streaming PCA: the row-stream generator, the drift metric, the two
// streaming solvers, the publisher / hot-swap path, and the Solver-API
// equivalences (stepwise == single-shot, legacy Fit shim == Solve,
// streaming Snapshot warm-starting a batch refit bit-identically).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/ssvd_pca.h"
#include "core/solver.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "dist/replay.h"
#include "linalg/dense_matrix.h"
#include "linalg/ops.h"
#include "linalg/qr.h"
#include "obs/registry.h"
#include "serve/model_io.h"
#include "serve/model_registry.h"
#include "stream/drift.h"
#include "stream/pipeline.h"
#include "stream/publisher.h"
#include "stream/stream_solver.h"
#include "workload/row_stream.h"
#include "workload/synthetic.h"

namespace spca::stream {
namespace {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using linalg::DenseMatrix;
using linalg::DenseVector;

constexpr double kPi = 3.14159265358979323846;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

std::vector<double> Flatten(const DistMatrix& m) {
  std::vector<double> out(m.rows() * m.cols(), 0.0);
  for (size_t i = 0; i < m.rows(); ++i) {
    m.ForEachEntry(i, [&](size_t k, double v) { out[i * m.cols() + k] = v; });
  }
  return out;
}

void ExpectModelsBitIdentical(const core::PcaModel& a,
                              const core::PcaModel& b) {
  ASSERT_EQ(a.input_dim(), b.input_dim());
  ASSERT_EQ(a.num_components(), b.num_components());
  EXPECT_EQ(a.components.MaxAbsDiff(b.components), 0.0);
  for (size_t k = 0; k < a.mean.size(); ++k) EXPECT_EQ(a.mean[k], b.mean[k]);
  EXPECT_EQ(a.noise_variance, b.noise_variance);
}

workload::RowStreamConfig SmallStreamConfig() {
  workload::RowStreamConfig config;
  config.dim = 64;
  config.rank = 4;
  config.batch_rows = 96;
  config.partitions_per_batch = 3;
  config.noise_stddev = 0.05;
  config.seed = 11;
  return config;
}

StreamSolverOptions SmallSolverOptions() {
  StreamSolverOptions options;
  options.num_components = 4;
  options.seed = 7;
  return options;
}

DistMatrix LowRankBatch(size_t rows, size_t cols, uint64_t seed,
                        size_t partitions) {
  workload::LowRankConfig config;
  config.rows = rows;
  config.cols = cols;
  config.rank = 4;
  config.seed = seed;
  return DistMatrix::FromDense(workload::GenerateLowRank(config), partitions);
}

core::SpcaOptions BatchOptions() {
  core::SpcaOptions options;
  options.num_components = 4;
  options.max_iterations = 3;
  options.target_accuracy_fraction = 2.0;
  options.compute_accuracy_trace = false;
  return options;
}

TEST(RowStreamTest, DeterministicReplay) {
  const auto config = SmallStreamConfig();
  workload::RowStream a(config);
  workload::RowStream b(config);
  for (int i = 0; i < 3; ++i) {
    const DistMatrix batch_a = a.NextBatch();
    const DistMatrix batch_b = b.NextBatch();
    EXPECT_EQ(Flatten(batch_a), Flatten(batch_b)) << "batch " << i;
  }
  EXPECT_EQ(a.rows_emitted(), 3 * config.batch_rows);
  EXPECT_EQ(a.batches_emitted(), 3u);
  EXPECT_EQ(a.drifts_applied(), 0u);
}

TEST(RowStreamTest, DriftRotatesBasisOnSchedule) {
  auto config = SmallStreamConfig();
  config.drift_every_batches = 2;
  config.drift_amount = 0.3;
  workload::RowStream stream(config);
  const DenseMatrix before = stream.basis();
  stream.NextBatch();
  stream.NextBatch();
  EXPECT_EQ(stream.drifts_applied(), 0u);  // drift precedes batch 3
  stream.NextBatch();
  EXPECT_EQ(stream.drifts_applied(), 1u);
  const double angle = SubspaceAngleRadians(before, stream.basis());
  EXPECT_GT(angle, 0.01);
  EXPECT_LT(angle, kPi / 2 + 1e-9);

  // A stationary stream never rotates.
  auto still_config = SmallStreamConfig();
  workload::RowStream still(still_config);
  const DenseMatrix still_before = still.basis();
  for (int i = 0; i < 4; ++i) still.NextBatch();
  EXPECT_EQ(still.drifts_applied(), 0u);
  EXPECT_EQ(still_before.MaxAbsDiff(still.basis()), 0.0);
}

TEST(SubspaceAngleTest, KnownGeometries) {
  DenseMatrix a(6, 2);
  a(0, 0) = 1.0;
  a(1, 1) = 1.0;
  // Same subspace, different (non-orthonormal) basis: angle 0.
  DenseMatrix same(6, 2);
  same(0, 0) = 0.6;
  same(1, 0) = 0.8;
  same(0, 1) = -1.6;
  same(1, 1) = 1.2;
  EXPECT_NEAR(SubspaceAngleRadians(a, same), 0.0, 1e-9);
  EXPECT_NEAR(SubspaceAngleDegrees(a, same), 0.0, 1e-7);
  // Orthogonal subspace: angle pi/2.
  DenseMatrix ortho(6, 2);
  ortho(2, 0) = 1.0;
  ortho(3, 1) = 1.0;
  EXPECT_NEAR(SubspaceAngleRadians(a, ortho), kPi / 2, 1e-9);
  // Half-overlap: span{e1, e3} vs span{e1, e2} — largest angle pi/2.
  DenseMatrix half(6, 2);
  half(0, 0) = 1.0;
  half(2, 1) = 1.0;
  EXPECT_NEAR(SubspaceAngleRadians(a, half), kPi / 2, 1e-9);
  // 45-degree plane rotation of a single direction.
  DenseMatrix e1(4, 1);
  e1(0, 0) = 1.0;
  DenseMatrix diag(4, 1);
  diag(0, 0) = 1.0;
  diag(1, 0) = 1.0;
  EXPECT_NEAR(SubspaceAngleDegrees(e1, diag), 45.0, 1e-7);
}

TEST(MiniBatchEmTest, ConvergesOnStationaryStream) {
  const auto config = SmallStreamConfig();
  workload::RowStream stream(config);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  MiniBatchEmSolver solver(&engine, SmallSolverOptions());
  ASSERT_TRUE(solver.Init({}).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(solver.Step(stream.NextBatch()).ok());
  }
  auto snapshot = solver.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_LT(SubspaceAngleDegrees(snapshot->components, stream.basis()), 5.0);
  EXPECT_GT(snapshot->noise_variance, 0.0);
  EXPECT_EQ(solver.steps(), 8u);
  EXPECT_EQ(solver.rows_seen(), 8 * config.batch_rows);

  auto result = solver.Result();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->iterations_run, 8);
  EXPECT_EQ(result->trace.size(), 8u);
  EXPECT_GT(result->stats.jobs_launched, 0u);
  ExpectModelsBitIdentical(result->model, snapshot.value());
}

// The documented mini-batch property, by construction: a first Step over
// every row runs the batch EM iteration (same seed, same partitions, same
// E-step and M-step). The mean goes through the same column sums bit for
// bit; C and ss differ only by the rounding of rescaling the blended
// per-row statistics back up to the batch size.
TEST(MiniBatchEmTest, FirstStepOverAllRowsIsOneBatchIteration) {
  const DistMatrix y = LowRankBatch(240, 48, 17, 5);
  Engine stream_engine(dist::ClusterSpec{}, EngineMode::kSpark);
  MiniBatchEmSolver streaming(&stream_engine, SmallSolverOptions());
  ASSERT_TRUE(streaming.Init({}).ok());
  ASSERT_TRUE(streaming.Step(y).ok());
  auto step = streaming.Snapshot();
  ASSERT_TRUE(step.ok());

  core::SpcaOptions options = BatchOptions();
  options.max_iterations = 1;
  options.seed = SmallSolverOptions().seed;
  Engine batch_engine(dist::ClusterSpec{}, EngineMode::kSpark);
  auto iteration = core::Spca(&batch_engine, options).Solve(y);
  ASSERT_TRUE(iteration.ok()) << iteration.status().ToString();
  const core::PcaModel& batch = iteration->model;

  ASSERT_EQ(step->mean.size(), batch.mean.size());
  for (size_t k = 0; k < batch.mean.size(); ++k) {
    EXPECT_EQ(step->mean[k], batch.mean[k]) << "column " << k;
  }
  ASSERT_EQ(step->components.rows(), batch.components.rows());
  ASSERT_EQ(step->components.cols(), batch.components.cols());
  double scale = 0.0;
  for (size_t i = 0; i < batch.components.rows(); ++i) {
    for (size_t j = 0; j < batch.components.cols(); ++j) {
      scale = std::max(scale, std::fabs(batch.components(i, j)));
    }
  }
  ASSERT_GT(scale, 0.0);
  EXPECT_LE(step->components.MaxAbsDiff(batch.components), 1e-10 * scale);
  EXPECT_NEAR(step->noise_variance, batch.noise_variance,
              1e-10 * batch.noise_variance);
}

TEST(OjaTest, ConvergesOnStationaryStream) {
  const auto config = SmallStreamConfig();
  workload::RowStream stream(config);
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  auto options = SmallSolverOptions();
  options.reorth_every = 4;
  OjaSolver solver(&engine, options);
  ASSERT_TRUE(solver.Init({}).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(solver.Step(stream.NextBatch()).ok());
  }
  auto snapshot = solver.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  EXPECT_LT(SubspaceAngleDegrees(snapshot->components, stream.basis()), 5.0);
  // Published basis is orthonormal even between lazy reorth passes.
  const DenseMatrix gram = linalg::TransposeMultiply(
      snapshot->components, snapshot->components);
  for (size_t i = 0; i < gram.rows(); ++i) {
    for (size_t j = 0; j < gram.cols(); ++j) {
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(StreamSolverTest, RerunIsBitIdentical) {
  for (const bool oja : {false, true}) {
    std::optional<core::PcaModel> previous;
    for (int run = 0; run < 2; ++run) {
      workload::RowStream stream(SmallStreamConfig());
      Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
      std::unique_ptr<core::Solver> solver;
      if (oja) {
        solver = std::make_unique<OjaSolver>(&engine, SmallSolverOptions());
      } else {
        solver = std::make_unique<MiniBatchEmSolver>(&engine,
                                                     SmallSolverOptions());
      }
      ASSERT_TRUE(solver->Init({}).ok());
      for (int i = 0; i < 5; ++i) {
        ASSERT_TRUE(solver->Step(stream.NextBatch()).ok());
      }
      auto snapshot = solver->Snapshot();
      ASSERT_TRUE(snapshot.ok());
      if (previous.has_value()) {
        ExpectModelsBitIdentical(*previous, snapshot.value());
      }
      previous = std::move(snapshot).value();
    }
  }
}

TEST(StreamSolverTest, RejectsDimensionChangeAndEmptyBatches) {
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  MiniBatchEmSolver solver(&engine, SmallSolverOptions());
  ASSERT_TRUE(solver.Init({}).ok());
  EXPECT_FALSE(solver.Snapshot().ok());  // nothing ingested yet
  ASSERT_TRUE(solver.Step(LowRankBatch(40, 64, 1, 2)).ok());
  EXPECT_FALSE(solver.Step(LowRankBatch(40, 32, 2, 2)).ok());
}

TEST(SolverApiTest, SpcaStepwiseMatchesSolve) {
  const DistMatrix y = LowRankBatch(160, 48, 9, 5);
  Engine e1(dist::ClusterSpec{}, EngineMode::kSpark);
  auto direct = core::Spca(&e1, BatchOptions()).Solve(y);
  ASSERT_TRUE(direct.ok());

  Engine e2(dist::ClusterSpec{}, EngineMode::kSpark);
  core::Spca stepwise(&e2, BatchOptions());
  ASSERT_TRUE(stepwise.Init({}).ok());
  ASSERT_TRUE(stepwise.Step(y).ok());
  auto snapshot = stepwise.Snapshot();
  ASSERT_TRUE(snapshot.ok());
  auto result = stepwise.Result();
  ASSERT_TRUE(result.ok());
  ExpectModelsBitIdentical(direct->model, result->model);
  ExpectModelsBitIdentical(direct->model, snapshot.value());
  EXPECT_EQ(direct->iterations_run, result->iterations_run);
}

TEST(SolverApiTest, RunSolverMatchesSolve) {
  const DistMatrix y = LowRankBatch(160, 48, 9, 5);
  Engine e1(dist::ClusterSpec{}, EngineMode::kSpark);
  auto direct = core::Spca(&e1, BatchOptions()).Solve(y);
  ASSERT_TRUE(direct.ok());
  Engine e2(dist::ClusterSpec{}, EngineMode::kSpark);
  core::Spca solver(&e2, BatchOptions());
  auto via_runner = core::RunSolver(&solver, y);
  ASSERT_TRUE(via_runner.ok());
  ExpectModelsBitIdentical(direct->model, via_runner->model);
}

TEST(SolverApiTest, StreamingSnapshotWarmStartsBatchFitBitIdentically) {
  // Stream some batches, snapshot, and persist the snapshot.
  workload::RowStream stream(SmallStreamConfig());
  Engine stream_engine(dist::ClusterSpec{}, EngineMode::kSpark);
  MiniBatchEmSolver streaming(&stream_engine, SmallSolverOptions());
  ASSERT_TRUE(streaming.Init({}).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(streaming.Step(stream.NextBatch()).ok());
  }
  auto snapshot = streaming.Snapshot();
  ASSERT_TRUE(snapshot.ok());

  const std::string path = TempPath("stream_snapshot.spcm");
  ASSERT_TRUE(serve::SaveModel(snapshot.value(), path).ok());
  auto reloaded = serve::LoadModel(path);
  ASSERT_TRUE(reloaded.ok());
  ExpectModelsBitIdentical(snapshot.value(), reloaded.value());

  // Warm-starting a batch fit from the snapshot through FitOptions is
  // bit-identical whether it runs as a direct Solve or through the Solver
  // surface.
  const DistMatrix y = LowRankBatch(200, 64, 21, 4);
  Engine e1(dist::ClusterSpec{}, EngineMode::kSpark);
  core::FitOptions warm;
  warm.components = reloaded->components;
  warm.noise_variance = reloaded->noise_variance;
  auto via_options = core::Spca(&e1, BatchOptions()).Solve(y, warm);
  Engine e2(dist::ClusterSpec{}, EngineMode::kSpark);
  core::Spca spca(&e2, BatchOptions());
  auto via_runner = core::RunSolver(&spca, y, warm);
  ASSERT_TRUE(via_options.ok());
  ASSERT_TRUE(via_runner.ok());
  ExpectModelsBitIdentical(via_options->model, via_runner->model);
}

TEST(SolverApiTest, BatchSolverAdapterMatchesDirectBaselineFit) {
  const DistMatrix y = LowRankBatch(160, 48, 31, 4);
  baselines::SsvdOptions options;
  options.num_components = 4;
  options.max_power_iterations = 3;
  options.target_accuracy_fraction = 2.0;
  options.seed = 5;

  Engine e1(dist::ClusterSpec{}, EngineMode::kSpark);
  auto direct = baselines::SsvdPca(&e1, options).Solve(y);
  ASSERT_TRUE(direct.ok());

  Engine e2(dist::ClusterSpec{}, EngineMode::kSpark);
  baselines::SsvdPca ssvd(&e2, options);
  EXPECT_EQ(ssvd.name(), "mahout");
  auto adapted = core::RunSolver(&ssvd, y);
  ASSERT_TRUE(adapted.ok());
  ExpectModelsBitIdentical(direct->model, adapted->model);
  EXPECT_EQ(direct->iterations_run, adapted->iterations_run);
}

TEST(PublisherTest, GenerationBumpsAcrossSwapsAndSpoolRoundtrips) {
  obs::Registry metrics;
  serve::ModelRegistry registry(&metrics);
  PublisherOptions options;
  options.registry = &registry;
  options.model_name = "live";
  options.spool_path = TempPath("publisher_spool.spcm");
  options.metrics = &metrics;
  ModelPublisher publisher(options);

  workload::RowStream stream(SmallStreamConfig());
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  MiniBatchEmSolver solver(&engine, SmallSolverOptions());
  ASSERT_TRUE(solver.Init({}).ok());

  ASSERT_TRUE(solver.Step(stream.NextBatch()).ok());
  auto first = publisher.Publish(solver.Snapshot().value());
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value(), 1u);

  ASSERT_TRUE(solver.Step(stream.NextBatch()).ok());
  auto second = publisher.Publish(solver.Snapshot().value());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), 2u);
  EXPECT_EQ(publisher.publishes(), 2u);
  EXPECT_EQ(publisher.failures(), 0u);

  const auto info = registry.GetInfo("live");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->generation, 2u);
  EXPECT_GE(info->age_seconds, 0.0);
  EXPECT_NE(registry.Get("live"), nullptr);
  EXPECT_EQ(metrics.FindCounter("stream.publishes")->AsUint64(), 2u);

  // The spool file on disk is the complete latest snapshot — a restarted
  // server reloads it directly.
  auto from_disk = serve::LoadModel(options.spool_path);
  ASSERT_TRUE(from_disk.ok());
  ExpectModelsBitIdentical(from_disk.value(), solver.Snapshot().value());
}

TEST(PublisherTest, FailedPublishKeepsPreviousModelServing) {
  obs::Registry metrics;
  serve::ModelRegistry registry(&metrics);
  PublisherOptions options;
  options.registry = &registry;
  options.model_name = "live";
  options.spool_path = TempPath("publisher_fail_spool.spcm");
  options.metrics = &metrics;
  int publishes_attempted = 0;
  options.save_fn = [&](const core::PcaModel& model,
                        const std::string& path) -> Status {
    ++publishes_attempted;
    if (publishes_attempted >= 2) return Status::Internal("disk full");
    return serve::SaveModel(model, path);
  };
  ModelPublisher publisher(options);

  workload::RowStream stream(SmallStreamConfig());
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  MiniBatchEmSolver solver(&engine, SmallSolverOptions());
  ASSERT_TRUE(solver.Init({}).ok());
  ASSERT_TRUE(solver.Step(stream.NextBatch()).ok());
  ASSERT_TRUE(publisher.Publish(solver.Snapshot().value()).ok());
  const auto served_before = registry.Get("live");

  ASSERT_TRUE(solver.Step(stream.NextBatch()).ok());
  auto failed = publisher.Publish(solver.Snapshot().value());
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(publisher.failures(), 1u);
  // The registry still serves generation 1, same projector object.
  const auto info = registry.GetInfo("live");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->generation, 1u);
  EXPECT_EQ(registry.Get("live").get(), served_before.get());
  EXPECT_EQ(metrics.FindCounter("stream.publish_failures")->AsUint64(), 1u);
}

TEST(PipelineTest, HotSwapsTrackDriftingStream) {
  obs::Registry metrics;
  serve::ModelRegistry registry(&metrics);
  PublisherOptions publisher_options;
  publisher_options.registry = &registry;
  publisher_options.model_name = "stream";
  publisher_options.metrics = &metrics;
  ModelPublisher publisher(publisher_options);

  auto stream_config = SmallStreamConfig();
  stream_config.drift_every_batches = 6;
  stream_config.drift_amount = 0.5;
  workload::RowStream stream(stream_config);

  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  MiniBatchEmSolver solver(&engine, SmallSolverOptions());
  ASSERT_TRUE(solver.Init({}).ok());

  StreamPipelineOptions pipeline_options;
  pipeline_options.publish_every_batches = 4;
  pipeline_options.max_batches = 12;
  pipeline_options.metrics = &metrics;
  StreamPipeline pipeline(&solver, &publisher, pipeline_options);
  auto summary = pipeline.Run(
      [&]() -> std::optional<DistMatrix> { return stream.NextBatch(); },
      [&]() { return stream.basis(); });
  ASSERT_TRUE(summary.ok());

  EXPECT_EQ(summary->batches, 12u);
  EXPECT_EQ(summary->rows_ingested, 12 * stream_config.batch_rows);
  EXPECT_EQ(summary->publishes, 3u);
  EXPECT_EQ(summary->publish_failures, 0u);
  ASSERT_EQ(summary->publish_log.size(), 3u);
  EXPECT_EQ(stream.drifts_applied(), 1u);  // before batch 7

  // Swap 1 lands pre-drift and is accurate; the drift before batch 7
  // spikes the angle seen by swap 2; swap 3 re-fits toward the rotated
  // truth, so the angle decreases after that swap.
  const auto& log = summary->publish_log;
  EXPECT_LT(log[0].angle_to_reference_rad, 10.0 * kPi / 180.0);
  EXPECT_GT(log[1].angle_to_reference_rad, log[0].angle_to_reference_rad);
  EXPECT_LT(log[2].angle_to_reference_rad, log[1].angle_to_reference_rad);
  for (const auto& publish : log) {
    EXPECT_TRUE(publish.ok);
    EXPECT_GE(publish.swap_latency_sec, 0.0);
  }
  EXPECT_EQ(log[2].generation, 3u);
  const auto info = registry.GetInfo("stream");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->generation, 3u);
  EXPECT_EQ(metrics.FindCounter("stream.pipeline_batches")->AsUint64(), 12u);
  EXPECT_NE(metrics.FindGauge("stream.subspace_angle_deg"), nullptr);
}

// Simulated seconds are a function of the stream, not of where the heap
// puts each mini-batch: the same pipeline run twice, the second time with
// an unrelated allocation kept alive before every batch is built (so a
// batch no longer lands where the freed one before it lived), charges the
// same seconds to the bit on both streaming solvers.
TEST(PipelineTest, SimulatedSecondsDoNotDependOnWhereBatchesLand) {
  for (const bool oja : {false, true}) {
    std::vector<double> seconds;
    for (const bool allocate_between : {false, true}) {
      obs::Registry metrics;
      serve::ModelRegistry registry(&metrics);
      PublisherOptions publisher_options;
      publisher_options.registry = &registry;
      publisher_options.model_name = "stream";
      ModelPublisher publisher(publisher_options);
      workload::RowStream stream(SmallStreamConfig());
      Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
      std::unique_ptr<core::Solver> solver;
      if (oja) {
        solver = std::make_unique<OjaSolver>(&engine, SmallSolverOptions());
      } else {
        solver = std::make_unique<MiniBatchEmSolver>(&engine,
                                                     SmallSolverOptions());
      }
      ASSERT_TRUE(solver->Init({}).ok());
      StreamPipelineOptions pipeline_options;
      pipeline_options.publish_every_batches = 4;
      pipeline_options.max_batches = 8;
      StreamPipeline pipeline(solver.get(), &publisher, pipeline_options);
      std::vector<DenseMatrix> unrelated;
      const auto summary = pipeline.Run(
          [&]() -> std::optional<DistMatrix> {
            if (allocate_between) {
              unrelated.emplace_back(SmallStreamConfig().batch_rows,
                                     SmallStreamConfig().dim);
            }
            return stream.NextBatch();
          },
          nullptr);
      ASSERT_TRUE(summary.ok());
      ASSERT_EQ(summary->batches, 8u);
      seconds.push_back(engine.SimulatedSeconds());
    }
    EXPECT_EQ(seconds[0], seconds[1]) << (oja ? "oja" : "minibatch_em");
  }
}

TEST(StreamMetricsTest, StepCountersSpansAndHistograms) {
  obs::Registry metrics;
  workload::RowStream stream(SmallStreamConfig());
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark, &metrics);
  MiniBatchEmSolver solver(&engine, SmallSolverOptions());
  ASSERT_TRUE(solver.Init({}).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(solver.Step(stream.NextBatch()).ok());
  }
  EXPECT_EQ(metrics.FindCounter("stream.steps")->AsUint64(), 3u);
  EXPECT_EQ(metrics.FindCounter("stream.rows_ingested")->AsUint64(),
            3 * SmallStreamConfig().batch_rows);
  const auto* histogram = metrics.FindHistogram("stream.step_sec");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->count(), 3u);
  size_t step_spans = 0;
  for (const auto& span : metrics.spans()) {
    if (span.name == "stream.step") ++step_spans;
  }
  EXPECT_EQ(step_spans, 3u);
}

TEST(StreamReplayTest, StreamJobsReplayExactlyAtUnitScale) {
  workload::RowStream stream(SmallStreamConfig());
  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  OjaSolver solver(&engine, SmallSolverOptions());
  ASSERT_TRUE(solver.Init({}).ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(solver.Step(stream.NextBatch()).ok());
  }
  ASSERT_FALSE(engine.traces().empty());
  size_t stream_jobs = 0;
  for (const auto& trace : engine.traces()) {
    if (trace.name.rfind("stream.", 0) == 0) ++stream_jobs;
    const double replayed = dist::ReplayJobCost(trace, dist::ClusterSpec{},
                                                EngineMode::kSpark,
                                                dist::ReplayScales{})
                                .Total();
    EXPECT_NEAR(replayed, trace.stats.simulated_seconds,
                1e-9 * trace.stats.simulated_seconds + 1e-12)
        << trace.name;
  }
  EXPECT_GT(stream_jobs, 0u);
}

}  // namespace
}  // namespace spca::stream
