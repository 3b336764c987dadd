#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/jobs.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "linalg/ops.h"
#include "linalg/solve.h"
#include "obs/registry.h"
#include "serve/model_io.h"
#include "serve/model_registry.h"
#include "serve/projector.h"
#include "serve/service.h"
#include "workload/load_gen.h"

namespace spca::serve {
namespace {

using linalg::DenseMatrix;
using linalg::DenseVector;
using linalg::SparseEntry;
using linalg::SparseVector;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

/// A small deterministic model with non-trivial mean and noise variance.
core::PcaModel TestModel(size_t dim = 20, size_t components = 3,
                         double scale = 1.0) {
  core::PcaModel model;
  model.components = DenseMatrix(dim, components);
  model.mean = DenseVector(dim);
  for (size_t i = 0; i < dim; ++i) {
    model.mean[i] = 0.25 * static_cast<double>(i % 5) - 0.3;
    for (size_t j = 0; j < components; ++j) {
      model.components(i, j) =
          scale * (0.1 * static_cast<double>(i + 1) -
                   0.37 * static_cast<double>(j + 1) +
                   0.01 * static_cast<double>((i * 7 + j * 13) % 11));
    }
  }
  model.noise_variance = 0.05;
  return model;
}

/// Naive reference projection: x = (C'C + ss*I)^{-1} C'(y - mean), computed
/// with plain loops around linalg::Inverse.
DenseVector ReferenceProject(const core::PcaModel& model,
                             const DenseVector& y) {
  const size_t dim = model.input_dim();
  const size_t d = model.num_components();
  DenseMatrix m(d, d);
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = 0; b < d; ++b) {
      double sum = 0.0;
      for (size_t i = 0; i < dim; ++i) {
        sum += model.components(i, a) * model.components(i, b);
      }
      m(a, b) = sum;
    }
  }
  m.AddScaledIdentity(model.noise_variance);
  DenseMatrix rhs(d, 1);
  for (size_t a = 0; a < d; ++a) {
    double sum = 0.0;
    for (size_t i = 0; i < dim; ++i) {
      sum += model.components(i, a) * (y[i] - model.mean[i]);
    }
    rhs(a, 0) = sum;
  }
  const DenseMatrix m_inverse = linalg::Inverse(m).value();
  DenseVector x(d);
  for (size_t a = 0; a < d; ++a) {
    for (size_t b = 0; b < d; ++b) x[a] += m_inverse(a, b) * rhs(b, 0);
  }
  return x;
}

SparseVector SparseQuery(size_t dim) {
  std::vector<SparseEntry> entries = {
      {1, 0.5}, {4, -1.25}, {7, 2.0}, {static_cast<uint32_t>(dim - 1), 0.75}};
  return SparseVector(std::move(entries), dim);
}

DenseVector DenseFromSparse(const SparseVector& sparse) {
  DenseVector dense(sparse.dim());
  for (const SparseEntry& entry : sparse.entries()) {
    dense[entry.index] = entry.value;
  }
  return dense;
}

// ---- Model persistence ---------------------------------------------------

TEST(ModelIoTest, RoundTripIsBitIdentical) {
  const core::PcaModel model = TestModel();
  const std::string path = TempPath("roundtrip.spcm");
  ASSERT_TRUE(SaveModel(model, path).ok());

  auto loaded = LoadModel(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->input_dim(), model.input_dim());
  EXPECT_EQ(loaded->num_components(), model.num_components());
  // Bit identity, not approximate equality: the format stores raw IEEE
  // bits, so every double must come back exactly.
  EXPECT_EQ(loaded->noise_variance, model.noise_variance);
  for (size_t i = 0; i < model.input_dim(); ++i) {
    EXPECT_EQ(loaded->mean[i], model.mean[i]);
    for (size_t j = 0; j < model.num_components(); ++j) {
      EXPECT_EQ(loaded->components(i, j), model.components(i, j));
    }
  }

  // Saving the loaded model reproduces the file byte for byte.
  const std::string path2 = TempPath("roundtrip2.spcm");
  ASSERT_TRUE(SaveModel(loaded.value(), path2).ok());
  std::FILE* f1 = std::fopen(path.c_str(), "rb");
  std::FILE* f2 = std::fopen(path2.c_str(), "rb");
  ASSERT_NE(f1, nullptr);
  ASSERT_NE(f2, nullptr);
  int c1, c2;
  do {
    c1 = std::fgetc(f1);
    c2 = std::fgetc(f2);
    EXPECT_EQ(c1, c2);
  } while (c1 != EOF && c2 != EOF);
  std::fclose(f1);
  std::fclose(f2);
}

TEST(ModelIoTest, FileSizeMatchesFormula) {
  const core::PcaModel model = TestModel(11, 4);
  const std::string path = TempPath("sized.spcm");
  ASSERT_TRUE(SaveModel(model, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  EXPECT_EQ(static_cast<uint64_t>(size), ModelFileSize(11, 4));
}

TEST(ModelIoTest, MissingFileIsNotFound) {
  auto loaded = LoadModel(TempPath("never_written.spcm"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

class ModelCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corrupt.spcm");
    ASSERT_TRUE(SaveModel(TestModel(), path_).ok());
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int c;
    while ((c = std::fgetc(f)) != EOF) bytes_.push_back(static_cast<char>(c));
    std::fclose(f);
  }

  void WriteBytes(const std::vector<char>& bytes) {
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  void ExpectRejected(const std::string& why_substring) {
    auto loaded = LoadModel(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("corrupt"), std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find(why_substring),
              std::string::npos)
        << loaded.status().ToString();
  }

  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(ModelCorruptionTest, TruncatedHeaderRejected) {
  WriteBytes(std::vector<char>(bytes_.begin(), bytes_.begin() + 10));
  ExpectRejected("truncated");
}

TEST_F(ModelCorruptionTest, TruncatedPayloadRejected) {
  WriteBytes(std::vector<char>(bytes_.begin(), bytes_.end() - 16));
  ExpectRejected("size");
}

TEST_F(ModelCorruptionTest, TrailingGarbageRejected) {
  std::vector<char> bytes = bytes_;
  bytes.push_back('x');
  WriteBytes(bytes);
  ExpectRejected("size");
}

TEST_F(ModelCorruptionTest, BadMagicRejected) {
  std::vector<char> bytes = bytes_;
  bytes[0] ^= 0x40;
  WriteBytes(bytes);
  ExpectRejected("magic");
}

TEST_F(ModelCorruptionTest, WrongVersionRejected) {
  std::vector<char> bytes = bytes_;
  bytes[4] = 99;  // version field follows the 4-byte magic
  WriteBytes(bytes);
  ExpectRejected("version");
}

TEST_F(ModelCorruptionTest, FlippedPayloadByteFailsChecksum) {
  std::vector<char> bytes = bytes_;
  bytes[bytes.size() / 2] ^= 0x01;  // somewhere in the doubles
  WriteBytes(bytes);
  ExpectRejected("checksum");
}

TEST_F(ModelCorruptionTest, FlippedChecksumByteRejected) {
  std::vector<char> bytes = bytes_;
  bytes.back() ^= 0x01;
  WriteBytes(bytes);
  ExpectRejected("checksum");
}

// ---- Projector -----------------------------------------------------------

TEST(ProjectorTest, MatchesNaiveReference) {
  const core::PcaModel model = TestModel();
  auto projector = Projector::Create(model);
  ASSERT_TRUE(projector.ok()) << projector.status().ToString();

  const SparseVector query = SparseQuery(model.input_dim());
  const DenseVector dense_query = DenseFromSparse(query);
  const DenseVector expected = ReferenceProject(model, dense_query);

  const DenseVector via_sparse = projector->Project(query);
  const DenseVector via_dense = projector->Project(dense_query);
  ASSERT_EQ(via_sparse.size(), expected.size());
  for (size_t j = 0; j < expected.size(); ++j) {
    EXPECT_NEAR(via_sparse[j], expected[j], 1e-9) << "component " << j;
    EXPECT_NEAR(via_dense[j], expected[j], 1e-9) << "component " << j;
  }
}

TEST(ProjectorTest, RejectsEmptyAndMismatchedModels) {
  EXPECT_FALSE(Projector::Create(core::PcaModel{}).ok());
  core::PcaModel mismatched = TestModel();
  mismatched.mean = DenseVector(3);
  EXPECT_FALSE(Projector::Create(mismatched).ok());
}

/// A model whose C'C + ss*I is not finite has no E-step map: Create
/// refuses it with a typed status, so the registry neither swaps it in nor
/// loads it from a file, and the model it holds keeps serving.
void ExpectNotServable(const core::PcaModel& model) {
  auto projector = Projector::Create(model);
  ASSERT_FALSE(projector.ok());
  EXPECT_EQ(projector.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(projector.status().message().find("not finite"),
            std::string::npos)
      << projector.status().message();

  obs::Registry metrics;
  ModelRegistry registry(&metrics);
  ASSERT_TRUE(registry.Install("m", TestModel()).ok());
  const auto before = registry.Get("m");
  EXPECT_FALSE(registry.Install("m", model).ok());
  const std::string path = TempPath("not_servable.spcm");
  ASSERT_TRUE(SaveModel(model, path).ok());
  EXPECT_FALSE(registry.Load("m", path).ok());
  EXPECT_EQ(registry.Get("m"), before);
  EXPECT_EQ(metrics.FindCounter("serve.model_swaps"), nullptr);
}

TEST(ProjectorTest, RejectsNanLoading) {
  core::PcaModel model = TestModel();
  model.components(4, 1) = std::numeric_limits<double>::quiet_NaN();
  ExpectNotServable(model);
}

TEST(ProjectorTest, RejectsInfiniteLoading) {
  core::PcaModel model = TestModel();
  model.components(7, 2) = std::numeric_limits<double>::infinity();
  ExpectNotServable(model);
}

TEST(ProjectorTest, RejectsNanNoiseVariance) {
  core::PcaModel model = TestModel();
  model.noise_variance = std::numeric_limits<double>::quiet_NaN();
  ExpectNotServable(model);
}

TEST(ProjectorTest, QueryFlopsAccounting) {
  auto projector = Projector::Create(TestModel(20, 3));
  ASSERT_TRUE(projector.ok());
  // 2*nnz*d + d + 2*d*d with nnz=4, d=3.
  EXPECT_EQ(projector->QueryFlops(4), 2ull * 4 * 3 + 3 + 2ull * 3 * 3);
}

/// A few sPCA EM iterations on `y`, without the accuracy anchor fit.
core::PcaModel FitModel(const dist::DistMatrix& y, size_t d) {
  dist::Engine engine(dist::ClusterSpec{}, dist::EngineMode::kSpark);
  core::SpcaOptions options;
  options.num_components = d;
  options.max_iterations = 3;
  options.compute_accuracy_trace = false;
  auto result = core::Spca(&engine, options).Solve(y);
  SPCA_CHECK(result.ok());
  return std::move(result).value().model;
}

TEST(ProjectorTest, ServesTheFitsOwnEStepRow) {
  // A served query is the X row the fit's E-step computes for that row:
  // y.RowTimesMatrix(i, CM) - Xm from the engine-free core::MakeEStep, bit
  // for bit, on sparse and dense inputs alike.
  Rng rng(21);
  DenseMatrix data(60, 30);
  for (size_t i = 0; i < data.rows(); ++i) {
    for (size_t j = 0; j < data.cols(); ++j) {
      if (rng.NextDouble() < 0.3) data(i, j) = rng.NextGaussian() + 0.5;
    }
  }
  const dist::DistMatrix sparse = dist::DistMatrix::FromSparse(
      linalg::SparseMatrix::FromDense(data), 4);
  const dist::DistMatrix dense = dist::DistMatrix::FromDense(data, 4);
  const size_t d = 5;
  for (const dist::DistMatrix* y : {&sparse, &dense}) {
    const core::PcaModel model = FitModel(*y, d);
    const DenseMatrix& c = model.components;
    auto e_step = core::MakeEStep(c, linalg::TransposeMultiply(c, c),
                                  model.noise_variance, model.mean);
    ASSERT_TRUE(e_step.ok());
    auto projector = Projector::Create(model);
    ASSERT_TRUE(projector.ok()) << projector.status().ToString();
    DenseVector want(d);
    DenseVector got(d);
    for (size_t i = 0; i < y->rows(); ++i) {
      y->RowTimesMatrix(i, e_step->cm, &want);
      want.Subtract(e_step->xm);
      if (y->is_sparse()) {
        projector->ProjectSparse(y->sparse().Row(i), got.data());
      } else {
        projector->ProjectDense(y->dense().RowPtr(i), got.data());
      }
      ASSERT_EQ(std::memcmp(got.data(), want.data(), d * sizeof(double)), 0)
          << (y->is_sparse() ? "sparse" : "dense") << " row " << i;
    }
  }
}

// ---- Registry ------------------------------------------------------------

TEST(ModelRegistryTest, LoadThenGet) {
  const std::string path = TempPath("registry.spcm");
  ASSERT_TRUE(SaveModel(TestModel(), path).ok());

  obs::Registry metrics;
  ModelRegistry registry(&metrics);
  EXPECT_EQ(registry.Get("m"), nullptr);
  ASSERT_TRUE(registry.Load("m", path).ok());
  ASSERT_NE(registry.Get("m"), nullptr);
  EXPECT_EQ(registry.Get("m")->input_dim(), 20u);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(metrics.FindCounter("serve.model_loads")->AsUint64(), 1u);
}

TEST(ModelRegistryTest, FailedLoadKeepsServingOldModel) {
  obs::Registry metrics;
  ModelRegistry registry(&metrics);
  ASSERT_TRUE(registry.Install("m", TestModel()).ok());
  const auto before = registry.Get("m");
  EXPECT_FALSE(registry.Load("m", TempPath("no_such.spcm")).ok());
  EXPECT_EQ(registry.Get("m"), before);
}

TEST(ModelRegistryTest, SwapCountsAndSnapshotsSurvive) {
  obs::Registry metrics;
  ModelRegistry registry(&metrics);
  ASSERT_TRUE(registry.Install("m", TestModel(20, 3, 1.0)).ok());
  const auto snapshot = registry.Get("m");
  ASSERT_TRUE(registry.Install("m", TestModel(20, 3, 2.0)).ok());
  EXPECT_EQ(metrics.FindCounter("serve.model_swaps")->AsUint64(), 1u);
  // The pre-swap snapshot still serves the old coefficients.
  EXPECT_EQ(snapshot->model().components(0, 0),
            TestModel(20, 3, 1.0).components(0, 0));
  EXPECT_NE(registry.Get("m"), snapshot);
}

// ---- Service -------------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  ServiceOptions Options(size_t queue_capacity = 64, size_t batch_max = 8) {
    ServiceOptions options;
    options.num_threads = 2;
    options.batch_max = batch_max;
    options.queue_capacity = queue_capacity;
    options.metrics = &metrics_;
    return options;
  }

  uint64_t CounterValue(const char* name) {
    const auto* counter = metrics_.FindCounter(name);
    return counter == nullptr ? 0 : counter->AsUint64();
  }

  obs::Registry metrics_;
  ModelRegistry models_{&metrics_};
};

TEST_F(ServiceTest, BatchedEqualsRowAtATimeBitIdentical) {
  const core::PcaModel model = TestModel(40, 5);
  ASSERT_TRUE(models_.Install("m", model).ok());
  auto reference = Projector::Create(model);
  ASSERT_TRUE(reference.ok());

  workload::QuerySetConfig sparse_config;
  sparse_config.num_queries = 64;
  sparse_config.dim = 40;
  sparse_config.nnz_per_query = 6.0;
  sparse_config.seed = 9;
  const auto sparse_queries = workload::GenerateQueries(sparse_config);
  workload::QuerySetConfig dense_config = sparse_config;
  dense_config.dense = true;
  const auto dense_queries = workload::GenerateQueries(dense_config);

  ProjectionService service(&models_, Options(256, 8));
  // Enqueue everything before Start so requests coalesce into full
  // batches; the batch path must still match row-at-a-time bits.
  std::vector<std::future<ProjectionResponse>> futures;
  for (const auto& query : sparse_queries) {
    ProjectionRequest request;
    request.model = "m";
    request.sparse = query.sparse;
    futures.push_back(service.Submit(std::move(request)));
  }
  for (const auto& query : dense_queries) {
    ProjectionRequest request;
    request.model = "m";
    request.dense = query.dense;
    futures.push_back(service.Submit(std::move(request)));
  }
  ASSERT_TRUE(service.Start().ok());

  for (size_t i = 0; i < futures.size(); ++i) {
    ProjectionResponse response = futures[i].get();
    ASSERT_EQ(response.outcome, RequestOutcome::kOk) << "request " << i;
    const bool is_dense = i >= sparse_queries.size();
    const DenseVector expected =
        is_dense
            ? reference->Project(dense_queries[i - sparse_queries.size()].dense)
            : reference->Project(sparse_queries[i].sparse);
    ASSERT_EQ(response.coordinates.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      // Bit-identical, not approximately equal: batching must not change
      // arithmetic.
      EXPECT_EQ(response.coordinates[j], expected[j])
          << "request " << i << " component " << j;
    }
    EXPECT_GT(response.batch_size, 0u);
  }
  service.Stop();
  EXPECT_EQ(CounterValue("serve.ok"), futures.size());
  EXPECT_GE(CounterValue("serve.batches"),
            futures.size() / Options().batch_max);
  EXPECT_GT(metrics_.FindHistogram("serve.latency_sec")->count(), 0u);
  EXPECT_GT(metrics_.FindHistogram("serve.latency_sec")->Quantile(0.95), 0.0);
}

TEST_F(ServiceTest, ShedsWhenQueueFull) {
  ASSERT_TRUE(models_.Install("m", TestModel()).ok());
  ProjectionService service(&models_, Options(/*queue_capacity=*/4));
  // Not started: the queue can only fill.
  std::vector<std::future<ProjectionResponse>> futures;
  for (int i = 0; i < 10; ++i) {
    ProjectionRequest request;
    request.model = "m";
    request.sparse = SparseQuery(20);
    futures.push_back(service.Submit(std::move(request)));
  }
  // Requests beyond the capacity resolve immediately as shed.
  for (size_t i = 4; i < futures.size(); ++i) {
    EXPECT_EQ(futures[i].get().outcome, RequestOutcome::kShed);
  }
  EXPECT_EQ(CounterValue("serve.shed"), 6u);
  EXPECT_EQ(service.queue_depth(), 4u);

  ASSERT_TRUE(service.Start().ok());
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(futures[i].get().outcome, RequestOutcome::kOk);
  }
  service.Stop();
  EXPECT_EQ(CounterValue("serve.requests"), 10u);
  EXPECT_EQ(CounterValue("serve.ok"), 4u);
}

TEST_F(ServiceTest, ExpiredDeadlineSkipsExecution) {
  ASSERT_TRUE(models_.Install("m", TestModel()).ok());
  ProjectionService service(&models_, Options());
  ProjectionRequest expired;
  expired.model = "m";
  expired.sparse = SparseQuery(20);
  expired.timeout_sec = -1.0;  // already past its deadline at submission
  auto expired_future = service.Submit(std::move(expired));
  ProjectionRequest fresh;
  fresh.model = "m";
  fresh.sparse = SparseQuery(20);
  auto fresh_future = service.Submit(std::move(fresh));
  ASSERT_TRUE(service.Start().ok());

  EXPECT_EQ(expired_future.get().outcome, RequestOutcome::kDeadlineExceeded);
  EXPECT_EQ(fresh_future.get().outcome, RequestOutcome::kOk);
  service.Stop();
  EXPECT_EQ(CounterValue("serve.deadline_exceeded"), 1u);
  EXPECT_EQ(CounterValue("serve.ok"), 1u);
}

TEST_F(ServiceTest, UnknownModelAndBadShapeOutcomes) {
  ASSERT_TRUE(models_.Install("m", TestModel()).ok());
  ProjectionService service(&models_, Options());
  ProjectionRequest unknown;
  unknown.model = "nope";
  unknown.sparse = SparseQuery(20);
  auto unknown_future = service.Submit(std::move(unknown));
  ProjectionRequest misshapen;
  misshapen.model = "m";
  misshapen.sparse = SparseQuery(21);  // model dim is 20
  auto misshapen_future = service.Submit(std::move(misshapen));
  ASSERT_TRUE(service.Start().ok());

  EXPECT_EQ(unknown_future.get().outcome, RequestOutcome::kNoModel);
  EXPECT_EQ(misshapen_future.get().outcome, RequestOutcome::kBadRequest);
  service.Stop();
  EXPECT_EQ(CounterValue("serve.no_model"), 1u);
  EXPECT_EQ(CounterValue("serve.bad_request"), 1u);
}

TEST_F(ServiceTest, NonFiniteCoordinatesAreBadRequests) {
  // NaN and +Inf values, and a finite 1e308 whose product overflows, leave
  // coordinates that are not all finite: each resolves kBadRequest and
  // counts in serve.bad_request, never in serve.ok, and the valid query in
  // the same batch is still served.
  // Small loadings and noise variance make CM = C (C'C + ss*I)^-1 large
  // (hundreds), so 1e308 times one of its entries overflows.
  core::PcaModel model = TestModel(20, 3, 1e-4);
  model.noise_variance = 1e-8;
  ASSERT_TRUE(models_.Install("m", model).ok());
  auto reference = Projector::Create(model);
  ASSERT_TRUE(reference.ok());
  const size_t dim = model.input_dim();
  auto sparse_with = [dim](double value) {
    std::vector<SparseEntry> entries;
    for (uint32_t k = 0; k < dim; ++k) entries.push_back({k, value});
    return SparseVector(std::move(entries), dim);
  };
  std::vector<ProjectionRequest> requests(5);
  requests[0].sparse = sparse_with(std::nan(""));
  requests[1].sparse = sparse_with(std::numeric_limits<double>::infinity());
  requests[2].sparse = sparse_with(1e308);
  requests[3].dense = DenseVector(dim);
  requests[3].dense[2] = std::nan("");
  requests[4].sparse = SparseQuery(dim);
  // The 1e308 row must overflow the projection itself: its value is finite.
  const DenseVector overflowed = reference->Project(requests[2].sparse);
  ASSERT_FALSE(std::isfinite(overflowed[0]) && std::isfinite(overflowed[1]) &&
               std::isfinite(overflowed[2]));

  ProjectionService service(&models_, Options());
  std::vector<std::future<ProjectionResponse>> futures;
  for (auto& request : requests) {
    request.model = "m";
    futures.push_back(service.Submit(std::move(request)));
  }
  ASSERT_TRUE(service.Start().ok());
  for (size_t i = 0; i + 1 < futures.size(); ++i) {
    const ProjectionResponse response = futures[i].get();
    EXPECT_EQ(response.outcome, RequestOutcome::kBadRequest) << "request " << i;
    EXPECT_EQ(response.coordinates.size(), 0u) << "request " << i;
  }
  EXPECT_EQ(futures.back().get().outcome, RequestOutcome::kOk);
  service.Stop();
  EXPECT_EQ(CounterValue("serve.bad_request"), 4u);
  EXPECT_EQ(CounterValue("serve.ok"), 1u);
}

TEST_F(ServiceTest, StopResolvesQueuedRequestsAsShutdown) {
  ASSERT_TRUE(models_.Install("m", TestModel()).ok());
  ProjectionService service(&models_, Options());
  ProjectionRequest request;
  request.model = "m";
  request.sparse = SparseQuery(20);
  auto queued = service.Submit(std::move(request));
  service.Stop();  // never started
  EXPECT_EQ(queued.get().outcome, RequestOutcome::kShutdown);

  ProjectionRequest late;
  late.model = "m";
  late.sparse = SparseQuery(20);
  EXPECT_EQ(service.Submit(std::move(late)).get().outcome,
            RequestOutcome::kShutdown);
}

TEST_F(ServiceTest, EmitsBatchSpans) {
  ASSERT_TRUE(models_.Install("m", TestModel()).ok());
  ProjectionService service(&models_, Options());
  ProjectionRequest request;
  request.model = "m";
  request.sparse = SparseQuery(20);
  auto future = service.Submit(std::move(request));
  ASSERT_TRUE(service.Start().ok());
  ASSERT_EQ(future.get().outcome, RequestOutcome::kOk);
  service.Stop();

  bool found = false;
  for (const auto& span : metrics_.spans()) {
    if (span.name != "serve.batch") continue;
    found = true;
    EXPECT_EQ(span.category, "serve");
    EXPECT_NE(span.FindAttribute("batch_size"), nullptr);
    EXPECT_NE(span.FindAttribute("flops"), nullptr);
  }
  EXPECT_TRUE(found);
}

// The TSan target for hot-swap: queries run on service worker threads
// while the main thread swaps the model between two variants. Every
// response must be computed against exactly one of the two (no torn
// state), and swaps must not crash in-flight batches.
TEST_F(ServiceTest, HotSwapUnderConcurrentQueries) {
  const core::PcaModel model_a = TestModel(20, 3, 1.0);
  const core::PcaModel model_b = TestModel(20, 3, 2.0);
  ASSERT_TRUE(models_.Install("m", model_a).ok());
  auto projector_a = Projector::Create(model_a);
  auto projector_b = Projector::Create(model_b);
  ASSERT_TRUE(projector_a.ok());
  ASSERT_TRUE(projector_b.ok());
  const SparseVector query = SparseQuery(20);
  const DenseVector expect_a = projector_a->Project(query);
  const DenseVector expect_b = projector_b->Project(query);

  ProjectionService service(&models_, Options(4096, 4));
  ASSERT_TRUE(service.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::atomic<int> served{0};
  std::thread querier([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ProjectionRequest request;
      request.model = "m";
      request.sparse = query;
      ProjectionResponse response = service.Submit(std::move(request)).get();
      if (response.outcome != RequestOutcome::kOk) continue;
      ++served;
      bool matches_a = true;
      bool matches_b = true;
      for (size_t j = 0; j < response.coordinates.size(); ++j) {
        matches_a = matches_a && response.coordinates[j] == expect_a[j];
        matches_b = matches_b && response.coordinates[j] == expect_b[j];
      }
      if (!matches_a && !matches_b) ++mismatches;
    }
  });

  for (int swap = 0; swap < 50; ++swap) {
    ASSERT_TRUE(
        models_.Install("m", swap % 2 == 0 ? model_b : model_a).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  stop.store(true);
  querier.join();
  service.Stop();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_GT(served.load(), 0);
  EXPECT_EQ(CounterValue("serve.model_swaps"), 50u);
}

// ---- Load generator ------------------------------------------------------

TEST(LoadGenTest, QueriesAreDeterministicInSeed) {
  workload::QuerySetConfig config;
  config.num_queries = 50;
  config.dim = 100;
  config.seed = 21;
  const auto a = workload::GenerateQueries(config);
  const auto b = workload::GenerateQueries(config);
  ASSERT_EQ(a.size(), 50u);
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].sparse.nnz(), b[i].sparse.nnz());
    for (size_t k = 0; k < a[i].sparse.nnz(); ++k) {
      EXPECT_EQ(a[i].sparse.entries()[k], b[i].sparse.entries()[k]);
    }
    EXPECT_LT(a[i].sparse.entries().back().index, 100u);
  }
  config.seed = 22;
  const auto c = workload::GenerateQueries(config);
  bool any_different = false;
  for (size_t i = 0; i < a.size() && !any_different; ++i) {
    any_different = a[i].sparse.nnz() != c[i].sparse.nnz() ||
                    !std::equal(a[i].sparse.entries().begin(),
                                a[i].sparse.entries().end(),
                                c[i].sparse.entries().begin());
  }
  EXPECT_TRUE(any_different);

  config.dense = true;
  const auto dense = workload::GenerateQueries(config);
  EXPECT_TRUE(dense[0].is_dense());
  EXPECT_EQ(dense[0].dense.size(), 100u);
}

TEST(LoadGenTest, ArrivalScheduleDeterministicAndMonotone) {
  workload::ArrivalScheduleConfig config;
  config.qps = 500.0;
  config.num_arrivals = 200;
  config.seed = 3;
  const auto a = workload::GenerateArrivalSchedule(config);
  const auto b = workload::GenerateArrivalSchedule(config);
  ASSERT_EQ(a.size(), 200u);
  EXPECT_EQ(a, b);  // exactly reproducible
  for (size_t i = 1; i < a.size(); ++i) {
    EXPECT_GE(a[i], a[i - 1]);
  }
  // The mean gap approximates 1/qps (law of large numbers, loose bound).
  EXPECT_NEAR(a.back() / static_cast<double>(a.size()), 1.0 / 500.0,
              0.5 / 500.0);

  config.seed = 4;
  EXPECT_NE(workload::GenerateArrivalSchedule(config), a);
}

TEST(LoadGenTest, UniformAndClosedLoopSchedules) {
  workload::ArrivalScheduleConfig config;
  config.qps = 100.0;
  config.num_arrivals = 5;
  config.poisson = false;
  const auto uniform = workload::GenerateArrivalSchedule(config);
  ASSERT_EQ(uniform.size(), 5u);
  for (size_t i = 0; i < uniform.size(); ++i) {
    EXPECT_DOUBLE_EQ(uniform[i], 0.01 * static_cast<double>(i + 1));
  }
  config.qps = 0.0;  // closed loop: all arrivals immediate
  const auto closed = workload::GenerateArrivalSchedule(config);
  EXPECT_EQ(closed, std::vector<double>(5, 0.0));
}

TEST(LoadGenTest, TenantMixTagsRideOnBitIdenticalRows) {
  workload::TenantMixConfig mix;
  mix.num_tenants = 5;
  mix.models = {"a", "b", "c"};
  mix.query.num_queries = 300;
  mix.query.dim = 80;
  mix.query.seed = 17;

  const auto tagged = workload::GenerateTenantMix(mix);
  const auto again = workload::GenerateTenantMix(mix);
  const auto untagged = workload::GenerateQueries(mix.query);
  ASSERT_EQ(tagged.size(), 300u);

  std::vector<size_t> per_tenant(mix.num_tenants, 0);
  for (size_t i = 0; i < tagged.size(); ++i) {
    // Deterministic in config.
    EXPECT_EQ(tagged[i].tenant, again[i].tenant);
    EXPECT_EQ(tagged[i].model_index, again[i].model_index);
    // Tenant pinning and range.
    ASSERT_LT(tagged[i].tenant, mix.num_tenants);
    EXPECT_EQ(tagged[i].model_index, tagged[i].tenant % mix.models.size());
    ++per_tenant[tagged[i].tenant];
    // The tags ride on an independent RNG stream: row payloads stay
    // bit-identical to the untagged query set (the socket-vs-in-process
    // identity test depends on this).
    ASSERT_EQ(tagged[i].query.sparse.nnz(), untagged[i].sparse.nnz());
    for (size_t k = 0; k < untagged[i].sparse.nnz(); ++k) {
      EXPECT_EQ(tagged[i].query.sparse.entries()[k],
                untagged[i].sparse.entries()[k]);
    }
  }
  // Zipf popularity: tenant 0 is the hottest.
  EXPECT_GT(per_tenant[0], per_tenant[mix.num_tenants - 1]);
  EXPECT_EQ(*std::max_element(per_tenant.begin(), per_tenant.end()),
            per_tenant[0]);
}

TEST(LoadGenTest, BurstScheduleDensifiesBurstWindows) {
  workload::ArrivalScheduleConfig config;
  config.qps = 1000.0;
  config.num_arrivals = 2000;
  config.seed = 9;
  const auto flat = workload::GenerateArrivalSchedule(config);

  // Burst gating off (period 0) leaves the schedule bit-identical to the
  // flat generator, whatever the factor says.
  config.burst_factor = 8.0;
  EXPECT_EQ(workload::GenerateArrivalSchedule(config), flat);

  // Burst on: 4x rate for the first 100 ms of every 500 ms period.
  config.burst_period_sec = 0.5;
  config.burst_duration_sec = 0.1;
  config.burst_factor = 4.0;
  const auto bursty = workload::GenerateArrivalSchedule(config);
  ASSERT_EQ(bursty.size(), 2000u);
  size_t in_burst = 0;
  for (size_t i = 0; i < bursty.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(bursty[i], bursty[i - 1]);
    }
    if (std::fmod(bursty[i], 0.5) < 0.1) ++in_burst;
  }
  // The burst window is 20% of schedule time but runs at 4x rate, so it
  // should hold ~50% of the arrivals ((0.1*4)/(0.1*4 + 0.4)); a flat
  // schedule would put ~20% there. Loose bound well clear of both.
  EXPECT_GT(in_burst, bursty.size() * 35 / 100);
  EXPECT_EQ(bursty, workload::GenerateArrivalSchedule(config));
}

// ---- Degenerate models ---------------------------------------------------

// The smallest legal shapes — one component, one input dimension, and a
// zero noise variance — must flow through save/load, the Projector, and
// the batched service unchanged. These are the edges the d x d solve and
// the nnz-indexed sparse path are most likely to get wrong.

TEST(DegenerateModelTest, SingleComponentServesEverywhere) {
  core::PcaModel model = TestModel(20, 1);
  const std::string path = TempPath("degenerate_d1.spcm");
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto reloaded = LoadModel(path);
  ASSERT_TRUE(reloaded.ok());

  auto projector = Projector::Create(reloaded.value());
  ASSERT_TRUE(projector.ok()) << projector.status().ToString();
  const SparseVector query = SparseQuery(20);
  const DenseVector expected = ReferenceProject(model, DenseFromSparse(query));
  const DenseVector got = projector->Project(query);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_NEAR(got[0], expected[0], 1e-12);

  obs::Registry metrics;
  ModelRegistry models(&metrics);
  ASSERT_TRUE(models.Install("d1", reloaded.value()).ok());
  ServiceOptions options;
  options.num_threads = 1;
  options.metrics = &metrics;
  ProjectionService service(&models, options);
  ASSERT_TRUE(service.Start().ok());
  ProjectionRequest request;
  request.model = "d1";
  request.sparse = query;
  ProjectionResponse response = service.Submit(std::move(request)).get();
  service.Stop();
  ASSERT_EQ(response.outcome, RequestOutcome::kOk);
  ASSERT_EQ(response.coordinates.size(), 1u);
  EXPECT_EQ(response.coordinates[0], got[0]);
}

TEST(DegenerateModelTest, SingleInputDimensionServesEverywhere) {
  core::PcaModel model;
  model.components = DenseMatrix(1, 1);
  model.components(0, 0) = 0.8;
  model.mean = DenseVector(1);
  model.mean[0] = -0.5;
  model.noise_variance = 0.1;
  const std::string path = TempPath("degenerate_dim1.spcm");
  ASSERT_TRUE(SaveModel(model, path).ok());
  auto reloaded = LoadModel(path);
  ASSERT_TRUE(reloaded.ok());

  auto projector = Projector::Create(reloaded.value());
  ASSERT_TRUE(projector.ok()) << projector.status().ToString();
  DenseVector query(1);
  query[0] = 2.0;
  // x = (c^2 + ss)^{-1} c (y - mean) in one dimension.
  const double expected = 0.8 * (2.0 - -0.5) / (0.8 * 0.8 + 0.1);
  EXPECT_NEAR(projector->Project(query)[0], expected, 1e-12);

  obs::Registry metrics;
  ModelRegistry models(&metrics);
  ASSERT_TRUE(models.Install("dim1", reloaded.value()).ok());
  ServiceOptions options;
  options.num_threads = 1;
  options.metrics = &metrics;
  ProjectionService service(&models, options);
  ASSERT_TRUE(service.Start().ok());
  ProjectionRequest request;
  request.model = "dim1";
  request.dense = query;
  ProjectionResponse response = service.Submit(std::move(request)).get();
  service.Stop();
  ASSERT_EQ(response.outcome, RequestOutcome::kOk);
  EXPECT_NEAR(response.coordinates[0], expected, 1e-12);
}

TEST(DegenerateModelTest, ZeroNoiseVarianceProjectsWhenWellConditioned) {
  // ss = 0 with a full-rank C: the solve is exact projection onto the
  // components; still well-posed.
  core::PcaModel model = TestModel(20, 3);
  model.noise_variance = 0.0;
  auto projector = Projector::Create(model);
  ASSERT_TRUE(projector.ok()) << projector.status().ToString();
  const SparseVector query = SparseQuery(20);
  const DenseVector expected = ReferenceProject(model, DenseFromSparse(query));
  const DenseVector got = projector->Project(query);
  for (size_t j = 0; j < expected.size(); ++j) {
    EXPECT_NEAR(got[j], expected[j], 1e-9) << "component " << j;
  }
}

TEST(DegenerateModelTest, ZeroNoiseVarianceRankDeficientRejected) {
  // ss = 0 AND a rank-1 C with two components: C'C is singular, the
  // precomputed factor cannot exist — Create must refuse rather than
  // serve garbage.
  core::PcaModel model;
  model.components = DenseMatrix(2, 2);
  model.components(0, 0) = 1.0;
  model.components(1, 0) = 2.0;
  model.components(0, 1) = 2.0;  // second column = 2x the first
  model.components(1, 1) = 4.0;
  model.mean = DenseVector(2);
  model.noise_variance = 0.0;
  EXPECT_FALSE(Projector::Create(model).ok());
}

TEST(DegenerateModelTest, RankOneModelWithPositiveLastPivotRejected) {
  // C = [0.1, 1.2]' * [1, 0.5] with ss = 0: C'C is singular, but its last
  // Cholesky pivot rounds to +5.6e-17 instead of zero, so the factor
  // exists. Its condition estimate is about 2.6e16; Create must refuse
  // the model rather than serve rounding noise.
  core::PcaModel model;
  model.components = DenseMatrix(2, 2);
  model.components(0, 0) = 0.1;
  model.components(0, 1) = 0.05;
  model.components(1, 0) = 1.2;
  model.components(1, 1) = 0.6;
  model.mean = DenseVector(2);
  model.noise_variance = 0.0;
  ASSERT_TRUE(linalg::CholeskyFactor(
                  linalg::TransposeMultiply(model.components,
                                            model.components))
                  .ok());
  auto projector = Projector::Create(model);
  ASSERT_FALSE(projector.ok());
  EXPECT_EQ(projector.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(projector.status().message().find("ill-conditioned"),
            std::string::npos)
      << projector.status().message();
}

// ---- Checkpoint sidecar (SPCS) persistence -------------------------------

core::SolverCheckpoint TestCheckpoint() {
  core::SolverCheckpoint checkpoint;
  checkpoint.solver = "spca";
  checkpoint.step = 7;
  checkpoint.rows_seen = 1234;
  checkpoint.SetScalar("ss", 0.125);
  checkpoint.SetScalar("dim", 20.0);
  DenseMatrix m(3, 2);
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      m(i, j) = 0.1 * static_cast<double>(i) - 0.7 * static_cast<double>(j);
    }
  }
  checkpoint.SetMatrix("s_xtx", m);
  DenseMatrix v(4, 1);
  for (size_t i = 0; i < 4; ++i) v(i, 0) = -1.5 + static_cast<double>(i);
  checkpoint.SetMatrix("mean_sum", v);
  return checkpoint;
}

TEST(CheckpointSidecarTest, RoundTripIsBitIdentical) {
  const core::SolverCheckpoint checkpoint = TestCheckpoint();
  const std::string path = TempPath("sidecar_roundtrip.sstat");
  ASSERT_TRUE(SaveSolverState(checkpoint, path).ok());
  auto reloaded = LoadSolverState(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();

  EXPECT_EQ(reloaded->solver, checkpoint.solver);
  EXPECT_EQ(reloaded->step, checkpoint.step);
  EXPECT_EQ(reloaded->rows_seen, checkpoint.rows_seen);
  ASSERT_EQ(reloaded->scalars.size(), checkpoint.scalars.size());
  for (size_t i = 0; i < checkpoint.scalars.size(); ++i) {
    EXPECT_EQ(reloaded->scalars[i].first, checkpoint.scalars[i].first);
    EXPECT_EQ(reloaded->scalars[i].second, checkpoint.scalars[i].second);
  }
  ASSERT_EQ(reloaded->matrices.size(), checkpoint.matrices.size());
  for (size_t i = 0; i < checkpoint.matrices.size(); ++i) {
    EXPECT_EQ(reloaded->matrices[i].first, checkpoint.matrices[i].first);
    EXPECT_EQ(
        reloaded->matrices[i].second.MaxAbsDiff(checkpoint.matrices[i].second),
        0.0);
  }
}

TEST(CheckpointSidecarTest, MissingSidecarIsNotFound) {
  auto loaded = LoadSolverState(TempPath("never_written.sstat"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

// Corruption harness: the checksum is validated before any field parses,
// so targeted structural corruption (bad magic, absurd counts, trailing
// garbage) must also re-stamp a valid checksum to reach its check.
class SidecarCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = TempPath("corrupt.sstat");
    ASSERT_TRUE(SaveSolverState(TestCheckpoint(), path_).ok());
    std::FILE* f = std::fopen(path_.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    int c;
    while ((c = std::fgetc(f)) != EOF) bytes_.push_back(static_cast<char>(c));
    std::fclose(f);
  }

  void WriteBytes(std::vector<char> bytes, bool restamp_checksum) {
    if (restamp_checksum) {
      ASSERT_GE(bytes.size(), sizeof(uint64_t));
      const uint64_t checksum =
          Fnv1a64(bytes.data(), bytes.size() - sizeof(uint64_t));
      std::memcpy(bytes.data() + bytes.size() - sizeof(uint64_t), &checksum,
                  sizeof(checksum));
    }
    std::FILE* f = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
  }

  void ExpectRejected(const std::string& why_substring) {
    auto loaded = LoadSolverState(path_);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("corrupt"), std::string::npos)
        << loaded.status().ToString();
    EXPECT_NE(loaded.status().message().find(why_substring),
              std::string::npos)
        << loaded.status().ToString();
  }

  std::string path_;
  std::vector<char> bytes_;
};

TEST_F(SidecarCorruptionTest, FlippedPayloadByteFailsChecksum) {
  std::vector<char> bytes = bytes_;
  bytes[bytes.size() / 2] ^= 0x01;
  WriteBytes(bytes, /*restamp_checksum=*/false);
  ExpectRejected("checksum");
}

TEST_F(SidecarCorruptionTest, TruncationFailsChecksum) {
  WriteBytes(std::vector<char>(bytes_.begin(), bytes_.end() - 16),
             /*restamp_checksum=*/false);
  ExpectRejected("checksum");
}

TEST_F(SidecarCorruptionTest, TruncatedHeaderRejected) {
  WriteBytes(std::vector<char>(bytes_.begin(), bytes_.begin() + 6),
             /*restamp_checksum=*/false);
  ExpectRejected("truncated header");
}

TEST_F(SidecarCorruptionTest, BadMagicRejected) {
  std::vector<char> bytes = bytes_;
  bytes[0] ^= 0x40;
  WriteBytes(bytes, /*restamp_checksum=*/true);
  ExpectRejected("magic");
}

TEST_F(SidecarCorruptionTest, WrongVersionRejected) {
  std::vector<char> bytes = bytes_;
  bytes[4] = 99;  // version follows the 4-byte magic
  WriteBytes(bytes, /*restamp_checksum=*/true);
  ExpectRejected("version");
}

TEST_F(SidecarCorruptionTest, AbsurdNameLengthRejected) {
  std::vector<char> bytes = bytes_;
  // solver_len is the u64 right after magic+version; make it implausible.
  const uint64_t absurd = 1ull << 40;
  std::memcpy(bytes.data() + 8, &absurd, sizeof(absurd));
  WriteBytes(bytes, /*restamp_checksum=*/true);
  ExpectRejected("solver name");
}

TEST_F(SidecarCorruptionTest, TrailingGarbageRejected) {
  std::vector<char> bytes = bytes_;
  // Insert 8 junk bytes before the checksum slot, then re-stamp: the file
  // verifies but parsing must not silently ignore the leftovers.
  bytes.insert(bytes.end() - sizeof(uint64_t), 8, 'x');
  WriteBytes(bytes, /*restamp_checksum=*/true);
  ExpectRejected("trailing garbage");
}

TEST_F(SidecarCorruptionTest, PairedLoadRejectsCorruptSidecar) {
  // A valid model whose sidecar is corrupt must fail the pair load — a
  // checkpoint is only as good as its resume state.
  const std::string model_path = TempPath("paired.spcm");
  ASSERT_TRUE(
      SaveCheckpoint(TestModel(), TestCheckpoint(), model_path).ok());
  ASSERT_TRUE(LoadCheckpoint(model_path).ok());

  const std::string sidecar = model_path + kCheckpointSidecarSuffix;
  std::FILE* f = std::fopen(sidecar.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, 16, SEEK_SET), 0);
  std::fputc('Z', f);
  std::fclose(f);
  EXPECT_FALSE(LoadCheckpoint(model_path).ok());
  // The model half alone still loads — only the pair is rejected.
  EXPECT_TRUE(LoadModel(model_path).ok());
}

}  // namespace
}  // namespace spca::serve
