#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <future>
#include <map>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/router.h"
#include "net/server.h"
#include "net/shard_set.h"
#include "obs/registry.h"
#include "serve/service.h"
#include "workload/load_gen.h"

namespace spca::net {
namespace {

using linalg::DenseMatrix;
using linalg::DenseVector;
using linalg::SparseEntry;
using linalg::SparseVector;

/// A small deterministic model with non-trivial mean and noise variance
/// (same construction family as serve_test's).
core::PcaModel TestModel(size_t dim = 32, size_t components = 4,
                         double scale = 1.0) {
  core::PcaModel model;
  model.components = DenseMatrix(dim, components);
  model.mean = DenseVector(dim);
  for (size_t i = 0; i < dim; ++i) {
    model.mean[i] = 0.2 * static_cast<double>(i % 7) - 0.4;
    for (size_t j = 0; j < components; ++j) {
      model.components(i, j) =
          scale * (0.07 * static_cast<double>(i + 1) -
                   0.29 * static_cast<double>(j + 1) +
                   0.013 * static_cast<double>((i * 11 + j * 5) % 13));
    }
  }
  model.noise_variance = 0.07;
  return model;
}

SparseVector TestRow(size_t dim, uint64_t salt) {
  std::vector<SparseEntry> entries;
  for (uint32_t i = static_cast<uint32_t>(salt % 3); i < dim;
       i += 3 + static_cast<uint32_t>(salt % 5)) {
    entries.push_back(
        SparseEntry{i, 1.0 + 0.25 * static_cast<double>((salt + i) % 4)});
  }
  return SparseVector(std::move(entries), dim);
}

std::vector<uint8_t> ValidSparseFrame(uint64_t request_id = 7,
                                      const std::string& model = "m0",
                                      size_t dim = 32) {
  std::vector<uint8_t> bytes;
  const SparseVector row = TestRow(dim, request_id);
  EncodeSparseRequest(/*tenant=*/3, request_id, model, row.View(), &bytes);
  return bytes;
}

void Patch32(std::vector<uint8_t>* frame, size_t payload_offset,
             uint32_t value) {
  std::memcpy(frame->data() + kLengthPrefixBytes + payload_offset, &value,
              sizeof(value));
}

void Patch16(std::vector<uint8_t>* frame, size_t payload_offset,
             uint16_t value) {
  std::memcpy(frame->data() + kLengthPrefixBytes + payload_offset, &value,
              sizeof(value));
}

FrameError DecodeReq(const std::vector<uint8_t>& bytes,
                     size_t max_frame = kDefaultMaxFrameBytes) {
  RequestFrame frame;
  size_t consumed = 0;
  return DecodeRequest(bytes.data(), bytes.size(), max_frame, &frame,
                       &consumed);
}

// ---------------------------------------------------------------------------
// Protocol round trips
// ---------------------------------------------------------------------------

TEST(Protocol, SparseRequestRoundTrip) {
  const SparseVector row = TestRow(/*dim=*/40, /*salt=*/9);
  std::vector<uint8_t> bytes;
  EncodeSparseRequest(11, 42, "tweets", row.View(), &bytes);

  RequestFrame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeRequest(bytes.data(), bytes.size(), kDefaultMaxFrameBytes,
                          &frame, &consumed),
            FrameError::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_FALSE(frame.is_dense());
  EXPECT_EQ(frame.tenant, 11u);
  EXPECT_EQ(frame.request_id, 42u);
  EXPECT_EQ(frame.model, "tweets");
  EXPECT_EQ(frame.dim, 40u);
  EXPECT_EQ(frame.count, row.nnz());

  const serve::ProjectionRequest request = ToProjectionRequest(frame);
  EXPECT_EQ(request.model, "tweets");
  EXPECT_EQ(request.tenant, 11u);
  ASSERT_EQ(request.sparse.nnz(), row.nnz());
  EXPECT_EQ(request.sparse.dim(), row.dim());
  for (size_t k = 0; k < row.nnz(); ++k) {
    EXPECT_EQ(request.sparse.entries()[k], row.entries()[k]);
  }
}

TEST(Protocol, DenseRequestRoundTrip) {
  DenseVector row(17);
  for (size_t i = 0; i < row.size(); ++i) {
    row[i] = 0.5 * static_cast<double>(i) - 3.0;
  }
  std::vector<uint8_t> bytes;
  EncodeDenseRequest(0, 5, "dense-model", row.data(), row.size(), &bytes);

  RequestFrame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeRequest(bytes.data(), bytes.size(), kDefaultMaxFrameBytes,
                          &frame, &consumed),
            FrameError::kOk);
  EXPECT_TRUE(frame.is_dense());
  EXPECT_EQ(frame.dim, 17u);
  EXPECT_EQ(frame.count, 17u);

  const serve::ProjectionRequest request = ToProjectionRequest(frame);
  ASSERT_TRUE(request.is_dense());
  EXPECT_EQ(0, std::memcmp(request.dense.data(), row.data(),
                           row.size() * sizeof(double)));
}

TEST(Protocol, ResponseRoundTrip) {
  const double coordinates[3] = {1.5, -2.25, 0.0};
  std::vector<uint8_t> bytes;
  EncodeResponse(WireOutcome::kOk, 99, coordinates, 3, &bytes);

  ResponseFrame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeResponse(bytes.data(), bytes.size(), kDefaultMaxFrameBytes,
                           &frame, &consumed),
            FrameError::kOk);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(frame.outcome, WireOutcome::kOk);
  EXPECT_EQ(frame.request_id, 99u);
  ASSERT_EQ(frame.count, 3u);
  EXPECT_EQ(0, std::memcmp(frame.coordinates, coordinates, sizeof(coordinates)));

  // Error responses carry no coordinates.
  bytes.clear();
  EncodeResponse(WireOutcome::kShed, 7, nullptr, 0, &bytes);
  ASSERT_EQ(DecodeResponse(bytes.data(), bytes.size(), kDefaultMaxFrameBytes,
                           &frame, &consumed),
            FrameError::kOk);
  EXPECT_EQ(frame.outcome, WireOutcome::kShed);
  EXPECT_EQ(frame.count, 0u);
}

TEST(Protocol, OutcomeMappingIsLossless) {
  for (int v = 0; v <= static_cast<int>(serve::RequestOutcome::kShutdown);
       ++v) {
    const auto outcome = static_cast<serve::RequestOutcome>(v);
    EXPECT_EQ(FromWireOutcome(ToWireOutcome(outcome)), outcome);
  }
  EXPECT_EQ(FromWireOutcome(WireOutcome::kMalformed),
            serve::RequestOutcome::kBadRequest);
}

// ---------------------------------------------------------------------------
// Corruption battery: every malformed shape maps to its typed FrameError,
// never a crash or a CHECK. The ASan CI shard runs these with full poison.
// ---------------------------------------------------------------------------

TEST(ProtocolCorruption, TruncatedPrefixesAreIncomplete) {
  const std::vector<uint8_t> frame = ValidSparseFrame();
  // Every strict prefix of a valid frame — including the empty buffer and
  // prefixes shorter than the length field itself — asks for more bytes.
  for (size_t len = 0; len < frame.size(); ++len) {
    std::vector<uint8_t> prefix(frame.begin(), frame.begin() + len);
    EXPECT_EQ(DecodeReq(prefix), FrameError::kIncomplete) << "len=" << len;
  }
}

TEST(ProtocolCorruption, OversizedLengthPrefixRejectsBeforeAllocation) {
  // A flipped high byte in the length prefix must be rejected from the
  // 4 prefix bytes alone — no buffering of (or allocation for) the claimed
  // payload ever happens.
  std::vector<uint8_t> bytes(4);
  const uint32_t huge = 512u << 20;
  std::memcpy(bytes.data(), &huge, 4);
  EXPECT_EQ(DecodeReq(bytes, /*max_frame=*/4u << 20), FrameError::kOversized);
}

TEST(ProtocolCorruption, ShortPayloadLengthIsBadLength) {
  std::vector<uint8_t> frame = ValidSparseFrame();
  const uint32_t tiny = kRequestHeaderBytes - 1;
  std::memcpy(frame.data(), &tiny, 4);
  EXPECT_EQ(DecodeReq(frame), FrameError::kBadLength);
}

TEST(ProtocolCorruption, WrongMagicAndVersion) {
  std::vector<uint8_t> frame = ValidSparseFrame();
  Patch32(&frame, 0, 0x58435053u);  // "SPCX"
  EXPECT_EQ(DecodeReq(frame), FrameError::kBadMagic);

  frame = ValidSparseFrame();
  Patch16(&frame, 4, kWireVersion + 1);
  EXPECT_EQ(DecodeReq(frame), FrameError::kBadVersion);
}

TEST(ProtocolCorruption, NonZeroReservedIsRejected) {
  std::vector<uint8_t> frame = ValidSparseFrame();
  Patch32(&frame, 36, 1);
  EXPECT_EQ(DecodeReq(frame), FrameError::kBadReserved);
}

TEST(ProtocolCorruption, NameLengthOverCapOrPastPayloadEnd) {
  std::vector<uint8_t> frame = ValidSparseFrame();
  Patch32(&frame, 24, static_cast<uint32_t>(kMaxModelNameBytes + 1));
  EXPECT_EQ(DecodeReq(frame), FrameError::kBadName);

  // Within the cap but pointing past the payload end.
  frame = ValidSparseFrame(/*request_id=*/1, /*model=*/"m", /*dim=*/8);
  Patch32(&frame, 24, 200);
  EXPECT_EQ(DecodeReq(frame), FrameError::kBadName);
}

TEST(ProtocolCorruption, CountInconsistentWithPayloadIsBadCount) {
  std::vector<uint8_t> frame = ValidSparseFrame();
  RequestFrame decoded;
  size_t consumed = 0;
  ASSERT_EQ(DecodeRequest(frame.data(), frame.size(), kDefaultMaxFrameBytes,
                          &decoded, &consumed),
            FrameError::kOk);
  Patch32(&frame, 32, decoded.count + 1);
  EXPECT_EQ(DecodeReq(frame), FrameError::kBadCount);
}

TEST(ProtocolCorruption, ZeroDimAndOutOfRangeIndexAreBadDim) {
  std::vector<uint8_t> frame = ValidSparseFrame();
  Patch32(&frame, 28, 0);
  EXPECT_EQ(DecodeReq(frame), FrameError::kBadDim);

  // First entry's index raised to dim: SparseVector's ctor would CHECK on
  // this, so the decoder must reject it first.
  frame = ValidSparseFrame(/*request_id=*/2, /*model=*/"m0", /*dim=*/32);
  const size_t name_end = (kRequestHeaderBytes + 2 + 7) & ~size_t{7};
  Patch32(&frame, name_end, 32);
  EXPECT_EQ(DecodeReq(frame), FrameError::kBadDim);
}

TEST(ProtocolCorruption, NonIncreasingIndicesAreRejected) {
  // Two entries with equal indices; dim 32, model "m0" (name_end = 48).
  std::vector<uint8_t> bytes;
  const std::vector<SparseEntry> entries = {{4, 1.0}, {9, 2.0}};
  EncodeSparseRequest(0, 3, "m0",
                      linalg::SparseRowView(entries.data(), 2, 32), &bytes);
  const size_t name_end = (kRequestHeaderBytes + 2 + 7) & ~size_t{7};
  Patch32(&bytes, name_end + 16, 4);  // second entry index := first's
  EXPECT_EQ(DecodeReq(bytes), FrameError::kUnsortedIndices);
}

TEST(ProtocolCorruption, ResponseUnknownOutcomeIsRejected) {
  std::vector<uint8_t> bytes;
  EncodeResponse(WireOutcome::kOk, 1, nullptr, 0, &bytes);
  Patch16(&bytes, 6, 17);  // between kShutdown (5) and kMalformed (64)
  ResponseFrame frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeResponse(bytes.data(), bytes.size(), kDefaultMaxFrameBytes,
                           &frame, &consumed),
            FrameError::kBadOutcome);

  // Coordinates on a non-OK outcome are inconsistent.
  bytes.clear();
  const double coordinate = 1.0;
  EncodeResponse(WireOutcome::kOk, 1, &coordinate, 1, &bytes);
  Patch16(&bytes, 6, static_cast<uint16_t>(WireOutcome::kShed));
  EXPECT_EQ(DecodeResponse(bytes.data(), bytes.size(), kDefaultMaxFrameBytes,
                           &frame, &consumed),
            FrameError::kBadCount);
}

/// Seeded fuzzer: random mutations of valid frames plus pure noise. The
/// invariant is total: every input decodes kOk or lands on a typed error —
/// no crash, no CHECK, no read past the buffer (ASan enforces the last).
TEST(ProtocolCorruption, SeededFrameFuzzer) {
  std::mt19937_64 rng(20260808);
  const std::vector<uint8_t> request = ValidSparseFrame(1, "fuzz-model", 64);
  std::vector<uint8_t> response;
  const double coordinates[4] = {1.0, 2.0, 3.0, 4.0};
  EncodeResponse(WireOutcome::kOk, 1, coordinates, 4, &response);

  for (int iteration = 0; iteration < 4000; ++iteration) {
    std::vector<uint8_t> bytes;
    switch (iteration % 3) {
      case 0:
        bytes = request;
        break;
      case 1:
        bytes = response;
        break;
      default:
        bytes.resize(rng() % 128);
        for (auto& b : bytes) b = static_cast<uint8_t>(rng());
        break;
    }
    // 1-8 byte flips, then maybe truncate or extend.
    if (!bytes.empty()) {
      const size_t flips = 1 + rng() % 8;
      for (size_t f = 0; f < flips; ++f) {
        bytes[rng() % bytes.size()] ^= static_cast<uint8_t>(1u << (rng() % 8));
      }
      if (rng() % 4 == 0) bytes.resize(rng() % (bytes.size() + 1));
      if (rng() % 8 == 0) bytes.push_back(static_cast<uint8_t>(rng()));
    }

    RequestFrame req;
    ResponseFrame resp;
    size_t consumed = 0;
    const FrameError a = DecodeRequest(bytes.data(), bytes.size(),
                                       /*max_frame=*/1u << 20, &req, &consumed);
    if (a == FrameError::kOk) {
      EXPECT_LE(consumed, bytes.size());
      EXPECT_GE(consumed, kLengthPrefixBytes + kRequestHeaderBytes);
      // A frame that decodes clean must materialize without tripping the
      // SparseVector/DenseVector construction CHECKs.
      const serve::ProjectionRequest materialized = ToProjectionRequest(req);
      EXPECT_EQ(materialized.dim(), req.dim);
    }
    const FrameError b = DecodeResponse(bytes.data(), bytes.size(),
                                        /*max_frame=*/1u << 20, &resp,
                                        &consumed);
    if (b == FrameError::kOk) {
      EXPECT_LE(consumed, bytes.size());
    }
  }
}

// ---------------------------------------------------------------------------
// Socket-level malformed traffic: typed rejection + connection close, and
// the server stays up for well-formed clients.
// ---------------------------------------------------------------------------

class SocketTest : public ::testing::Test {
 protected:
  ShardSetOptions ShardOptions(size_t shards, size_t threads = 1) {
    ShardSetOptions options;
    options.num_shards = shards;
    options.service.num_threads = threads;
    options.service.batch_max = 32;
    options.service.queue_capacity = 1u << 14;
    options.metrics = &metrics_;
    return options;
  }

  uint64_t CounterValue(const std::string& name) {
    const auto* counter = metrics_.FindCounter(name);
    return counter == nullptr ? 0 : counter->AsUint64();
  }

  /// Polls until `name` reaches at least `at_least` (the loop thread
  /// counts rejects asynchronously to the client's close()).
  bool WaitForCounter(const std::string& name, uint64_t at_least) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (std::chrono::steady_clock::now() < deadline) {
      if (CounterValue(name) >= at_least) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
  }

  obs::Registry metrics_;
};

TEST_F(SocketTest, MalformedFrameGetsTypedRejectAndClose) {
  ShardSet shards(ShardOptions(2));
  ASSERT_TRUE(shards.InstallModel("m0", TestModel()).ok());
  ASSERT_TRUE(shards.Start().ok());
  ServerOptions server_options;
  server_options.metrics = &metrics_;
  SocketServer server(&shards, server_options);
  ASSERT_TRUE(server.Start().ok());

  Client bad;
  ASSERT_TRUE(bad.Connect("127.0.0.1", server.port()).ok());
  std::vector<uint8_t> frame = ValidSparseFrame();
  Patch32(&frame, 0, 0xdeadbeefu);  // magic
  bad.QueueBytes(frame.data(), frame.size());
  ASSERT_TRUE(bad.Flush().ok());

  // The server answers with one kMalformed response (request id 0), then
  // closes the connection.
  ClientResponse response;
  ASSERT_TRUE(bad.Receive(&response).ok());
  EXPECT_TRUE(response.malformed);
  EXPECT_EQ(response.request_id, 0u);
  EXPECT_EQ(response.outcome, serve::RequestOutcome::kBadRequest);
  EXPECT_FALSE(bad.Receive(&response).ok());  // EOF: connection closed
  EXPECT_TRUE(WaitForCounter("net.rejects.bad_magic", 1));

  // A well-formed client on a fresh connection is unaffected.
  Client good;
  ASSERT_TRUE(good.Connect("127.0.0.1", server.port()).ok());
  const SparseVector row = TestRow(32, 5);
  good.QueueSparse(0, 77, "m0", row.View());
  ASSERT_TRUE(good.Flush().ok());
  ASSERT_TRUE(good.Receive(&response).ok());
  EXPECT_EQ(response.outcome, serve::RequestOutcome::kOk);
  EXPECT_EQ(response.request_id, 77u);

  server.Stop();
  shards.Stop();
}

TEST_F(SocketTest, NonFiniteQueryIsBadRequestOnALiveConnection) {
  // A well-formed frame whose value is NaN decodes fine; its projection is
  // not finite, so the answer is a typed BAD_REQUEST (not malformed, no
  // NaN coordinates), and the connection keeps serving.
  ShardSet shards(ShardOptions(1));
  ASSERT_TRUE(shards.InstallModel("m0", TestModel()).ok());
  ASSERT_TRUE(shards.Start().ok());
  ServerOptions server_options;
  server_options.metrics = &metrics_;
  SocketServer server(&shards, server_options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  const SparseVector nan_row({{3, std::nan("")}, {9, 1.0}}, 32);
  client.QueueSparse(0, 1, "m0", nan_row.View());
  ASSERT_TRUE(client.Flush().ok());
  ClientResponse response;
  ASSERT_TRUE(client.Receive(&response).ok());
  EXPECT_FALSE(response.malformed);
  EXPECT_EQ(response.request_id, 1u);
  EXPECT_EQ(response.outcome, serve::RequestOutcome::kBadRequest);
  EXPECT_EQ(response.coordinates.size(), 0u);

  const SparseVector row = TestRow(32, 5);
  client.QueueSparse(0, 2, "m0", row.View());
  ASSERT_TRUE(client.Flush().ok());
  ASSERT_TRUE(client.Receive(&response).ok());
  EXPECT_FALSE(response.malformed);
  EXPECT_EQ(response.request_id, 2u);
  EXPECT_EQ(response.outcome, serve::RequestOutcome::kOk);
  EXPECT_EQ(response.coordinates.size(), 4u);

  server.Stop();
  shards.Stop();  // joins the dispatcher, which counts after it resolves
  EXPECT_EQ(CounterValue("serve.bad_request"), 1u);
  EXPECT_EQ(CounterValue("serve.ok"), 1u);
}

TEST_F(SocketTest, OversizedFrameIsRejectedWithoutBuffering) {
  ShardSet shards(ShardOptions(1));
  ASSERT_TRUE(shards.InstallModel("m0", TestModel()).ok());
  ASSERT_TRUE(shards.Start().ok());
  ServerOptions server_options;
  server_options.metrics = &metrics_;
  server_options.max_frame_bytes = 1u << 16;
  SocketServer server(&shards, server_options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  uint8_t prefix[4];
  const uint32_t huge = 1u << 30;
  std::memcpy(prefix, &huge, 4);
  client.QueueBytes(prefix, 4);
  ASSERT_TRUE(client.Flush().ok());

  ClientResponse response;
  ASSERT_TRUE(client.Receive(&response).ok());
  EXPECT_TRUE(response.malformed);
  EXPECT_TRUE(WaitForCounter("net.rejects.oversized", 1));

  server.Stop();
  shards.Stop();
}

TEST_F(SocketTest, MidFrameDisconnectCountsTruncated) {
  ShardSet shards(ShardOptions(1));
  ASSERT_TRUE(shards.InstallModel("m0", TestModel()).ok());
  ASSERT_TRUE(shards.Start().ok());
  ServerOptions server_options;
  server_options.metrics = &metrics_;
  SocketServer server(&shards, server_options);
  ASSERT_TRUE(server.Start().ok());

  const std::vector<uint8_t> frame = ValidSparseFrame();
  // Disconnect at several cut points: inside the length prefix, inside the
  // fixed header, and inside the row payload.
  const size_t cuts[] = {2, kLengthPrefixBytes + 10, frame.size() - 3};
  uint64_t expected = 0;
  for (const size_t cut : cuts) {
    Client client;
    ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
    client.QueueBytes(frame.data(), cut);
    ASSERT_TRUE(client.Flush().ok());
    client.Close();
    ++expected;
    EXPECT_TRUE(WaitForCounter("net.rejects.truncated", expected))
        << "cut=" << cut;
  }

  server.Stop();
  shards.Stop();
}

// ---------------------------------------------------------------------------
// Loopback bit-identity: the socket path must produce byte-identical
// projections (and matching serve.*/net.route.* accounting) to in-process
// ShardSet::Submit over the same models and query stream.
// ---------------------------------------------------------------------------

TEST(LoopbackIdentity, SocketMatchesInProcessBitForBit) {
  constexpr size_t kDim = 48;
  constexpr size_t kComponents = 5;
  constexpr size_t kShards = 3;
  const std::vector<std::string> model_names = {"m0", "m1", "m2", "m3"};

  workload::TenantMixConfig mix;
  mix.num_tenants = 6;
  mix.models = model_names;
  mix.query.num_queries = 400;
  mix.query.dim = kDim;
  mix.query.seed = 99;
  const std::vector<workload::TaggedQuery> queries =
      workload::GenerateTenantMix(mix);

  auto make_shards = [&](obs::Registry* metrics) {
    ShardSetOptions options;
    options.num_shards = kShards;
    options.service.num_threads = 2;
    options.service.batch_max = 16;
    options.service.queue_capacity = 1u << 14;
    options.metrics = metrics;
    auto shards = std::make_unique<ShardSet>(options);
    for (size_t m = 0; m < model_names.size(); ++m) {
      EXPECT_TRUE(shards
                      ->InstallModel(model_names[m],
                                     TestModel(kDim, kComponents,
                                               1.0 + 0.1 * m))
                      .ok());
    }
    EXPECT_TRUE(shards->Start().ok());
    return shards;
  };

  // In-process reference.
  obs::Registry in_process_metrics;
  auto reference_shards = make_shards(&in_process_metrics);
  std::vector<DenseVector> reference;
  reference.reserve(queries.size());
  for (const auto& tagged : queries) {
    serve::ProjectionRequest request;
    request.model = model_names[tagged.model_index];
    request.tenant = tagged.tenant;
    request.sparse = tagged.query.sparse;
    auto response = reference_shards->Submit(std::move(request)).get();
    ASSERT_EQ(response.outcome, serve::RequestOutcome::kOk);
    reference.push_back(std::move(response.coordinates));
  }
  reference_shards->Stop();

  // Socket path, pipelined out of order: identical shard/model setup on a
  // fresh registry, responses matched by request id.
  obs::Registry socket_metrics;
  auto socket_shards = make_shards(&socket_metrics);
  ServerOptions server_options;
  server_options.metrics = &socket_metrics;
  SocketServer server(socket_shards.get(), server_options);
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  std::vector<DenseVector> from_socket(queries.size());
  std::vector<bool> seen(queries.size(), false);
  size_t received = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    client.QueueSparse(queries[i].tenant, /*request_id=*/i,
                       model_names[queries[i].model_index],
                       queries[i].query.sparse.View());
    if (client.queued_bytes() > 4096) {
      ASSERT_TRUE(client.Flush().ok());
    }
  }
  ASSERT_TRUE(client.Flush().ok());
  while (received < queries.size()) {
    ClientResponse response;
    ASSERT_TRUE(client.Receive(&response).ok());
    ASSERT_EQ(response.outcome, serve::RequestOutcome::kOk);
    ASSERT_LT(response.request_id, queries.size());
    ASSERT_FALSE(seen[response.request_id]);
    seen[response.request_id] = true;
    from_socket[response.request_id] = std::move(response.coordinates);
    ++received;
  }
  client.Close();
  server.Stop();
  socket_shards->Stop();

  // Byte-identical coordinates, request by request.
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(from_socket[i].size(), reference[i].size()) << "request " << i;
    EXPECT_EQ(0, std::memcmp(from_socket[i].data(), reference[i].data(),
                             reference[i].size() * sizeof(double)))
        << "request " << i;
  }

  // Matching serve-plane accounting: both paths saw the same requests on
  // the same shards. (Batch counts legitimately differ — batching is a
  // scheduling artifact — but request/flop accounting must agree.)
  for (const char* name :
       {"serve.requests", "serve.ok", "serve.query_flops"}) {
    EXPECT_EQ(socket_metrics.FindCounter(name)->AsUint64(),
              in_process_metrics.FindCounter(name)->AsUint64())
        << name;
  }
  for (size_t s = 0; s < kShards; ++s) {
    const std::string name = "net.route.shard" + std::to_string(s);
    const auto* socket_counter = socket_metrics.FindCounter(name);
    const auto* reference_counter = in_process_metrics.FindCounter(name);
    ASSERT_TRUE(socket_counter != nullptr && reference_counter != nullptr);
    EXPECT_EQ(socket_counter->AsUint64(), reference_counter->AsUint64())
        << name;
  }
  EXPECT_EQ(socket_metrics.FindCounter("net.frames_in")->AsUint64(),
            queries.size());
  EXPECT_EQ(socket_metrics.FindCounter("net.responses_out")->AsUint64(),
            queries.size());
}

// ---------------------------------------------------------------------------
// Chaos: concurrent socket clients across shards while models hot-swap
// mid-stream. Runs under TSan in the chaos CI shard; the invariant is no
// data race, no lost response, every response OK.
// ---------------------------------------------------------------------------

TEST(NetChaos, ClientsVsHotSwaps) {
  constexpr size_t kDim = 32;
  constexpr size_t kShards = 3;
  constexpr size_t kClients = 3;
  constexpr size_t kRequestsPerClient = 1200;
  constexpr size_t kWindow = 48;
  const std::vector<std::string> model_names = {"hot0", "hot1", "hot2",
                                                "hot3"};

  obs::Registry metrics;
  ShardSetOptions options;
  options.num_shards = kShards;
  options.service.num_threads = 2;
  options.service.batch_max = 24;
  options.service.queue_capacity = 1u << 14;
  options.metrics = &metrics;
  ShardSet shards(options);
  for (size_t m = 0; m < model_names.size(); ++m) {
    ASSERT_TRUE(shards.InstallModel(model_names[m], TestModel(kDim)).ok());
  }
  ASSERT_TRUE(shards.Start().ok());
  ServerOptions server_options;
  server_options.metrics = &metrics;
  SocketServer server(&shards, server_options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_responses{0};
  std::atomic<bool> failed{false};

  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Client client;
      if (!client.Connect("127.0.0.1", server.port()).ok()) {
        failed = true;
        return;
      }
      size_t sent = 0, received = 0;
      while (received < kRequestsPerClient && !failed) {
        while (sent < kRequestsPerClient && sent - received < kWindow) {
          const auto& model = model_names[(c + sent) % model_names.size()];
          const SparseVector row = TestRow(kDim, c * 1000 + sent);
          client.QueueSparse(/*tenant=*/c, /*request_id=*/sent, model,
                             row.View());
          ++sent;
        }
        if (!client.Flush().ok()) {
          failed = true;
          return;
        }
        ClientResponse response;
        if (!client.Receive(&response).ok()) {
          failed = true;
          return;
        }
        // Hot-swaps replace models under the same names, so every request
        // finds one; admission headroom means nothing sheds.
        if (response.outcome != serve::RequestOutcome::kOk) {
          failed = true;
          return;
        }
        ++received;
        ++ok_responses;
      }
    });
  }

  std::thread swapper([&] {
    std::mt19937_64 rng(7);
    size_t swaps = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto& name = model_names[swaps % model_names.size()];
      const double scale = 1.0 + 0.01 * static_cast<double>(rng() % 100);
      if (!shards.InstallModel(name, TestModel(kDim, 4, scale)).ok()) {
        failed = true;
        return;
      }
      ++swaps;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (auto& thread : clients) thread.join();
  stop = true;
  swapper.join();
  server.Stop();
  shards.Stop();

  EXPECT_FALSE(failed);
  EXPECT_EQ(ok_responses.load(), kClients * kRequestsPerClient);
  EXPECT_EQ(metrics.FindCounter("serve.ok")->AsUint64(),
            kClients * kRequestsPerClient);
}

// ---------------------------------------------------------------------------
// Consistent-hash router properties, over ~100 randomized model sets.
// ---------------------------------------------------------------------------

std::vector<std::string> RandomKeys(std::mt19937_64* rng, size_t count) {
  std::set<std::string> keys;
  while (keys.size() < count) {
    std::string key = "model-";
    const size_t len = 1 + (*rng)() % 12;
    for (size_t i = 0; i < len; ++i) {
      key += static_cast<char>('a' + (*rng)() % 26);
    }
    keys.insert(std::move(key));
  }
  return std::vector<std::string>(keys.begin(), keys.end());
}

TEST(RouterProperty, RandomizedModelSets) {
  std::mt19937_64 rng(0xfeedface);
  size_t total_keys = 0, total_moved_on_add = 0;

  for (int trial = 0; trial < 100; ++trial) {
    const uint64_t seed = rng();
    const size_t nodes = 2 + rng() % 7;  // 2..8
    const size_t key_count = 20 + rng() % 81;  // 20..100
    const std::vector<std::string> keys = RandomKeys(&rng, key_count);

    ConsistentHashRouter router =
        ConsistentHashRouter::ForShards(nodes, seed);

    // Deterministic from (seed, node set): a rebuilt ring — with nodes
    // added in a different order — routes every key identically, and a
    // key's route is a pure function independent of what else is routed.
    {
      ConsistentHashRouter rebuilt(seed);
      std::vector<size_t> order(nodes);
      for (size_t i = 0; i < nodes; ++i) order[i] = i;
      std::shuffle(order.begin(), order.end(), rng);
      for (const size_t i : order) {
        rebuilt.AddNode("shard-" + std::to_string(i));
      }
      for (const auto& key : keys) {
        EXPECT_EQ(router.Route(key), rebuilt.Route(key));
      }
    }

    std::map<std::string, size_t> before;
    for (const auto& key : keys) before[key] = router.RouteToShard(key);

    // A ring built without one node re-routes exactly the keys that lived
    // on it.
    const size_t victim = rng() % nodes;
    const std::string victim_name = "shard-" + std::to_string(victim);
    ConsistentHashRouter without_victim(seed);
    for (size_t i = 0; i < nodes; ++i) {
      if (i != victim) without_victim.AddNode("shard-" + std::to_string(i));
    }
    for (const auto& key : keys) {
      const std::string& now = without_victim.Route(key);
      EXPECT_NE(now, victim_name);
      if (before[key] != victim) {
        EXPECT_EQ(now, "shard-" + std::to_string(before[key])) << key;
      }
    }

    // Adding the node restores the full ring's routing exactly (the ring is
    // a pure function of the node set) ...
    without_victim.AddNode(victim_name);
    for (const auto& key : keys) {
      ASSERT_EQ(without_victim.RouteToShard(key), before[key]) << key;
    }

    // ... and adding a brand-new node only pulls keys onto itself.
    const std::string extra = "shard-" + std::to_string(nodes);
    router.AddNode(extra);
    size_t moved = 0;
    for (const auto& key : keys) {
      const std::string& now = router.Route(key);
      if (now != "shard-" + std::to_string(before[key])) {
        EXPECT_EQ(now, extra) << key;
        ++moved;
      }
    }
    total_keys += keys.size();
    total_moved_on_add += moved;
  }

  // Across all trials the add-one-node churn should be near 1/(n+1) of the
  // keys (n in 2..8), nowhere near a full reshuffle. Generous bound: under
  // half moved in aggregate.
  EXPECT_LT(total_moved_on_add, total_keys / 2);
  EXPECT_GT(total_moved_on_add, 0u);
}

TEST(RouterProperty, ShardSetPlacementMatchesRouter) {
  // ShardOf must agree with a standalone ring built from the same
  // (seed, num_shards) — the cross-process placement contract.
  obs::Registry metrics;
  ShardSetOptions options;
  options.num_shards = 5;
  options.router_seed = 1234;
  options.service.num_threads = 1;
  options.metrics = &metrics;
  ShardSet shards(options);
  const ConsistentHashRouter router =
      ConsistentHashRouter::ForShards(5, 1234);
  std::mt19937_64 rng(42);
  for (const auto& key : RandomKeys(&rng, 64)) {
    EXPECT_EQ(shards.ShardOf(key), router.RouteToShard(key)) << key;
  }
}

}  // namespace
}  // namespace spca::net
