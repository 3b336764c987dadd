#ifndef PERFBENCH_RIGS_H_
#define PERFBENCH_RIGS_H_

// The pieces the three workloads are built from: input generation, one
// fit, the SPCQ serving stack with its two kinds of client, and one
// streaming publish cycle. Every piece calls only the libraries' public
// functions; the workloads in main.cc time and check them.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pca_model.h"
#include "dist/comm_stats.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "harness.h"
#include "linalg/dense_matrix.h"
#include "net/server.h"
#include "net/shard_set.h"
#include "obs/registry.h"
#include "serve/model_registry.h"
#include "stream/publisher.h"
#include "stream/stream_solver.h"

namespace perfbench {

namespace obs = spca::obs;
using spca::core::PcaModel;
using spca::dist::DistMatrix;

/// Input shapes. The defaults are the benchmark's; --tiny shrinks every
/// one of them for the self-test.
struct Sizes {
  size_t dim = 2000;        // D, the vocabulary
  size_t components = 50;   // d
  size_t fit_rows = 200000;
  size_t fit_partitions = 16;
  size_t serve_train_rows = 20000;
  size_t queries = 4096;    // held-out query rows
  size_t batch_rows = 256;  // stream mini-batch
  int serve_fit_iterations = 3;
};
Sizes DefaultSizes();
Sizes TinySizes();

/// Tweets-shaped input: `rows` documents drawn by `seed` from a fixed
/// synthetic corpus (workload::MakeDataset's Tweets family: Zipf bag of
/// words, about ten stored entries per row, corpus topics fixed by
/// kCorpusSeed). The seed picks which documents, in which order; the
/// corpus model itself stays put, so how many EM iterations reach 95 % is
/// a property of the corpus rather than of the seed.
DistMatrix TweetsRows(size_t rows, size_t dim, size_t partitions,
                      uint64_t seed);
/// Rows [begin, end) of `m` as a matrix of their own.
DistMatrix SliceRows(const DistMatrix& m, size_t begin, size_t end,
                     size_t partitions);

/// A Spark-mode engine on the paper's default cluster spec with `workers`
/// local threads: 2 for every fit, 1 (inline, no pool) for stream ingest.
std::unique_ptr<spca::dist::Engine> MakeEngine(obs::Registry* registry,
                                               size_t workers);

// ---- fit_tweets ----------------------------------------------------------

struct FitInputs {
  DistMatrix y;
  DistMatrix queries;  // held-out rows, for the in-process query timing
  DistMatrix sample;   // the error-sample rows Spca::Solve draws
  double anchor = 0.0; // ideal error (ConvergedIdealError's recipe)
};
FitInputs SetUpFit(const Sizes& sizes, uint64_t seed);

struct FitOutcome {
  bool ok = false;
  std::string why;
  int iterations = 0;
  double sim_s = 0.0;
  double accuracy_percent = 0.0;
  std::vector<double> accuracy_trace;  // per iteration, % of the anchor
  PcaModel model;
  spca::dist::CommStats stats;
};
/// One cold-start seeded Spca::Solve to 95 % of the anchor.
FitOutcome RunFit(spca::dist::Engine* engine, const FitInputs& inputs,
                  const Sizes& sizes);

// ---- the serving stack -----------------------------------------------------

/// A 1-shard, 1-service-thread ShardSet behind a SocketServer.
class ServeStack {
 public:
  explicit ServeStack(obs::Registry* metrics);
  ~ServeStack();
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  spca::Status Start();
  uint16_t port() const { return server_ ? server_->port() : 0; }
  spca::net::ShardSet* shards() { return &shards_; }
  spca::serve::ModelRegistry* models() { return shards_.shard_models(0); }

 private:
  spca::net::ShardSet shards_;
  obs::Registry* metrics_;
  std::unique_ptr<spca::net::SocketServer> server_;
};

/// Client-side record of one pass of requests.
struct ClientLog {
  std::vector<double> latency_ms;  // per response
  /// Closed loop only: steady-clock seconds at the start and at every
  /// `stamp_every`-th completion, for the interval completion rates.
  std::vector<double> completion_sec;
  size_t stamp_every = 1;
  double start_sec = 0.0;
  double lateness_ms_p50 = 0.0;  // paced reader only
  double lateness_ms_max = 0.0;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t bad = 0;  // wrong outcome, wrong bits, or non-finite
  double client_cpu_s = 0.0;
  std::string first_bad;
  std::vector<PendingSpan> spans;  // sampled requests (traced run only)
};

/// Closed loop on one pipelined connection: `window` requests in flight,
/// `total` requests, round-robin over `names` and the query rows. With
/// `expected` set, every response must equal it bit for bit. The caller
/// sizes `log->latency_ms` to `total` beforehand (during set-up, so the
/// bench's own buffer does not count as the operations' memory).
struct ClosedLoopSpec {
  size_t total = 0;
  size_t window = 32;
  size_t flush_every = 8;
  size_t trace_every = 0;  // 0: no spans
  size_t stamp_every = 1;  // completion timestamps kept, see ClientLog
  const std::vector<std::string>* names = nullptr;
  const DistMatrix* queries = nullptr;
  const std::vector<std::vector<double>>* expected = nullptr;
};
void RunClosedLoop(uint16_t port, const ClosedLoopSpec& spec, ClientLog* log);

/// Sleep-paced reader with one request outstanding: request k is due at
/// start + k * period, latency is measured from the due time, and the
/// reader never spins. Responses must be kOk with finite coordinates.
class PacedReader {
 public:
  PacedReader(uint16_t port, std::string name, const DistMatrix* queries,
              double period_sec, size_t trace_every);
  ~PacedReader();
  PacedReader(const PacedReader&) = delete;
  PacedReader& operator=(const PacedReader&) = delete;
  void Start();
  ClientLog Stop();

 private:
  void Loop();
  uint16_t port_;
  std::string name_;
  const DistMatrix* queries_;
  double period_sec_;
  size_t trace_every_;
  std::atomic<bool> stop_{false};
  ClientLog log_;
  std::vector<double> lateness_ms_;
  std::thread thread_;
};

// ---- stream_publish -------------------------------------------------------

/// One ingest pipeline: inline 1-worker engine, mini-batch EM, and a
/// publisher into the serving stack's registry.
class StreamIngest {
 public:
  /// `registry` receives the engine's telemetry; with `traced` the
  /// bench-side snapshot/publish spans land there too.
  StreamIngest(const Sizes& sizes, uint64_t seed, obs::Registry* registry,
               bool traced, spca::serve::ModelRegistry* models,
               const std::string& model_name);

  struct Cycle {
    bool ok = false;
    std::string why;
    uint64_t generation = 0;
    double step_ms[2] = {0.0, 0.0};
    double snapshot_ms = 0.0;
    double publish_ms = 0.0;
    PcaModel snapshot;
  };
  /// Two Steps, Snapshot, Publish; the new generation serves on return.
  Cycle RunCycle(const DistMatrix& a, const DistMatrix& b);

  spca::dist::Engine* engine() { return engine_.get(); }

 private:
  std::unique_ptr<spca::dist::Engine> engine_;
  obs::Registry* trace_;
  spca::stream::MiniBatchEmSolver solver_;
  spca::stream::ModelPublisher publisher_;
};

// ---- layer probes (traced run) -------------------------------------------

/// Per-call timings of the public functions of linalg, core, serve and net
/// on this workload's inputs. Adds linalg.*, core.error_sample_ms,
/// core.driver_algebra_ms, dist.pool_utilization, serve.project_sparse_ns,
/// serve.projector_create_ms, net.decode_ns, net.encode_ns, net.route_ns
/// and net.bytes_per_req.
void ProbeLayers(const DistMatrix& y, const DistMatrix& sample,
                 const DistMatrix& queries, const PcaModel& model,
                 spca::net::ShardSet* shards, const std::string& model_name,
                 Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_RIGS_H_
