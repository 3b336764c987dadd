#ifndef SPCA_SERVE_SERVICE_H_
#define SPCA_SERVE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "dist/worker_pool.h"
#include "linalg/dense_matrix.h"
#include "linalg/sparse_matrix.h"
#include "obs/registry.h"
#include "serve/model_registry.h"

namespace spca::serve {

/// Terminal state of one projection request.
enum class RequestOutcome {
  kOk = 0,
  kShed,              // rejected at admission: queue at capacity
  kDeadlineExceeded,  // expired while queued
  kNoModel,           // named model not in the registry at execution time
  kBadRequest,        // query dimensionality does not match the model,
                      // or its coordinates are not all finite
  kShutdown,          // service stopped before the request was executed
};

const char* RequestOutcomeToString(RequestOutcome outcome);

/// One query row to project. The sparse representation is the common case
/// (the paper's workloads are sparse bag-of-words rows); set `dense`
/// non-empty to take the dense-row kernel path instead.
struct ProjectionRequest {
  std::string model;           // name in the ModelRegistry
  uint64_t tenant = 0;         // multi-tenant accounting only; never routing
  linalg::SparseVector sparse;
  linalg::DenseVector dense;   // dense path when size() > 0
  /// Seconds the request may wait before execution starts, measured from
  /// Submit(). A batch whose formation happens after the deadline resolves
  /// the request kDeadlineExceeded without executing it. Values <= 0 expire
  /// immediately (useful for deterministic tests); the default never does.
  double timeout_sec = std::numeric_limits<double>::infinity();

  bool is_dense() const { return dense.size() > 0; }
  size_t dim() const { return is_dense() ? dense.size() : sparse.dim(); }
  size_t nnz() const { return is_dense() ? dense.size() : sparse.nnz(); }
};

struct ProjectionResponse {
  RequestOutcome outcome = RequestOutcome::kShutdown;
  linalg::DenseVector coordinates;  // d latent coordinates when kOk
  double queue_sec = 0.0;           // Submit() -> batch formation
  double total_sec = 0.0;           // Submit() -> response resolution
  uint64_t batch_size = 0;          // requests in the executing batch
};

struct ServiceOptions {
  size_t num_threads = 4;        // worker pool threads executing batches
  size_t batch_max = 64;         // max requests coalesced into one batch
  size_t queue_capacity = 1024;  // admission control: shed above this
  /// Optional metrics/span sink (serve.* counters, latency histograms and
  /// one serve.batch span per executed batch).
  obs::Registry* metrics = nullptr;
  /// When set (and `metrics` is set), every executed batch also fires the
  /// registry's job-completion hook so an attached TraceStreamer flushes
  /// serve.batch spans incrementally. Leave false when a driver thread is
  /// concurrently running engine jobs against the same registry — the
  /// streamer is single-thread-driven.
  bool notify_job_listener = false;
  /// Record one serve.batch span per executed batch. Spans accumulate in
  /// the registry (and serialize on its mutex); a saturated multi-shard
  /// socket bench executes tens of thousands of batches a second, so the
  /// high-throughput path turns this off. Counters and histograms are
  /// unaffected.
  bool record_batch_spans = true;
};

/// The batched projection front-end: requests enter a bounded queue,
/// a dispatcher thread coalesces them into batches of at most batch_max,
/// and each batch fans out across a dist::WorkerPool — the same executor
/// the training engine uses — with one task per query row. Batching
/// changes only scheduling, never arithmetic: every row is projected by
/// the same Projector entry point a row-at-a-time caller would use, so
/// batched results are bit-identical to unbatched ones.
///
/// Lifecycle: construct -> (optionally Submit while cold) -> Start() ->
/// Stop(). Requests submitted before Start() queue up (still subject to
/// admission control) and execute once the dispatcher runs — tests use
/// this to exercise shedding and deadlines deterministically. Stop()
/// resolves anything still queued as kShutdown.
class ProjectionService {
 public:
  /// `models` must outlive the service.
  ProjectionService(ModelRegistry* models, ServiceOptions options);
  ~ProjectionService();

  ProjectionService(const ProjectionService&) = delete;
  ProjectionService& operator=(const ProjectionService&) = delete;

  /// Launches the dispatcher. Fails if already started.
  Status Start();

  /// Stops the dispatcher, joins it, and resolves queued requests as
  /// kShutdown. Idempotent; also called by the destructor.
  void Stop();

  /// Enqueues one request. Always returns a future that will be resolved:
  /// immediately (kShed when the queue is full, kShutdown after Stop) or
  /// by the dispatcher once the request's batch executes.
  std::future<ProjectionResponse> Submit(ProjectionRequest request);

  /// Callback flavor of Submit for the socket front-end: no promise/future
  /// machinery per request. The callback is invoked exactly once — inline
  /// on the submitting thread for immediate rejections (kShed/kShutdown),
  /// on the dispatcher thread otherwise — and must not re-enter the
  /// service.
  ///
  /// `defer_notify` enqueues without waking the dispatcher; the caller
  /// MUST follow a deferred burst with Kick() or the requests sit until
  /// the next undeferred submit. The socket front-end submits a whole
  /// read burst deferred and kicks once — the dispatcher then forms one
  /// big batch instead of preempting the parser after every frame.
  void SubmitWithCallback(ProjectionRequest request,
                          std::function<void(ProjectionResponse)> done,
                          bool defer_notify = false);

  /// Wakes the dispatcher; pairs with defer_notify submits.
  void Kick();

  size_t queue_depth() const;
  const ServiceOptions& options() const { return options_; }

  /// The clock queue_sec/total_sec and deadlines are measured on. When a
  /// metrics registry is attached this is its wall clock, so serve.batch
  /// span timestamps land on the same epoch as every other span in the
  /// trace; otherwise seconds since service construction.
  double NowSeconds() const {
    if (options_.metrics != nullptr) return options_.metrics->NowSeconds();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
  }

 private:
  struct Pending {
    ProjectionRequest request;
    /// Invoked exactly once with the response. Submit() wraps a promise in
    /// one of these; the socket path passes its own, so no per-request
    /// promise shared-state allocation happens off the future path.
    std::function<void(ProjectionResponse)> callback;
    double submit_sec = 0.0;
    double deadline_sec = 0.0;
  };

  void DispatchLoop();
  void ExecuteBatch(std::deque<Pending>* batch);
  void Resolve(Pending* pending, ProjectionResponse response);
  void Enqueue(Pending pending, bool notify);

  ModelRegistry* const models_;
  const ServiceOptions options_;
  const std::chrono::steady_clock::time_point epoch_;
  dist::WorkerPool pool_;

  /// Hot-path metric handles, resolved once at construction (registry
  /// pointers are stable): name lookups cost a map walk per call, which
  /// a saturated socket path pays hundreds of thousands of times a
  /// second. All null when options_.metrics is null.
  struct HotMetrics {
    obs::Counter* requests = nullptr;
    obs::Counter* shed = nullptr;
    obs::Counter* ok = nullptr;
    obs::Counter* batches = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* no_model = nullptr;
    obs::Counter* bad_request = nullptr;
    obs::Counter* query_flops = nullptr;
    obs::Histogram* latency_sec = nullptr;
    obs::Histogram* queue_sec = nullptr;
    obs::Histogram* batch_size = nullptr;
    obs::Histogram* batch_exec_sec = nullptr;
  };
  HotMetrics hot_;

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool started_ = false;
  bool stopping_ = false;
  std::thread dispatcher_;
};

}  // namespace spca::serve

#endif  // SPCA_SERVE_SERVICE_H_
