#include "serve/service.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "linalg/kernel_dispatch.h"
#include "obs/runtime.h"

namespace spca::serve {

const char* RequestOutcomeToString(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk:
      return "OK";
    case RequestOutcome::kShed:
      return "SHED";
    case RequestOutcome::kDeadlineExceeded:
      return "DEADLINE_EXCEEDED";
    case RequestOutcome::kNoModel:
      return "NO_MODEL";
    case RequestOutcome::kBadRequest:
      return "BAD_REQUEST";
    case RequestOutcome::kShutdown:
      return "SHUTDOWN";
  }
  return "UNKNOWN";
}

ProjectionService::ProjectionService(ModelRegistry* models,
                                     ServiceOptions options)
    : models_(models),
      options_(options),
      epoch_(std::chrono::steady_clock::now()),
      pool_(options.num_threads) {
  SPCA_CHECK(models_ != nullptr);
  SPCA_CHECK_GT(options_.batch_max, 0u);
  // Every projection this service executes runs on the dispatched kernel
  // tier; stamp it so a metrics dump or trace says which one served.
  obs::RecordKernelIsa(options_.metrics, linalg::kernels::DispatchedIsaName(),
                       static_cast<int>(linalg::kernels::DispatchedIsa()));
  if (obs::Registry* metrics = options_.metrics; metrics != nullptr) {
    hot_.requests = metrics->counter("serve.requests");
    hot_.shed = metrics->counter("serve.shed");
    hot_.ok = metrics->counter("serve.ok");
    hot_.batches = metrics->counter("serve.batches");
    hot_.deadline_exceeded = metrics->counter("serve.deadline_exceeded");
    hot_.no_model = metrics->counter("serve.no_model");
    hot_.bad_request = metrics->counter("serve.bad_request");
    hot_.query_flops = metrics->counter("serve.query_flops");
    hot_.latency_sec = metrics->histogram("serve.latency_sec");
    hot_.queue_sec = metrics->histogram("serve.queue_sec");
    hot_.batch_size = metrics->histogram("serve.batch_size");
    hot_.batch_exec_sec = metrics->histogram("serve.batch_exec_sec");
  }
}

ProjectionService::~ProjectionService() { Stop(); }

Status ProjectionService::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (started_) return Status::FailedPrecondition("service already started");
  if (stopping_) return Status::FailedPrecondition("service already stopped");
  started_ = true;
  dispatcher_ = std::thread([this] { DispatchLoop(); });
  return Status::Ok();
}

void ProjectionService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  queue_cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher is gone; whatever it left queued is never executing.
  std::deque<Pending> leftover;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    leftover.swap(queue_);
  }
  for (auto& pending : leftover) {
    ProjectionResponse response;
    response.outcome = RequestOutcome::kShutdown;
    Resolve(&pending, std::move(response));
  }
}

std::future<ProjectionResponse> ProjectionService::Submit(
    ProjectionRequest request) {
  auto promise = std::make_shared<std::promise<ProjectionResponse>>();
  std::future<ProjectionResponse> future = promise->get_future();
  Pending pending;
  pending.request = std::move(request);
  pending.callback = [promise = std::move(promise)](
                         ProjectionResponse response) {
    promise->set_value(std::move(response));
  };
  Enqueue(std::move(pending), /*notify=*/true);
  return future;
}

void ProjectionService::SubmitWithCallback(
    ProjectionRequest request, std::function<void(ProjectionResponse)> done,
    bool defer_notify) {
  Pending pending;
  pending.request = std::move(request);
  pending.callback = std::move(done);
  Enqueue(std::move(pending), /*notify=*/!defer_notify);
}

void ProjectionService::Kick() { queue_cv_.notify_one(); }

void ProjectionService::Enqueue(Pending pending, bool notify) {
  pending.submit_sec = NowSeconds();
  pending.deadline_sec = pending.submit_sec + pending.request.timeout_sec;

  if (hot_.requests != nullptr) hot_.requests->Add(1);

  RequestOutcome reject = RequestOutcome::kOk;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      reject = RequestOutcome::kShutdown;
    } else if (queue_.size() >= options_.queue_capacity) {
      reject = RequestOutcome::kShed;
    } else {
      queue_.push_back(std::move(pending));
    }
  }
  if (reject == RequestOutcome::kOk) {
    if (notify) queue_cv_.notify_one();
    return;
  }
  if (hot_.shed != nullptr && reject == RequestOutcome::kShed) {
    hot_.shed->Add(1);
  }
  ProjectionResponse response;
  response.outcome = reject;
  Resolve(&pending, std::move(response));
}

size_t ProjectionService::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

void ProjectionService::DispatchLoop() {
  for (;;) {
    std::deque<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // Stop() resolves the remainder as kShutdown
      const size_t take = std::min(queue_.size(), options_.batch_max);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    ExecuteBatch(&batch);
  }
}

void ProjectionService::ExecuteBatch(std::deque<Pending>* batch) {
  obs::Registry* metrics = options_.metrics;
  const double formed_sec = NowSeconds();

  // Triage: expire deadlines, snapshot one projector per distinct model
  // name (the hot-swap point: this batch keeps its snapshots even if the
  // registry swaps mid-flight), and validate shapes.
  std::unordered_map<std::string, std::shared_ptr<const Projector>> snapshots;
  struct Item {
    Pending* pending;
    const Projector* projector;
    linalg::DenseVector out;
  };
  std::vector<Item> items;
  items.reserve(batch->size());
  uint64_t flops = 0;
  uint64_t expired = 0, no_model = 0, bad_request = 0;
  for (auto& pending : *batch) {
    RequestOutcome outcome = RequestOutcome::kOk;
    const Projector* projector = nullptr;
    if (formed_sec > pending.deadline_sec) {
      outcome = RequestOutcome::kDeadlineExceeded;
      ++expired;
    } else {
      auto it = snapshots.find(pending.request.model);
      if (it == snapshots.end()) {
        it = snapshots.emplace(pending.request.model,
                               models_->Get(pending.request.model))
                 .first;
      }
      projector = it->second.get();
      if (projector == nullptr) {
        outcome = RequestOutcome::kNoModel;
        ++no_model;
      } else if (pending.request.dim() != projector->input_dim()) {
        outcome = RequestOutcome::kBadRequest;
        ++bad_request;
      }
    }
    if (outcome != RequestOutcome::kOk) {
      ProjectionResponse response;
      response.outcome = outcome;
      response.queue_sec = formed_sec - pending.submit_sec;
      response.total_sec = NowSeconds() - pending.submit_sec;
      response.batch_size = batch->size();
      Resolve(&pending, std::move(response));
      continue;
    }
    flops += projector->QueryFlops(pending.request.nnz());
    items.push_back(Item{&pending, projector,
                         linalg::DenseVector(projector->num_components())});
  }

  // Fan the surviving rows out across the pool: one task per query row,
  // each calling the identical per-row projection a sequential caller
  // would — batching affects scheduling only, never arithmetic.
  if (!items.empty()) {
    const auto run_row = [&items](size_t i) {
      Item& item = items[i];
      const ProjectionRequest& request = item.pending->request;
      if (request.is_dense()) {
        item.projector->ProjectDense(request.dense.data(), item.out.data());
      } else {
        item.projector->ProjectSparse(request.sparse.View(), item.out.data());
      }
    };
    if (pool_.num_threads() == 1) {
      // A one-thread pool adds two context switches per batch for zero
      // parallelism; run the rows inline on the dispatcher instead. Same
      // per-row calls in the same order — bit-identical results.
      for (size_t i = 0; i < items.size(); ++i) run_row(i);
    } else {
      pool_.Run(items.size(), run_row);
    }
  }
  const double done_sec = NowSeconds();

  // One ObserveMany per histogram per batch: recording per request would
  // contend on the (shard-shared) histogram mutex half a million times a
  // second at socket saturation.
  std::vector<double> latencies, queue_waits;
  if (metrics != nullptr) {
    latencies.reserve(items.size());
    queue_waits.reserve(items.size());
  }
  uint64_t ok = 0;
  for (auto& item : items) {
    ProjectionResponse response;
    response.queue_sec = formed_sec - item.pending->submit_sec;
    response.total_sec = done_sec - item.pending->submit_sec;
    response.batch_size = batch->size();
    // A NaN, an infinity or a finite value whose product overflows leaves
    // coordinates that are not all finite. Checking the output catches all
    // three (d compares per row), so no NaN is ever served as OK.
    const double* out = item.out.data();
    if (!std::all_of(out, out + item.out.size(),
                     [](double v) { return std::isfinite(v); })) {
      response.outcome = RequestOutcome::kBadRequest;
      ++bad_request;
    } else {
      response.outcome = RequestOutcome::kOk;
      response.coordinates = std::move(item.out);
      ++ok;
      if (metrics != nullptr) {
        latencies.push_back(response.total_sec);
        queue_waits.push_back(response.queue_sec);
      }
    }
    Resolve(item.pending, std::move(response));
  }
  if (metrics != nullptr) {
    hot_.latency_sec->ObserveMany(latencies.data(), latencies.size());
    hot_.queue_sec->ObserveMany(queue_waits.data(), queue_waits.size());
  }

  if (metrics != nullptr) {
    hot_.batches->Add(1);
    hot_.ok->Add(static_cast<double>(ok));
    if (expired > 0) {
      hot_.deadline_exceeded->Add(static_cast<double>(expired));
    }
    if (no_model > 0) {
      hot_.no_model->Add(static_cast<double>(no_model));
    }
    if (bad_request > 0) {
      hot_.bad_request->Add(static_cast<double>(bad_request));
    }
    hot_.query_flops->Add(static_cast<double>(flops));
    hot_.batch_size->Observe(static_cast<double>(batch->size()));
    hot_.batch_exec_sec->Observe(done_sec - formed_sec);
    // AddCompleteSpan is mutex-protected (unlike the RAII span stack), so
    // recording from the dispatcher thread is safe.
    if (options_.record_batch_spans) {
      metrics->AddCompleteSpan(
          "serve.batch", "serve", obs::Track::kWall, formed_sec,
          done_sec - formed_sec, /*parent_id=*/0,
          {{"batch_size", static_cast<uint64_t>(batch->size())},
           {"ok", ok},
           {"expired", expired},
           {"flops", flops}});
    }
    if (options_.notify_job_listener) metrics->NotifyJobCompleted();
  }
}

void ProjectionService::Resolve(Pending* pending,
                                ProjectionResponse response) {
  pending->callback(std::move(response));
}

}  // namespace spca::serve
