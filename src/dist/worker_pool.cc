#include "dist/worker_pool.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace spca::dist {

namespace {

// The pool whose task the current thread is running, if any: a worker
// thread's own pool for its whole life, and the caller's pool while a
// RunWithCaller() caller claims tasks. Run() on that pool from here would
// wait for a barrier its own task holds up.
thread_local const WorkerPool* tls_running_pool = nullptr;

}  // namespace

WorkerPool::WorkerPool(size_t num_threads) {
  threads_.reserve(std::max<size_t>(1, num_threads));
  for (size_t i = 0; i < std::max<size_t>(1, num_threads); ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& thread : threads_) thread.join();
}

void WorkerPool::Run(size_t num_tasks, const std::function<void(size_t)>& fn) {
  Dispatch(num_tasks, fn, /*caller_claims=*/false);
}

void WorkerPool::RunWithCaller(size_t num_tasks,
                               const std::function<void(size_t)>& fn) {
  Dispatch(num_tasks, fn, /*caller_claims=*/true);
}

void WorkerPool::Dispatch(size_t num_tasks,
                          const std::function<void(size_t)>& fn,
                          bool caller_claims) {
  SPCA_CHECK_MSG(tls_running_pool != this,
                 "WorkerPool::Run called from inside one of its own tasks");
  if (num_tasks == 0) return;
  const size_t executors = threads_.size() + (caller_claims ? 1 : 0);
  std::unique_lock<std::mutex> lock(mutex_);
  fn_ = &fn;
  num_tasks_ = num_tasks;
  grain_ = std::max<size_t>(1, num_tasks / (8 * executors));
  next_task_.store(0, std::memory_order_relaxed);
  completed_.store(0, std::memory_order_relaxed);
  ++generation_;
  work_cv_.notify_all();
  if (caller_claims) {
    const size_t grain = grain_;
    lock.unlock();
    const WorkerPool* outer = std::exchange(tls_running_pool, this);
    ClaimTasks(fn, num_tasks, grain);
    tls_running_pool = outer;
    lock.lock();
  }
  // Wait until every task ran AND every woken worker has left its claim
  // loop — only then is it safe for the caller to destroy `fn` and for a
  // subsequent Run() to reset the shared task counter.
  done_cv_.wait(lock, [&] {
    return completed_.load(std::memory_order_acquire) == num_tasks_ &&
           active_workers_ == 0;
  });
  fn_ = nullptr;
}

void WorkerPool::RunAttempts(size_t num_tasks,
                             const std::function<int(size_t)>& attempts,
                             const std::function<void(size_t, int, bool)>& fn) {
  if (num_tasks == 0) return;
  // The attempt loop rides on the plain task queue: the claiming worker
  // re-runs its task inline until the final attempt, so retry scheduling
  // adds no pool state and inherits Run()'s completion barrier.
  const std::function<void(size_t)> task_fn = [&](size_t task) {
    const int total = std::max(1, attempts(task));
    for (int attempt = 0; attempt < total; ++attempt) {
      fn(task, attempt, attempt + 1 == total);
    }
  };
  Run(num_tasks, task_fn);
}

void WorkerPool::ClaimTasks(const std::function<void(size_t)>& fn,
                            size_t num_tasks, size_t grain) {
  for (;;) {
    const size_t begin = next_task_.fetch_add(grain, std::memory_order_relaxed);
    if (begin >= num_tasks) break;
    const size_t end = std::min(begin + grain, num_tasks);
    for (size_t task = begin; task < end; ++task) fn(task);
    completed_.fetch_add(end - begin, std::memory_order_acq_rel);
  }
}

void WorkerPool::WorkerLoop() {
  tls_running_pool = this;
  uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(size_t)>* fn = nullptr;
    size_t num_tasks = 0;
    size_t grain = 1;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // fn_ is null between jobs; a worker that slept through an entire
      // job (generation bumped and finished before it woke) must keep
      // waiting rather than run with a dangling function pointer.
      work_cv_.wait(lock, [&] {
        return shutdown_ ||
               (generation_ != seen_generation && fn_ != nullptr);
      });
      if (shutdown_) return;
      seen_generation = generation_;
      fn = fn_;
      num_tasks = num_tasks_;
      grain = grain_;
      ++active_workers_;
    }
    ClaimTasks(*fn, num_tasks, grain);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (--active_workers_ == 0 &&
          completed_.load(std::memory_order_acquire) == num_tasks_) {
        done_cv_.notify_all();
      }
    }
  }
}

}  // namespace spca::dist
