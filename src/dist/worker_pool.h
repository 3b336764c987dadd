#ifndef SPCA_DIST_WORKER_POOL_H_
#define SPCA_DIST_WORKER_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace spca::dist {

/// A persistent pool of worker threads shared by every job an Engine runs.
/// The previous engine spawned and joined fresh std::threads per job, which
/// at sPCA's tens-of-jobs-per-fit rate is pure overhead; the pool spawns
/// once and hands each job's tasks out via an atomic work queue.
///
/// Run() is synchronous and must be called from one thread at a time (the
/// engine's driver thread). Task functions must not throw.
class WorkerPool {
 public:
  explicit WorkerPool(size_t num_threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  size_t num_threads() const { return threads_.size(); }

  /// Runs `fn(task)` for every task in [0, num_tasks), distributing tasks
  /// across the pool in claim order, and blocks until all have finished.
  ///
  /// Claiming is chunked: each fetch_add hands a worker a contiguous run of
  /// `grain = max(1, num_tasks / (8 * num_threads))` task indices, cutting
  /// atomic contention ~grain-fold at large task counts while still leaving
  /// ~8 chunks per thread for load balancing. Which worker runs a task
  /// remains scheduling-dependent, but callers index results by task id, so
  /// outputs stay task-ordered and deterministic either way.
  void Run(size_t num_tasks, const std::function<void(size_t)>& fn);

  /// Run() with task-level retry, for the fault-injection layer: each task
  /// is invoked `attempts(task)` times (at least once) as
  /// `fn(task, attempt, is_final)` with attempt = 0 .. attempts-1 and
  /// is_final true exactly on the last invocation. All attempts of one
  /// task run serially on the worker that claimed it — a re-executed
  /// attempt never overlaps an earlier attempt of the same task, exactly
  /// like a platform rescheduling a failed partition — so a caller that
  /// commits results only when is_final is set gets exactly-once
  /// commitment with no synchronization beyond the pool's own barrier.
  void RunAttempts(size_t num_tasks,
                   const std::function<int(size_t)>& attempts,
                   const std::function<void(size_t, int, bool)>& fn);

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  // signals workers: new job or shutdown
  std::condition_variable done_cv_;  // signals the driver: job complete
  const std::function<void(size_t)>* fn_ = nullptr;
  size_t num_tasks_ = 0;
  size_t grain_ = 1;  // tasks claimed per fetch_add, set by Run()
  uint64_t generation_ = 0;
  size_t active_workers_ = 0;  // workers currently inside a claim loop
  bool shutdown_ = false;
  std::atomic<size_t> next_task_{0};
  std::atomic<size_t> completed_{0};
  std::vector<std::thread> threads_;
};

}  // namespace spca::dist

#endif  // SPCA_DIST_WORKER_POOL_H_
