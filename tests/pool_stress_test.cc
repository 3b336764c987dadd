// Concurrency stress tests, meant to run under TSan (-DSPCA_SANITIZE=thread)
// as well as plain builds:
//
//  * WorkerPool hammered with many small jobs while verifying every task
//    runs exactly once per job.
//  * An Engine running real jobs while a monitor thread concurrently polls
//    Engine::StatsSnapshot() and the registry's counters — the supported
//    cross-thread read path (StatsSnapshot() reads the atomic counters
//    directly and returns by value).

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "dist/fault.h"
#include "dist/worker_pool.h"
#include "linalg/sparse_matrix.h"
#include "obs/registry.h"
#include "workload/synthetic.h"

namespace spca {
namespace {

using dist::DistMatrix;
using dist::Engine;
using dist::EngineMode;
using dist::TaskContext;
using dist::WorkerPool;

TEST(PoolStress, EveryTaskRunsExactlyOncePerJob) {
  WorkerPool pool(4);
  constexpr size_t kJobs = 200;
  constexpr size_t kTasks = 64;
  for (size_t job = 0; job < kJobs; ++job) {
    std::vector<std::atomic<int>> hits(kTasks);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    std::atomic<uint64_t> sum{0};
    pool.Run(kTasks, [&](size_t task) {
      hits[task].fetch_add(1, std::memory_order_relaxed);
      sum.fetch_add(task, std::memory_order_relaxed);
    });
    for (size_t task = 0; task < kTasks; ++task) {
      ASSERT_EQ(hits[task].load(std::memory_order_relaxed), 1)
          << "job " << job << " task " << task;
    }
    ASSERT_EQ(sum.load(std::memory_order_relaxed),
              kTasks * (kTasks - 1) / 2);
  }
}

// Chunked claiming hands each fetch_add a contiguous run of
// max(1, num_tasks / (8 * threads)) tasks. Sweep task counts around the
// grain boundaries (grain 1 below 8*threads, ragged final chunks above)
// and verify exactly-once execution either way.
TEST(PoolStress, ChunkedClaimingCoversRaggedTaskCounts) {
  WorkerPool pool(3);
  // With 3 threads, grain goes above 1 at 48 tasks; 49/50/97 leave ragged
  // final chunks, 1000 gives grain 41 with a short tail.
  for (const size_t tasks :
       {size_t{1}, size_t{2}, size_t{23}, size_t{47}, size_t{48}, size_t{49},
        size_t{50}, size_t{97}, size_t{1000}}) {
    std::vector<std::atomic<int>> hits(tasks);
    for (auto& h : hits) h.store(0, std::memory_order_relaxed);
    pool.Run(tasks, [&](size_t task) {
      hits[task].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t task = 0; task < tasks; ++task) {
      ASSERT_EQ(hits[task].load(std::memory_order_relaxed), 1)
          << "tasks=" << tasks << " task=" << task;
    }
  }
}

// RunAttempts under the same hammer: attempts of one task must serialize
// (a retry never overlaps an earlier attempt of its own task), the final
// attempt must come last, and commitment is exactly-once — all visible to
// TSan through the non-atomic per-task scratch each attempt writes.
TEST(PoolStress, RetryAttemptsSerializePerTask) {
  WorkerPool pool(4);
  constexpr size_t kJobs = 100;
  constexpr size_t kTasks = 64;
  for (size_t job = 0; job < kJobs; ++job) {
    // Non-atomic per-task state: safe exactly because all attempts of a
    // task run serially on one worker. TSan flags any violation.
    std::vector<int> scratch(kTasks, 0);
    std::vector<int> committed(kTasks, -1);
    std::vector<std::atomic<int>> finals(kTasks);
    for (auto& f : finals) f.store(0, std::memory_order_relaxed);
    const auto attempts = [&](size_t task) {
      return 1 + static_cast<int>((task + job) % 4);
    };
    pool.RunAttempts(kTasks, attempts,
                     [&](size_t task, int attempt, bool is_final) {
                       ASSERT_EQ(scratch[task], attempt);
                       ++scratch[task];
                       if (is_final) {
                         finals[task].fetch_add(1, std::memory_order_relaxed);
                         committed[task] = attempt;
                       }
                     });
    for (size_t task = 0; task < kTasks; ++task) {
      ASSERT_EQ(scratch[task], attempts(task)) << "task " << task;
      ASSERT_EQ(finals[task].load(std::memory_order_relaxed), 1);
      ASSERT_EQ(committed[task], attempts(task) - 1);
    }
  }
}

// An engine running fault-injected jobs (real re-execution through the
// pool) while a monitor thread concurrently polls StatsSnapshot() — the
// retry counters are atomics like everything else and must never go
// backwards or tear.
TEST(PoolStress, ConcurrentSnapshotsDuringFaultRetries) {
  workload::BagOfWordsConfig config;
  config.rows = 400;
  config.vocab = 120;
  config.words_per_row = 6;
  config.seed = 11;
  const DistMatrix matrix =
      DistMatrix::FromSparse(workload::GenerateBagOfWords(config), 8);

  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  engine.SetLocalWorkers(4);
  dist::FaultSpec fault_spec;
  fault_spec.seed = 23;
  fault_spec.task_failure_probability = 0.45;
  fault_spec.straggler_probability = 0.2;
  const dist::FaultPlan plan(fault_spec);
  engine.SetFaultPlan(plan);

  std::atomic<bool> done{false};
  std::thread monitor([&] {
    uint64_t last_retries = 0;
    while (!done.load(std::memory_order_acquire)) {
      const dist::CommStats snap = engine.StatsSnapshot();
      ASSERT_GE(snap.task_retries, last_retries);
      last_retries = snap.task_retries;
    }
  });

  constexpr size_t kJobs = 60;
  for (size_t job = 0; job < kJobs; ++job) {
    const auto partials = engine.RunMap<uint64_t>(
        dist::JobDesc{"retry_stress"}, matrix,
        [&](const dist::RowRange& range, TaskContext* ctx) -> uint64_t {
          ctx->CountFlops(500);
          return range.end - range.begin;
        });
    uint64_t total_rows = 0;
    for (const uint64_t partial : partials) total_rows += partial;
    ASSERT_EQ(total_rows, matrix.rows());
  }
  done.store(true, std::memory_order_release);
  monitor.join();

  // The final counters equal the deterministic schedule, scheduling and
  // monitor interleaving notwithstanding.
  uint64_t expected_retries = 0;
  for (size_t job = 0; job < kJobs; ++job) {
    for (const dist::TaskFault& fault :
         plan.DrawJob(job, matrix.num_partitions())) {
      expected_retries += static_cast<uint64_t>(fault.extra_attempts);
    }
  }
  EXPECT_GT(expected_retries, 0u);
  EXPECT_EQ(engine.StatsSnapshot().task_retries, expected_retries);
}

TEST(PoolStress, ConcurrentStatsSnapshotsDuringJobs) {
  workload::BagOfWordsConfig config;
  config.rows = 400;
  config.vocab = 120;
  config.words_per_row = 6;
  config.seed = 9;
  const DistMatrix matrix =
      DistMatrix::FromSparse(workload::GenerateBagOfWords(config), 8);

  Engine engine(dist::ClusterSpec{}, EngineMode::kSpark);
  engine.SetLocalWorkers(4);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> snapshots_taken{0};
  // The monitor does what a dashboard thread would: poll the thread-safe
  // snapshot and the registry counters while the driver runs jobs, checking
  // that the job counter never goes backwards.
  std::thread monitor([&] {
    uint64_t last_jobs = 0;
    while (!done.load(std::memory_order_acquire)) {
      const dist::CommStats snap = engine.StatsSnapshot();
      ASSERT_GE(snap.jobs_launched, last_jobs);
      last_jobs = snap.jobs_launched;
      const obs::Counter* flops =
          engine.registry()->FindCounter("engine.task_flops");
      if (flops != nullptr) {
        ASSERT_GE(flops->value(), 0.0);
      }
      snapshots_taken.fetch_add(1, std::memory_order_relaxed);
    }
  });

  constexpr size_t kJobs = 120;
  constexpr uint64_t kFlopsPerTask = 1000;
  uint64_t expected_sum = 0;
  for (size_t job = 0; job < kJobs; ++job) {
    const auto partials = engine.RunMap<uint64_t>(
        dist::JobDesc{"stress_job"}, matrix, [&](const dist::RowRange& range,
                                  TaskContext* ctx) -> uint64_t {
          ctx->CountFlops(kFlopsPerTask);
          uint64_t rows = 0;
          for (size_t i = range.begin; i < range.end; ++i) ++rows;
          return rows;
        });
    uint64_t total_rows = 0;
    for (const uint64_t partial : partials) total_rows += partial;
    // Results stay deterministic and exact no matter what the monitor
    // thread is doing.
    ASSERT_EQ(total_rows, matrix.rows());
    expected_sum += total_rows;
  }
  done.store(true, std::memory_order_release);
  monitor.join();

  const dist::CommStats final_stats = engine.StatsSnapshot();
  EXPECT_EQ(final_stats.jobs_launched, kJobs);
  EXPECT_EQ(final_stats.task_flops,
            kJobs * matrix.num_partitions() * kFlopsPerTask);
  EXPECT_EQ(expected_sum, kJobs * matrix.rows());
  EXPECT_GT(snapshots_taken.load(std::memory_order_relaxed), 0u);
}

}  // namespace
}  // namespace spca
