#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "dist/dist_matrix.h"
#include "dist/engine.h"
#include "linalg/ops.h"

namespace spca::dist {
namespace {

using linalg::DenseMatrix;
using linalg::DenseVector;
using linalg::SparseMatrix;

DenseMatrix RandomDense(size_t rows, size_t cols, uint64_t seed,
                        double density = 1.0) {
  Rng rng(seed);
  DenseMatrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i) {
    for (size_t j = 0; j < cols; ++j) {
      if (rng.NextDouble() < density) m(i, j) = rng.NextGaussian();
    }
  }
  return m;
}

// ---- DistMatrix ---------------------------------------------------------

TEST(DistMatrixTest, PartitioningCoversAllRows) {
  const DistMatrix m = DistMatrix::FromDense(RandomDense(10, 3, 1), 4);
  EXPECT_EQ(m.num_partitions(), 4u);
  size_t total = 0;
  size_t expected_begin = 0;
  for (const auto& p : m.partitions()) {
    EXPECT_EQ(p.begin, expected_begin);
    total += p.size();
    expected_begin = p.end;
  }
  EXPECT_EQ(total, 10u);
}

TEST(DistMatrixTest, MorePartitionsThanRowsClamps) {
  const DistMatrix m = DistMatrix::FromDense(RandomDense(3, 2, 2), 10);
  EXPECT_EQ(m.num_partitions(), 3u);
}

TEST(DistMatrixTest, SparseAndDenseRowOpsAgree) {
  const DenseMatrix dense = RandomDense(12, 8, 3, 0.4);
  const DistMatrix as_dense = DistMatrix::FromDense(dense, 3);
  const DistMatrix as_sparse =
      DistMatrix::FromSparse(SparseMatrix::FromDense(dense), 3);

  Rng rng(4);
  const DenseMatrix b = DenseMatrix::GaussianRandom(8, 5, &rng);
  DenseVector out_dense(5);
  DenseVector out_sparse(5);
  DenseVector v(8);
  for (size_t j = 0; j < 8; ++j) v[j] = rng.NextGaussian();

  for (size_t i = 0; i < 12; ++i) {
    as_dense.RowTimesMatrix(i, b, &out_dense);
    as_sparse.RowTimesMatrix(i, b, &out_sparse);
    for (size_t j = 0; j < 5; ++j) {
      EXPECT_NEAR(out_dense[j], out_sparse[j], 1e-12);
    }
    EXPECT_NEAR(as_dense.RowDot(i, v), as_sparse.RowDot(i, v), 1e-12);
    EXPECT_NEAR(as_dense.RowSquaredNorm(i), as_sparse.RowSquaredNorm(i),
                1e-12);
  }
}

TEST(DistMatrixTest, AddRowOuterProductMatchesReference) {
  const DenseMatrix dense = RandomDense(6, 5, 5, 0.5);
  const DistMatrix m =
      DistMatrix::FromSparse(SparseMatrix::FromDense(dense), 2);
  DenseVector x(std::vector<double>{1.0, -2.0, 0.5});
  DenseMatrix out(5, 3);
  m.AddRowOuterProduct(2, x, &out);
  for (size_t k = 0; k < 5; ++k) {
    for (size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(out(k, j), dense(2, k) * x[j], 1e-12);
    }
  }
}

TEST(DistMatrixTest, ColumnMeansAndFrobenius) {
  const DenseMatrix dense = RandomDense(7, 4, 6);
  const DistMatrix as_dense = DistMatrix::FromDense(dense, 2);
  const DistMatrix as_sparse =
      DistMatrix::FromSparse(SparseMatrix::FromDense(dense), 2);
  const DenseVector m1 = as_dense.ColumnMeans();
  const DenseVector m2 = as_sparse.ColumnMeans();
  for (size_t j = 0; j < 4; ++j) EXPECT_NEAR(m1[j], m2[j], 1e-12);
  EXPECT_NEAR(as_dense.FrobeniusNorm2(), as_sparse.FrobeniusNorm2(), 1e-10);
}

TEST(DistMatrixTest, SampleRowsPreservesContent) {
  const DenseMatrix dense = RandomDense(10, 4, 7);
  const DistMatrix m = DistMatrix::FromDense(dense, 3);
  const std::vector<size_t> indices = {1, 4, 9};
  const DistMatrix sample = m.SampleRows(indices, 1);
  EXPECT_EQ(sample.rows(), 3u);
  const DenseMatrix slice = sample.ToDenseSlice(0, 3);
  for (size_t out = 0; out < 3; ++out) {
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_DOUBLE_EQ(slice(out, j), dense(indices[out], j));
    }
  }
}

TEST(DistMatrixTest, StorageKeySharedAcrossCopies) {
  const DistMatrix m = DistMatrix::FromDense(RandomDense(4, 2, 8), 2);
  const DistMatrix copy = m;
  EXPECT_EQ(m.StorageKey(), copy.StorageKey());
  const DistMatrix other = DistMatrix::FromDense(RandomDense(4, 2, 8), 2);
  EXPECT_NE(m.StorageKey(), other.StorageKey());
  const std::vector<size_t> rows = {0, 2};
  const DistMatrix sample = m.SampleRows(rows, 1);
  const DistMatrix both = DistMatrix::ConcatRows(std::vector{m, other}, 2);
  EXPECT_NE(sample.StorageKey(), m.StorageKey());
  EXPECT_NE(both.StorageKey(), m.StorageKey());
  EXPECT_NE(both.StorageKey(), other.StorageKey());
  EXPECT_NE(both.StorageKey(), sample.StorageKey());
}

// ---- Engine accounting -----------------------------------------------------

ClusterSpec SimpleSpec() {
  ClusterSpec spec;
  spec.num_nodes = 2;
  spec.cores_per_node = 2;
  spec.flops_per_sec_per_core = 1e9;
  spec.disk_bandwidth_per_node = 1e8;
  spec.network_bandwidth_per_node = 1e8;
  spec.mapreduce_job_launch_sec = 5.0;
  spec.spark_stage_launch_sec = 0.5;
  return spec;
}

TEST(EngineTest, RunMapReturnsPartitionOrderedResults) {
  const DistMatrix m = DistMatrix::FromDense(RandomDense(20, 2, 9), 5);
  Engine engine(SimpleSpec(), EngineMode::kSpark);
  auto results = engine.RunMap<size_t>(
      JobDesc{"test"}, m,
      [](const RowRange& range, TaskContext*) { return range.begin; });
  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results[0], 0u);
  for (size_t p = 1; p < 5; ++p) EXPECT_GT(results[p], results[p - 1]);
}

TEST(EngineTest, JobLaunchOverheadDiffersByMode) {
  const DistMatrix m = DistMatrix::FromDense(RandomDense(4, 2, 10), 2);
  Engine mr(SimpleSpec(), EngineMode::kMapReduce);
  Engine spark(SimpleSpec(), EngineMode::kSpark);
  mr.RunMap<int>(
      JobDesc{"noop"}, m, [](const RowRange&, TaskContext*) { return 0; });
  spark.RunMap<int>(JobDesc{"noop"}, m,
                    [](const RowRange&, TaskContext*) { return 0; });
  EXPECT_GT(mr.SimulatedSeconds(), 5.0);
  EXPECT_LT(spark.SimulatedSeconds(), 5.0);
  EXPECT_EQ(mr.StatsSnapshot().jobs_launched, 1u);
}

TEST(EngineTest, ComputeTimeUsesAllCores) {
  // 4 equal tasks on 4 cores: compute time == one task's time.
  const DistMatrix m = DistMatrix::FromDense(RandomDense(4, 2, 11), 4);
  Engine engine(SimpleSpec(), EngineMode::kSpark);
  engine.RunMap<int>(
      JobDesc{"flops"}, m, [](const RowRange&, TaskContext* ctx) {
        ctx->CountFlops(1000000000ull);  // 1s at 1 GFLOP/s
        return 0;
      });
  const auto& trace = engine.traces().back();
  EXPECT_NEAR(trace.compute_sec, 1.0, 1e-9);

  // The same total flops in 1 task: 4x the compute time.
  const DistMatrix single = DistMatrix::FromDense(RandomDense(4, 2, 11), 1);
  Engine engine2(SimpleSpec(), EngineMode::kSpark);
  engine2.RunMap<int>(
      JobDesc{"flops"}, single, [](const RowRange&, TaskContext* ctx) {
        ctx->CountFlops(4000000000ull);
        return 0;
      });
  EXPECT_NEAR(engine2.traces().back().compute_sec, 4.0, 1e-9);
}

TEST(EngineTest, IntermediateDataCostsMoreOnMapReduce) {
  const DistMatrix m = DistMatrix::FromDense(RandomDense(4, 2, 12), 2);
  auto run = [&](EngineMode mode) {
    Engine engine(SimpleSpec(), mode);
    engine.RunMap<int>(
        JobDesc{"emit"}, m, [](const RowRange&, TaskContext* ctx) {
          ctx->EmitIntermediate(100000000ull);  // 100 MB per task
          return 0;
        });
    return engine.traces().back().data_sec;
  };
  const double mr_sec = run(EngineMode::kMapReduce);
  const double spark_sec = run(EngineMode::kSpark);
  EXPECT_GT(mr_sec, spark_sec);
}

TEST(EngineTest, SparkCachesInputMapReduceRereads) {
  const DistMatrix m = DistMatrix::FromDense(RandomDense(1000, 100, 13), 2);
  auto data_secs = [&](EngineMode mode) {
    Engine engine(SimpleSpec(), mode);
    auto noop = [](const RowRange&, TaskContext*) { return 0; };
    engine.RunMap<int>(JobDesc{"first"}, m, noop);
    const double first = engine.traces()[0].data_sec;
    engine.RunMap<int>(JobDesc{"second"}, m, noop);
    const double second = engine.traces()[1].data_sec;
    return std::make_pair(first, second);
  };
  const auto [spark_first, spark_second] = data_secs(EngineMode::kSpark);
  EXPECT_GT(spark_first, 0.0);
  EXPECT_EQ(spark_second, 0.0);  // cached RDD
  const auto [mr_first, mr_second] = data_secs(EngineMode::kMapReduce);
  EXPECT_GT(mr_second, 0.0);  // re-read from DFS
  EXPECT_NEAR(mr_first, mr_second, 1e-12);
}

TEST(EngineTest, EveryNewMatrixIsChargedItsFirstRead) {
  // A stream of mini-batches, each built, read by two jobs and freed: a
  // new batch usually lands where the freed one lived, and must still be
  // a new Spark input whose first job reads it from the DFS.
  Engine engine(SimpleSpec(), EngineMode::kSpark);
  auto noop = [](const RowRange&, TaskContext*) { return 0; };
  for (uint64_t batch = 0; batch < 8; ++batch) {
    const DistMatrix y =
        DistMatrix::FromSparse(SparseMatrix::FromDense(RandomDense(
                                   16, 6, 20 + batch, /*density=*/0.5)),
                               2);
    engine.RunMap<int>(JobDesc{"first"}, y, noop);
    EXPECT_EQ(engine.traces().back().charged_input_bytes,
              static_cast<double>(y.ByteSize()))
        << "batch " << batch;
    engine.RunMap<int>(JobDesc{"second"}, y, noop);
    EXPECT_EQ(engine.traces().back().charged_input_bytes, 0.0)
        << "batch " << batch;
  }
}

TEST(EngineTest, BroadcastAccounting) {
  Engine engine(SimpleSpec(), EngineMode::kSpark);
  engine.Broadcast(100000000ull);  // 100 MB to each of 2 nodes at 100 MB/s
  EXPECT_NEAR(engine.SimulatedSeconds(), 2.0, 1e-9);
  EXPECT_EQ(engine.StatsSnapshot().broadcast_bytes, 100000000ull);
}

TEST(EngineTest, DriverMemoryBudget) {
  ClusterSpec spec = SimpleSpec();
  spec.driver_memory_bytes = 1000.0;
  Engine engine(spec, EngineMode::kSpark);
  {
    const auto a = engine.ReserveDriverMemory("a", 600);
    EXPECT_TRUE(a.ok());
    const auto status = engine.ReserveDriverMemory("b", 600);
    EXPECT_FALSE(status.ok());
    EXPECT_EQ(status.status().code(), StatusCode::kOutOfMemory);
  }  // "a" is released when its reservation goes out of scope
  {
    const auto b = engine.ReserveDriverMemory("b", 600);
    EXPECT_TRUE(b.ok());
    EXPECT_EQ(engine.peak_driver_memory(), 600u);
    EXPECT_EQ(engine.current_driver_memory(), 600u);
  }
  EXPECT_EQ(engine.current_driver_memory(), 0u);
}

TEST(EngineTest, ResetStatsClearsEverything) {
  const DistMatrix m = DistMatrix::FromDense(RandomDense(4, 2, 14), 2);
  Engine engine(SimpleSpec(), EngineMode::kSpark);
  engine.RunMap<int>(JobDesc{"job"}, m, [](const RowRange&, TaskContext* ctx) {
    ctx->CountFlops(100);
    return 0;
  });
  EXPECT_GT(engine.SimulatedSeconds(), 0.0);
  engine.ResetStats();
  EXPECT_EQ(engine.SimulatedSeconds(), 0.0);
  EXPECT_TRUE(engine.traces().empty());
  EXPECT_EQ(engine.StatsSnapshot().jobs_launched, 0u);
}

TEST(EngineTest, StatsDiffFieldwise) {
  CommStats a;
  a.task_flops = 100;
  a.jobs_launched = 3;
  a.simulated_seconds = 7.5;
  CommStats b;
  b.task_flops = 40;
  b.jobs_launched = 1;
  b.simulated_seconds = 2.5;
  const CommStats diff = StatsDiff(a, b);
  EXPECT_EQ(diff.task_flops, 60u);
  EXPECT_EQ(diff.jobs_launched, 2u);
  EXPECT_NEAR(diff.simulated_seconds, 5.0, 1e-12);
}

TEST(EngineTest, FailureInjectionChargesRetries) {
  const DistMatrix m = DistMatrix::FromDense(RandomDense(32, 2, 16), 16);
  auto run = [&](double failure_probability) {
    FaultSpec fault_spec;
    fault_spec.task_failure_probability = failure_probability;
    Engine engine(SimpleSpec(), EngineMode::kSpark);
    engine.SetFaultPlan(FaultPlan(fault_spec));
    auto results = engine.RunMap<double>(
        JobDesc{"flaky"}, m, [](const RowRange& range, TaskContext* ctx) {
          ctx->CountFlops(100000000ull);
          return static_cast<double>(range.begin);
        });
    return std::make_tuple(engine.traces().back().compute_sec,
                           engine.traces().back().task_retries, results);
  };
  const auto [healthy_sec, healthy_retries, healthy_results] = run(0.0);
  const auto [flaky_sec, flaky_retries, flaky_results] = run(0.6);
  EXPECT_EQ(healthy_retries, 0u);
  EXPECT_GT(flaky_retries, 0u);
  EXPECT_GT(flaky_sec, healthy_sec);
  // Failures are transparent: the computed results are identical.
  EXPECT_EQ(healthy_results, flaky_results);
  // And deterministic across runs.
  const auto [again_sec, again_retries, again_results] = run(0.6);
  EXPECT_EQ(flaky_sec, again_sec);
  EXPECT_EQ(flaky_retries, again_retries);
}

TEST(EngineTest, FailureAttemptsRespectCap) {
  const DistMatrix m = DistMatrix::FromDense(RandomDense(8, 2, 17), 8);
  FaultSpec fault_spec;
  fault_spec.task_failure_probability = 1.0;  // every attempt "fails"
  fault_spec.max_task_attempts = 3;
  Engine engine(SimpleSpec(), EngineMode::kSpark);
  engine.SetFaultPlan(FaultPlan(fault_spec));
  engine.RunMap<int>(
      JobDesc{"doomed"}, m, [](const RowRange&, TaskContext* ctx) {
        ctx->CountFlops(1000);
        return 0;
      });
  // Each task charged exactly max_task_attempts executions.
  EXPECT_EQ(engine.traces().back().task_retries, 8u * 2u);
  EXPECT_EQ(engine.StatsSnapshot().task_flops, 8u * 3u * 1000u);
}

TEST(EngineTest, ReplayAtUnitScaleMatchesOriginal) {
  // Replaying a recorded job with all scales = 1 under the same spec must
  // reproduce the originally charged simulated seconds exactly.
  const DistMatrix m = DistMatrix::FromDense(RandomDense(64, 8, 18), 8);
  Engine engine(SimpleSpec(), EngineMode::kMapReduce);
  engine.RunMap<int>(
      JobDesc{"job"}, m, [](const RowRange& range, TaskContext* ctx) {
        ctx->CountFlops(12345678ull * (range.partition_index + 1));
        ctx->EmitIntermediate(1000000);
        ctx->EmitResult(5000);
        return 0;
      });
  const auto& trace = engine.traces().back();
  const double replayed =
      ReplayJobCost(trace, SimpleSpec(), EngineMode::kMapReduce, {}).Total();
  EXPECT_NEAR(replayed, trace.stats.simulated_seconds, 1e-12);
}

TEST(EngineTest, ReplayScalesBehaveLinearly) {
  const DistMatrix m = DistMatrix::FromDense(RandomDense(64, 8, 19), 8);
  Engine engine(SimpleSpec(), EngineMode::kSpark);
  engine.RunMap<int>(JobDesc{"job"}, m, [](const RowRange&, TaskContext* ctx) {
    ctx->CountFlops(50000000ull);
    ctx->EmitIntermediate(2000000);
    return 0;
  });
  const auto& trace = engine.traces().back();
  ReplayScales unit;
  ReplayScales scaled;
  scaled.flops = 10.0;
  scaled.intermediate_bytes = 10.0;
  scaled.input_bytes = 10.0;
  const double base =
      ReplayJobCost(trace, SimpleSpec(), EngineMode::kSpark, unit).Total();
  const double big =
      ReplayJobCost(trace, SimpleSpec(), EngineMode::kSpark, scaled).Total();
  const double launch = SimpleSpec().spark_stage_launch_sec;
  // Everything except the launch overhead scales by 10.
  EXPECT_NEAR(big - launch, 10.0 * (base - launch), 1e-9);
}

TEST(EngineTest, MoreCoresReduceSimulatedComputeTime) {
  const DistMatrix m = DistMatrix::FromDense(RandomDense(64, 2, 15), 64);
  auto sim_for_cores = [&](int nodes) {
    ClusterSpec spec = SimpleSpec();
    spec.num_nodes = nodes;
    Engine engine(spec, EngineMode::kSpark);
    engine.RunMap<int>(
        JobDesc{"flops"}, m, [](const RowRange&, TaskContext* ctx) {
          ctx->CountFlops(500000000ull);
          return 0;
        });
    return engine.traces().back().compute_sec;
  };
  const double two_nodes = sim_for_cores(2);    // 4 cores
  const double eight_nodes = sim_for_cores(8);  // 16 cores
  EXPECT_NEAR(two_nodes / eight_nodes, 4.0, 0.01);
}

// ---- Driver loops (Engine::ForEachDriverBlock) -----------------------------

TEST(DriverLoopTest, EveryBlockRunsExactlyOnce) {
  for (const size_t workers : {size_t{1}, size_t{3}}) {
    Engine engine(SimpleSpec(), EngineMode::kSpark);
    engine.SetLocalWorkers(workers);
    EXPECT_EQ(engine.DriverThreads(), workers == 1 ? 1u : workers + 1);
    for (const size_t blocks : {size_t{0}, size_t{1}, size_t{2}, size_t{7},
                                size_t{100}, size_t{1000}}) {
      std::vector<std::atomic<int>> hits(blocks);
      for (auto& h : hits) h.store(0, std::memory_order_relaxed);
      std::atomic<size_t> calls{0};
      engine.ForEachDriverBlock(blocks, [&](size_t block) {
        hits[block].fetch_add(1, std::memory_order_relaxed);
        calls.fetch_add(1, std::memory_order_relaxed);
      });
      EXPECT_EQ(calls.load(), blocks) << workers << " workers";
      for (size_t block = 0; block < blocks; ++block) {
        ASSERT_EQ(hits[block].load(), 1)
            << workers << " workers, block " << block << " of " << blocks;
      }
    }
    // A loop is not a job: nothing is launched, charged or traced.
    EXPECT_EQ(engine.StatsSnapshot().jobs_launched, 0u);
    EXPECT_EQ(engine.SimulatedSeconds(), 0.0);
    EXPECT_TRUE(engine.traces().empty());
  }
}

TEST(DriverLoopTest, OneLocalWorkerRunsEveryBlockOnTheCallerInOrder) {
  Engine engine(SimpleSpec(), EngineMode::kSpark);
  engine.SetLocalWorkers(1);
  std::vector<size_t> order;
  std::vector<std::thread::id> threads;
  engine.ForEachDriverBlock(50, [&](size_t block) {
    order.push_back(block);
    threads.push_back(std::this_thread::get_id());
  });
  std::vector<size_t> expected(50);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
  for (const std::thread::id id : threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(DriverLoopTest, WritesAreVisibleAcrossTheLoop) {
  // Plain (non-atomic) writes: the caller's before the loop must be seen
  // by every block, and every block's after it returns, on whichever
  // thread ran it.
  Engine engine(SimpleSpec(), EngineMode::kSpark);
  engine.SetLocalWorkers(3);
  constexpr size_t kBlocks = 64;
  constexpr size_t kRows = 16;
  std::vector<uint64_t> input(kBlocks * kRows);
  std::vector<uint64_t> output(kBlocks * kRows);
  for (uint64_t round = 0; round < 200; ++round) {
    for (size_t i = 0; i < input.size(); ++i) input[i] = round * 1000 + i;
    engine.ForEachDriverBlock(kBlocks, [&](size_t block) {
      for (size_t i = block * kRows; i < (block + 1) * kRows; ++i) {
        output[i] = 3 * input[i] + block;
      }
    });
    for (size_t i = 0; i < output.size(); ++i) {
      ASSERT_EQ(output[i], 3 * (round * 1000 + i) + i / kRows)
          << "round " << round << " row " << i;
    }
  }
}

TEST(DriverLoopTest, LoopsShareTheJobsPoolWithoutCountingAsReuse) {
  const DistMatrix m = DistMatrix::FromDense(RandomDense(40, 2, 16), 8);
  Engine engine(SimpleSpec(), EngineMode::kSpark);
  engine.SetLocalWorkers(2);
  engine.ForEachDriverBlock(8, [](size_t) {});  // creates the pool
  const obs::Gauge* threads =
      engine.registry()->FindGauge("engine.pool.threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(threads->value(), 2.0);
  auto noop = [](const RowRange&, TaskContext*) { return 0; };
  engine.RunMap<int>(JobDesc{"first"}, m, noop);
  engine.ForEachDriverBlock(8, [](size_t) {});
  engine.ForEachDriverBlock(8, [](size_t) {});
  engine.RunMap<int>(JobDesc{"second"}, m, noop);
  // engine.pool.spawns_avoided counts the two map jobs that found the
  // pool, never a loop.
  const obs::Gauge* saved =
      engine.registry()->FindGauge("engine.pool.spawns_avoided");
  ASSERT_NE(saved, nullptr);
  EXPECT_EQ(saved->value(), 4.0);
}

TEST(DriverLoopDeathTest, CallFromInsideAMapTaskDies) {
  // A pool thread that waits for its own pool's barrier would deadlock;
  // WorkerPool::Run refuses the call instead.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        const DistMatrix m = DistMatrix::FromDense(RandomDense(40, 2, 17), 4);
        Engine engine(SimpleSpec(), EngineMode::kSpark);
        engine.SetLocalWorkers(2);
        engine.RunMap<int>(JobDesc{"nested"}, m,
                           [&](const RowRange&, TaskContext*) {
                             engine.ForEachDriverBlock(4, [](size_t) {});
                             return 0;
                           });
      },
      "inside one of its own tasks");
}

}  // namespace
}  // namespace spca::dist
