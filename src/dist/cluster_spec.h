#ifndef SPCA_DIST_CLUSTER_SPEC_H_
#define SPCA_DIST_CLUSTER_SPEC_H_

#include <cstddef>

namespace spca::dist {

/// Execution platform being simulated: disk-based MapReduce (intermediate
/// data goes through the distributed file system between phases) or
/// memory-based Spark (intermediate data moves through memory/network via
/// accumulators).
enum class EngineMode {
  kMapReduce,
  kSpark,
};

/// Returns "MapReduce" or "Spark".
const char* EngineModeToString(EngineMode mode);

/// Hardware/software parameters of the simulated cluster. Defaults mirror
/// the paper's testbed: 8 Amazon EC2 m3.2xlarge nodes, 8 cores and 32 GB
/// each (Section 5, "Cluster Specifications").
struct ClusterSpec {
  int num_nodes = 8;
  int cores_per_node = 8;

  /// Effective per-core throughput on the (memory-bound) sparse linear
  /// algebra kernels these algorithms run.
  double flops_per_sec_per_core = 2e9;

  /// Sequential disk bandwidth per node; MapReduce intermediate data is
  /// written to and read back from the DFS at this rate.
  double disk_bandwidth_per_node = 100e6;  // bytes/sec

  /// Network bandwidth per node (1 Gb/s on the paper's EC2 cluster).
  double network_bandwidth_per_node = 125e6;  // bytes/sec

  /// Fixed cost of launching one distributed job. Hadoop job start-up is
  /// heavyweight (JVM spawn, scheduling); Spark stages are cheap. This is
  /// what makes small inputs overhead-dominated on MapReduce (Section 5.2,
  /// "the overheads of the Hadoop framework ... have a larger relative
  /// impact in the smaller case").
  double mapreduce_job_launch_sec = 8.0;
  double spark_stage_launch_sec = 0.2;

  /// Memory of the single driver machine. MLlib-PCA materializes a D x D
  /// covariance matrix here and fails when it does not fit (Figures 7, 8).
  double driver_memory_bytes = 32.0 * 1024 * 1024 * 1024;

  /// Resident driver memory before any algorithm state: JVM heap baseline,
  /// the Spark/Hadoop driver runtime, and framework buffers. Both sPCA and
  /// MLlib pay this; it is what keeps the sPCA curve in Figure 8 at a few
  /// GB rather than near zero.
  double driver_baseline_bytes = 2.0 * 1024 * 1024 * 1024;

  int total_cores() const { return num_nodes * cores_per_node; }
  double total_disk_bandwidth() const {
    return disk_bandwidth_per_node * num_nodes;
  }
  double total_network_bandwidth() const {
    return network_bandwidth_per_node * num_nodes;
  }
  double job_launch_sec(EngineMode mode) const {
    return mode == EngineMode::kMapReduce ? mapreduce_job_launch_sec
                                          : spark_stage_launch_sec;
  }
};

}  // namespace spca::dist

#endif  // SPCA_DIST_CLUSTER_SPEC_H_
