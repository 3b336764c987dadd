#include "ml/kmeans.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/rng.h"
#include "common/stopwatch.h"

namespace spca::ml {

using dist::DistMatrix;
using dist::Engine;
using dist::RowRange;
using dist::TaskContext;
using linalg::DenseMatrix;
using linalg::DenseVector;

namespace {

/// Squared distance between row i of `points` and centroid row c, using
/// the sparse expansion ||x - c||^2 = ||x||^2 - 2 x.c + ||c||^2.
double SquaredDistance(const DistMatrix& points, size_t i,
                       const DenseMatrix& centroids, size_t c,
                       double row_norm2, double centroid_norm2) {
  double dot = 0.0;
  points.ForEachEntry(i, [&](size_t j, double v) { dot += v * centroids(c, j); });
  return row_norm2 - 2.0 * dot + centroid_norm2;
}

/// k-means++ seeding over a row sample (sequential on the driver; the
/// sample is small).
DenseMatrix KMeansPlusPlusInit(const DistMatrix& points, size_t k,
                               uint64_t seed) {
  const size_t d = points.cols();
  Rng rng(seed);
  const size_t sample_size = std::min<size_t>(points.rows(), 64 * k);
  std::vector<size_t> sample(sample_size);
  for (auto& index : sample) index = rng.NextUint64Below(points.rows());

  DenseMatrix centroids(k, d);
  auto copy_row = [&](size_t row, size_t centroid) {
    for (size_t j = 0; j < d; ++j) centroids(centroid, j) = 0.0;
    points.ForEachEntry(row,
                        [&](size_t j, double v) { centroids(centroid, j) = v; });
  };
  copy_row(sample[rng.NextUint64Below(sample_size)], 0);

  std::vector<double> min_distance(sample_size,
                                   std::numeric_limits<double>::infinity());
  for (size_t c = 1; c < k; ++c) {
    // Update distances against the last placed centroid.
    double centroid_norm2 = 0.0;
    for (size_t j = 0; j < d; ++j) {
      centroid_norm2 += centroids(c - 1, j) * centroids(c - 1, j);
    }
    double total = 0.0;
    for (size_t s = 0; s < sample_size; ++s) {
      const double distance =
          std::max(0.0, SquaredDistance(points, sample[s], centroids, c - 1,
                                        points.RowSquaredNorm(sample[s]),
                                        centroid_norm2));
      min_distance[s] = std::min(min_distance[s], distance);
      total += min_distance[s];
    }
    // Sample the next seed proportionally to squared distance.
    size_t chosen = 0;
    if (total > 0.0) {
      double u = rng.NextDouble() * total;
      for (size_t s = 0; s < sample_size; ++s) {
        u -= min_distance[s];
        if (u <= 0.0) {
          chosen = s;
          break;
        }
      }
    } else {
      chosen = rng.NextUint64Below(sample_size);
    }
    copy_row(sample[chosen], c);
  }
  return centroids;
}

/// Per-partition accumulator for one Lloyd iteration.
struct LloydPartial {
  DenseMatrix sums;            // k x d
  std::vector<uint64_t> counts;  // k
  double inertia = 0.0;
};

}  // namespace

StatusOr<KMeansResult> KMeansFit(Engine* engine, const DistMatrix& points,
                                 const KMeansOptions& options) {
  const size_t k = options.num_clusters;
  const size_t d = points.cols();
  const size_t n = points.rows();
  if (k == 0) return Status::InvalidArgument("num_clusters must be positive");
  if (n < k) return Status::InvalidArgument("fewer rows than clusters");

  const auto stats_before = engine->stats();
  Stopwatch wall;

  KMeansResult result;
  result.centroids = KMeansPlusPlusInit(points, k, options.seed);
  result.assignments.assign(n, 0);

  double previous_inertia = std::numeric_limits<double>::infinity();
  for (int iteration = 1; iteration <= options.max_iterations; ++iteration) {
    engine->Broadcast(result.centroids.ByteSize());
    DenseVector centroid_norms(k);
    for (size_t c = 0; c < k; ++c) {
      double norm2 = 0.0;
      for (size_t j = 0; j < d; ++j) {
        norm2 += result.centroids(c, j) * result.centroids(c, j);
      }
      centroid_norms[c] = norm2;
    }

    auto partials = engine->RunMap<std::unique_ptr<LloydPartial>>(
        dist::JobDesc{"kmeans.assignJob"}, points,
        [&](const RowRange& range, TaskContext* ctx) {
          auto partial = std::make_unique<LloydPartial>();
          partial->sums = DenseMatrix(k, d);
          partial->counts.assign(k, 0);
          uint64_t flops = 0;
          for (size_t i = range.begin; i < range.end; ++i) {
            const double row_norm2 = points.RowSquaredNorm(i);
            size_t best = 0;
            double best_distance = std::numeric_limits<double>::infinity();
            for (size_t c = 0; c < k; ++c) {
              const double distance = SquaredDistance(
                  points, i, result.centroids, c, row_norm2,
                  centroid_norms[c]);
              if (distance < best_distance) {
                best_distance = distance;
                best = c;
              }
            }
            result.assignments[i] = static_cast<uint32_t>(best);
            partial->inertia += std::max(0.0, best_distance);
            partial->counts[best] += 1;
            points.ForEachEntry(
                i, [&](size_t j, double v) { partial->sums(best, j) += v; });
            flops += (2 * points.RowNnz(i) + 3) * k;
          }
          ctx->CountFlops(flops);
          ctx->EmitResult(k * d * sizeof(double) + k * sizeof(uint64_t));
          return partial;
        });

    DenseMatrix sums(k, d);
    std::vector<uint64_t> counts(k, 0);
    double inertia = 0.0;
    for (const auto& partial : partials) {
      sums.Add(partial->sums);
      for (size_t c = 0; c < k; ++c) counts[c] += partial->counts[c];
      inertia += partial->inertia;
    }
    engine->CountDriverFlops(partials.size() * k * d);

    // Recompute centroids; empty clusters keep their previous position.
    for (size_t c = 0; c < k; ++c) {
      if (counts[c] == 0) continue;
      const double inv = 1.0 / static_cast<double>(counts[c]);
      for (size_t j = 0; j < d; ++j) {
        result.centroids(c, j) = sums(c, j) * inv;
      }
    }
    result.inertia = inertia;
    result.iterations_run = iteration;

    if (iteration > 1 &&
        previous_inertia - inertia <=
            options.tolerance * std::max(1.0, previous_inertia)) {
      break;
    }
    previous_inertia = inertia;
  }

  result.stats = dist::StatsDiff(engine->stats(), stats_before);
  result.stats.wall_seconds = wall.ElapsedSeconds();
  return result;
}

}  // namespace spca::ml
