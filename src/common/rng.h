#ifndef SPCA_COMMON_RNG_H_
#define SPCA_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spca {

/// Deterministic pseudo-random number generator (xoshiro256++), seeded
/// explicitly so every experiment in the repository is reproducible.
///
/// The standard-library distributions are implementation-defined; this class
/// provides its own uniform / normal / Zipf samplers so results are bit-stable
/// across compilers.
class Rng {
 public:
  /// Seeds the generator; the same seed always yields the same stream.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform integer in [0, n). Requires n > 0.
  uint64_t NextUint64Below(uint64_t n);

  /// Standard normal sample (Box–Muller with caching).
  double NextGaussian();

  /// Normal sample with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

 private:
  uint64_t state_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

/// Samples from a Zipf(s) distribution over {0, 1, ..., n-1} using the
/// precomputed inverse CDF; rank 0 is the most popular item. Models word
/// popularity in the bag-of-words workloads (Tweets / Bio-Text shapes).
class ZipfSampler {
 public:
  /// `n` is the vocabulary size, `s` the Zipf exponent (s > 0; ~1.0 for text).
  ZipfSampler(size_t n, double s);

  /// Draws one rank in [0, n).
  size_t Sample(Rng* rng) const;

  size_t n() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;  // normalized cumulative probabilities
};

}  // namespace spca

#endif  // SPCA_COMMON_RNG_H_
