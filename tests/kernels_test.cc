// Property tests for the linalg/kernels.h micro-kernels and their runtime
// ISA dispatch. Two numerical tiers (see kernels.h):
//
//  - Exact tier: under scalar dispatch every kernel must equal the naive
//    scalar reference bit for bit (EXPECT_EQ on doubles) — the contract
//    the pre-SIMD kernel layer shipped with. AddRow is exact on EVERY
//    ISA (pure adds, no reassociation, no FMA).
//  - Tolerance tier: under AVX2 dispatch, fused multiply-adds and
//    multi-accumulator reductions round differently, so kernels must
//    agree with the scalar twins to 1e-12 relative. The SIMD-vs-scalar
//    suites below pin each compiled SIMD variant against
//    kernels::scalar on ~100 randomized shapes per kernel.
//
// The FitMatchesPreKernelGolden test asserts end-to-end that Spca::Solve
// reproduces the golden captured from the pre-kernel scalar implementation:
// bit-identically under scalar dispatch (the forced-scalar ctest leg
// runs this whole binary with SPCA_KERNEL_ISA=scalar), and within 1e-12
// relative per element under SIMD dispatch. Regenerate (only for an
// intentional numerics change) with:
//   SPCA_REGENERATE_FIT_GOLDEN=1 SPCA_KERNEL_ISA=scalar ./kernels_test

#include "linalg/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/reconstruction_error.h"
#include "core/spca.h"
#include "dist/engine.h"
#include "linalg/dense_matrix.h"
#include "linalg/qr.h"
#include "linalg/solve.h"
#include "linalg/sparse_matrix.h"
#include "workload/synthetic.h"

namespace spca::linalg {
namespace {

using kernels::Isa;

// The dispatched kernels are the exact tier only when they resolved to
// the scalar table (native scalar-only build, or SPCA_KERNEL_ISA=scalar).
bool DispatchIsExact() { return kernels::DispatchedIsa() == Isa::kScalar; }

constexpr double kRelTol = 1e-12;

void ExpectNearTier(double actual, double expected, bool exact,
                    const std::string& context) {
  if (exact) {
    // EXPECT_EQ (not NEAR with 0): also distinguishes +0.0 from -0.0 via
    // the printed failure, and never accepts NaN.
    EXPECT_EQ(actual, expected) << context;
  } else {
    EXPECT_NEAR(actual, expected,
                kRelTol * std::max(1.0, std::fabs(expected)))
        << context;
  }
}

void ExpectRowNear(const std::vector<double>& actual,
                   const std::vector<double>& expected, bool exact,
                   const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    ExpectNearTier(actual[i], expected[i], exact,
                   context + " element " + std::to_string(i));
  }
}

std::vector<double> RandomValues(size_t n, Rng* rng, double zero_fraction) {
  std::vector<double> values(n);
  for (auto& v : values) {
    v = rng->NextDouble() < zero_fraction ? 0.0 : rng->NextGaussian();
  }
  return values;
}

// Matrix operand for RowGemm / SparseRowGemv. Same random fill as
// RandomValues plus four zeroed slack doubles: the kernel layer's
// tail-padding contract (see aligned.h) lets the SIMD tail vector READ
// up to 32 bytes past the last logical element, which AlignedDoubleBuffer
// provides implicitly and a raw test vector must provide explicitly.
std::vector<double> RandomGemmMatrix(size_t n, Rng* rng,
                                     double zero_fraction) {
  auto values = RandomValues(n, rng, zero_fraction);
  values.insert(values.end(), 4, 0.0);
  return values;
}

// Shapes cycle through the edge cases the kernels must handle: d = 1,
// zero-length rows, widths straddling every unroll width in any variant
// (4x scalar, 8/16-wide SIMD stripes), and occasionally all-zero inputs.
size_t ShapeFor(size_t trial, Rng* rng) {
  static constexpr size_t kEdge[] = {0, 1,  2,  3,  4,  5,  7,  8,
                                     9, 15, 16, 17, 23, 24, 31, 33};
  constexpr size_t kEdgeCount = sizeof(kEdge) / sizeof(kEdge[0]);
  if (trial % 3 == 0) return kEdge[trial / 3 % kEdgeCount];
  return 1 + rng->NextUint64() % 96;
}

double ZeroFractionFor(size_t trial) {
  if (trial % 11 == 0) return 1.0;  // all-zero input
  if (trial % 4 == 0) return 0.5;
  return 0.1;
}

// ---- Dispatched kernels vs naive scalar references ---------------------
// Exact under scalar dispatch, 1e-12 relative under SIMD dispatch (AddRow
// always exact).

TEST(KernelsTest, AxpyRowMatchesNaive) {
  Rng rng(101);
  const bool exact = DispatchIsExact();
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t n = ShapeFor(trial, &rng);
    const double v = trial % 7 == 0 ? 0.0 : rng.NextGaussian();
    const auto b = RandomValues(n, &rng, ZeroFractionFor(trial));
    auto out = RandomValues(n, &rng, 0.0);
    auto expected = out;
    for (size_t j = 0; j < n; ++j) expected[j] += v * b[j];
    kernels::AxpyRow(v, b.data(), n, out.data());
    ExpectRowNear(out, expected, exact,
                  "AxpyRow n=" + std::to_string(n) + " trial=" +
                      std::to_string(trial));
  }
}

TEST(KernelsTest, AddRowMatchesNaiveExactlyOnEveryIsa) {
  Rng rng(102);
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t n = ShapeFor(trial, &rng);
    const auto b = RandomValues(n, &rng, ZeroFractionFor(trial));
    auto out = RandomValues(n, &rng, 0.0);
    auto expected = out;
    for (size_t j = 0; j < n; ++j) expected[j] += b[j];
    kernels::AddRow(b.data(), n, out.data());
    ASSERT_EQ(out, expected) << "n=" << n << " trial=" << trial;
  }
}

TEST(KernelsTest, DotRowMatchesNaiveChain) {
  Rng rng(103);
  const bool exact = DispatchIsExact();
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t n = ShapeFor(trial, &rng);
    const auto a = RandomValues(n, &rng, ZeroFractionFor(trial));
    const auto b = RandomValues(n, &rng, 0.1);
    const double init = trial % 2 == 0 ? 0.0 : rng.NextGaussian();
    double expected = init;
    for (size_t j = 0; j < n; ++j) expected += a[j] * b[j];
    ExpectNearTier(kernels::DotRow(a.data(), b.data(), n, init), expected,
                   exact,
                   "DotRow n=" + std::to_string(n) + " trial=" +
                       std::to_string(trial));
  }
}

TEST(KernelsTest, Rank1UpdateMatchesNaive) {
  Rng rng(104);
  const bool exact = DispatchIsExact();
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t rows = ShapeFor(trial, &rng);
    const size_t cols = ShapeFor(trial + 1, &rng);
    const auto a = RandomValues(rows, &rng, ZeroFractionFor(trial));
    const auto b = RandomValues(cols, &rng, 0.1);
    auto out = RandomValues(rows * cols, &rng, 0.0);
    auto expected = out;
    for (size_t i = 0; i < rows; ++i) {
      if (a[i] == 0.0) continue;
      for (size_t j = 0; j < cols; ++j) expected[i * cols + j] += a[i] * b[j];
    }
    kernels::Rank1Update(a.data(), rows, b.data(), cols, out.data(), cols);
    ExpectRowNear(out, expected, exact,
                  "Rank1Update rows=" + std::to_string(rows) + " cols=" +
                      std::to_string(cols));
  }
}

TEST(KernelsTest, SymRank1UpdatePlusMirrorMatchesFullRectangle) {
  Rng rng(105);
  const bool exact = DispatchIsExact();
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t d = ShapeFor(trial, &rng);
    const auto x = RandomValues(d, &rng, ZeroFractionFor(trial));
    // Accumulate several rows before mirroring, like RunYtXPartition does.
    const size_t updates = 1 + trial % 3;
    std::vector<double> out(d * d, 0.0);
    std::vector<double> expected(d * d, 0.0);
    for (size_t u = 0; u < updates; ++u) {
      for (size_t a = 0; a < d; ++a) {
        for (size_t b = 0; b < d; ++b) expected[a * d + b] += x[a] * x[b];
      }
      kernels::SymRank1Update(x.data(), d, out.data(), d);
    }
    kernels::SymMirrorLower(out.data(), d, d);
    ExpectRowNear(out, expected, exact,
                  "SymRank1Update d=" + std::to_string(d) + " updates=" +
                      std::to_string(updates));
  }
}

TEST(KernelsTest, SymRank1UpdateRowsSplitsTheTriangleBitForBit) {
  // Every row range of the triangle reproduces those rows of the whole
  // update bit for bit and writes nothing left of the diagonal, on the
  // dispatched ISA (kernels_test_forced_scalar runs the scalar tier): the
  // driver's C'C splits its rows this way across threads.
  Rng rng(107);
  for (const size_t d : {size_t{1}, size_t{2}, size_t{3}, size_t{5},
                         size_t{13}, size_t{50}}) {
    const auto x = RandomValues(d, &rng, 0.2);
    std::vector<double> whole(d * d, 0.0);
    kernels::SymRank1Update(x.data(), d, whole.data(), d);
    for (size_t begin = 0; begin < d; ++begin) {
      for (size_t end = begin + 1; end <= d; ++end) {
        std::vector<double> range((end - begin) * d, 0.0);
        kernels::SymRank1UpdateRows(x.data(), d, begin, end, range.data(), d);
        for (size_t a = begin; a < end; ++a) {
          const double* got = range.data() + (a - begin) * d;
          for (size_t b = 0; b < a; ++b) ASSERT_EQ(got[b], 0.0);
          ASSERT_EQ(std::memcmp(got + a, whole.data() + a * d + a,
                                (d - a) * sizeof(double)),
                    0)
              << "d=" << d << " rows [" << begin << ", " << end << ") row "
              << a;
        }
      }
    }
  }
}

TEST(KernelsTest, SparseRowGemvMatchesNaive) {
  Rng rng(106);
  const bool exact = DispatchIsExact();
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t dim = 1 + ShapeFor(trial, &rng);
    const size_t d = ShapeFor(trial + 2, &rng);
    // nnz of 0 (empty row) through dense-ish; duplicate-free sorted indices.
    const size_t nnz = trial % 9 == 0 ? 0 : 1 + rng.NextUint64() % dim;
    std::vector<SparseEntry> entries;
    for (size_t k = 0; k < dim && entries.size() < nnz; ++k) {
      if (rng.NextDouble() < static_cast<double>(nnz) / dim) {
        entries.push_back({static_cast<uint32_t>(k),
                           trial % 13 == 0 ? 0.0 : rng.NextGaussian()});
      }
    }
    const auto b = RandomGemmMatrix(dim * d, &rng, 0.1);
    auto out = RandomValues(d, &rng, 0.0);
    auto expected = out;
    for (const auto& e : entries) {
      for (size_t j = 0; j < d; ++j) {
        expected[j] += e.value * b[e.index * d + j];
      }
    }
    kernels::SparseRowGemv(entries.data(), entries.size(), b.data(), d, d,
                           out.data());
    ExpectRowNear(out, expected, exact,
                  "SparseRowGemv dim=" + std::to_string(dim) + " d=" +
                      std::to_string(d) + " nnz=" +
                      std::to_string(entries.size()));
  }
}

TEST(KernelsTest, RowGemmMatchesNaive) {
  Rng rng(107);
  const bool exact = DispatchIsExact();
  for (size_t trial = 0; trial < 100; ++trial) {
    const size_t k = ShapeFor(trial, &rng);
    const size_t n = ShapeFor(trial + 3, &rng);
    const auto a_row = RandomValues(k, &rng, ZeroFractionFor(trial));
    const auto b = RandomGemmMatrix(k * n, &rng, 0.1);
    auto out = RandomValues(n, &rng, 0.0);
    auto expected = out;
    for (size_t kk = 0; kk < k; ++kk) {
      if (a_row[kk] == 0.0) continue;
      for (size_t j = 0; j < n; ++j) expected[j] += a_row[kk] * b[kk * n + j];
    }
    kernels::RowGemm(a_row.data(), k, b.data(), n, n, out.data());
    ExpectRowNear(out, expected, exact,
                  "RowGemm k=" + std::to_string(k) + " n=" +
                      std::to_string(n));
  }
}

// RowGemm's SIMD variants keep column stripes of c register-resident
// across the whole k sweep; long-k shapes (and k around the old 64-wide
// block boundary) must agree with the naive reference too.
TEST(KernelsTest, RowGemmBlockedLongKMatchesNaive) {
  Rng rng(117);
  const bool exact = DispatchIsExact();
  for (const size_t k : {63u, 64u, 65u, 128u, 200u, 1000u}) {
    for (const size_t n : {1u, 7u, 16u, 50u}) {
      const auto a_row = RandomValues(k, &rng, 0.2);
      const auto b = RandomGemmMatrix(k * n, &rng, 0.1);
      auto out = RandomValues(n, &rng, 0.0);
      auto expected = out;
      for (size_t kk = 0; kk < k; ++kk) {
        if (a_row[kk] == 0.0) continue;
        for (size_t j = 0; j < n; ++j) {
          expected[j] += a_row[kk] * b[kk * n + j];
        }
      }
      kernels::RowGemm(a_row.data(), k, b.data(), n, n, out.data());
      ExpectRowNear(out, expected, exact,
                    "RowGemm long k=" + std::to_string(k) + " n=" +
                        std::to_string(n));
    }
  }
}

// ---- SIMD variants vs their scalar twins -------------------------------
// Each compiled-and-runnable SIMD ISA is compared directly against
// kernels::scalar (no dispatch involved): exact for AddRow, 1e-12
// relative for everything touched by FMA / reassociated reductions.

struct IsaKernels {
  Isa isa;
  void (*axpy_row)(double, const double*, size_t, double*);
  void (*add_row)(const double*, size_t, double*);
  double (*dot_row)(const double*, const double*, size_t, double);
  void (*rank1_update)(const double*, size_t, const double*, size_t, double*,
                       size_t);
  void (*sym_rank1_update)(const double*, size_t, double*, size_t);
  void (*sparse_row_gemv)(const SparseEntry*, size_t, const double*, size_t,
                          size_t, double*);
  void (*row_gemm)(const double*, size_t, const double*, size_t, size_t,
                   double*);
  void (*sparse_rows_project_scatter)(const uint64_t*, size_t,
                                      const SparseEntry*, const double*,
                                      size_t, const double*, size_t, double*,
                                      size_t, double*, double*, size_t,
                                      uint8_t*);
};

std::vector<IsaKernels> RunnableSimdVariants() {
  std::vector<IsaKernels> variants;
#if defined(SPCA_KERNELS_HAVE_AVX2)
  if (kernels::IsaAvailable(Isa::kAvx2)) {
    variants.push_back({Isa::kAvx2, kernels::avx2::AxpyRow,
                        kernels::avx2::AddRow, kernels::avx2::DotRow,
                        kernels::avx2::Rank1Update,
                        kernels::avx2::SymRank1Update,
                        kernels::avx2::SparseRowGemv, kernels::avx2::RowGemm,
                        kernels::avx2::SparseRowsProjectScatter});
  }
#endif
  return variants;
}

#define SPCA_SKIP_WITHOUT_SIMD(variants)                                 \
  if ((variants).empty()) {                                              \
    GTEST_SKIP() << "no SIMD kernel variant compiled in / runnable on "  \
                    "this host";                                         \
  }

TEST(SimdVsScalarTest, AxpyRow) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(201);
    for (size_t trial = 0; trial < 100; ++trial) {
      const size_t n = ShapeFor(trial, &rng);
      const double a = trial % 7 == 0 ? 0.0 : rng.NextGaussian();
      const auto b = RandomValues(n, &rng, ZeroFractionFor(trial));
      auto simd = RandomValues(n, &rng, 0.0);
      auto ref = simd;
      kernels::scalar::AxpyRow(a, b.data(), n, ref.data());
      v.axpy_row(a, b.data(), n, simd.data());
      ExpectRowNear(simd, ref, /*exact=*/false,
                    std::string(kernels::IsaName(v.isa)) + " AxpyRow n=" +
                        std::to_string(n));
    }
  }
}

TEST(SimdVsScalarTest, AddRowExact) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(202);
    for (size_t trial = 0; trial < 100; ++trial) {
      const size_t n = ShapeFor(trial, &rng);
      const auto b = RandomValues(n, &rng, ZeroFractionFor(trial));
      auto simd = RandomValues(n, &rng, 0.0);
      auto ref = simd;
      kernels::scalar::AddRow(b.data(), n, ref.data());
      v.add_row(b.data(), n, simd.data());
      ASSERT_EQ(simd, ref) << kernels::IsaName(v.isa) << " AddRow n=" << n;
    }
  }
}

TEST(SimdVsScalarTest, DotRow) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(203);
    for (size_t trial = 0; trial < 100; ++trial) {
      const size_t n = ShapeFor(trial, &rng);
      const auto a = RandomValues(n, &rng, ZeroFractionFor(trial));
      const auto b = RandomValues(n, &rng, 0.1);
      const double init = trial % 2 == 0 ? 0.0 : rng.NextGaussian();
      const double ref = kernels::scalar::DotRow(a.data(), b.data(), n, init);
      ExpectNearTier(v.dot_row(a.data(), b.data(), n, init), ref,
                     /*exact=*/false,
                     std::string(kernels::IsaName(v.isa)) + " DotRow n=" +
                         std::to_string(n));
    }
  }
}

TEST(SimdVsScalarTest, Rank1Update) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(204);
    for (size_t trial = 0; trial < 100; ++trial) {
      const size_t rows = ShapeFor(trial, &rng);
      const size_t cols = ShapeFor(trial + 1, &rng);
      const auto a = RandomValues(rows, &rng, ZeroFractionFor(trial));
      const auto b = RandomValues(cols, &rng, 0.1);
      auto simd = RandomValues(rows * cols, &rng, 0.0);
      auto ref = simd;
      kernels::scalar::Rank1Update(a.data(), rows, b.data(), cols, ref.data(),
                                   cols);
      v.rank1_update(a.data(), rows, b.data(), cols, simd.data(), cols);
      ExpectRowNear(simd, ref, /*exact=*/false,
                    std::string(kernels::IsaName(v.isa)) + " Rank1Update " +
                        std::to_string(rows) + "x" + std::to_string(cols));
    }
  }
}

TEST(SimdVsScalarTest, SymRank1Update) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(205);
    for (size_t trial = 0; trial < 100; ++trial) {
      const size_t d = ShapeFor(trial, &rng);
      const auto x = RandomValues(d, &rng, ZeroFractionFor(trial));
      std::vector<double> simd(d * d, 0.0);
      std::vector<double> ref(d * d, 0.0);
      const size_t updates = 1 + trial % 3;
      for (size_t u = 0; u < updates; ++u) {
        kernels::scalar::SymRank1Update(x.data(), d, ref.data(), d);
        v.sym_rank1_update(x.data(), d, simd.data(), d);
      }
      kernels::SymMirrorLower(ref.data(), d, d);
      kernels::SymMirrorLower(simd.data(), d, d);
      ExpectRowNear(simd, ref, /*exact=*/false,
                    std::string(kernels::IsaName(v.isa)) +
                        " SymRank1Update d=" + std::to_string(d));
    }
  }
}

TEST(SimdVsScalarTest, SparseRowGemv) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(206);
    for (size_t trial = 0; trial < 100; ++trial) {
      const size_t dim = 1 + ShapeFor(trial, &rng);
      const size_t d = ShapeFor(trial + 2, &rng);
      const size_t nnz = trial % 9 == 0 ? 0 : 1 + rng.NextUint64() % dim;
      std::vector<SparseEntry> entries;
      for (size_t k = 0; k < dim && entries.size() < nnz; ++k) {
        if (rng.NextDouble() < static_cast<double>(nnz) / dim) {
          entries.push_back({static_cast<uint32_t>(k),
                             trial % 13 == 0 ? 0.0 : rng.NextGaussian()});
        }
      }
      const auto b = RandomGemmMatrix(dim * d, &rng, 0.1);
      auto simd = RandomValues(d, &rng, 0.0);
      auto ref = simd;
      kernels::scalar::SparseRowGemv(entries.data(), entries.size(), b.data(),
                                     d, d, ref.data());
      v.sparse_row_gemv(entries.data(), entries.size(), b.data(), d, d,
                        simd.data());
      ExpectRowNear(simd, ref, /*exact=*/false,
                    std::string(kernels::IsaName(v.isa)) +
                        " SparseRowGemv d=" + std::to_string(d) + " nnz=" +
                        std::to_string(entries.size()));
    }
  }
}

TEST(SimdVsScalarTest, RowGemm) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(207);
    for (size_t trial = 0; trial < 100; ++trial) {
      // Cover long-k shapes: the register stripes sweep all of k at once.
      const size_t k =
          trial % 5 == 0 ? 60 + rng.NextUint64() % 140 : ShapeFor(trial, &rng);
      const size_t n = ShapeFor(trial + 3, &rng);
      const auto a_row = RandomValues(k, &rng, ZeroFractionFor(trial));
      const auto b = RandomGemmMatrix(k * n, &rng, 0.1);
      auto simd = RandomValues(n, &rng, 0.0);
      auto ref = simd;
      kernels::scalar::RowGemm(a_row.data(), k, b.data(), n, n, ref.data());
      v.row_gemm(a_row.data(), k, b.data(), n, n, simd.data());
      ExpectRowNear(simd, ref, /*exact=*/false,
                    std::string(kernels::IsaName(v.isa)) + " RowGemm k=" +
                        std::to_string(k) + " n=" + std::to_string(n));
    }
  }
}

// One stripe engine serves both row products: for d >= 4 a dense row is
// the CSR row that lists all of its entries, zeros included, so the SIMD
// RowGemm and SparseRowGemv agree bit for bit on every stripe plan (their
// d < 4 column loops differ by design: four chains against two).
TEST(SimdVsScalarTest, RowGemmIsSparseRowGemvOverTheWholeRow) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(208);
    for (size_t d = 4; d <= 111; ++d) {
      for (size_t trial = 0; trial < 2; ++trial) {
        const size_t k = trial == 0 ? ShapeFor(d, &rng)
                                    : 60 + rng.NextUint64() % 140;
        const size_t stride = d + rng.NextUint64() % 5;
        const auto a_row = RandomValues(k, &rng, ZeroFractionFor(d + trial));
        std::vector<SparseEntry> entries(k);
        for (size_t i = 0; i < k; ++i) {
          entries[i] = {static_cast<uint32_t>(i), a_row[i]};
        }
        const auto b = RandomGemmMatrix(k * stride, &rng, 0.1);
        auto dense = RandomValues(d, &rng, 0.0);
        auto sparse = dense;
        v.row_gemm(a_row.data(), k, b.data(), stride, d, dense.data());
        v.sparse_row_gemv(entries.data(), k, b.data(), stride, d,
                          sparse.data());
        ASSERT_EQ(std::memcmp(dense.data(), sparse.data(), d * sizeof(double)),
                  0)
            << kernels::IsaName(v.isa) << " d=" << d << " k=" << k
            << " stride=" << stride;
      }
    }
  }
}

// ---- SparseRowsProjectScatter -------------------------------------------
// The fused YtX pass over a run of CSR rows against a per-row loop of the
// composite it replaced, on ~140 cases: widths that reach every stripe
// plan (whole 48/16/4-column stripes, final stripes of 12, 4 and 1 vectors
// with 1-3 tail columns, d < 4), ranges that start mid-matrix (some
// empty), empty rows, a row naming CM's last row (the over-read contract:
// CM carries only the 32 readable bytes of slack), and row strides wider
// than d whose slack columns, like xsum past d, hold sentinels that must
// survive bit for bit. X is read back both in blocks and not at all.

using RangeKernel = void (*)(const uint64_t*, size_t, const SparseEntry*,
                             const double*, size_t, const double*, size_t,
                             double*, size_t, double*, double*, size_t,
                             uint8_t*);

struct ProjectScatterCase {
  size_t dim = 0;
  size_t d = 0;
  size_t cm_stride = 0;
  size_t out_stride = 0;
  size_t x_stride = 0;
  SparseMatrix y;
  size_t begin = 0;  // the range [begin, end) of y's rows
  size_t end = 0;
  std::vector<double> cm, xm;
  std::vector<double> xsum, out;  // initial contents, sentinels included
  std::vector<uint8_t> touched;   // initial marks

  size_t rows() const { return end - begin; }
  std::string Name() const {
    return "d=" + std::to_string(d) + " rows=[" + std::to_string(begin) +
           ", " + std::to_string(end) + ") of " + std::to_string(y.rows()) +
           " nnz=" +
           std::to_string(y.row_ptr()[end] - y.row_ptr()[begin]) +
           " cm_stride=" + std::to_string(cm_stride) +
           " out_stride=" + std::to_string(out_stride) +
           " x_stride=" + std::to_string(x_stride);
  }
};

ProjectScatterCase MakeProjectScatterCase(size_t trial, Rng* rng) {
  static constexpr size_t kWidths[] = {1,  2,  3,  4,  5,  6,  7,
                                       16, 17, 18, 19, 47, 48, 49,
                                       50, 51, 52, 70, 99, 100};
  constexpr size_t kWidthCount = sizeof(kWidths) / sizeof(kWidths[0]);
  ProjectScatterCase c;
  c.d = kWidths[trial % kWidthCount];
  c.dim = 41 + rng->NextUint64() % 80;
  c.cm_stride = c.d + (trial % 3 == 0 ? 0 : 1 + rng->NextUint64() % 6);
  c.out_stride = c.d + (trial % 4 == 0 ? 0 : 1 + rng->NextUint64() % 6);
  c.x_stride = c.d + (trial % 5 == 0 ? 0 : 1 + rng->NextUint64() % 4);
  // Every seventeenth case underflows its products to signed zeros (values
  // 1e-200 times CM entries 1e-200 against a zero xm), so x relies on the
  // composite's "+0.0 + sum" to come out +0.0.
  const bool underflow = trial % 17 == 5;
  const double scale = underflow ? 1e-200 : 1.0;

  const size_t total_rows = 4 + rng->NextUint64() % 24;
  c.begin = rng->NextUint64() % (total_rows / 2 + 1);
  c.end = trial % 7 == 3
              ? c.begin
              : c.begin + 1 + rng->NextUint64() % (total_rows - c.begin);
  // One row of the range names CM's last row.
  const size_t last_row_named =
      c.rows() == 0 ? total_rows : c.begin + rng->NextUint64() % c.rows();
  c.y = SparseMatrix(total_rows, c.dim);
  for (size_t i = 0; i < total_rows; ++i) {
    std::vector<SparseEntry> entries;
    const size_t nnz = i % 5 == 2 ? 0 : 1 + rng->NextUint64() % 40;
    for (size_t k = 0; k < c.dim && entries.size() < nnz; ++k) {
      const bool last = k + 1 == c.dim && i == last_row_named;
      if (last || rng->NextDouble() < static_cast<double>(nnz) / c.dim) {
        entries.push_back(
            {static_cast<uint32_t>(k),
             trial % 13 == 0 ? 0.0 : scale * rng->NextGaussian()});
      }
    }
    if (i == last_row_named && (entries.empty() ||
                                entries.back().index + 1 != c.dim)) {
      entries.push_back({static_cast<uint32_t>(c.dim - 1),
                         scale * rng->NextGaussian()});
    }
    c.y.AppendRow(i, entries);
  }
  c.cm = RandomGemmMatrix(c.dim * c.cm_stride, rng, 0.1);
  for (double& v : c.cm) v *= scale;
  c.xm = underflow ? std::vector<double>(c.d, 0.0)
                   : RandomValues(c.d, rng, ZeroFractionFor(trial));
  c.xsum = RandomValues(c.d + 4, rng, 0.0);
  c.out = RandomValues(c.dim * c.out_stride, rng, 0.0);
  c.touched.resize(c.dim);
  for (auto& t : c.touched) t = rng->NextDouble() < 0.2 ? 1 : 0;
  return c;
}

struct ProjectScatterResult {
  std::vector<double> x;  // rows() x x_stride; sentinels where unwritten
  std::vector<double> xsum, out;
  std::vector<uint8_t> touched;
};

// Sentinel contents of the X block buffer: nothing past column d - 1, and
// nothing at all when X is not read, may change them.
std::vector<double> XSentinels(const ProjectScatterCase& c) {
  std::vector<double> x(c.rows() * c.x_stride);
  for (size_t i = 0; i < x.size(); ++i) x[i] = -1000.0 - static_cast<double>(i);
  return x;
}

// The range kernel `fn` over c's range: one call with x = null when
// `block_rows` is 0, else one call per block of `block_rows` rows, each
// writing its block of X.
ProjectScatterResult RunRange(const ProjectScatterCase& c, RangeKernel fn,
                              size_t block_rows) {
  ProjectScatterResult r{XSentinels(c), c.xsum, c.out, c.touched};
  const uint64_t* row_ptr = c.y.row_ptr();
  if (block_rows == 0) {
    fn(row_ptr + c.begin, c.rows(), c.y.entries(), c.cm.data(), c.cm_stride,
       c.xm.data(), c.d, nullptr, 0, r.xsum.data(), r.out.data(), c.out_stride,
       r.touched.data());
    return r;
  }
  for (size_t b = c.begin; b < c.end; b += block_rows) {
    const size_t n = std::min(block_rows, c.end - b);
    fn(row_ptr + b, n, c.y.entries(), c.cm.data(), c.cm_stride, c.xm.data(),
       c.d, r.x.data() + (b - c.begin) * c.x_stride, c.x_stride,
       r.xsum.data(), r.out.data(), c.out_stride, r.touched.data());
  }
  return r;
}

// The per-row steps the YtX pass ran before the fused kernels, built from
// one ISA's kernels: the sparse row product into a zeroed x, x -= xm,
// xsum += x, one AxpyRow per stored entry (marking its row touched).
ProjectScatterResult RunComposite(const ProjectScatterCase& c,
                                  const IsaKernels& k) {
  ProjectScatterResult r{XSentinels(c), c.xsum, c.out, c.touched};
  std::vector<double> x(c.d);
  for (size_t i = c.begin; i < c.end; ++i) {
    const SparseRowView row = c.y.Row(i);
    for (size_t j = 0; j < c.d; ++j) x[j] = 0.0;
    k.sparse_row_gemv(row.begin(), row.nnz(), c.cm.data(), c.cm_stride, c.d,
                      x.data());
    for (size_t j = 0; j < c.d; ++j) x[j] -= c.xm[j];
    for (size_t j = 0; j < c.d; ++j) r.xsum[j] += x[j];
    for (const auto& e : row) {
      r.touched[e.index] = 1;
      k.axpy_row(e.value, x.data(), c.d,
                 r.out.data() + e.index * c.out_stride);
    }
    std::copy(x.begin(), x.end(), r.x.begin() + (i - c.begin) * c.x_stride);
  }
  return r;
}

void ExpectSameBits(const std::vector<double>& actual,
                    const std::vector<double>& expected,
                    const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(std::memcmp(&actual[i], &expected[i], sizeof(double)), 0)
        << context << " element " << i << ": " << actual[i] << " vs "
        << expected[i];
  }
}

// The range call against the composite: x (when read back), xsum, out and
// the touched marks, bit for bit.
void ExpectSameResult(const ProjectScatterResult& actual,
                      const ProjectScatterResult& expected, bool x_read,
                      const std::string& context) {
  if (x_read) ExpectSameBits(actual.x, expected.x, context + " x");
  ExpectSameBits(actual.xsum, expected.xsum, context + " xsum");
  ExpectSameBits(actual.out, expected.out, context + " out");
  EXPECT_EQ(actual.touched, expected.touched) << context << " touched";
}

// Over the whole range: every double outside x[0, d) of each row,
// xsum[0, d) and the d leading columns of the rows the range's entries
// name keeps its bits, and only those rows gain a touched mark.
void ExpectOnlyNamedRowsWritten(const ProjectScatterCase& c,
                                const ProjectScatterResult& r, bool x_read,
                                const std::string& context) {
  const std::vector<double> sentinels = XSentinels(c);
  for (size_t i = 0; i < c.rows(); ++i) {
    for (size_t j = x_read ? c.d : 0; j < c.x_stride; ++j) {
      const size_t at = i * c.x_stride + j;
      ASSERT_EQ(std::memcmp(&r.x[at], &sentinels[at], sizeof(double)), 0)
          << context << " x(" << i << ", " << j << ")";
    }
  }
  for (size_t j = c.d; j < c.d + 4; ++j) {
    ASSERT_EQ(std::memcmp(&r.xsum[j], &c.xsum[j], sizeof(double)), 0)
        << context << " xsum slack " << j;
  }
  std::vector<bool> named(c.dim, false);
  for (size_t i = c.begin; i < c.end; ++i) {
    for (const auto& e : c.y.Row(i)) named[e.index] = true;
  }
  for (size_t i = 0; i < c.dim; ++i) {
    EXPECT_EQ(r.touched[i], named[i] ? 1 : c.touched[i])
        << context << " touched " << i;
    const size_t first = named[i] ? c.d : 0;
    for (size_t j = first; j < c.out_stride; ++j) {
      const size_t at = i * c.out_stride + j;
      ASSERT_EQ(std::memcmp(&r.out[at], &c.out[at], sizeof(double)), 0)
          << context << " out(" << i << ", " << j << ")";
    }
  }
}

// X not read, then read back in blocks of 1, 3 and 64 rows.
constexpr size_t kXBlockRows[] = {0, 1, 3, 64};

IsaKernels ScalarKernels() {
  return {Isa::kScalar, kernels::scalar::AxpyRow, kernels::scalar::AddRow,
          kernels::scalar::DotRow, kernels::scalar::Rank1Update,
          kernels::scalar::SymRank1Update, kernels::scalar::SparseRowGemv,
          kernels::scalar::RowGemm, kernels::scalar::SparseRowsProjectScatter};
}

IsaKernels DispatchedKernels() {
  return {kernels::DispatchedIsa(),   kernels::AxpyRow,
          kernels::AddRow,            kernels::DotRow,
          kernels::Rank1Update,       kernels::SymRank1Update,
          kernels::SparseRowGemv,     kernels::RowGemm,
          kernels::SparseRowsProjectScatter};
}

// The scalar range kernel, and the dispatched one (scalar or AVX2), each
// equal a per-row loop of its own ISA's composite bit for bit, whether X
// is read back in blocks or not at all.
TEST(KernelsTest, SparseRowsProjectScatterIsThePerRowComposite) {
  Rng rng(108);
  for (size_t trial = 0; trial < 140; ++trial) {
    const ProjectScatterCase c = MakeProjectScatterCase(trial, &rng);
    for (const IsaKernels& k : {ScalarKernels(), DispatchedKernels()}) {
      const std::string isa = kernels::IsaName(k.isa);
      const ProjectScatterResult composite = RunComposite(c, k);
      for (const size_t block_rows : kXBlockRows) {
        const std::string context = isa + " x blocks of " +
                                    std::to_string(block_rows) + " " +
                                    c.Name();
        const ProjectScatterResult range =
            RunRange(c, k.sparse_rows_project_scatter, block_rows);
        ExpectSameResult(range, composite, block_rows > 0, context);
        ExpectOnlyNamedRowsWritten(c, range, block_rows > 0, context);
      }
    }
  }
}

// Each SIMD variant is exactly its own ISA's per-row composite (the same
// accumulation chains and the same fused multiply-add per scattered
// element, which is what keeps a fit's bits unchanged by the fusion on
// every ISA), and the tolerance tier against scalar.
TEST(SimdVsScalarTest, SparseRowsProjectScatter) {
  const auto variants = RunnableSimdVariants();
  SPCA_SKIP_WITHOUT_SIMD(variants);
  for (const auto& v : variants) {
    Rng rng(208);
    const std::string isa = kernels::IsaName(v.isa);
    for (size_t trial = 0; trial < 140; ++trial) {
      const ProjectScatterCase c = MakeProjectScatterCase(trial, &rng);
      const ProjectScatterResult composite = RunComposite(c, v);
      const ProjectScatterResult ref =
          RunRange(c, kernels::scalar::SparseRowsProjectScatter, 3);
      for (const size_t block_rows : kXBlockRows) {
        const std::string context = isa + " x blocks of " +
                                    std::to_string(block_rows) + " " +
                                    c.Name();
        const ProjectScatterResult simd =
            RunRange(c, v.sparse_rows_project_scatter, block_rows);
        ExpectSameResult(simd, composite, block_rows > 0, context);
        ExpectOnlyNamedRowsWritten(c, simd, block_rows > 0, context);
        if (block_rows > 0) {
          ExpectRowNear(simd.x, ref.x, /*exact=*/false, context + " x");
        }
        ExpectRowNear(simd.xsum, ref.xsum, /*exact=*/false,
                      context + " xsum");
        ExpectRowNear(simd.out, ref.out, /*exact=*/false, context + " out");
      }
    }
  }
}

// ---- Dispatch layer ----------------------------------------------------

TEST(KernelDispatchTest, DispatchedIsaIsAvailableAndStable) {
  const Isa isa = kernels::DispatchedIsa();
  EXPECT_TRUE(kernels::IsaAvailable(isa));
  EXPECT_EQ(kernels::DispatchedIsa(), isa);  // resolution is one-time
  EXPECT_STREQ(kernels::DispatchedIsaName(), kernels::IsaName(isa));
  EXPECT_TRUE(kernels::IsaAvailable(Isa::kScalar));  // always
}

TEST(KernelDispatchTest, HonorsEnvOverride) {
  const char* env = std::getenv("SPCA_KERNEL_ISA");
  if (env == nullptr || env[0] == '\0') {
    GTEST_SKIP() << "SPCA_KERNEL_ISA not set; the forced-scalar and "
                    "unknown-ISA ctest legs exercise this";
  }
  Isa requested;
  if (std::strcmp(env, "scalar") == 0) {
    requested = Isa::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    requested = Isa::kAvx2;
  } else {
    // An unknown value dispatches as if unset: the best available tier.
    EXPECT_EQ(kernels::DispatchedIsa(), kernels::IsaAvailable(Isa::kAvx2)
                                            ? Isa::kAvx2
                                            : Isa::kScalar)
        << "unknown SPCA_KERNEL_ISA=" << env;
    return;
  }
  if (kernels::IsaAvailable(requested)) {
    EXPECT_EQ(kernels::DispatchedIsa(), requested);
  } else {
    EXPECT_EQ(kernels::DispatchedIsa(), Isa::kScalar)
        << "unavailable override must fall back to scalar";
  }
}

// ---- Error sample -------------------------------------------------------

// SampledReconstructionError's MGS2 projector as it was before it
// reconstructed each row with one RowGemm over B': one DotRow per output
// entry, over the rows of the orthonormalized basis, each starting from
// the mean, and the absent-entry 1-norm in one chain.
double PerEntryDotRowError(const dist::DistMatrix& sample,
                           const DenseMatrix& components,
                           const DenseVector& mean) {
  const DenseMatrix basis = OrthonormalizeColumns(components);
  const size_t d = basis.cols();
  const size_t dim = sample.cols();
  DenseVector mean_projection(d);
  for (size_t k = 0; k < dim; ++k) {
    const double m = mean[k];
    if (m == 0.0) continue;
    for (size_t j = 0; j < d; ++j) mean_projection[j] += m * basis(k, j);
  }
  double error_norm = 0.0;
  double data_norm = 0.0;
  DenseVector projected(d);
  DenseVector reconstructed(dim);
  for (size_t i = 0; i < sample.rows(); ++i) {
    sample.RowTimesMatrix(i, basis, &projected);
    projected.Subtract(mean_projection);
    for (size_t k = 0; k < dim; ++k) {
      reconstructed[k] =
          kernels::DotRow(basis.RowPtr(k), projected.data(), d, mean[k]);
    }
    double absent = 0.0;
    for (size_t k = 0; k < dim; ++k) absent += std::fabs(reconstructed[k]);
    double present = 0.0;
    double row_norm = 0.0;
    sample.ForEachEntry(i, [&](size_t k, double v) {
      present += std::fabs(v - reconstructed[k]) - std::fabs(reconstructed[k]);
      row_norm += std::fabs(v);
    });
    error_norm += absent + present;
    data_norm += row_norm;
  }
  return data_norm == 0.0 ? 0.0 : error_norm / data_norm;
}

// The projector's row loop in plain loops, each entry summed in the
// scalar kernels' order: u = Y_i * basis - mean' * basis, z = u * middle
// (skipped when null), reconstruction = mean + z * basis', and the
// absent-entry 1-norm in four interleaved partial sums.
double PlainLoopProjectionError(const dist::DistMatrix& sample,
                                const DenseMatrix& basis,
                                const DenseMatrix* middle,
                                const DenseVector& mean) {
  const size_t d = basis.cols();
  const size_t dim = sample.cols();
  DenseVector mean_projection(d);
  for (size_t k = 0; k < dim; ++k) {
    const double m = mean[k];
    if (m == 0.0) continue;
    for (size_t j = 0; j < d; ++j) mean_projection[j] += m * basis(k, j);
  }
  double error_norm = 0.0;
  double data_norm = 0.0;
  std::vector<double> u(d);
  std::vector<double> z(d);
  std::vector<double> reconstructed(dim);
  for (size_t i = 0; i < sample.rows(); ++i) {
    std::fill(u.begin(), u.end(), 0.0);
    sample.ForEachEntry(i, [&](size_t k, double v) {
      if (v == 0.0) return;
      for (size_t j = 0; j < d; ++j) u[j] += v * basis(k, j);
    });
    for (size_t j = 0; j < d; ++j) u[j] -= mean_projection[j];
    z = u;
    if (middle != nullptr) {
      for (size_t j = 0; j < d; ++j) {
        double sum = 0.0;
        for (size_t k = 0; k < d; ++k) {
          if (u[k] != 0.0) sum += u[k] * (*middle)(k, j);
        }
        z[j] = sum;
      }
    }
    for (size_t k = 0; k < dim; ++k) {
      double sum = mean[k];
      for (size_t j = 0; j < d; ++j) {
        if (z[j] != 0.0) sum += z[j] * basis(k, j);
      }
      reconstructed[k] = sum;
    }
    double partial[4] = {0.0, 0.0, 0.0, 0.0};
    size_t k = 0;
    for (; k + 4 <= dim; k += 4) {
      for (size_t lane = 0; lane < 4; ++lane) {
        partial[lane] += std::fabs(reconstructed[k + lane]);
      }
    }
    for (; k < dim; ++k) partial[0] += std::fabs(reconstructed[k]);
    const double absent = (partial[0] + partial[1]) + (partial[2] + partial[3]);
    double present = 0.0;
    double row_norm = 0.0;
    sample.ForEachEntry(i, [&](size_t k, double v) {
      present += std::fabs(v - reconstructed[k]) - std::fabs(reconstructed[k]);
      row_norm += std::fabs(v);
    });
    error_norm += absent + present;
    data_norm += row_norm;
  }
  return data_norm == 0.0 ? 0.0 : error_norm / data_norm;
}

// SampledReconstructionError's projector in plain loops: G = C'C summed
// row by row as TransposeMultiply does, G^-1 from linalg::Inverse, and the
// basis C with middle G^-1; or, where G's Cholesky factor fails, is not
// finite or has (max L_ii / min L_ii)^2 above 1e8, the MGS2 basis alone.
double PlainLoopGramError(const dist::DistMatrix& sample,
                          const DenseMatrix& components,
                          const DenseVector& mean) {
  const size_t d = components.cols();
  DenseMatrix gram(d, d);
  for (size_t r = 0; r < components.rows(); ++r) {
    for (size_t a = 0; a < d; ++a) {
      const double ca = components(r, a);
      if (ca == 0.0) continue;
      for (size_t b = 0; b < d; ++b) gram(a, b) += ca * components(r, b);
    }
  }
  const auto factor = CholeskyFactor(gram);
  bool gram_route = factor.ok();
  if (gram_route) {
    const DenseMatrix& l = factor.value();
    double max_diag = 0.0;
    double min_diag = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < d; ++i) {
      for (size_t j = 0; j <= i; ++j) {
        gram_route = gram_route && std::isfinite(l(i, j));
      }
      max_diag = std::max(max_diag, l(i, i));
      min_diag = std::min(min_diag, l(i, i));
    }
    const double ratio = max_diag / min_diag;
    gram_route = gram_route && ratio * ratio <= 1e8;
  }
  if (!gram_route) {
    return PlainLoopProjectionError(sample, OrthonormalizeColumns(components),
                                    nullptr, mean);
  }
  const DenseMatrix inverse = Inverse(gram).value();
  return PlainLoopProjectionError(sample, components, &inverse, mean);
}

// Bit for bit with the plain-loop Gram projector under scalar dispatch
// (the forced-scalar leg), 1e-12 relative under SIMD dispatch; within
// 1e-12 relative of the MGS2 per-entry projector it replaced on both legs.
// The dense d = 50 case has d > D, so it runs the MGS2 fallback.
TEST(KernelsTest, SampledReconstructionErrorMatchesPlainLoopGramProjector) {
  Rng rng(109);
  workload::BagOfWordsConfig tweets;
  tweets.rows = 300;
  tweets.vocab = 400;
  tweets.words_per_row = 10.0;
  tweets.seed = 110;
  const dist::DistMatrix sparse =
      dist::DistMatrix::FromSparse(workload::GenerateBagOfWords(tweets), 2);
  const dist::DistMatrix dense = dist::DistMatrix::FromDense(
      DenseMatrix::GaussianRandom(120, 37, &rng), 2);
  for (const dist::DistMatrix* sample : {&sparse, &dense}) {
    for (size_t d : {1u, 7u, 50u}) {
      const DenseMatrix components =
          DenseMatrix::GaussianRandom(sample->cols(), d, &rng);
      const DenseVector mean = sample->ColumnMeans();
      const std::string context =
          std::string(sample->is_sparse() ? "sparse" : "dense") +
          " d=" + std::to_string(d);
      const double error =
          core::SampledReconstructionError(*sample, components, mean);
      ExpectNearTier(error, PlainLoopGramError(*sample, components, mean),
                     DispatchIsExact(), context);
      ExpectNearTier(error, PerEntryDotRowError(*sample, components, mean),
                     /*exact=*/false, context + " vs MGS2");
    }
  }
}

// ---- End-to-end golden (two tiers) ------------------------------------

void AppendBits(std::string* out, const char* tag, const DenseMatrix& m,
                double ss) {
  char line[64];
  std::snprintf(line, sizeof(line), "case %s rows=%zu cols=%zu\n", tag,
                m.rows(), m.cols());
  *out += line;
  uint64_t bits;
  std::memcpy(&bits, &ss, sizeof(bits));
  std::snprintf(line, sizeof(line), "ss %016" PRIx64 "\n", bits);
  *out += line;
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      const double v = m(i, j);
      std::memcpy(&bits, &v, sizeof(bits));
      std::snprintf(line, sizeof(line), "%016" PRIx64 "\n", bits);
      *out += line;
    }
  }
}

void RunFitCase(std::string* out, const char* tag, const dist::DistMatrix& y,
                const core::SpcaOptions& options, dist::EngineMode mode) {
  dist::Engine engine(dist::ClusterSpec{}, mode);
  engine.SetLocalWorkers(2);  // exercise the worker-pool path
  core::Spca spca(&engine, options);
  auto result = spca.Solve(y);
  ASSERT_TRUE(result.ok()) << tag << ": " << result.status().ToString();
  AppendBits(out, tag, result->model.components,
             result->model.noise_variance);
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

double DecodeBitsLine(const std::string& line) {
  const size_t hex_start = line.rfind(' ') + 1;  // npos+1 == 0 for bare hex
  const uint64_t bits =
      std::strtoull(line.c_str() + hex_start, nullptr, 16);
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

// Tolerance-tier golden comparison: structure lines ("case ...") must
// match exactly; every encoded double must agree to 1e-12 relative.
void ExpectDumpNearGolden(const std::string& dump, const std::string& golden) {
  const auto dump_lines = SplitLines(dump);
  const auto golden_lines = SplitLines(golden);
  ASSERT_EQ(dump_lines.size(), golden_lines.size());
  for (size_t i = 0; i < dump_lines.size(); ++i) {
    if (golden_lines[i].rfind("case ", 0) == 0) {
      EXPECT_EQ(dump_lines[i], golden_lines[i]) << "line " << i;
      continue;
    }
    const double actual = DecodeBitsLine(dump_lines[i]);
    const double expected = DecodeBitsLine(golden_lines[i]);
    EXPECT_NEAR(actual, expected,
                kRelTol * std::max(1.0, std::fabs(expected)))
        << "line " << i << ": " << dump_lines[i] << " vs golden "
        << golden_lines[i];
  }
}

// Byte-for-byte under scalar dispatch, 1e-12 relative under SIMD; with
// SPCA_REGENERATE_FIT_GOLDEN set (scalar dispatch only) rewrites the file.
void ExpectMatchesGolden(const std::string& dump, const char* file) {
  const std::string golden_path =
      std::string(SPCA_TEST_SRCDIR) + "/golden/" + file;
  if (std::getenv("SPCA_REGENERATE_FIT_GOLDEN") != nullptr) {
    ASSERT_TRUE(DispatchIsExact())
        << "regenerate the golden under SPCA_KERNEL_ISA=scalar: it pins the "
           "exact tier, which only the scalar kernels reproduce";
    std::ofstream out(golden_path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << dump;
    GTEST_SKIP() << "golden regenerated at " << golden_path;
  }
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path;
  std::ostringstream golden;
  golden << in.rdbuf();
  if (DispatchIsExact()) {
    EXPECT_EQ(dump, golden.str())
        << file << ": fit numerics drifted under scalar dispatch, which "
           "promises bit-identical results. If a numerics change is "
           "intentional, regenerate with SPCA_REGENERATE_FIT_GOLDEN=1 "
           "SPCA_KERNEL_ISA=scalar";
  } else {
    ExpectDumpNearGolden(dump, golden.str());
  }
}

core::SpcaOptions GoldenFitOptions() {
  core::SpcaOptions options;
  options.num_components = 6;
  options.max_iterations = 4;
  options.target_accuracy_fraction = 2.0;  // always run max_iterations
  options.error_sample_rows = 64;
  options.seed = 17;
  options.ideal_error_override = 1.0;  // skip the hidden converged fit
  return options;
}

dist::DistMatrix GoldenSparseInput() {
  workload::BagOfWordsConfig config;
  config.rows = 300;
  config.vocab = 120;
  config.words_per_row = 8.0;
  config.seed = 5;
  return dist::DistMatrix::FromSparse(workload::GenerateBagOfWords(config),
                                      7);
}

dist::DistMatrix GoldenDenseInput() {
  workload::LowRankConfig config;
  config.rows = 200;
  config.cols = 37;  // non-multiple-of-4 width
  config.rank = 4;
  config.seed = 23;
  return dist::DistMatrix::FromDense(workload::GenerateLowRank(config), 5);
}

// Fit results on seeded workloads against the golden dumped from the
// pre-kernel scalar implementation. Covers sparse + dense storage, both
// engine modes, and both the optimized and the naive (toggles-off) job
// paths — i.e. every rewritten inner loop. Under scalar dispatch the
// comparison is byte-for-byte; under SIMD dispatch it is the 1e-12
// relative tolerance tier. Pins Algorithm 4's job sequence, so
// driver_moments is off.
TEST(KernelsTest, FitMatchesPreKernelGolden) {
  core::SpcaOptions options = GoldenFitOptions();
  options.driver_moments = false;

  std::string dump;
  {
    const auto y = GoldenSparseInput();
    RunFitCase(&dump, "sparse_optimized", y, options,
               dist::EngineMode::kSpark);
    if (HasFatalFailure()) return;

    core::SpcaOptions naive = options;
    naive.mean_propagation = false;
    naive.minimize_intermediate_data = false;
    naive.consolidate_jobs = false;
    naive.efficient_frobenius = false;
    naive.ss3_associativity = false;
    RunFitCase(&dump, "sparse_naive", y, naive,
               dist::EngineMode::kMapReduce);
    if (HasFatalFailure()) return;
  }
  {
    const auto y = GoldenDenseInput();
    RunFitCase(&dump, "dense_optimized", y, options,
               dist::EngineMode::kSpark);
    if (HasFatalFailure()) return;

    core::SpcaOptions naive = options;
    naive.mean_propagation = false;
    naive.ss3_associativity = false;
    RunFitCase(&dump, "dense_naive", y, naive, dist::EngineMode::kSpark);
    if (HasFatalFailure()) return;
  }

  ExpectMatchesGolden(dump, "fit_bits.golden");
}

// Sparse-loadings EM (SpcaOptions::l1_threshold: a soft-threshold after
// every M-step) against the golden dumped from the standalone
// sparse-PPCA solver it replaced: two seeded sparse-signal inputs, one per
// platform, four sweeps each.
void RunSparseFitCase(std::string* out, const char* tag,
                      const dist::DistMatrix& y, double l1_threshold,
                      dist::EngineMode mode, bool driver_moments) {
  core::SpcaOptions options;
  options.num_components = 4;
  options.max_iterations = 4;
  options.l1_threshold = l1_threshold;
  options.target_accuracy_fraction = 2.0;  // always run max_iterations
  options.error_sample_rows = 64;
  options.seed = 29;
  options.ideal_error_override = 1.0;  // skip the hidden converged fit
  options.driver_moments = driver_moments;
  RunFitCase(out, tag, y, options, mode);
}

dist::DistMatrix GoldenSparseSignal(uint64_t seed, size_t partitions) {
  workload::SparseSignalConfig config;
  config.rows = 240;
  config.cols = 30;
  config.active_per_component = 6;
  config.seed = seed;
  return dist::DistMatrix::FromDense(workload::GenerateSparseSignal(config),
                                     partitions);
}

// Pins Algorithm 4's job sequence, so driver_moments is off.
TEST(KernelsTest, SparseFitMatchesGolden) {
  std::string dump;
  RunSparseFitCase(&dump, "sparse_signal_spark", GoldenSparseSignal(41, 5),
                   0.05, dist::EngineMode::kSpark, /*driver_moments=*/false);
  if (HasFatalFailure()) return;
  RunSparseFitCase(&dump, "sparse_signal_mapreduce",
                   GoldenSparseSignal(43, 4), 0.1,
                   dist::EngineMode::kMapReduce, /*driver_moments=*/false);
  if (HasFatalFailure()) return;
  ExpectMatchesGolden(dump, "sparse_fit_bits.golden");
}

// The default path (SpcaOptions::driver_moments: XtX and ss3 from YtX on
// the driver, one job per iteration) on the inputs of the two goldens
// above: sparse and dense storage on Spark, and one sparse-loadings case
// on MapReduce.
TEST(KernelsTest, DriverMomentsFitMatchesGolden) {
  const core::SpcaOptions options = GoldenFitOptions();
  ASSERT_TRUE(options.driver_moments);
  std::string dump;
  RunFitCase(&dump, "sparse_driver_moments", GoldenSparseInput(), options,
             dist::EngineMode::kSpark);
  if (HasFatalFailure()) return;
  RunFitCase(&dump, "dense_driver_moments", GoldenDenseInput(), options,
             dist::EngineMode::kSpark);
  if (HasFatalFailure()) return;
  RunSparseFitCase(&dump, "l1_driver_moments_mapreduce",
                   GoldenSparseSignal(43, 4), 0.1,
                   dist::EngineMode::kMapReduce, /*driver_moments=*/true);
  if (HasFatalFailure()) return;
  ExpectMatchesGolden(dump, "driver_moments_fit_bits.golden");
}

}  // namespace
}  // namespace spca::linalg
