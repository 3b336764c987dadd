// AVX2 + FMA kernel variants (x86-64). Compiled with -mavx2 -mfma when
// the SPCA_SIMD CMake gate is on; only ever *called* after the dispatcher
// verified AVX2+FMA via CPUID (see kernels.cc), so this TU may use the
// intrinsics unconditionally.
//
// Numerics: these are the tolerance tier. Fused multiply-adds round once
// instead of twice and the reductions (DotRow, and the per-column chains
// in SparseRowGemv/RowGemm k-blocking) run several accumulators in
// parallel, so results can differ from the scalar twins in the last ulps
// — kernels_test bounds the difference at 1e-12 relative on every kernel,
// and the fit golden is checked at the same tolerance when this path is
// dispatched. AddRow contains no multiplies and no reduction, so it stays
// bit-identical to scalar (and is tested exactly).
//
// All loads/stores are unaligned ops (vmovupd): DenseMatrix aligns its
// allocations to 64 bytes so the hot rows usually *are* aligned (no
// cache-line split), but correctness never depends on it — kernels also
// run on arbitrary interior row slices.

#include "linalg/kernel_dispatch.h"

#if defined(SPCA_KERNELS_HAVE_AVX2)

#include <immintrin.h>

#if defined(__GNUC__) || defined(__clang__)
#define SPCA_RESTRICT __restrict__
// A stripe's __m256d acc[NV] array lives in ymm registers only if GCC
// replaces it by scalars, which needs the stripe inlined into its caller
// and every loop over the vectors fully unrolled (constant indices).
// GCC 12's early unroller refuses the twelve-vector loops ("size would
// grow"), and then the array stays on the stack: the accumulators are
// zeroed there, live in registers only inside the term loop, and are
// spilled and reloaded around it. Every loop over a stripe's vectors
// therefore carries SPCA_UNROLL_STRIPE, and objdump of this file shows no
// ymm stack operand in SparseRowGemv, RowGemm or SparseRowsProjectScatter.
#define SPCA_STRIPE_INLINE __attribute__((always_inline)) inline
#define SPCA_UNROLL_STRIPE _Pragma("GCC unroll 16")
#else
#define SPCA_RESTRICT
#define SPCA_STRIPE_INLINE inline
#define SPCA_UNROLL_STRIPE
#endif

namespace spca::linalg::kernels::avx2 {
namespace {

inline double HSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_add_sd(lo, swapped));
}

// Shared axpy body so Rank1Update's row loop inlines it without the
// dispatch indirection.
inline void AxpyRowImpl(double v, const double* b, size_t n, double* out) {
  const __m256d vv = _mm256_set1_pd(v);
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    _mm256_storeu_pd(
        out + j,
        _mm256_fmadd_pd(vv, _mm256_loadu_pd(b + j), _mm256_loadu_pd(out + j)));
    _mm256_storeu_pd(out + j + 4,
                     _mm256_fmadd_pd(vv, _mm256_loadu_pd(b + j + 4),
                                     _mm256_loadu_pd(out + j + 4)));
    _mm256_storeu_pd(out + j + 8,
                     _mm256_fmadd_pd(vv, _mm256_loadu_pd(b + j + 8),
                                     _mm256_loadu_pd(out + j + 8)));
    _mm256_storeu_pd(out + j + 12,
                     _mm256_fmadd_pd(vv, _mm256_loadu_pd(b + j + 12),
                                     _mm256_loadu_pd(out + j + 12)));
  }
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(
        out + j,
        _mm256_fmadd_pd(vv, _mm256_loadu_pd(b + j), _mm256_loadu_pd(out + j)));
  }
  for (; j < n; ++j) out[j] = __builtin_fma(v, b[j], out[j]);
}

}  // namespace

void AxpyRow(double v, const double* b, size_t n, double* out) {
  AxpyRowImpl(v, b, n, out);
}

void AddRow(const double* b, size_t n, double* out) {
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(out + j),
                                            _mm256_loadu_pd(b + j)));
    _mm256_storeu_pd(out + j + 4, _mm256_add_pd(_mm256_loadu_pd(out + j + 4),
                                                _mm256_loadu_pd(b + j + 4)));
  }
  for (; j + 4 <= n; j += 4) {
    _mm256_storeu_pd(out + j, _mm256_add_pd(_mm256_loadu_pd(out + j),
                                            _mm256_loadu_pd(b + j)));
  }
  for (; j < n; ++j) out[j] += b[j];
}

double DotRow(const double* a, const double* b, size_t n, double init) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  size_t j = 0;
  for (; j + 16 <= n; j += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j + 4),
                           _mm256_loadu_pd(b + j + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j + 8),
                           _mm256_loadu_pd(b + j + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j + 12),
                           _mm256_loadu_pd(b + j + 12), acc3);
  }
  for (; j + 4 <= n; j += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + j), _mm256_loadu_pd(b + j),
                           acc0);
  }
  double sum = HSum(
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3)));
  for (; j < n; ++j) sum = __builtin_fma(a[j], b[j], sum);
  return init + sum;
}

void Rank1Update(const double* a, size_t rows, const double* b, size_t cols,
                 double* out, size_t out_stride) {
  for (size_t i = 0; i < rows; ++i) {
    const double ai = a[i];
    if (ai == 0.0) continue;
    AxpyRowImpl(ai, b, cols, out + i * out_stride);
  }
}

void SymRank1Update(const double* x, size_t d, double* out, size_t stride) {
  // Row pairing: rows a and a+1 share every x[b] vector load, and the
  // per-row loop prologue/epilogue (the dominant cost for small d, where
  // triangle rows are only a handful of elements) is paid once per pair.
  // The 2x2 corner at the diagonal is peeled off scalar so both rows'
  // vector loops start at the same column a+2.
  size_t a = 0;
  for (; a + 2 <= d; a += 2) {
    const double xa0 = x[a];
    const double xa1 = x[a + 1];
    double* row0 = out + a * stride;
    double* row1 = row0 + stride;
    row0[a] = __builtin_fma(xa0, xa0, row0[a]);
    row0[a + 1] = __builtin_fma(xa0, xa1, row0[a + 1]);
    row1[a + 1] = __builtin_fma(xa1, xa1, row1[a + 1]);
    const __m256d v0 = _mm256_set1_pd(xa0);
    const __m256d v1 = _mm256_set1_pd(xa1);
    size_t b = a + 2;
    for (; b + 8 <= d; b += 8) {
      const __m256d xb0 = _mm256_loadu_pd(x + b);
      const __m256d xb1 = _mm256_loadu_pd(x + b + 4);
      _mm256_storeu_pd(row0 + b,
                       _mm256_fmadd_pd(v0, xb0, _mm256_loadu_pd(row0 + b)));
      _mm256_storeu_pd(
          row0 + b + 4,
          _mm256_fmadd_pd(v0, xb1, _mm256_loadu_pd(row0 + b + 4)));
      _mm256_storeu_pd(row1 + b,
                       _mm256_fmadd_pd(v1, xb0, _mm256_loadu_pd(row1 + b)));
      _mm256_storeu_pd(
          row1 + b + 4,
          _mm256_fmadd_pd(v1, xb1, _mm256_loadu_pd(row1 + b + 4)));
    }
    for (; b + 4 <= d; b += 4) {
      const __m256d xb = _mm256_loadu_pd(x + b);
      _mm256_storeu_pd(row0 + b,
                       _mm256_fmadd_pd(v0, xb, _mm256_loadu_pd(row0 + b)));
      _mm256_storeu_pd(row1 + b,
                       _mm256_fmadd_pd(v1, xb, _mm256_loadu_pd(row1 + b)));
    }
    for (; b < d; ++b) {
      row0[b] = __builtin_fma(xa0, x[b], row0[b]);
      row1[b] = __builtin_fma(xa1, x[b], row1[b]);
    }
  }
  if (a < d) {  // odd d: the last row is just its diagonal element
    double* row = out + a * stride;
    row[a] = __builtin_fma(x[a], x[a], row[a]);
  }
}

namespace {

// Lane mask for a partial (1-3 column) trailing vector. vmaskmovpd
// suppresses loads/stores (and faults) on disabled lanes, so the masked
// vector may extend past the end of a row.
inline __m256i TailMask(size_t rem) {
  alignas(32) static const int64_t kMask[3][4] = {
      {-1, 0, 0, 0}, {-1, -1, 0, 0}, {-1, -1, -1, 0}};
  return _mm256_load_si256(
      reinterpret_cast<const __m256i*>(kMask[rem - 1]));
}

// The two row sources of the stripe engine. Term k of a row-times-matrix
// product adds Weight(k) times row Row(k) of the broadcast matrix b: for a
// dense row a_row[k] times row k, for a CSR row entries[k].value times row
// entries[k].index. Each source keeps its own software-prefetch distance
// in terms (0 = none). A dense row walks b's rows in order, so only the
// wide stripes prefetch, a few rows out into L1: when b is bigger than L1
// the hardware stride prefetcher only pulls the rows as far as L2, and
// the ~6 L1 misses per 50-column row otherwise serialize on the load
// buffer. A CSR row's indices jump around b, so every gathered row is a
// likely cache miss the hardware prefetcher cannot predict; both stripe
// widths prefetch further out, far enough to cover L3 latency at ~10
// cycles of FMA work per entry.
struct DenseTerms {
  static constexpr size_t kWideAhead = 4;
  static constexpr size_t kNarrowAhead = 0;
  const double* a;
  double Weight(size_t k) const { return a[k]; }
  size_t Row(size_t k) const { return k; }
};

struct CsrTerms {
  static constexpr size_t kWideAhead = 6;
  static constexpr size_t kNarrowAhead = 8;
  const SparseEntry* entries;
  double Weight(size_t k) const { return entries[k].value; }
  size_t Row(size_t k) const { return entries[k].index; }
};

// One column stripe of a row-times-matrix product, with the stripe held
// in NV ymm accumulators (one FMA chain per vector) across the ENTIRE
// sweep over the n terms: the output never touches memory inside the
// stripe, and each b cache line is read by exactly one stripe. NV = 12
// (48 columns) uses 12 of the 16 ymm registers and keeps both FMA ports
// saturated; the d <= 51 shapes of the paper's workloads run as one
// stripe. The prefetch runs the FULL stripe width of the row
// Terms::kWideAhead terms out, while that term is below `readable`, so a
// caller walking consecutive CSR rows has the next row's first gathered
// rows in flight before it starts it.
//
// kHasRem appends a partial tail vector (1-3 columns), so a 50-wide row
// is ONE pass: peeling those columns into a scalar loop would re-stream
// b's tail cache lines and serialize on FMA latency. The tail is an
// ORDINARY unmasked load: its surplus lanes read bytes past the logical
// row end, which the tail-padding contract (aligned.h, DESIGN.md par.8)
// guarantees are readable, either the next row's head or the buffer's
// zeroed padding; FoldStripe's masked store discards their products. A
// CSR term may name any row of b including the last, so without the
// padding every term would need a masked load, and a per-term
// _mm256_maskload_pd would cost a ymm for the mask plus a slower load µop
// and push the d = 50 shape past 16 live registers.
//
// The accumulators start at zero and the output is folded in at the end
// (FoldStripe): if they were initialized by loading it, GCC turns the
// init/store loops into stack memcpys and the array stays memory-backed.
template <int NV, bool kHasRem, class Terms>
SPCA_STRIPE_INLINE void GatherStripe(Terms terms, size_t n, size_t readable,
                                     const double* SPCA_RESTRICT b,
                                     size_t b_stride, __m256d (&acc)[NV],
                                     __m256d& accr) {
  static_assert(NV >= 1 && NV <= 12, "more than 12 vectors cannot stay "
                                     "register-resident");
  constexpr size_t kAhead = Terms::kWideAhead;
  constexpr int kPrefetchSpan = NV * 32 + (kHasRem ? 32 : 0);
  SPCA_UNROLL_STRIPE
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_pd();
  accr = _mm256_setzero_pd();
  for (size_t k = 0; k < n; ++k) {
    if (k + kAhead < readable) {
      const char* next =
          reinterpret_cast<const char*>(b + terms.Row(k + kAhead) * b_stride);
      for (int off = 0; off <= kPrefetchSpan; off += 64) {
        _mm_prefetch(next + off, _MM_HINT_T0);
      }
    }
    const __m256d vv = _mm256_set1_pd(terms.Weight(k));
    const double* row = b + terms.Row(k) * b_stride;
    SPCA_UNROLL_STRIPE
    for (int v = 0; v < NV; ++v) {
      acc[v] = _mm256_fmadd_pd(vv, _mm256_loadu_pd(row + 4 * v), acc[v]);
    }
    if constexpr (kHasRem) {
      accr = _mm256_fmadd_pd(vv, _mm256_loadu_pd(row + 4 * NV), accr);
    }
  }
}

// A 4-column stripe with the term loop unrolled into four independent
// accumulator chains. The wide stripes have one chain per column vector,
// so a lone 4-column stripe over many terms would serialize on FMA
// latency (4 cycles per term for 1 vector of work); four chains over the
// same columns restore ~1 term per cycle and keep four gathered rows in
// flight. Used for the 4-15 column leftovers after the 48/16-wide
// stripes; a source with kNarrowAhead > 0 prefetches the first line of
// the rows that many terms out, up to `readable` as in GatherStripe.
// Returns the stripe's sum, (a0 + a1) + (a2 + a3).
template <class Terms>
SPCA_STRIPE_INLINE __m256d GatherNarrow(Terms terms, size_t n,
                                        size_t readable,
                                        const double* SPCA_RESTRICT b,
                                        size_t b_stride) {
  constexpr size_t kAhead = Terms::kNarrowAhead;
  __m256d a0 = _mm256_setzero_pd();
  __m256d a1 = _mm256_setzero_pd();
  __m256d a2 = _mm256_setzero_pd();
  __m256d a3 = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    if constexpr (kAhead > 0) {
      if (k + kAhead + 4 <= readable) {
        for (size_t p = 0; p < 4; ++p) {
          _mm_prefetch(reinterpret_cast<const char*>(
                           b + terms.Row(k + kAhead + p) * b_stride),
                       _MM_HINT_T0);
        }
      }
    }
    a0 = _mm256_fmadd_pd(_mm256_set1_pd(terms.Weight(k)),
                         _mm256_loadu_pd(b + terms.Row(k) * b_stride), a0);
    a1 = _mm256_fmadd_pd(_mm256_set1_pd(terms.Weight(k + 1)),
                         _mm256_loadu_pd(b + terms.Row(k + 1) * b_stride), a1);
    a2 = _mm256_fmadd_pd(_mm256_set1_pd(terms.Weight(k + 2)),
                         _mm256_loadu_pd(b + terms.Row(k + 2) * b_stride), a2);
    a3 = _mm256_fmadd_pd(_mm256_set1_pd(terms.Weight(k + 3)),
                         _mm256_loadu_pd(b + terms.Row(k + 3) * b_stride), a3);
  }
  for (; k < n; ++k) {
    a0 = _mm256_fmadd_pd(_mm256_set1_pd(terms.Weight(k)),
                         _mm256_loadu_pd(b + terms.Row(k) * b_stride), a0);
  }
  return _mm256_add_pd(_mm256_add_pd(a0, a1), _mm256_add_pd(a2, a3));
}

// out += a stripe's sums: NV whole vectors, then (kHasRem) the masked
// `rem`-column tail, so only the stripe's own columns of out change.
template <int NV, bool kHasRem>
SPCA_STRIPE_INLINE void FoldStripe(const __m256d (&acc)[NV], __m256d accr,
                                   double* SPCA_RESTRICT out, size_t rem) {
  SPCA_UNROLL_STRIPE
  for (int v = 0; v < NV; ++v) {
    _mm256_storeu_pd(out + 4 * v,
                     _mm256_add_pd(_mm256_loadu_pd(out + 4 * v), acc[v]));
  }
  if constexpr (kHasRem) {
    const __m256i mask = TailMask(rem);
    _mm256_maskstore_pd(
        out + 4 * NV, mask,
        _mm256_add_pd(_mm256_maskload_pd(out + 4 * NV, mask), accr));
  }
  if constexpr (!kHasRem) (void)rem;
}

// The d < 4 column of the sparse product: two entry-unrolled accumulator
// chains (a single chain would be FMA-latency-bound through the gathered
// loads). Returns acc0 + acc1.
inline double GatherColumn(const SparseEntry* entries, size_t nnz,
                           const double* b, size_t b_stride, size_t j) {
  double acc0 = 0.0;
  double acc1 = 0.0;
  size_t k = 0;
  for (; k + 2 <= nnz; k += 2) {
    acc0 = __builtin_fma(entries[k].value, b[entries[k].index * b_stride + j],
                         acc0);
    acc1 = __builtin_fma(entries[k + 1].value,
                         b[entries[k + 1].index * b_stride + j], acc1);
  }
  for (; k < nnz; ++k) {
    acc0 = __builtin_fma(entries[k].value, b[entries[k].index * b_stride + j],
                         acc0);
  }
  return acc0 + acc1;
}

// The common stripe plan for every product: full 48-column stripes, then
// 16- and 4-column stripes, with the final stripe widened to absorb a
// 1-3 column remainder in its over-reading tail vector. The final
// stripe keeps the full 12-vector width, so the paper's d <= 51 shapes
// (d = 50 in every headline benchmark) are a SINGLE pass over b.
struct StripePlan {
  size_t prefix;    // columns handled by rem-free 48/16/4 stripes
  size_t final_nv;  // 12, 4, 1 (final stripe with tail), or 0 (none)
};

inline StripePlan PlanStripes(size_t full, size_t rem) {
  if (rem == 0) return {full, 0};
  const size_t final_nv = full >= 48 ? 12 : full >= 16 ? 4 : full >= 4 ? 1 : 0;
  return {full - 4 * final_nv, final_nv};
}

template <int NV, bool kHasRem, class Terms>
SPCA_STRIPE_INLINE void GemvStripe(Terms terms, size_t n, const double* b,
                                   size_t b_stride, double* out, size_t rem) {
  __m256d acc[NV];
  __m256d accr;
  GatherStripe<NV, kHasRem>(terms, n, n, b, b_stride, acc, accr);
  FoldStripe<NV, kHasRem>(acc, accr, out, rem);
}

// out[0, d) += sum over the n terms of Weight(k) * b(Row(k), 0..d), for
// d >= 4, stripe by stripe in the plan's order: the one walker of
// SparseRowGemv and RowGemm.
template <class Terms>
SPCA_STRIPE_INLINE void GemvStripes(Terms terms, size_t n, const double* b,
                                    size_t b_stride, size_t d, double* out) {
  const size_t rem = d % 4;
  const StripePlan plan = PlanStripes(d - rem, rem);
  size_t j = 0;
  for (; j + 48 <= plan.prefix; j += 48) {
    GemvStripe<12, false>(terms, n, b + j, b_stride, out + j, 0);
  }
  for (; j + 16 <= plan.prefix; j += 16) {
    GemvStripe<4, false>(terms, n, b + j, b_stride, out + j, 0);
  }
  for (; j + 4 <= plan.prefix; j += 4) {
    const __m256d sum[1] = {GatherNarrow(terms, n, n, b + j, b_stride)};
    FoldStripe<1, false>(sum, sum[0], out + j, 0);
  }
  switch (plan.final_nv) {
    case 12:
      GemvStripe<12, true>(terms, n, b + j, b_stride, out + j, rem);
      break;
    case 4:
      GemvStripe<4, true>(terms, n, b + j, b_stride, out + j, rem);
      break;
    case 1:
      GemvStripe<1, true>(terms, n, b + j, b_stride, out + j, rem);
      break;
    default:
      break;
  }
}

}  // namespace

void SparseRowGemv(const SparseEntry* entries, size_t nnz, const double* b,
                   size_t b_stride, size_t d, double* out) {
  if (d < 4) {
    // No whole vector at all.
    for (size_t j = 0; j < d; ++j) {
      out[j] += GatherColumn(entries, nnz, b, b_stride, j);
    }
    return;
  }
  GemvStripes(CsrTerms{entries}, nnz, b, b_stride, d, out);
}

void RowGemm(const double* a_row, size_t k, const double* b, size_t b_stride,
             size_t n, double* c_row) {
  if (n < 4) {
    // No whole vector; 4 k-unrolled chains per column so the reduction is
    // not FMA-latency-bound.
    for (size_t j = 0; j < n; ++j) {
      double acc0 = 0.0;
      double acc1 = 0.0;
      double acc2 = 0.0;
      double acc3 = 0.0;
      size_t kk = 0;
      for (; kk + 4 <= k; kk += 4) {
        acc0 = __builtin_fma(a_row[kk], b[kk * b_stride + j], acc0);
        acc1 = __builtin_fma(a_row[kk + 1], b[(kk + 1) * b_stride + j], acc1);
        acc2 = __builtin_fma(a_row[kk + 2], b[(kk + 2) * b_stride + j], acc2);
        acc3 = __builtin_fma(a_row[kk + 3], b[(kk + 3) * b_stride + j], acc3);
      }
      for (; kk < k; ++kk) {
        acc0 = __builtin_fma(a_row[kk], b[kk * b_stride + j], acc0);
      }
      c_row[j] += (acc0 + acc1) + (acc2 + acc3);
    }
    return;
  }
  GemvStripes(DenseTerms{a_row}, k, b, b_stride, n, c_row);
}

namespace {

// The 1-3 column tail of a stripe of SparseRowsProjectScatter moves
// through 128-bit and scalar loads and stores, not vmaskmovpd. With a
// mask held in a register across the row loop, GCC 12 also kept the
// centring's zero live there and spilled x's tail vector to the stack at
// d = 50: twelve vectors of x, the tail, the mask, the zero, the broadcast
// entry value and a temporary are seventeen values for sixteen registers.
// Lanes past kRem of a loaded tail are zero; lanes past kRem of a
// computed one hold over-read data and are never stored.
template <int kRem>
SPCA_STRIPE_INLINE __m256d LoadTail(const double* p) {
  static_assert(kRem >= 1 && kRem <= 3, "a tail is 1-3 columns");
  if constexpr (kRem == 1) {
    return _mm256_zextpd128_pd256(_mm_load_sd(p));
  } else if constexpr (kRem == 2) {
    return _mm256_zextpd128_pd256(_mm_loadu_pd(p));
  } else {
    return _mm256_insertf128_pd(_mm256_zextpd128_pd256(_mm_loadu_pd(p)),
                                _mm_load_sd(p + 2), 1);
  }
}

template <int kRem>
SPCA_STRIPE_INLINE void StoreTail(double* p, __m256d v) {
  static_assert(kRem >= 1 && kRem <= 3, "a tail is 1-3 columns");
  const __m128d lo = _mm256_castpd256_pd128(v);
  if constexpr (kRem == 1) {
    _mm_store_sd(p, lo);
  } else {
    _mm_storeu_pd(p, lo);
  }
  if constexpr (kRem == 3) _mm_store_sd(p + 2, _mm256_extractf128_pd(v, 1));
}

// out[0, kRem) += v * x[0, kRem) with one fused multiply-add per element,
// as AxpyRow's: lanes 0-1 as one 128-bit operation, lane 2 as a scalar
// one on the tail's upper half, so no second temporary is live.
template <int kRem>
SPCA_STRIPE_INLINE void ScatterTail(__m256d vv, __m256d x, double* out) {
  static_assert(kRem >= 1 && kRem <= 3, "a tail is 1-3 columns");
  const __m128d v = _mm256_castpd256_pd128(vv);
  const __m128d lo = _mm256_castpd256_pd128(x);
  if constexpr (kRem == 1) {
    _mm_store_sd(out, _mm_fmadd_sd(v, lo, _mm_load_sd(out)));
  } else {
    _mm_storeu_pd(out, _mm_fmadd_pd(v, lo, _mm_loadu_pd(out)));
  }
  if constexpr (kRem == 3) {
    _mm_store_sd(out + 2, _mm_fmadd_sd(v, _mm256_extractf128_pd(x, 1),
                                       _mm_load_sd(out + 2)));
  }
}

// The centring and scatter of one stripe of one row of
// SparseRowsProjectScatter, on the gathered sums: x = (0 + acc) - xm
// (SparseRowGemv's sum into a zeroed x, then the centring, so signed
// zeros match the composite), xsum += x, x stored only when the caller
// reads it, and then out(entries[k].index, :) += entries[k].value * x
// with x still in registers (the same fused multiply-add per element as
// AxpyRow), marking each named row touched. The scattered rows are
// prefetched kPrefetchAhead entries out; issuing those prefetches during
// the gather instead (next to the ones for cm) measured ~10% slower per
// row at d = 50.
template <int NV, int kRem>
SPCA_STRIPE_INLINE void CenterAndScatter(
    __m256d (&acc)[NV], __m256d accr, const SparseEntry* SPCA_RESTRICT entries,
    size_t nnz, const double* SPCA_RESTRICT xm, double* SPCA_RESTRICT x,
    double* SPCA_RESTRICT xsum, double* SPCA_RESTRICT out, size_t out_stride,
    uint8_t* SPCA_RESTRICT touched) {
  const __m256d zero = _mm256_setzero_pd();
  SPCA_UNROLL_STRIPE
  for (int v = 0; v < NV; ++v) {
    acc[v] = _mm256_sub_pd(_mm256_add_pd(zero, acc[v]),
                           _mm256_loadu_pd(xm + 4 * v));
    _mm256_storeu_pd(xsum + 4 * v,
                     _mm256_add_pd(_mm256_loadu_pd(xsum + 4 * v), acc[v]));
  }
  if constexpr (kRem != 0) {
    accr = _mm256_sub_pd(_mm256_add_pd(zero, accr),
                         LoadTail<kRem>(xm + 4 * NV));
    StoreTail<kRem>(xsum + 4 * NV,
                    _mm256_add_pd(LoadTail<kRem>(xsum + 4 * NV), accr));
  }
  if (x != nullptr) {
    SPCA_UNROLL_STRIPE
    for (int v = 0; v < NV; ++v) _mm256_storeu_pd(x + 4 * v, acc[v]);
    if constexpr (kRem != 0) StoreTail<kRem>(x + 4 * NV, accr);
  }
  constexpr size_t kPrefetchAhead = 4;
  constexpr int kPrefetchSpan = NV * 32 + (kRem != 0 ? 32 : 0);
  for (size_t k = 0; k < nnz; ++k) {
    if (k + kPrefetchAhead < nnz) {
      const char* next = reinterpret_cast<const char*>(
          out + entries[k + kPrefetchAhead].index * out_stride);
      for (int off = 0; off <= kPrefetchSpan; off += 64) {
        _mm_prefetch(next + off, _MM_HINT_T0);
      }
    }
    const uint32_t index = entries[k].index;
    touched[index] = 1;
    const __m256d vv = _mm256_set1_pd(entries[k].value);
    double* row = out + index * out_stride;
    SPCA_UNROLL_STRIPE
    for (int v = 0; v < NV; ++v) {
      _mm256_storeu_pd(
          row + 4 * v,
          _mm256_fmadd_pd(vv, acc[v], _mm256_loadu_pd(row + 4 * v)));
    }
    if constexpr (kRem != 0) ScatterTail<kRem>(vv, accr, row + 4 * NV);
  }
}

// Gather, centre and scatter one stripe of one row: NV whole vectors plus
// a kRem-column tail. `prefetch_count` entries from `entries` on are
// readable: the gather prefetches the cm rows of the next row's first
// entries while it finishes this one.
template <int NV, int kRem>
SPCA_STRIPE_INLINE void ProjectScatterStripe(
    const SparseEntry* entries, size_t nnz, size_t prefetch_count,
    const double* cm, size_t cm_stride, const double* xm, double* x,
    double* xsum, double* out, size_t out_stride, uint8_t* touched) {
  __m256d acc[NV];
  __m256d accr;
  GatherStripe<NV, kRem != 0>(CsrTerms{entries}, nnz, prefetch_count, cm,
                              cm_stride, acc, accr);
  CenterAndScatter<NV, kRem>(acc, accr, entries, nnz, xm, x, xsum, out,
                             out_stride, touched);
}

// The row loop for one stripe plan: rem-free 48-, 16- and 4-column stripes
// over `prefix` columns, then (kFinalNV > 0) the final stripe of kFinalNV
// vectors and its kRem-column tail. The plan and the prefetch bound are
// fixed for the whole call.
template <int kFinalNV, int kRem>
void ProjectScatterRows(const uint64_t* row_ptr, size_t rows,
                        const SparseEntry* entries, const double* cm,
                        size_t cm_stride, const double* xm, size_t prefix,
                        double* x, size_t x_stride, double* xsum, double* out,
                        size_t out_stride, uint8_t* touched) {
  const uint64_t last = row_ptr[rows];
  for (size_t r = 0; r < rows; ++r) {
    const SparseEntry* row = entries + row_ptr[r];
    const size_t nnz = row_ptr[r + 1] - row_ptr[r];
    const size_t ahead = last - row_ptr[r];
    double* x_row = x == nullptr ? nullptr : x + r * x_stride;
    const auto x_at = [x_row](size_t j) {
      return x_row == nullptr ? nullptr : x_row + j;
    };
    size_t j = 0;
    for (; j + 48 <= prefix; j += 48) {
      ProjectScatterStripe<12, 0>(row, nnz, ahead, cm + j, cm_stride, xm + j,
                                  x_at(j), xsum + j, out + j, out_stride,
                                  touched);
    }
    for (; j + 16 <= prefix; j += 16) {
      ProjectScatterStripe<4, 0>(row, nnz, ahead, cm + j, cm_stride, xm + j,
                                 x_at(j), xsum + j, out + j, out_stride,
                                 touched);
    }
    for (; j + 4 <= prefix; j += 4) {
      __m256d acc[1] = {
          GatherNarrow(CsrTerms{row}, nnz, ahead, cm + j, cm_stride)};
      CenterAndScatter<1, 0>(acc, acc[0], row, nnz, xm + j, x_at(j),
                             xsum + j, out + j, out_stride, touched);
    }
    if constexpr (kFinalNV > 0) {
      ProjectScatterStripe<kFinalNV, kRem>(row, nnz, ahead, cm + j, cm_stride,
                                           xm + j, x_at(j), xsum + j, out + j,
                                           out_stride, touched);
    }
  }
}

using RowLoop = decltype(&ProjectScatterRows<0, 0>);

// The row loop whose final stripe has kFinalNV vectors and a `rem`-column
// tail.
template <int kFinalNV>
RowLoop RowLoopWithTail(size_t rem) {
  return rem == 1   ? ProjectScatterRows<kFinalNV, 1>
         : rem == 2 ? ProjectScatterRows<kFinalNV, 2>
                    : ProjectScatterRows<kFinalNV, 3>;
}

}  // namespace

void SparseRowsProjectScatter(const uint64_t* row_ptr, size_t rows,
                              const SparseEntry* entries, const double* cm,
                              size_t cm_stride, const double* xm, size_t d,
                              double* x, size_t x_stride, double* xsum,
                              double* out, size_t out_stride,
                              uint8_t* touched) {
  // SparseRowGemv's stripe plan and accumulation chains, planned once per
  // call; each stripe of a row is centred and scattered before the next
  // one is gathered, so a d <= 51 row (d = 50 in every headline workload)
  // is one pass over its entries for the gather and one for the scatter.
  const size_t rem = d % 4;
  const size_t full = d - rem;
  const StripePlan plan = PlanStripes(full, rem);
  if (full > 0) {
    const RowLoop rows_fn = plan.final_nv == 12  ? RowLoopWithTail<12>(rem)
                            : plan.final_nv == 4 ? RowLoopWithTail<4>(rem)
                            : plan.final_nv == 1 ? RowLoopWithTail<1>(rem)
                                                 : ProjectScatterRows<0, 0>;
    rows_fn(row_ptr, rows, entries, cm, cm_stride, xm, plan.prefix, x,
            x_stride, xsum, out, out_stride, touched);
    return;
  }
  // d < 4: scalar columns, in the composite's order.
  for (size_t r = 0; r < rows; ++r) {
    const SparseEntry* row = entries + row_ptr[r];
    const size_t nnz = row_ptr[r + 1] - row_ptr[r];
    double xr[3];
    for (size_t j = 0; j < d; ++j) {
      xr[j] = (0.0 + GatherColumn(row, nnz, cm, cm_stride, j)) - xm[j];
      xsum[j] += xr[j];
      if (x != nullptr) x[r * x_stride + j] = xr[j];
    }
    for (size_t k = 0; k < nnz; ++k) {
      touched[row[k].index] = 1;
      double* out_row = out + row[k].index * out_stride;
      for (size_t c = 0; c < d; ++c) {
        out_row[c] = __builtin_fma(row[k].value, xr[c], out_row[c]);
      }
    }
  }
}

}  // namespace spca::linalg::kernels::avx2

#endif  // SPCA_KERNELS_HAVE_AVX2
