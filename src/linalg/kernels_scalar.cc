#include "linalg/kernel_dispatch.h"

#include <cstdint>

// Portable scalar kernel variants — the exact tier. These are the
// pre-SIMD kernel-layer loops, verbatim: unrolled only across
// *independent output elements*, reductions kept as one strictly
// sequential chain, and no FMA contraction (see the CMake flags on this
// file: -ffp-contract=off pins that down even at -O3). Per output
// element the floating-point operations execute in exactly the order of
// the original scalar triple loops, so a forced-scalar build reproduces
// tests/golden/fit_bits.golden bit for bit.

#if defined(__GNUC__) || defined(__clang__)
#define SPCA_RESTRICT __restrict__
#else
#define SPCA_RESTRICT
#endif

namespace spca::linalg::kernels::scalar {

void AxpyRow(double v, const double* b, size_t n, double* out) {
  const double* SPCA_RESTRICT bp = b;
  double* SPCA_RESTRICT op = out;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    op[j] += v * bp[j];
    op[j + 1] += v * bp[j + 1];
    op[j + 2] += v * bp[j + 2];
    op[j + 3] += v * bp[j + 3];
  }
  for (; j < n; ++j) op[j] += v * bp[j];
}

void AddRow(const double* b, size_t n, double* out) {
  const double* SPCA_RESTRICT bp = b;
  double* SPCA_RESTRICT op = out;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    op[j] += bp[j];
    op[j + 1] += bp[j + 1];
    op[j + 2] += bp[j + 2];
    op[j + 3] += bp[j + 3];
  }
  for (; j < n; ++j) op[j] += bp[j];
}

double DotRow(const double* a, const double* b, size_t n, double init) {
  // Unrolled for loop overhead only: the accumulator is one strictly
  // left-to-right dependency chain, never split into partial sums, so the
  // result is bit-identical to the naive loop (and to splicing into a
  // caller's running sum via `init`).
  double acc = init;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    acc += a[j] * b[j];
    acc += a[j + 1] * b[j + 1];
    acc += a[j + 2] * b[j + 2];
    acc += a[j + 3] * b[j + 3];
  }
  for (; j < n; ++j) acc += a[j] * b[j];
  return acc;
}

void Rank1Update(const double* a, size_t rows, const double* b, size_t cols,
                 double* out, size_t out_stride) {
  for (size_t i = 0; i < rows; ++i) {
    const double ai = a[i];
    if (ai == 0.0) continue;
    AxpyRow(ai, b, cols, out + i * out_stride);
  }
}

void SymRank1Update(const double* x, size_t d, double* out, size_t stride) {
  const double* SPCA_RESTRICT xp = x;
  for (size_t a = 0; a < d; ++a) {
    const double xa = xp[a];
    double* SPCA_RESTRICT row = out + a * stride;
    size_t b = a;
    for (; b + 4 <= d; b += 4) {
      row[b] += xa * xp[b];
      row[b + 1] += xa * xp[b + 1];
      row[b + 2] += xa * xp[b + 2];
      row[b + 3] += xa * xp[b + 3];
    }
    for (; b < d; ++b) row[b] += xa * xp[b];
  }
}

void SparseRowGemv(const SparseEntry* entries, size_t nnz, const double* b,
                   size_t b_stride, size_t d, double* out) {
  // Column-chunked: for each register-sized block of output columns, sweep
  // the entries innermost so the accumulators never leave registers. Per
  // output element the entries are still visited in CSR order, starting
  // from the prior out[] value — the same accumulation sequence as the
  // entry-outer scalar loop.
  constexpr size_t kChunk = 8;
  double* SPCA_RESTRICT op = out;
  size_t j = 0;
  for (; j + kChunk <= d; j += kChunk) {
    double acc0 = op[j], acc1 = op[j + 1], acc2 = op[j + 2], acc3 = op[j + 3];
    double acc4 = op[j + 4], acc5 = op[j + 5], acc6 = op[j + 6],
           acc7 = op[j + 7];
    for (size_t k = 0; k < nnz; ++k) {
      const double v = entries[k].value;
      const double* SPCA_RESTRICT row = b + entries[k].index * b_stride + j;
      acc0 += v * row[0];
      acc1 += v * row[1];
      acc2 += v * row[2];
      acc3 += v * row[3];
      acc4 += v * row[4];
      acc5 += v * row[5];
      acc6 += v * row[6];
      acc7 += v * row[7];
    }
    op[j] = acc0;
    op[j + 1] = acc1;
    op[j + 2] = acc2;
    op[j + 3] = acc3;
    op[j + 4] = acc4;
    op[j + 5] = acc5;
    op[j + 6] = acc6;
    op[j + 7] = acc7;
  }
  for (; j < d; ++j) {
    double acc = op[j];
    for (size_t k = 0; k < nnz; ++k) {
      acc += entries[k].value * b[entries[k].index * b_stride + j];
    }
    op[j] = acc;
  }
}

void SparseRowsProjectScatter(const uint64_t* row_ptr, size_t rows,
                              const SparseEntry* entries, const double* cm,
                              size_t cm_stride, const double* xm, size_t d,
                              double* x, size_t x_stride, double* xsum,
                              double* out, size_t out_stride,
                              uint8_t* touched) {
  // The per-row composite, step for step, on blocks of up to kBlock
  // columns of x held in a local buffer (one block for every d <= 64):
  // x starts at +0.0 (so signed zeros come out the same), then the row
  // product, the centring, the running sum and one axpy per stored entry.
  // Each element sees the composite's operations in the composite's
  // order, so this is exact tier, and x is written only for a caller that
  // reads it.
  constexpr size_t kBlock = 64;
  double xb[kBlock] = {};
  for (size_t r = 0; r < rows; ++r) {
    const SparseEntry* row = entries + row_ptr[r];
    const size_t nnz = row_ptr[r + 1] - row_ptr[r];
    for (size_t j = 0; j < d; j += kBlock) {
      const size_t width = d - j < kBlock ? d - j : kBlock;
      for (size_t c = 0; c < width; ++c) xb[c] = 0.0;
      SparseRowGemv(row, nnz, cm + j, cm_stride, width, xb);
      for (size_t c = 0; c < width; ++c) xb[c] -= xm[j + c];
      AddRow(xb, width, xsum + j);
      if (x != nullptr) {
        for (size_t c = 0; c < width; ++c) x[r * x_stride + j + c] = xb[c];
      }
      for (size_t k = 0; k < nnz; ++k) {
        touched[row[k].index] = 1;
        AxpyRow(row[k].value, xb, width, out + row[k].index * out_stride + j);
      }
    }
  }
}

void RowGemm(const double* a_row, size_t k, const double* b, size_t b_stride,
             size_t n, double* c_row) {
  for (size_t kk = 0; kk < k; ++kk) {
    const double aik = a_row[kk];
    if (aik == 0.0) continue;
    AxpyRow(aik, b + kk * b_stride, n, c_row);
  }
}

}  // namespace spca::linalg::kernels::scalar
