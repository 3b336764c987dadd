// NEON kernel variants (aarch64, where Advanced SIMD is baseline — no
// runtime feature check needed beyond being compiled for the target).
// Same numerical classification as the AVX2 TU: fused multiply-adds and
// multi-accumulator reductions put every kernel except AddRow in the
// 1e-12 tolerance tier; AddRow (pure adds, no reduction) stays
// bit-identical to scalar.

#include "linalg/kernel_dispatch.h"

#if defined(SPCA_KERNELS_HAVE_NEON)

#include <arm_neon.h>

namespace spca::linalg::kernels::neon {
namespace {

inline void AxpyRowImpl(double v, const double* b, size_t n, double* out) {
  const float64x2_t vv = vdupq_n_f64(v);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    vst1q_f64(out + j, vfmaq_f64(vld1q_f64(out + j), vv, vld1q_f64(b + j)));
    vst1q_f64(out + j + 2,
              vfmaq_f64(vld1q_f64(out + j + 2), vv, vld1q_f64(b + j + 2)));
    vst1q_f64(out + j + 4,
              vfmaq_f64(vld1q_f64(out + j + 4), vv, vld1q_f64(b + j + 4)));
    vst1q_f64(out + j + 6,
              vfmaq_f64(vld1q_f64(out + j + 6), vv, vld1q_f64(b + j + 6)));
  }
  for (; j + 2 <= n; j += 2) {
    vst1q_f64(out + j, vfmaq_f64(vld1q_f64(out + j), vv, vld1q_f64(b + j)));
  }
  for (; j < n; ++j) out[j] = __builtin_fma(v, b[j], out[j]);
}

}  // namespace

void AxpyRow(double v, const double* b, size_t n, double* out) {
  AxpyRowImpl(v, b, n, out);
}

void AddRow(const double* b, size_t n, double* out) {
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    vst1q_f64(out + j, vaddq_f64(vld1q_f64(out + j), vld1q_f64(b + j)));
    vst1q_f64(out + j + 2,
              vaddq_f64(vld1q_f64(out + j + 2), vld1q_f64(b + j + 2)));
  }
  for (; j < n; ++j) out[j] += b[j];
}

double DotRow(const double* a, const double* b, size_t n, double init) {
  float64x2_t acc0 = vdupq_n_f64(0.0);
  float64x2_t acc1 = vdupq_n_f64(0.0);
  float64x2_t acc2 = vdupq_n_f64(0.0);
  float64x2_t acc3 = vdupq_n_f64(0.0);
  size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(a + j), vld1q_f64(b + j));
    acc1 = vfmaq_f64(acc1, vld1q_f64(a + j + 2), vld1q_f64(b + j + 2));
    acc2 = vfmaq_f64(acc2, vld1q_f64(a + j + 4), vld1q_f64(b + j + 4));
    acc3 = vfmaq_f64(acc3, vld1q_f64(a + j + 6), vld1q_f64(b + j + 6));
  }
  for (; j + 2 <= n; j += 2) {
    acc0 = vfmaq_f64(acc0, vld1q_f64(a + j), vld1q_f64(b + j));
  }
  double sum =
      vaddvq_f64(vaddq_f64(vaddq_f64(acc0, acc1), vaddq_f64(acc2, acc3)));
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
  for (size_t a = 0; a < d; ++a) {
    const double xa = x[a];
    double* row = out + a * stride;
    const float64x2_t vv = vdupq_n_f64(xa);
    size_t b = a;
    for (; b + 4 <= d; b += 4) {
      vst1q_f64(row + b, vfmaq_f64(vld1q_f64(row + b), vv, vld1q_f64(x + b)));
      vst1q_f64(row + b + 2,
                vfmaq_f64(vld1q_f64(row + b + 2), vv, vld1q_f64(x + b + 2)));
    }
    for (; b + 2 <= d; b += 2) {
      vst1q_f64(row + b, vfmaq_f64(vld1q_f64(row + b), vv, vld1q_f64(x + b)));
    }
    for (; b < d; ++b) row[b] = __builtin_fma(xa, x[b], row[b]);
  }
}

void SparseRowGemv(const SparseEntry* entries, size_t nnz, const double* b,
                   size_t b_stride, size_t d, double* out) {
  constexpr size_t kPrefetchAhead = 8;
  size_t j = 0;
  for (; j + 8 <= d; j += 8) {
    float64x2_t acc0 = vld1q_f64(out + j);
    float64x2_t acc1 = vld1q_f64(out + j + 2);
    float64x2_t acc2 = vld1q_f64(out + j + 4);
    float64x2_t acc3 = vld1q_f64(out + j + 6);
    for (size_t k = 0; k < nnz; ++k) {
      if (k + kPrefetchAhead < nnz) {
        __builtin_prefetch(b + entries[k + kPrefetchAhead].index * b_stride +
                           j);
      }
      const float64x2_t vv = vdupq_n_f64(entries[k].value);
      const double* row = b + entries[k].index * b_stride + j;
      acc0 = vfmaq_f64(acc0, vv, vld1q_f64(row));
      acc1 = vfmaq_f64(acc1, vv, vld1q_f64(row + 2));
      acc2 = vfmaq_f64(acc2, vv, vld1q_f64(row + 4));
      acc3 = vfmaq_f64(acc3, vv, vld1q_f64(row + 6));
    }
    vst1q_f64(out + j, acc0);
    vst1q_f64(out + j + 2, acc1);
    vst1q_f64(out + j + 4, acc2);
    vst1q_f64(out + j + 6, acc3);
  }
  for (; j + 2 <= d; j += 2) {
    float64x2_t acc = vld1q_f64(out + j);
    for (size_t k = 0; k < nnz; ++k) {
      acc = vfmaq_f64(acc, vdupq_n_f64(entries[k].value),
                      vld1q_f64(b + entries[k].index * b_stride + j));
    }
    vst1q_f64(out + j, acc);
  }
  for (; j < d; ++j) {
    double acc = out[j];
    for (size_t k = 0; k < nnz; ++k) {
      acc = __builtin_fma(entries[k].value,
                          b[entries[k].index * b_stride + j], acc);
    }
    out[j] = acc;
  }
}

void SparseRowProjectScatter(const SparseEntry* entries, size_t nnz,
                             const double* cm, size_t cm_stride,
                             const double* xm, size_t d, double* x,
                             double* xsum, double* out, size_t out_stride) {
  // Composed from the NEON kernels above, in the scalar composite's order.
  for (size_t j = 0; j < d; ++j) x[j] = 0.0;
  SparseRowGemv(entries, nnz, cm, cm_stride, d, x);
  for (size_t j = 0; j < d; ++j) x[j] -= xm[j];
  AddRow(x, d, xsum);
  for (size_t k = 0; k < nnz; ++k) {
    AxpyRowImpl(entries[k].value, x, d, out + entries[k].index * out_stride);
  }
}

void RowGemm(const double* a_row, size_t k, const double* b, size_t b_stride,
             size_t n, double* c_row) {
  constexpr size_t kKBlock = 64;
  for (size_t k0 = 0; k0 < k; k0 += kKBlock) {
    const size_t k1 = k0 + kKBlock < k ? k0 + kKBlock : k;
    size_t j = 0;
    for (; j + 8 <= n; j += 8) {
      float64x2_t acc0 = vld1q_f64(c_row + j);
      float64x2_t acc1 = vld1q_f64(c_row + j + 2);
      float64x2_t acc2 = vld1q_f64(c_row + j + 4);
      float64x2_t acc3 = vld1q_f64(c_row + j + 6);
      for (size_t kk = k0; kk < k1; ++kk) {
        const float64x2_t vv = vdupq_n_f64(a_row[kk]);
        const double* row = b + kk * b_stride + j;
        acc0 = vfmaq_f64(acc0, vv, vld1q_f64(row));
        acc1 = vfmaq_f64(acc1, vv, vld1q_f64(row + 2));
        acc2 = vfmaq_f64(acc2, vv, vld1q_f64(row + 4));
        acc3 = vfmaq_f64(acc3, vv, vld1q_f64(row + 6));
      }
      vst1q_f64(c_row + j, acc0);
      vst1q_f64(c_row + j + 2, acc1);
      vst1q_f64(c_row + j + 4, acc2);
      vst1q_f64(c_row + j + 6, acc3);
    }
    for (; j + 2 <= n; j += 2) {
      float64x2_t acc = vld1q_f64(c_row + j);
      for (size_t kk = k0; kk < k1; ++kk) {
        acc = vfmaq_f64(acc, vdupq_n_f64(a_row[kk]),
                        vld1q_f64(b + kk * b_stride + j));
      }
      vst1q_f64(c_row + j, acc);
    }
    for (; j < n; ++j) {
      double acc = c_row[j];
      for (size_t kk = k0; kk < k1; ++kk) {
        acc = __builtin_fma(a_row[kk], b[kk * b_stride + j], acc);
      }
      c_row[j] = acc;
    }
  }
}

}  // namespace spca::linalg::kernels::neon

#endif  // SPCA_KERNELS_HAVE_NEON
