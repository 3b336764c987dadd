#ifndef SPCA_LINALG_KERNEL_DISPATCH_H_
#define SPCA_LINALG_KERNEL_DISPATCH_H_

#include <cstddef>
#include <cstdint>

#include "linalg/sparse_matrix.h"

// Runtime ISA dispatch for the linalg/kernels.h micro-kernels.
//
// Every kernel exists in up to two variants, each in its own translation
// unit compiled with the matching target flags:
//
//   kernels::scalar::*   portable C++, always compiled. Bit-identical to
//                        the pre-SIMD kernel layer (and therefore to the
//                        original scalar triple loops): element-wise
//                        unrolling only, single sequential reduction
//                        chains, no FMA contraction.
//   kernels::avx2::*     AVX2 + FMA (x86-64), compiled when the
//                        SPCA_SIMD CMake gate is on. Uses fused
//                        multiply-add and multi-accumulator reductions,
//                        so results can differ from scalar in the last
//                        ulps (see the two golden tiers in kernels.h).
//
// Every other platform (aarch64 included) runs the scalar tier.
//
// The public kernels in kernels.h forward through a function-pointer
// table resolved exactly once per process:
//
//   1. If SPCA_KERNEL_ISA=scalar|avx2 is set in the environment and that
//      ISA is compiled in and supported by the host, it is used (the
//      forced-scalar test/CI legs rely on this). An unavailable request
//      falls back to scalar with a one-time stderr warning — never to an
//      illegal instruction. An unknown value warns once and dispatches
//      as if unset.
//   2. Otherwise the best ISA the host supports wins: avx2 (CPUID check
//      for AVX2 *and* FMA) > scalar.
//
// Resolution is per-process, so any two computations in one process run
// on the same ISA — cross-run bit-identity properties (replay == live,
// batched == row-at-a-time, checkpoint/resume) are ISA-independent.

namespace spca::linalg::kernels {

enum class Isa { kScalar = 0, kAvx2 = 1 };

/// The ISA the function-pointer table resolved to (resolves on first
/// call). Stable for the lifetime of the process.
Isa DispatchedIsa();

/// "scalar" or "avx2".
const char* IsaName(Isa isa);
const char* DispatchedIsaName();

/// True when the variant is compiled in AND the host can execute it.
bool IsaAvailable(Isa isa);

// Per-ISA variants, directly callable regardless of what the dispatcher
// picked. The property tests compare every SIMD kernel against its
// scalar twin through these; benches use them for per-ISA timings.

#define SPCA_KERNEL_SIGNATURES                                               \
  void AxpyRow(double v, const double* b, size_t n, double* out);            \
  void AddRow(const double* b, size_t n, double* out);                       \
  double DotRow(const double* a, const double* b, size_t n,                  \
                double init = 0.0);                                          \
  void Rank1Update(const double* a, size_t rows, const double* b,            \
                   size_t cols, double* out, size_t out_stride);             \
  void SymRank1Update(const double* x, size_t d, double* out,                \
                      size_t stride);                                        \
  void SymRank1UpdateRows(const double* x, size_t d, size_t row_begin,       \
                          size_t row_end, double* out, size_t stride);       \
  void SparseRowGemv(const SparseEntry* entries, size_t nnz,                 \
                     const double* b, size_t b_stride, size_t d,             \
                     double* out);                                           \
  void SparseRowsProjectScatter(                                             \
      const uint64_t* row_ptr, size_t rows, const SparseEntry* entries,      \
      const double* cm, size_t cm_stride, const double* xm, size_t d,        \
      double* x, size_t x_stride, double* xsum, double* out,                 \
      size_t out_stride, uint8_t* touched);                                  \
  void RowGemm(const double* a_row, size_t k, const double* b,               \
               size_t b_stride, size_t n, double* c_row);

namespace scalar {
SPCA_KERNEL_SIGNATURES
}  // namespace scalar

#if defined(SPCA_KERNELS_HAVE_AVX2)
namespace avx2 {
SPCA_KERNEL_SIGNATURES
}  // namespace avx2
#endif

#undef SPCA_KERNEL_SIGNATURES

}  // namespace spca::linalg::kernels

#endif  // SPCA_LINALG_KERNEL_DISPATCH_H_
