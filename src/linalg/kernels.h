#ifndef SPCA_LINALG_KERNELS_H_
#define SPCA_LINALG_KERNELS_H_

#include <cstddef>
#include <cstdint>

#include "linalg/kernel_dispatch.h"
#include "linalg/sparse_matrix.h"

namespace spca::linalg::kernels {

// Cache-friendly micro-kernels for the per-row operations that dominate the
// EM inner loops (Section 3.3's in-memory multiplication and the XtX / YtX
// accumulations). All kernels operate on contiguous double* rows obtained
// via DenseMatrix::RowPtr() and dispatch at runtime to the widest ISA the
// host supports (scalar / AVX2+FMA; see kernel_dispatch.h, and the
// SPCA_KERNEL_ISA env override).
//
// Numerics come in two tiers:
//
//  - Exact tier (scalar dispatch, and AddRow on every ISA): per output
//    element the floating-point operations execute in exactly the order
//    of the original scalar loops, so everything downstream is
//    bit-identical to the pre-kernel-layer implementation
//    (tests/golden/fit_bits.golden, compared bit-for-bit).
//  - Tolerance tier (AVX2 dispatch): fused multiply-adds round once
//    instead of twice and reductions run multiple accumulators, so
//    results agree with the scalar twins to ~1e-12 relative (enforced
//    per kernel by kernels_test's SIMD-vs-scalar property suites, and
//    end-to-end by the tolerance-tier fit golden comparison).
//
// Within one process the dispatched ISA never changes, so run-vs-run
// bit-identity properties (replay == live, batched == row-at-a-time,
// checkpoint/resume) hold on every ISA.
//
// Buffer contract (SparseRowGemv / RowGemm, and SparseRowsProjectScatter's
// `cm`): the matrix argument `b` must have at least 32 READABLE bytes past
// its last element — the SIMD tail vector of the final column stripe
// over-reads (never writes) up to 3 doubles beyond a logical row end and
// discards the surplus lanes with a masked store. AlignedDoubleBuffer
// (every DenseMatrix / DenseVector) provides this via zeroed allocator
// tail padding; callers handing in raw arrays must provide the slack
// themselves. See common/aligned.h and DESIGN.md par.8.

/// out[j] += v * b[j] for j in [0, n). The axpy at the heart of every
/// row-times-matrix product and outer-product accumulation.
void AxpyRow(double v, const double* b, size_t n, double* out);

/// out[j] += b[j] for j in [0, n) (the v == 1 axpy without the multiply).
/// Exact tier on every ISA: vector adds per element, no reassociation.
void AddRow(const double* b, size_t n, double* out);

/// Returns init + sum_j a[j] * b[j]. Scalar dispatch accumulates strictly
/// left to right (a single dependency chain — pass the running sum as
/// `init` to splice the product terms into an existing chain
/// bit-identically); SIMD dispatch reduces with parallel accumulators
/// (tolerance tier).
double DotRow(const double* a, const double* b, size_t n, double init = 0.0);

/// out(i, j) += a[i] * b[j] over the full rows x cols rectangle, where out
/// is row-major with the given stride. Rows with a[i] == 0 are skipped
/// (matching the scalar loops this replaces).
void Rank1Update(const double* a, size_t rows, const double* b, size_t cols,
                 double* out, size_t out_stride);

/// out += x * x' for a symmetric d x d accumulator (the XtX update),
/// touching the upper triangle (including the diagonal) ONLY — half the
/// multiply-adds of the full rectangle. Callers accumulate any number of
/// rows this way and then mirror once per partition with SymMirrorLower.
/// Since IEEE multiplication is exactly commutative (x[a]*x[b] ==
/// x[b]*x[a] bitwise), upper-then-mirror matches the full-rectangle
/// update it replaces (exactly on the scalar path, within the tolerance
/// tier under SIMD).
void SymRank1Update(const double* x, size_t d, double* out, size_t stride);

/// SymRank1Update restricted to the upper-triangle rows [row_begin,
/// row_end): out(a - row_begin, b) += x[a] * x[b] for a in the range and b
/// in [a, d), so row row_begin of the triangle is row 0 of `out`. Each
/// entry's arithmetic is the whole update's, so split ranges reproduce it
/// bit for bit; SymRank1Update is this over [0, d).
void SymRank1UpdateRows(const double* x, size_t d, size_t row_begin,
                        size_t row_end, double* out, size_t stride);

/// Copies the upper triangle of a d x d row-major matrix into its lower
/// triangle (the finishing step after a run of SymRank1Update calls).
/// Pure copies — bit-identical on every ISA.
void SymMirrorLower(double* out, size_t d, size_t stride);

/// out[j] += sum_k entries[k].value * b(entries[k].index, j) for j in
/// [0, d): one CSR row times a dense (D x d) matrix with row stride
/// b_stride. Columns are processed in register-sized stripes, iterating
/// the entries innermost, so the accumulators stay in registers instead
/// of round-tripping through out[] once per entry; the SIMD paths also
/// software-prefetch the gathered b rows (the CSR indices defeat the
/// hardware prefetcher).
void SparseRowGemv(const SparseEntry* entries, size_t nnz, const double* b,
                   size_t b_stride, size_t d, double* out);

/// The YtX pass with mean propagation (Algorithm 5) over a run of CSR
/// rows, fused into one call. Row r (r in [0, rows)) holds the entries
/// entries[row_ptr[r] .. row_ptr[r + 1]); for each row in order:
///   x_r   = sum_k entries[k].value * cm(entries[k].index, :) - xm
///   xsum += x_r
///   out(entries[k].index, :) += entries[k].value * x_r, and
///   touched[entries[k].index] = 1, for every stored entry k of the row
/// over d columns, with cm and out row-major of strides cm_stride and
/// out_stride. x_r is written to x + r * x_stride only when x is not null
/// (a caller that reads X passes a block of a few rows at a time; one that
/// does not passes null and a whole task's rows).
///
/// Per output element the operations and their order are those of the
/// per-row composite, so the result does not depend on how a run of rows
/// is split into calls: the scalar variant is that composite (SparseRowGemv
/// into a zeroed x, x -= xm, AddRow into xsum, one AxpyRow per entry) and
/// is exact tier; the SIMD variant keeps SparseRowGemv's stripe plan and
/// accumulation chains and AxpyRow's fused multiply-add, chooses the plan
/// once per call and holds each stripe of x in registers from the gather
/// through the scatter. `cm` carries SparseRowGemv's over-read contract
/// (any row an entry names, the last one included, may be read up to 32
/// bytes past column d - 1); no byte of x, xsum or out past column d - 1
/// is written, and no row of out that no entry names is touched.
void SparseRowsProjectScatter(const uint64_t* row_ptr, size_t rows,
                              const SparseEntry* entries, const double* cm,
                              size_t cm_stride, const double* xm, size_t d,
                              double* x, size_t x_stride, double* xsum,
                              double* out, size_t out_stride,
                              uint8_t* touched);

/// c_row[j] += sum_k a_row[k] * b(k, j): one output row of C = A * B with
/// b row-major of stride b_stride. The scalar path skips zero a_row[k]
/// (matching the original loops); the SIMD paths hold register-resident
/// column stripes of c across the entire k sweep (b is streamed through
/// sequentially exactly once per stripe), with a 1-3 column remainder
/// riding in the final stripe's over-reading tail vector.
void RowGemm(const double* a_row, size_t k, const double* b, size_t b_stride,
             size_t n, double* c_row);

}  // namespace spca::linalg::kernels

#endif  // SPCA_LINALG_KERNELS_H_
