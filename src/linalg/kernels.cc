#include "linalg/kernels.h"

// Runtime ISA dispatch for the micro-kernels. The per-ISA variants live
// in their own translation units (kernels_scalar.cc, kernels_avx2.cc)
// compiled with the matching target flags; this TU owns the one-time
// resolution of a function-pointer table and the thin public forwarding
// shims. See kernel_dispatch.h for the resolution rules
// (SPCA_KERNEL_ISA env override, then best host-supported ISA).

#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace spca::linalg::kernels {
namespace {

struct KernelTable {
  Isa isa;
  void (*axpy_row)(double, const double*, size_t, double*);
  void (*add_row)(const double*, size_t, double*);
  double (*dot_row)(const double*, const double*, size_t, double);
  void (*rank1_update)(const double*, size_t, const double*, size_t, double*,
                       size_t);
  void (*sym_rank1_update_rows)(const double*, size_t, size_t, size_t,
                                double*, size_t);
  void (*sparse_row_gemv)(const SparseEntry*, size_t, const double*, size_t,
                          size_t, double*);
  void (*sparse_rows_project_scatter)(const uint64_t*, size_t,
                                      const SparseEntry*, const double*,
                                      size_t, const double*, size_t, double*,
                                      size_t, double*, double*, size_t,
                                      uint8_t*);
  void (*row_gemm)(const double*, size_t, const double*, size_t, size_t,
                   double*);
};

constexpr KernelTable kScalarTable = {
    Isa::kScalar,       scalar::AxpyRow,       scalar::AddRow,
    scalar::DotRow,     scalar::Rank1Update,   scalar::SymRank1UpdateRows,
    scalar::SparseRowGemv, scalar::SparseRowsProjectScatter, scalar::RowGemm,
};

#if defined(SPCA_KERNELS_HAVE_AVX2)
constexpr KernelTable kAvx2Table = {
    Isa::kAvx2,       avx2::AxpyRow,       avx2::AddRow,
    avx2::DotRow,     avx2::Rank1Update,   avx2::SymRank1UpdateRows,
    avx2::SparseRowGemv, avx2::SparseRowsProjectScatter, avx2::RowGemm,
};
#endif

const KernelTable* TableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return &kScalarTable;
#if defined(SPCA_KERNELS_HAVE_AVX2)
    case Isa::kAvx2:
      return &kAvx2Table;
#endif
    default:
      return nullptr;
  }
}

Isa BestSupportedIsa() {
#if defined(SPCA_KERNELS_HAVE_AVX2)
  // FMA is checked separately from AVX2: the avx2 TU uses vfmadd
  // throughout, and a few early AVX2 parts lack FMA.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Isa::kAvx2;
  }
#endif
  return Isa::kScalar;
}

const KernelTable* Resolve() {
  Isa choice = BestSupportedIsa();
  if (const char* env = std::getenv("SPCA_KERNEL_ISA");
      env != nullptr && env[0] != '\0') {
    Isa requested = choice;
    bool known = true;
    if (std::strcmp(env, "scalar") == 0) {
      requested = Isa::kScalar;
    } else if (std::strcmp(env, "avx2") == 0) {
      requested = Isa::kAvx2;
    } else {
      known = false;
      std::fprintf(stderr,
                   "spca: unknown SPCA_KERNEL_ISA='%s' (want scalar|avx2); "
                   "dispatching %s\n",
                   env, IsaName(choice));
    }
    if (known) {
      if (IsaAvailable(requested)) {
        choice = requested;
      } else {
        // Never dispatch an ISA the host cannot execute; fall back to
        // scalar (not "best") so a forced run is at least deterministic.
        choice = Isa::kScalar;
        std::fprintf(stderr,
                     "spca: SPCA_KERNEL_ISA=%s not available on this "
                     "host/build; dispatching scalar\n",
                     env);
      }
    }
  }
  return TableFor(choice);
}

const KernelTable& Table() {
  static const KernelTable* table = Resolve();  // once, thread-safe
  return *table;
}

}  // namespace

Isa DispatchedIsa() { return Table().isa; }

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

const char* DispatchedIsaName() { return IsaName(DispatchedIsa()); }

bool IsaAvailable(Isa isa) {
  if (isa == Isa::kScalar) return true;
#if defined(SPCA_KERNELS_HAVE_AVX2)
  if (isa == Isa::kAvx2) {
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  }
#endif
  return false;
}

void AxpyRow(double v, const double* b, size_t n, double* out) {
  Table().axpy_row(v, b, n, out);
}

void AddRow(const double* b, size_t n, double* out) {
  Table().add_row(b, n, out);
}

double DotRow(const double* a, const double* b, size_t n, double init) {
  return Table().dot_row(a, b, n, init);
}

void Rank1Update(const double* a, size_t rows, const double* b, size_t cols,
                 double* out, size_t out_stride) {
  Table().rank1_update(a, rows, b, cols, out, out_stride);
}

void SymRank1Update(const double* x, size_t d, double* out, size_t stride) {
  Table().sym_rank1_update_rows(x, d, 0, d, out, stride);
}

void SymRank1UpdateRows(const double* x, size_t d, size_t row_begin,
                        size_t row_end, double* out, size_t stride) {
  Table().sym_rank1_update_rows(x, d, row_begin, row_end, out, stride);
}

void SymMirrorLower(double* out, size_t d, size_t stride) {
  // Pure copies — one implementation serves every ISA bit-identically.
  for (size_t a = 1; a < d; ++a) {
    double* row = out + a * stride;
    for (size_t b = 0; b < a; ++b) row[b] = out[b * stride + a];
  }
}

void SparseRowGemv(const SparseEntry* entries, size_t nnz, const double* b,
                   size_t b_stride, size_t d, double* out) {
  Table().sparse_row_gemv(entries, nnz, b, b_stride, d, out);
}

void SparseRowsProjectScatter(const uint64_t* row_ptr, size_t rows,
                              const SparseEntry* entries, const double* cm,
                              size_t cm_stride, const double* xm, size_t d,
                              double* x, size_t x_stride, double* xsum,
                              double* out, size_t out_stride,
                              uint8_t* touched) {
  Table().sparse_rows_project_scatter(row_ptr, rows, entries, cm, cm_stride,
                                      xm, d, x, x_stride, xsum, out,
                                      out_stride, touched);
}

void RowGemm(const double* a_row, size_t k, const double* b, size_t b_stride,
             size_t n, double* c_row) {
  Table().row_gemm(a_row, k, b, b_stride, n, c_row);
}

}  // namespace spca::linalg::kernels
