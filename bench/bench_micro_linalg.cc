// Micro-benchmarks for the linear-algebra kernels underlying every PCA
// method in the repository: dense GEMM variants, the broadcast-style
// row-times-matrix product (Section 3.3's in-memory multiplication),
// sparse row products, and the small-matrix decompositions the drivers
// run (Cholesky solve, symmetric eigen, SVD).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <vector>

#include "common/rng.h"
#include "core/reconstruction_error.h"
#include "dist/dist_matrix.h"
#include "linalg/eigen_sym.h"
#include "linalg/kernels.h"
#include "linalg/ops.h"
#include "linalg/qr.h"
#include "linalg/solve.h"
#include "linalg/svd.h"
#include "serve/projector.h"
#include "workload/synthetic.h"

namespace spca::linalg {
namespace {

DenseMatrix Random(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  return DenseMatrix::GaussianRandom(rows, cols, &rng);
}

// ---- Naive references: the pre-kernel-layer scalar loops ---------------
//
// Verbatim copies of the element-indexed triple loops the kernel layer
// replaced, kept here so the naive-vs-kernel pairs below measure the
// before/after of the rewrite on the exact hot-loop shapes (tracked in
// BENCH_kernels.json via tools/bench_kernels.sh).

DenseVector NaiveSparseRowTimesMatrix(const SparseRowView& row,
                                      const DenseMatrix& b) {
  DenseVector out(b.cols());
  for (const auto& e : row) {
    for (size_t j = 0; j < b.cols(); ++j) out[j] += e.value * b(e.index, j);
  }
  return out;
}

void NaiveRank1Update(const DenseVector& a, const DenseVector& b,
                      DenseMatrix* out) {
  for (size_t i = 0; i < a.size(); ++i) {
    const double ai = a[i];
    if (ai == 0.0) continue;
    for (size_t j = 0; j < b.size(); ++j) (*out)(i, j) += ai * b[j];
  }
}

void NaiveXtXUpdate(const DenseVector& x, DenseMatrix* xtx) {
  const size_t d = x.size();
  for (size_t a = 0; a < d; ++a) {
    const double xa = x[a];
    for (size_t b = 0; b < d; ++b) (*xtx)(a, b) += xa * x[b];
  }
}

DenseVector NaiveRowTimesMatrix(const DenseVector& row,
                                const DenseMatrix& b) {
  DenseVector out(b.cols());
  for (size_t k = 0; k < b.rows(); ++k) {
    const double v = row[k];
    if (v == 0.0) continue;
    for (size_t j = 0; j < b.cols(); ++j) out[j] += v * b(k, j);
  }
  return out;
}

SparseVector MakeSparseRow(size_t dim, size_t nnz, uint64_t seed) {
  Rng rng(seed);
  std::vector<SparseEntry> entries;
  for (size_t k = 0; k < nnz; ++k) {
    entries.push_back({static_cast<uint32_t>(k * dim / nnz),
                       rng.NextGaussian()});
  }
  return SparseVector(std::move(entries), dim);
}

// ---- Naive-vs-kernel pairs (state.range(0) = nnz or d) -----------------

// Input of the SparseRowDense pair: one 16000 x 50 (6.4 MB) matrix and one
// row per nnz, built once per process. Both sides gather from the same
// memory, so their ratio measures the loops rather than where each side's
// own copy of the matrix happened to land.
constexpr size_t kSparseRowDenseDim = 16000;

const DenseMatrix& SparseRowDenseMatrix() {
  static const DenseMatrix b = Random(kSparseRowDenseDim, 50, 7);
  return b;
}

const SparseVector& SparseRowDenseRow(size_t nnz) {
  static std::map<size_t, SparseVector> rows;
  return rows.emplace(nnz, MakeSparseRow(kSparseRowDenseDim, nnz, 21))
      .first->second;
}

void BM_NaiveSparseRowDense(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  const DenseMatrix& b = SparseRowDenseMatrix();
  const SparseVector& row = SparseRowDenseRow(nnz);
  for (auto _ : state) {
    benchmark::DoNotOptimize(NaiveSparseRowTimesMatrix(row.View(), b));
  }
  state.SetItemsProcessed(state.iterations() * nnz * b.cols());
}
BENCHMARK(BM_NaiveSparseRowDense)->Arg(10)->Arg(100);

void BM_KernelSparseRowDense(benchmark::State& state) {
  const size_t nnz = static_cast<size_t>(state.range(0));
  const DenseMatrix& b = SparseRowDenseMatrix();
  const SparseVector& row = SparseRowDenseRow(nnz);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SparseRowTimesMatrix(row.View(), b));
  }
  state.SetItemsProcessed(state.iterations() * nnz * b.cols());
}
BENCHMARK(BM_KernelSparseRowDense)->Arg(10)->Arg(100);

// Tweets-shaped rows: ~10 stored entries each over a Zipf vocabulary.
SparseMatrix TweetsRows(size_t rows, size_t dim) {
  workload::BagOfWordsConfig config;
  config.rows = rows;
  config.vocab = dim;
  config.words_per_row = 10.0;
  config.zipf_exponent = 1.1;
  config.num_topics = 25;
  config.seed = 32;
  return workload::GenerateBagOfWords(config);
}

// One YtXJob task's row loop (Algorithm 5 with mean propagation): the
// 12,500 tweets-shaped rows of one fit_tweets partition (200k rows over 16
// partitions, ~10 stored entries each) against a D = 2000 by d broadcast
// CM and the task's YtX partial, with the rows built once per process. The
// naive side is the per-row composite of dispatched kernels that the range
// kernel replaced: the sparse row product into a zeroed x, the centring,
// the Xc sum and one AxpyRow per stored entry, row by row. The kernel side
// is one SparseRowsProjectScatter call over the rows, X not read back.
struct YtXTaskCase {
  static constexpr size_t kDim = 2000;
  static constexpr size_t kRows = 12500;
  explicit YtXTaskCase(size_t d)
      : cm(Random(kDim, d, 31)),
        xm(d),
        x(d),
        xsum(d),
        ytx(kDim, d),
        touched(kDim, 0) {
    Rng rng(33);
    for (size_t j = 0; j < d; ++j) xm[j] = rng.NextGaussian();
  }
  static const SparseMatrix& Rows() {
    static const SparseMatrix rows = TweetsRows(kRows, kDim);
    return rows;
  }

  DenseMatrix cm;
  DenseVector xm, x, xsum;
  DenseMatrix ytx;
  std::vector<uint8_t> touched;
};

void BM_NaiveYtXTask(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  YtXTaskCase c(d);
  const SparseMatrix& rows = YtXTaskCase::Rows();
  for (auto _ : state) {
    for (size_t i = 0; i < rows.rows(); ++i) {
      const SparseRowView row = rows.Row(i);
      c.x.SetZero();
      kernels::SparseRowGemv(row.begin(), row.nnz(), c.cm.data(),
                             c.cm.row_stride(), d, c.x.data());
      c.x.Subtract(c.xm);
      c.xsum.Add(c.x);
      for (const auto& e : row) {
        c.touched[e.index] = 1;
        kernels::AxpyRow(e.value, c.x.data(), d, c.ytx.RowPtr(e.index));
      }
    }
    benchmark::DoNotOptimize(c.ytx.data());
  }
  state.SetItemsProcessed(state.iterations() * rows.rows());
}
BENCHMARK(BM_NaiveYtXTask)->Arg(50);

void BM_KernelYtXTask(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  YtXTaskCase c(d);
  const SparseMatrix& rows = YtXTaskCase::Rows();
  for (auto _ : state) {
    kernels::SparseRowsProjectScatter(
        rows.row_ptr(), rows.rows(), rows.entries(), c.cm.data(),
        c.cm.row_stride(), c.xm.data(), d, nullptr, 0, c.xsum.data(),
        c.ytx.data(), c.ytx.row_stride(), c.touched.data());
    benchmark::DoNotOptimize(c.ytx.data());
  }
  state.SetItemsProcessed(state.iterations() * rows.rows());
}
BENCHMARK(BM_KernelYtXTask)->Arg(50);

// The accuracy metric's error sample (Section 5): 256 tweets-shaped rows
// at D = 2000 against a Gaussian d = 50 basis C and the sample's mean. The
// naive side is the projector core::SampledReconstructionError ran before
// it went through C's Gram matrix: the two-pass MGS basis B, one RowGemm
// over B' per row and the absent-entry 1-norm in one chain. The kernel
// side is the library call, C'C formed inside it.
struct ErrorSampleCase {
  static constexpr size_t kComponents = 50;
  explicit ErrorSampleCase(size_t dim)
      : sample(dist::DistMatrix::FromSparse(TweetsRows(256, dim), 1)),
        components(Random(dim, kComponents, 35)),
        mean(sample.ColumnMeans()) {}

  dist::DistMatrix sample;
  DenseMatrix components;
  DenseVector mean;
};

double NaiveErrorSample(const ErrorSampleCase& c) {
  const DenseMatrix basis = OrthonormalizeColumns(c.components);
  const size_t d = basis.cols();
  const size_t dim = c.sample.cols();
  const DenseVector mean_projection = TransposeMultiplyVector(basis, c.mean);
  const DenseMatrix basis_t = basis.Transpose();
  DenseVector projected(d);
  DenseVector reconstructed(dim);
  double error_norm = 0.0;
  double data_norm = 0.0;
  for (size_t i = 0; i < c.sample.rows(); ++i) {
    c.sample.RowTimesMatrix(i, basis, &projected);
    projected.Subtract(mean_projection);
    std::copy(c.mean.data(), c.mean.data() + dim, reconstructed.data());
    kernels::RowGemm(projected.data(), d, basis_t.data(),
                     basis_t.row_stride(), dim, reconstructed.data());
    double absent = 0.0;
    for (size_t k = 0; k < dim; ++k) absent += std::fabs(reconstructed[k]);
    double present = 0.0;
    double row_norm = 0.0;
    c.sample.ForEachEntry(i, [&](size_t k, double v) {
      present += std::fabs(v - reconstructed[k]) - std::fabs(reconstructed[k]);
      row_norm += std::fabs(v);
    });
    error_norm += absent + present;
    data_norm += row_norm;
  }
  return error_norm / data_norm;
}

void BM_NaiveErrorSample(benchmark::State& state) {
  const ErrorSampleCase c(static_cast<size_t>(state.range(0)));
  for (auto _ : state) benchmark::DoNotOptimize(NaiveErrorSample(c));
  state.SetItemsProcessed(state.iterations() * c.sample.rows());
}
BENCHMARK(BM_NaiveErrorSample)->Arg(2000);

void BM_KernelErrorSample(benchmark::State& state) {
  const ErrorSampleCase c(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::SampledReconstructionError(c.sample, c.components, c.mean));
  }
  state.SetItemsProcessed(state.iterations() * c.sample.rows());
}
BENCHMARK(BM_KernelErrorSample)->Arg(2000);

// One serving query (Projector::ProjectSparse) at D = 2000, d = 50 on a
// model fitted to nothing in particular (Gaussian C, the rows' own mean,
// ss = 0.1), cycling through tweets-shaped rows. The naive side is the
// query before the Projector served through the E-step map: the sparse
// product over C into a fresh scratch row, minus C' * mean, then one
// RowGemm by the d x d (C'C + ss*I)^-1. The kernel side is the library
// call: one sparse product over CM = C * M^-1, minus Xm.
struct ProjectSparseCase {
  static constexpr size_t kComponents = 50;
  explicit ProjectSparseCase(size_t dim) : rows(TweetsRows(4096, dim)) {
    model.components = Random(dim, kComponents, 37);
    model.mean = rows.ColumnMeans();
    model.noise_variance = 0.1;
    DenseMatrix m = TransposeMultiply(model.components, model.components);
    m.AddScaledIdentity(model.noise_variance);
    factor = Inverse(m).value();
    mean_projection = TransposeMultiplyVector(model.components, model.mean);
  }
  SparseRowView NextRow() {
    next = next + 1 == rows.rows() ? 0 : next + 1;
    return rows.Row(next);
  }

  core::PcaModel model;
  DenseMatrix factor;
  DenseVector mean_projection;
  SparseMatrix rows;
  size_t next = 0;
};

void BM_NaiveProjectSparse(benchmark::State& state) {
  ProjectSparseCase c(static_cast<size_t>(state.range(0)));
  const size_t d = ProjectSparseCase::kComponents;
  DenseVector out(d);
  for (auto _ : state) {
    const SparseRowView row = c.NextRow();
    std::vector<double> t(d, 0.0);
    kernels::SparseRowGemv(row.begin(), row.nnz(), c.model.components.data(),
                           c.model.components.row_stride(), d, t.data());
    for (size_t j = 0; j < d; ++j) t[j] -= c.mean_projection[j];
    out.SetZero();
    kernels::RowGemm(t.data(), d, c.factor.data(), c.factor.row_stride(), d,
                     out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NaiveProjectSparse)->Arg(2000);

void BM_KernelProjectSparse(benchmark::State& state) {
  ProjectSparseCase c(static_cast<size_t>(state.range(0)));
  const auto projector = serve::Projector::Create(c.model).value();
  DenseVector out(ProjectSparseCase::kComponents);
  for (auto _ : state) {
    projector.ProjectSparse(c.NextRow(), out.data());
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KernelProjectSparse)->Arg(2000);

void BM_NaiveRank1Update(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  Rng rng(22);
  DenseVector x(d);
  for (size_t i = 0; i < d; ++i) x[i] = rng.NextGaussian();
  DenseMatrix xtx(d, d);
  for (auto _ : state) {
    NaiveXtXUpdate(x, &xtx);
    benchmark::DoNotOptimize(xtx.data());
  }
  state.SetItemsProcessed(state.iterations() * d * d);
}
BENCHMARK(BM_NaiveRank1Update)->Arg(10)->Arg(50)->Arg(100);

// The kernel-layer XtX update: upper triangle per row, one mirror per
// partition (amortized here over the rows-per-partition of the paper's
// workloads; the mirror is outside the per-row loop in RunYtXPartition).
void BM_KernelRank1Update(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  constexpr size_t kRowsPerMirror = 128;
  Rng rng(22);
  DenseVector x(d);
  for (size_t i = 0; i < d; ++i) x[i] = rng.NextGaussian();
  DenseMatrix xtx(d, d);
  size_t rows = 0;
  for (auto _ : state) {
    kernels::SymRank1Update(x.data(), d, xtx.data(), xtx.row_stride());
    if (++rows == kRowsPerMirror) {
      kernels::SymMirrorLower(xtx.data(), d, xtx.row_stride());
      rows = 0;
    }
    benchmark::DoNotOptimize(xtx.data());
  }
  state.SetItemsProcessed(state.iterations() * d * d);
}
BENCHMARK(BM_KernelRank1Update)->Arg(10)->Arg(50)->Arg(100);

void BM_NaiveDenseRowGemm(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const DenseMatrix b = Random(dim, 50, 5);
  Rng rng(6);
  DenseVector row(dim);
  for (size_t i = 0; i < dim; ++i) row[i] = rng.NextGaussian();
  for (auto _ : state) benchmark::DoNotOptimize(NaiveRowTimesMatrix(row, b));
  state.SetItemsProcessed(state.iterations() * dim * 50);
}
BENCHMARK(BM_NaiveDenseRowGemm)->Arg(2000);

void BM_KernelDenseRowGemm(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const DenseMatrix b = Random(dim, 50, 5);
  Rng rng(6);
  DenseVector row(dim);
  for (size_t i = 0; i < dim; ++i) row[i] = rng.NextGaussian();
  for (auto _ : state) benchmark::DoNotOptimize(RowTimesMatrix(row, b));
  state.SetItemsProcessed(state.iterations() * dim * 50);
}
BENCHMARK(BM_KernelDenseRowGemm)->Arg(2000);

void BM_NaiveDenseOuterProduct(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(23);
  DenseVector a(dim), b(50);
  for (size_t i = 0; i < dim; ++i) a[i] = rng.NextGaussian();
  for (size_t i = 0; i < 50; ++i) b[i] = rng.NextGaussian();
  DenseMatrix out(dim, 50);
  for (auto _ : state) {
    NaiveRank1Update(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * dim * 50);
}
BENCHMARK(BM_NaiveDenseOuterProduct)->Arg(2000);

void BM_KernelDenseOuterProduct(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  Rng rng(23);
  DenseVector a(dim), b(50);
  for (size_t i = 0; i < dim; ++i) a[i] = rng.NextGaussian();
  for (size_t i = 0; i < 50; ++i) b[i] = rng.NextGaussian();
  DenseMatrix out(dim, 50);
  for (auto _ : state) {
    AddOuterProduct(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * dim * 50);
}
BENCHMARK(BM_KernelDenseOuterProduct)->Arg(2000);

void BM_Multiply(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const DenseMatrix a = Random(n, n, 1);
  const DenseMatrix b = Random(n, n, 2);
  for (auto _ : state) benchmark::DoNotOptimize(Multiply(a, b));
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Multiply)->Arg(32)->Arg(64)->Arg(128);

void BM_TransposeMultiply(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const DenseMatrix a = Random(n, 50, 3);
  const DenseMatrix b = Random(n, 50, 4);
  for (auto _ : state) benchmark::DoNotOptimize(TransposeMultiply(a, b));
}
BENCHMARK(BM_TransposeMultiply)->Arg(1000)->Arg(4000);

void BM_RowTimesMatrix(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const DenseMatrix b = Random(dim, 50, 5);
  Rng rng(6);
  DenseVector row(dim);
  for (size_t i = 0; i < dim; ++i) row[i] = rng.NextGaussian();
  for (auto _ : state) benchmark::DoNotOptimize(RowTimesMatrix(row, b));
}
BENCHMARK(BM_RowTimesMatrix)->Arg(2000)->Arg(16000);

void BM_SparseRowTimesMatrix(benchmark::State& state) {
  // A ~10-non-zero row against a D x 50 broadcast matrix: the inner loop
  // of the on-demand X computation.
  const size_t dim = static_cast<size_t>(state.range(0));
  const DenseMatrix b = Random(dim, 50, 7);
  std::vector<SparseEntry> entries;
  for (uint32_t k = 0; k < 10; ++k) {
    entries.push_back({static_cast<uint32_t>(k * dim / 10), 1.0});
  }
  const SparseVector row(std::move(entries), dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SparseRowTimesMatrix(row.View(), b));
  }
}
BENCHMARK(BM_SparseRowTimesMatrix)->Arg(2000)->Arg(16000);

/// Random n x n SPD matrix G'G + n*I.
DenseMatrix RandomSpd(size_t n, uint64_t seed) {
  const DenseMatrix g = Random(n, n, seed);
  DenseMatrix a = TransposeMultiply(g, g);
  a.AddScaledIdentity(static_cast<double>(n));
  return a;
}

void BM_SpdInverse(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const DenseMatrix a = RandomSpd(n, 10);
  for (auto _ : state) benchmark::DoNotOptimize(Inverse(a));
}
BENCHMARK(BM_SpdInverse)->Arg(50)->Arg(100);

// The M-step's C' = YtX / A at D = range(0), d = 50.
void BM_SolveRight(benchmark::State& state) {
  const size_t dim = static_cast<size_t>(state.range(0));
  const DenseMatrix a = RandomSpd(50, 8);
  const DenseMatrix b = Random(dim, 50, 9);
  for (auto _ : state) benchmark::DoNotOptimize(SolveRight(b, a));
}
BENCHMARK(BM_SolveRight)->Arg(2000);

void BM_SymmetricEigen(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const DenseMatrix a = TransposeMultiply(Random(n, n, 11), Random(n, n, 11));
  for (auto _ : state) benchmark::DoNotOptimize(SymmetricEigen(a));
}
BENCHMARK(BM_SymmetricEigen)->Arg(32)->Arg(64)->Arg(128);

void BM_SvdJacobi(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const DenseMatrix a = Random(2 * n, n, 12);
  for (auto _ : state) benchmark::DoNotOptimize(SvdJacobi(a));
}
BENCHMARK(BM_SvdJacobi)->Arg(16)->Arg(48);

void BM_SvdWideViaGram(benchmark::State& state) {
  // The wide-B SVD finishing step of stochastic SVD: k x D with k = 60.
  const size_t dim = static_cast<size_t>(state.range(0));
  const DenseMatrix a = Random(60, dim, 13);
  for (auto _ : state) benchmark::DoNotOptimize(SvdWideViaGram(a));
}
BENCHMARK(BM_SvdWideViaGram)->Arg(2000)->Arg(8000);

}  // namespace
}  // namespace spca::linalg

// Custom main instead of BENCHMARK_MAIN(): records which kernel ISA the
// runtime dispatcher resolved to (scalar / avx2) in the benchmark
// context, so JSON output is self-describing. tools/bench_kernels.sh
// reads it to label per-ISA timings in BENCH_kernels.json (schema v2)
// and to pick the right speedup gate.
int main(int argc, char** argv) {
  benchmark::AddCustomContext(
      "spca_kernel_isa", spca::linalg::kernels::DispatchedIsaName());
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
