#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>

#include "linalg/ops.h"
#include "linalg/svd.h"
#include "obs/export.h"
#include "workload/datasets.h"
#include "workload/io.h"
#include "workload/synthetic.h"

namespace spca::workload {
namespace {

using linalg::DenseMatrix;
using linalg::SparseMatrix;

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

// ---- Generators ----------------------------------------------------------

TEST(BagOfWordsTest, ShapeAndDeterminism) {
  BagOfWordsConfig config;
  config.rows = 100;
  config.vocab = 50;
  config.words_per_row = 8;
  config.seed = 17;
  const SparseMatrix a = GenerateBagOfWords(config);
  const SparseMatrix b = GenerateBagOfWords(config);
  EXPECT_EQ(a.rows(), 100u);
  EXPECT_EQ(a.cols(), 50u);
  EXPECT_EQ(a.nnz(), b.nnz());
  EXPECT_EQ(a.ToDense().MaxAbsDiff(b.ToDense()), 0.0);
  config.seed = 18;
  const SparseMatrix c = GenerateBagOfWords(config);
  EXPECT_GT(a.ToDense().MaxAbsDiff(c.ToDense()), 0.0);
}

TEST(BagOfWordsTest, BinaryEntriesAndSparsity) {
  BagOfWordsConfig config;
  config.rows = 200;
  config.vocab = 400;
  config.words_per_row = 10;
  const SparseMatrix m = GenerateBagOfWords(config);
  for (size_t i = 0; i < m.rows(); ++i) {
    for (const auto& e : m.Row(i)) EXPECT_DOUBLE_EQ(e.value, 1.0);
  }
  // Mean document length should be within 3x of the configured mean.
  const double mean_nnz = static_cast<double>(m.nnz()) / m.rows();
  EXPECT_GT(mean_nnz, 3.0);
  EXPECT_LT(mean_nnz, 30.0);
  EXPECT_LT(m.Density(), 0.1);
}

TEST(BagOfWordsTest, WordsPerRowControlsDensity) {
  BagOfWordsConfig sparse_config;
  sparse_config.rows = 300;
  sparse_config.vocab = 500;
  sparse_config.words_per_row = 5;
  BagOfWordsConfig dense_config = sparse_config;
  dense_config.words_per_row = 40;
  EXPECT_LT(GenerateBagOfWords(sparse_config).nnz(),
            GenerateBagOfWords(dense_config).nnz());
}

TEST(LowRankTest, ShapeAndStructure) {
  LowRankConfig config;
  config.rows = 150;
  config.cols = 20;
  config.rank = 3;
  config.noise_stddev = 0.01;
  const DenseMatrix y = GenerateLowRank(config);
  EXPECT_EQ(y.rows(), 150u);
  EXPECT_EQ(y.cols(), 20u);
  // With tiny noise, the centered matrix is near rank 3: the residual after
  // removing the top 3 singular directions is small relative to the total.
  const linalg::DenseVector mean = linalg::ColumnMeans(y);
  const DenseMatrix centered = linalg::MeanCenter(y, mean);
  auto svd = linalg::Svd(centered);
  ASSERT_TRUE(svd.ok());
  double top3 = 0.0, rest = 0.0;
  for (size_t i = 0; i < svd.value().singular_values.size(); ++i) {
    const double s2 = svd.value().singular_values[i] *
                      svd.value().singular_values[i];
    if (i < 3) {
      top3 += s2;
    } else {
      rest += s2;
    }
  }
  EXPECT_GT(top3 / (top3 + rest), 0.99);
}

TEST(SpectraTest, ShapeAndNonTrivialValues) {
  SpectraConfig config;
  config.rows = 30;
  config.cols = 512;
  const DenseMatrix y = GenerateSpectra(config);
  EXPECT_EQ(y.rows(), 30u);
  EXPECT_EQ(y.cols(), 512u);
  EXPECT_GT(y.FrobeniusNorm2(), 0.0);
  // Rows are mixtures of few prototypes: strongly low-rank.
  const linalg::DenseVector mean = linalg::ColumnMeans(y);
  const DenseMatrix centered = linalg::MeanCenter(y, mean);
  auto svd = linalg::SvdWideViaGram(centered);
  ASSERT_TRUE(svd.ok());
  double top = 0.0, total = 0.0;
  for (size_t i = 0; i < svd.value().singular_values.size(); ++i) {
    const double s2 = svd.value().singular_values[i] *
                      svd.value().singular_values[i];
    total += s2;
    if (i < config.num_prototypes) top += s2;
  }
  EXPECT_GT(top / total, 0.95);
}

TEST(ImageFeaturesTest, ShapeAndNonNegativity) {
  ImageFeaturesConfig config;
  config.rows = 500;
  config.cols = 128;
  const DenseMatrix y = GenerateImageFeatures(config);
  EXPECT_EQ(y.rows(), 500u);
  EXPECT_EQ(y.cols(), 128u);
  for (size_t i = 0; i < y.rows(); ++i) {
    for (size_t j = 0; j < y.cols(); ++j) EXPECT_GE(y(i, j), 0.0);
  }
}

// ---- Dataset factory -------------------------------------------------------

TEST(DatasetsTest, AllKindsGenerate) {
  for (const auto kind :
       {DatasetKind::kTweets, DatasetKind::kBioText, DatasetKind::kDiabetes,
        DatasetKind::kImages}) {
    const Dataset ds = MakeDataset(kind, 60, 40, 2, 3);
    EXPECT_EQ(ds.matrix.rows(), 60u);
    EXPECT_EQ(ds.matrix.cols(), 40u);
    EXPECT_EQ(ds.kind, kind);
    EXPECT_FALSE(ds.name.empty());
  }
}

TEST(DatasetsTest, SparsityMatchesFamily) {
  const Dataset tweets = MakeDataset(DatasetKind::kTweets, 500, 1000, 2);
  const Dataset biotext = MakeDataset(DatasetKind::kBioText, 500, 1000, 2);
  EXPECT_TRUE(tweets.matrix.is_sparse());
  EXPECT_TRUE(biotext.matrix.is_sparse());
  // Bio-Text documents are longer than tweets.
  EXPECT_GT(biotext.matrix.StoredEntries(), tweets.matrix.StoredEntries());
  EXPECT_FALSE(MakeDataset(DatasetKind::kImages, 100, 128, 2).matrix
                   .is_sparse());
  EXPECT_FALSE(MakeDataset(DatasetKind::kDiabetes, 50, 256, 2).matrix
                   .is_sparse());
}

TEST(DatasetsTest, KindNames) {
  EXPECT_STREQ(DatasetKindToString(DatasetKind::kTweets), "Tweets");
  EXPECT_STREQ(DatasetKindToString(DatasetKind::kBioText), "Bio-Text");
  EXPECT_STREQ(DatasetKindToString(DatasetKind::kDiabetes), "Diabetes");
  EXPECT_STREQ(DatasetKindToString(DatasetKind::kImages), "Images");
}

// ---- I/O -------------------------------------------------------------------

TEST(IoTest, SparseBinaryRoundTrip) {
  BagOfWordsConfig config;
  config.rows = 50;
  config.vocab = 80;
  const SparseMatrix original = GenerateBagOfWords(config);
  const std::string path = TempPath("sparse.bin");
  ASSERT_TRUE(SaveSparseBinary(original, path).ok());
  auto loaded = LoadSparseBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().rows(), original.rows());
  EXPECT_EQ(loaded.value().cols(), original.cols());
  EXPECT_EQ(loaded.value().nnz(), original.nnz());
  EXPECT_EQ(loaded.value().ToDense().MaxAbsDiff(original.ToDense()), 0.0);
  std::remove(path.c_str());
}

TEST(IoTest, DenseBinaryRoundTrip) {
  SpectraConfig config;
  config.rows = 10;
  config.cols = 64;
  const DenseMatrix original = GenerateSpectra(config);
  const std::string path = TempPath("dense.bin");
  ASSERT_TRUE(SaveDenseBinary(original, path).ok());
  auto loaded = LoadDenseBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().MaxAbsDiff(original), 0.0);
  std::remove(path.c_str());
}

TEST(IoTest, SparseTextRoundTrip) {
  SparseMatrix original(3, 6);
  original.AppendRow(0, std::vector<linalg::SparseEntry>{{1, 0.5}, {4, -2.0}});
  original.AppendRow(1, std::vector<linalg::SparseEntry>{});
  original.AppendRow(2, std::vector<linalg::SparseEntry>{{0, 3.25}});
  const std::string path = TempPath("sparse.txt");
  ASSERT_TRUE(SaveSparseText(original, path).ok());
  auto loaded = LoadSparseText(path, 6);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().rows(), 3u);
  EXPECT_EQ(loaded.value().ToDense().MaxAbsDiff(original.ToDense()), 0.0);
  std::remove(path.c_str());
}

TEST(IoTest, DenseTextRoundTrip) {
  DenseMatrix original(3, 4);
  original(0, 0) = 1.5;
  original(1, 2) = -2.25;
  original(2, 3) = 1e-9;
  const std::string path = TempPath("dense.txt");
  ASSERT_TRUE(SaveDenseText(original, path).ok());
  auto loaded = LoadDenseText(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().rows(), 3u);
  EXPECT_EQ(loaded.value().cols(), 4u);
  EXPECT_EQ(loaded.value().MaxAbsDiff(original), 0.0);
  std::remove(path.c_str());
}

TEST(IoTest, DenseTextRejectsRaggedRows) {
  const std::string path = TempPath("ragged.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "1 2 3\n4 5\n");
  std::fclose(f);
  EXPECT_FALSE(LoadDenseText(path).ok());
  std::remove(path.c_str());
}

TEST(IoTest, DenseTextRejectsGarbage) {
  const std::string path = TempPath("garbage.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fprintf(f, "1.0 banana 3.0\n");
  std::fclose(f);
  EXPECT_FALSE(LoadDenseText(path).ok());
  std::remove(path.c_str());
}

TEST(IoTest, DenseTextEmptyFile) {
  const std::string path = TempPath("empty.txt");
  std::FILE* f = std::fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  auto loaded = LoadDenseText(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().rows(), 0u);
  std::remove(path.c_str());
}

TEST(IoTest, LoadMissingFileFails) {
  EXPECT_FALSE(LoadSparseBinary("/nonexistent/path.bin").ok());
  EXPECT_FALSE(LoadDenseBinary("/nonexistent/path.bin").ok());
  EXPECT_FALSE(LoadSparseText("/nonexistent/path.txt", 4).ok());
}

TEST(IoTest, WrongMagicRejected) {
  const std::string path = TempPath("wrong.bin");
  SparseMatrix m(1, 2);
  m.AppendRow(0, std::vector<linalg::SparseEntry>{{0, 1.0}});
  ASSERT_TRUE(SaveSparseBinary(m, path).ok());
  EXPECT_FALSE(LoadDenseBinary(path).ok());  // dense loader on sparse file
  std::remove(path.c_str());
}

/// The bytes of `path` with the uint64 header field at `offset` set to
/// `value`, written to `out_path`.
void WriteWithHeaderField(const std::string& path, size_t offset,
                          uint64_t value, const std::string& out_path) {
  std::string bytes = obs::ReadFile(path).value();
  ASSERT_GE(bytes.size(), offset + sizeof(value));
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
  ASSERT_TRUE(obs::WriteFile(out_path, bytes).ok());
}

SparseMatrix SmallSparse() {
  SparseMatrix m(2, 10);
  m.AppendRow(0, std::vector<linalg::SparseEntry>{{1, 0.5}, {9, -2.0}});
  m.AppendRow(1, std::vector<linalg::SparseEntry>{{4, 1.5}});
  return m;
}

TEST(IoTest, SparseTextRejectsIndicesThatAreNotIncreasing) {
  const std::string path = TempPath("descending.txt");
  for (const char* text : {"0:1 3:2 2:5\n1:1\n", "1:1 1:2\n"}) {
    ASSERT_TRUE(obs::WriteFile(path, text).ok());
    auto loaded = LoadSparseText(path, 4);
    ASSERT_FALSE(loaded.ok()) << text;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  }
  ASSERT_TRUE(obs::WriteFile(path, "0:1 4:2\n").ok());
  EXPECT_EQ(LoadSparseText(path, 4).status().code(),
            StatusCode::kInvalidArgument);  // index 4 of 4 columns
  std::remove(path.c_str());
}

TEST(IoTest, SparseBinaryRejectsIndexPastCols) {
  const std::string path = TempPath("valid.spm");
  const std::string bad = TempPath("narrow.spm");
  ASSERT_TRUE(SaveSparseBinary(SmallSparse(), path).ok());
  WriteWithHeaderField(path, 16, 9, bad);  // cols 10 -> 9; index 9 stays
  auto loaded = LoadSparseBinary(bad);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
  std::remove(bad.c_str());
}

TEST(IoTest, SparseLoadersRefuseMoreColumnsThanAnIndexNames) {
  // uint32 indices name columns 0 .. 2^32 - 1: 2^32 columns load, one more
  // (or 2^61) is INVALID_ARGUMENT before any D-sized buffer exists.
  const std::string binary = TempPath("valid.spm");
  const std::string bad = TempPath("wide.spm");
  const std::string text = TempPath("wide.txt");
  ASSERT_TRUE(SaveSparseBinary(SmallSparse(), binary).ok());
  ASSERT_TRUE(SaveSparseText(SmallSparse(), text).ok());
  const uint64_t limit = uint64_t{1} << 32;
  for (const uint64_t cols : {limit + 1, uint64_t{1} << 61}) {
    WriteWithHeaderField(binary, 16, cols, bad);  // cols at offset 16
    auto loaded = LoadSparseBinary(bad);
    ASSERT_FALSE(loaded.ok()) << cols;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << cols;
    auto from_text = LoadSparseText(text, cols);
    ASSERT_FALSE(from_text.ok()) << cols;
    EXPECT_EQ(from_text.status().code(), StatusCode::kInvalidArgument)
        << cols;
  }
  WriteWithHeaderField(binary, 16, limit, bad);
  auto widest = LoadSparseBinary(bad);
  ASSERT_TRUE(widest.ok()) << widest.status().ToString();
  EXPECT_EQ(widest.value().cols(), limit);
  auto widest_text = LoadSparseText(text, limit);
  ASSERT_TRUE(widest_text.ok()) << widest_text.status().ToString();
  EXPECT_EQ(widest_text.value().cols(), limit);
  std::remove(binary.c_str());
  std::remove(bad.c_str());
  std::remove(text.c_str());
}

TEST(IoTest, BinaryHeadersMustMatchTheFileSize) {
  const std::string sparse = TempPath("valid.spm");
  const std::string dense = TempPath("valid.dnm");
  const std::string bad = TempPath("bad_header.bin");
  ASSERT_TRUE(SaveSparseBinary(SmallSparse(), sparse).ok());
  DenseMatrix d(3, 2);
  d(2, 1) = 4.0;
  ASSERT_TRUE(SaveDenseBinary(d, dense).ok());
  const uint64_t huge = uint64_t{1} << 61;
  const auto expect_rejected = [&](auto loaded, const char* what) {
    ASSERT_FALSE(loaded.ok()) << what;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << what;
  };
  // Sparse: rows at offset 8, nnz at 24.
  WriteWithHeaderField(sparse, 8, huge, bad);
  expect_rejected(LoadSparseBinary(bad), "2^61 sparse rows");
  WriteWithHeaderField(sparse, 8, 3, bad);
  expect_rejected(LoadSparseBinary(bad), "one sparse row too many");
  WriteWithHeaderField(sparse, 24, huge, bad);
  expect_rejected(LoadSparseBinary(bad), "2^61 entries");
  WriteWithHeaderField(sparse, 24, 2, bad);
  expect_rejected(LoadSparseBinary(bad), "one entry too few");
  // Dense: rows at offset 8, cols at 16.
  WriteWithHeaderField(dense, 8, huge, bad);
  expect_rejected(LoadDenseBinary(bad), "2^61 dense rows");
  WriteWithHeaderField(dense, 16, huge, bad);
  expect_rejected(LoadDenseBinary(bad), "2^61 dense columns");
  WriteWithHeaderField(dense, 16, 3, bad);
  expect_rejected(LoadDenseBinary(bad), "one dense column too many");
  // A byte short or a byte over.
  for (const std::string& path : {sparse, dense}) {
    std::string bytes = obs::ReadFile(path).value();
    ASSERT_TRUE(obs::WriteFile(bad, bytes.substr(0, bytes.size() - 1)).ok());
    EXPECT_FALSE(LoadSparseBinary(bad).ok());
    EXPECT_FALSE(LoadDenseBinary(bad).ok());
    ASSERT_TRUE(obs::WriteFile(bad, bytes + '\0').ok());
    EXPECT_FALSE(LoadSparseBinary(bad).ok());
    EXPECT_FALSE(LoadDenseBinary(bad).ok());
  }
  std::remove(sparse.c_str());
  std::remove(dense.c_str());
  std::remove(bad.c_str());
}

TEST(IoTest, WritersReportAFailedWrite) {
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  // /dev/full accepts the open and fails every write.
  const DenseMatrix d(40, 40);
  EXPECT_FALSE(SaveDenseText(d, "/dev/full").ok());
  EXPECT_FALSE(SaveDenseBinary(d, "/dev/full").ok());
  EXPECT_FALSE(SaveSparseText(SmallSparse(), "/dev/full").ok());
  EXPECT_FALSE(SaveSparseBinary(SmallSparse(), "/dev/full").ok());
}

}  // namespace
}  // namespace spca::workload
