#include "workload/io.h"

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "obs/export.h"

namespace spca::workload {

using linalg::DenseMatrix;
using linalg::SparseEntry;
using linalg::SparseMatrix;

namespace {

constexpr uint64_t kSparseMagic = 0x53504341'53505233ULL;  // "SPCA SPR3"
constexpr uint64_t kDenseMagic = 0x53504341'444E5333ULL;   // "SPCA DNS3"
constexpr uint64_t kEntryBytes = sizeof(uint32_t) + sizeof(double);
/// The most columns a sparse matrix may have: its uint32 indices name
/// columns 0 .. 2^32 - 1.
constexpr uint64_t kMaxSparseCols = uint64_t{1} << 32;

/// InvalidArgument when `cols` exceeds kMaxSparseCols: no stored entry
/// could name the columns past it, and every D-sized buffer downstream
/// would be refused by the allocator.
Status CheckSparseCols(uint64_t cols, const std::string& path) {
  if (cols > kMaxSparseCols) {
    return Status::InvalidArgument(
        path + " claims " + std::to_string(cols) +
        " columns, more than the 2^32 a sparse index can name");
  }
  return Status::Ok();
}

template <typename T>
void AppendBytes(std::string* bytes, const T* data, size_t count) {
  bytes->append(reinterpret_cast<const char*>(data), count * sizeof(T));
}

template <typename T>
void AppendScalar(std::string* bytes, T value) {
  AppendBytes(bytes, &value, 1);
}

/// Appends one printf-formatted field (a number, or an index:value pair).
template <typename... Args>
void AppendField(std::string* text, const char* format, Args... args) {
  char field[64];
  const int n = std::snprintf(field, sizeof(field), format, args...);
  text->append(field, static_cast<size_t>(n));
}

/// Reads fixed-size values front to back from a file's bytes.
class ByteReader {
 public:
  explicit ByteReader(const std::string& bytes) : bytes_(bytes) {}

  template <typename T>
  bool Read(T* data, size_t count = 1) {
    if (count > remaining() / sizeof(T)) return false;
    std::memcpy(data, bytes_.data() + pos_, count * sizeof(T));
    pos_ += count * sizeof(T);
    return true;
  }

  uint64_t remaining() const { return bytes_.size() - pos_; }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

/// Splits `text` into lines at '\n' and each line into fields at spaces,
/// tabs and carriage returns: on_field(field) sees each non-empty field,
/// then on_line(had_newline) ends the line (false for the text after the
/// last newline). Stops at on_field's first error.
template <typename OnField, typename OnLine>
Status ForEachField(const std::string& text, OnField on_field,
                    OnLine on_line) {
  std::string field;
  for (const char c : text) {
    if (c == '\n' || c == ' ' || c == '\t' || c == '\r') {
      if (!field.empty()) SPCA_RETURN_IF_ERROR(on_field(field));
      field.clear();
      if (c == '\n') on_line(true);
    } else {
      field.push_back(c);
    }
  }
  if (!field.empty()) SPCA_RETURN_IF_ERROR(on_field(field));
  on_line(false);
  return Status::Ok();
}

/// InvalidArgument unless `index` may follow the entries of `row`: below
/// `cols` and above the last index, as SparseMatrix::AppendRow requires.
Status CheckNextIndex(const std::vector<SparseEntry>& row, uint32_t index,
                      uint64_t cols, const std::string& path) {
  if (index >= cols) {
    return Status::InvalidArgument("index " + std::to_string(index) +
                                   " out of range in " + path);
  }
  if (!row.empty() && index <= row.back().index) {
    return Status::InvalidArgument("indices not strictly increasing in " +
                                   path);
  }
  return Status::Ok();
}

}  // namespace

Status SaveSparseBinary(const SparseMatrix& matrix, const std::string& path) {
  std::string bytes;
  AppendScalar(&bytes, kSparseMagic);
  AppendScalar<uint64_t>(&bytes, matrix.rows());
  AppendScalar<uint64_t>(&bytes, matrix.cols());
  AppendScalar<uint64_t>(&bytes, matrix.nnz());
  // Row lengths followed by (index, value) streams.
  for (size_t i = 0; i < matrix.rows(); ++i) {
    const auto row = matrix.Row(i);
    AppendScalar<uint64_t>(&bytes, row.nnz());
    for (const auto& e : row) {
      AppendScalar<uint32_t>(&bytes, e.index);
      AppendScalar<double>(&bytes, e.value);
    }
  }
  return obs::WriteFile(path, bytes);
}

StatusOr<SparseMatrix> LoadSparseBinary(const std::string& path) {
  auto bytes = obs::ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  ByteReader reader(bytes.value());
  uint64_t magic = 0, rows = 0, cols = 0, nnz = 0;
  if (!reader.Read(&magic) || magic != kSparseMagic) {
    return Status::InvalidArgument(path + " is not a sparse matrix file");
  }
  if (!reader.Read(&rows) || !reader.Read(&cols) || !reader.Read(&nnz)) {
    return Status::InvalidArgument("truncated header in " + path);
  }
  SPCA_RETURN_IF_ERROR(CheckSparseCols(cols, path));
  // The body is one row length per row and one entry per stored value.
  const uint64_t body = reader.remaining();
  if (rows > body / sizeof(uint64_t) ||
      nnz > (body - rows * sizeof(uint64_t)) / kEntryBytes ||
      rows * sizeof(uint64_t) + nnz * kEntryBytes != body) {
    return Status::InvalidArgument(
        "header of " + path + " claims " + std::to_string(rows) +
        " rows and " + std::to_string(nnz) + " entries, but " +
        std::to_string(body) + " bytes follow it");
  }
  SparseMatrix matrix(rows, cols);
  std::vector<SparseEntry> row;
  uint64_t total = 0;
  for (uint64_t i = 0; i < rows; ++i) {
    uint64_t count = 0;
    if (!reader.Read(&count) || count > reader.remaining() / kEntryBytes) {
      return Status::InvalidArgument("truncated row " + std::to_string(i) +
                                     " in " + path);
    }
    row.clear();
    for (uint64_t k = 0; k < count; ++k) {
      SparseEntry e;
      reader.Read(&e.index);
      reader.Read(&e.value);
      SPCA_RETURN_IF_ERROR(CheckNextIndex(row, e.index, cols, path));
      row.push_back(e);
    }
    matrix.AppendRow(i, row);
    total += count;
  }
  if (total != nnz) {
    return Status::InvalidArgument("nnz mismatch in " + path);
  }
  return matrix;
}

Status SaveDenseBinary(const DenseMatrix& matrix, const std::string& path) {
  std::string bytes;
  AppendScalar(&bytes, kDenseMagic);
  AppendScalar<uint64_t>(&bytes, matrix.rows());
  AppendScalar<uint64_t>(&bytes, matrix.cols());
  AppendBytes(&bytes, matrix.data(), matrix.size());
  return obs::WriteFile(path, bytes);
}

StatusOr<DenseMatrix> LoadDenseBinary(const std::string& path) {
  auto bytes = obs::ReadFile(path);
  if (!bytes.ok()) return bytes.status();
  ByteReader reader(bytes.value());
  uint64_t magic = 0, rows = 0, cols = 0;
  if (!reader.Read(&magic) || magic != kDenseMagic) {
    return Status::InvalidArgument(path + " is not a dense matrix file");
  }
  if (!reader.Read(&rows) || !reader.Read(&cols)) {
    return Status::InvalidArgument("truncated header in " + path);
  }
  const uint64_t body = reader.remaining();
  if ((rows != 0 && cols > body / sizeof(double) / rows) ||
      rows * cols * sizeof(double) != body) {
    return Status::InvalidArgument(
        "header of " + path + " claims " + std::to_string(rows) + " x " +
        std::to_string(cols) + " values, but " + std::to_string(body) +
        " bytes follow it");
  }
  DenseMatrix matrix(rows, cols);
  reader.Read(matrix.data(), matrix.size());
  return matrix;
}

Status SaveDenseText(const DenseMatrix& matrix, const std::string& path) {
  std::string text;
  for (size_t i = 0; i < matrix.rows(); ++i) {
    for (size_t j = 0; j < matrix.cols(); ++j) {
      AppendField(&text, "%s%.17g", j == 0 ? "" : " ", matrix(i, j));
    }
    text.push_back('\n');
  }
  return obs::WriteFile(path, text);
}

StatusOr<DenseMatrix> LoadDenseText(const std::string& path) {
  auto text = obs::ReadFile(path);
  if (!text.ok()) return text.status();
  std::vector<std::vector<double>> rows;
  std::vector<double> row;
  SPCA_RETURN_IF_ERROR(ForEachField(
      text.value(),
      [&](const std::string& field) -> Status {
        char* end = nullptr;
        const double value = std::strtod(field.c_str(), &end);
        if (end == nullptr || *end != '\0') {
          return Status::InvalidArgument("bad value '" + field + "' in " +
                                         path);
        }
        row.push_back(value);
        return Status::Ok();
      },
      [&](bool) {
        if (!row.empty()) rows.push_back(row);
        row.clear();
      }));
  if (rows.empty()) return DenseMatrix(0, 0);
  const size_t cols = rows[0].size();
  DenseMatrix matrix(rows.size(), cols);
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].size() != cols) {
      return Status::InvalidArgument("ragged rows in " + path);
    }
    for (size_t j = 0; j < cols; ++j) matrix(i, j) = rows[i][j];
  }
  return matrix;
}

Status SaveSparseText(const SparseMatrix& matrix, const std::string& path) {
  std::string text;
  for (size_t i = 0; i < matrix.rows(); ++i) {
    bool first = true;
    for (const auto& e : matrix.Row(i)) {
      AppendField(&text, "%s%" PRIu32 ":%.17g", first ? "" : " ", e.index,
                  e.value);
      first = false;
    }
    text.push_back('\n');
  }
  return obs::WriteFile(path, text);
}

StatusOr<SparseMatrix> LoadSparseText(const std::string& path, size_t cols) {
  SPCA_RETURN_IF_ERROR(CheckSparseCols(cols, path));
  auto text = obs::ReadFile(path);
  if (!text.ok()) return text.status();
  // Every line is a row, an empty one included; a last line without its
  // newline is a row only when it holds entries.
  std::vector<std::vector<SparseEntry>> rows;
  std::vector<SparseEntry> row;
  SPCA_RETURN_IF_ERROR(ForEachField(
      text.value(),
      [&](const std::string& field) -> Status {
        uint32_t index = 0;
        double value = 0.0;
        if (std::sscanf(field.c_str(), "%" SCNu32 ":%lg", &index, &value) !=
            2) {
          return Status::InvalidArgument("bad token '" + field + "' in " +
                                         path);
        }
        SPCA_RETURN_IF_ERROR(CheckNextIndex(row, index, cols, path));
        row.push_back({index, value});
        return Status::Ok();
      },
      [&](bool had_newline) {
        if (had_newline || !row.empty()) rows.push_back(row);
        row.clear();
      }));
  SparseMatrix matrix(rows.size(), cols);
  for (size_t i = 0; i < rows.size(); ++i) matrix.AppendRow(i, rows[i]);
  return matrix;
}

}  // namespace spca::workload
