#include "serve/model_io.h"

#include <cstdio>
#include <cstring>
#include <vector>

#include "obs/export.h"

namespace spca::serve {

namespace {

// Dimensions above this are rejected as corrupt rather than attempted as
// allocations (a flipped high byte in a header must not OOM the server).
constexpr uint64_t kMaxDim = 1ull << 32;
constexpr uint64_t kMaxElements = 1ull << 34;  // 128 GiB of doubles

constexpr size_t kHeaderBytes =
    sizeof(uint32_t) * 2 + sizeof(uint64_t) * 2 + sizeof(double);

void AppendBytes(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

/// True when the last 8 bytes of `content` (at least 8 long) are the
/// FNV-1a 64 of every byte before them.
bool ChecksumMatches(const std::string& content) {
  const size_t payload_size = content.size() - sizeof(uint64_t);
  uint64_t stored = 0;
  std::memcpy(&stored, content.data() + payload_size, sizeof(stored));
  return Fnv1a64(content.data(), payload_size) == stored;
}

}  // namespace

uint64_t Fnv1a64(const void* data, size_t size, uint64_t seed) {
  constexpr uint64_t kPrime = 0x100000001b3ull;
  uint64_t hash = seed;
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kPrime;
  }
  return hash;
}

uint64_t ModelFileSize(uint64_t input_dim, uint64_t num_components) {
  return kHeaderBytes + (input_dim + input_dim * num_components) *
                            sizeof(double) +
         sizeof(uint64_t);
}

Status SaveModel(const core::PcaModel& model, const std::string& path) {
  SPCA_CHECK_EQ(model.mean.size(), model.input_dim());
  const uint64_t d_in = model.input_dim();
  const uint64_t d_out = model.num_components();

  std::string payload;
  payload.reserve(static_cast<size_t>(ModelFileSize(d_in, d_out)));
  AppendBytes(&payload, &kModelMagic, sizeof(kModelMagic));
  AppendBytes(&payload, &kModelFormatVersion, sizeof(kModelFormatVersion));
  AppendBytes(&payload, &d_in, sizeof(d_in));
  AppendBytes(&payload, &d_out, sizeof(d_out));
  AppendBytes(&payload, &model.noise_variance, sizeof(double));
  AppendBytes(&payload, model.mean.data(), model.mean.size() * sizeof(double));
  AppendBytes(&payload, model.components.data(),
              model.components.size() * sizeof(double));
  const uint64_t checksum = Fnv1a64(payload.data(), payload.size());
  AppendBytes(&payload, &checksum, sizeof(checksum));
  return obs::WriteFile(path, payload);
}

StatusOr<core::PcaModel> LoadModel(const std::string& path) {
  auto read = obs::ReadFile(path, "model");
  if (!read.ok()) return read.status();
  const std::string& content = read.value();

  auto corrupt = [&path](const std::string& why) {
    return Status::InvalidArgument("corrupt model " + path + ": " + why);
  };
  if (content.size() < kHeaderBytes + sizeof(uint64_t)) {
    return corrupt("truncated header");
  }
  size_t offset = 0;
  auto read_pod = [&content, &offset](auto* out) {
    std::memcpy(out, content.data() + offset, sizeof(*out));
    offset += sizeof(*out);
  };
  uint32_t magic = 0;
  uint32_t version = 0;
  uint64_t d_in = 0;
  uint64_t d_out = 0;
  double noise_variance = 0.0;
  read_pod(&magic);
  read_pod(&version);
  read_pod(&d_in);
  read_pod(&d_out);
  read_pod(&noise_variance);
  if (magic != kModelMagic) return corrupt("bad magic");
  if (version != kModelFormatVersion) {
    return corrupt("unsupported format version " + std::to_string(version));
  }
  if (d_in == 0 || d_out == 0) return corrupt("zero dimension");
  if (d_in > kMaxDim || d_out > kMaxDim || d_in * d_out > kMaxElements) {
    return corrupt("implausible dimensions");
  }
  if (content.size() != ModelFileSize(d_in, d_out)) {
    return corrupt("file size does not match header dimensions");
  }
  if (!ChecksumMatches(content)) return corrupt("checksum mismatch");

  core::PcaModel model;
  model.noise_variance = noise_variance;
  model.mean = linalg::DenseVector(static_cast<size_t>(d_in));
  std::memcpy(model.mean.data(), content.data() + offset,
              static_cast<size_t>(d_in) * sizeof(double));
  offset += static_cast<size_t>(d_in) * sizeof(double);
  model.components = linalg::DenseMatrix(static_cast<size_t>(d_in),
                                         static_cast<size_t>(d_out));
  std::memcpy(model.components.data(), content.data() + offset,
              static_cast<size_t>(d_in * d_out) * sizeof(double));
  return model;
}

namespace {

// Caps on sidecar counts: far above anything a solver writes, low enough
// that a corrupted length field cannot drive a giant allocation.
constexpr uint64_t kMaxCheckpointKeyLen = 256;
constexpr uint64_t kMaxCheckpointEntries = 4096;

void AppendKey(std::string* out, const std::string& key) {
  const uint64_t len = key.size();
  AppendBytes(out, &len, sizeof(len));
  AppendBytes(out, key.data(), key.size());
}

}  // namespace

Status SaveSolverState(const core::SolverCheckpoint& checkpoint,
                       const std::string& path) {
  if (checkpoint.solver.empty() ||
      checkpoint.solver.size() > kMaxCheckpointKeyLen) {
    return Status::InvalidArgument("checkpoint solver name must be 1.." +
                                   std::to_string(kMaxCheckpointKeyLen) +
                                   " bytes");
  }
  std::string payload;
  AppendBytes(&payload, &kCheckpointMagic, sizeof(kCheckpointMagic));
  AppendBytes(&payload, &kCheckpointFormatVersion,
              sizeof(kCheckpointFormatVersion));
  AppendKey(&payload, checkpoint.solver);
  AppendBytes(&payload, &checkpoint.step, sizeof(checkpoint.step));
  AppendBytes(&payload, &checkpoint.rows_seen, sizeof(checkpoint.rows_seen));
  const uint64_t num_scalars = checkpoint.scalars.size();
  AppendBytes(&payload, &num_scalars, sizeof(num_scalars));
  for (const auto& [key, value] : checkpoint.scalars) {
    if (key.empty() || key.size() > kMaxCheckpointKeyLen) {
      return Status::InvalidArgument("bad checkpoint scalar key '" + key +
                                     "'");
    }
    AppendKey(&payload, key);
    AppendBytes(&payload, &value, sizeof(value));
  }
  const uint64_t num_matrices = checkpoint.matrices.size();
  AppendBytes(&payload, &num_matrices, sizeof(num_matrices));
  for (const auto& [key, matrix] : checkpoint.matrices) {
    if (key.empty() || key.size() > kMaxCheckpointKeyLen) {
      return Status::InvalidArgument("bad checkpoint matrix key '" + key +
                                     "'");
    }
    AppendKey(&payload, key);
    const uint64_t rows = matrix.rows();
    const uint64_t cols = matrix.cols();
    AppendBytes(&payload, &rows, sizeof(rows));
    AppendBytes(&payload, &cols, sizeof(cols));
    AppendBytes(&payload, matrix.data(), matrix.size() * sizeof(double));
  }
  const uint64_t checksum = Fnv1a64(payload.data(), payload.size());
  AppendBytes(&payload, &checksum, sizeof(checksum));
  return obs::WriteFile(path, payload);
}

StatusOr<core::SolverCheckpoint> LoadSolverState(const std::string& path) {
  auto read = obs::ReadFile(path, "checkpoint");
  if (!read.ok()) return read.status();
  const std::string& content = read.value();

  auto corrupt = [&path](const std::string& why) {
    return Status::InvalidArgument("corrupt checkpoint " + path + ": " + why);
  };
  if (content.size() < sizeof(uint32_t) * 2 + sizeof(uint64_t)) {
    return corrupt("truncated header");
  }
  // Checksum first: everything after it parses from verified bytes.
  if (!ChecksumMatches(content)) return corrupt("checksum mismatch");
  const size_t payload_size = content.size() - sizeof(uint64_t);

  size_t offset = 0;
  bool truncated = false;
  auto read_pod = [&](auto* out) {
    if (truncated || payload_size - offset < sizeof(*out)) {
      truncated = true;
      return;
    }
    std::memcpy(out, content.data() + offset, sizeof(*out));
    offset += sizeof(*out);
  };
  auto read_key = [&](std::string* out) -> Status {
    uint64_t len = 0;
    read_pod(&len);
    if (truncated) return Status::Ok();  // caught by the caller's check
    if (len == 0 || len > kMaxCheckpointKeyLen) {
      return Status::InvalidArgument("implausible key length");
    }
    if (payload_size - offset < len) {
      truncated = true;
      return Status::Ok();
    }
    out->assign(content.data() + offset, len);
    offset += len;
    return Status::Ok();
  };

  uint32_t magic = 0;
  uint32_t version = 0;
  read_pod(&magic);
  read_pod(&version);
  if (magic != kCheckpointMagic) return corrupt("bad magic");
  if (version != kCheckpointFormatVersion) {
    return corrupt("unsupported format version " + std::to_string(version));
  }

  core::SolverCheckpoint checkpoint;
  if (!read_key(&checkpoint.solver).ok()) {
    return corrupt("implausible solver name length");
  }
  read_pod(&checkpoint.step);
  read_pod(&checkpoint.rows_seen);
  uint64_t num_scalars = 0;
  read_pod(&num_scalars);
  if (truncated) return corrupt("truncated");
  if (num_scalars > kMaxCheckpointEntries) {
    return corrupt("implausible scalar count");
  }
  for (uint64_t i = 0; i < num_scalars; ++i) {
    std::string key;
    if (!read_key(&key).ok()) return corrupt("implausible scalar key");
    double value = 0.0;
    read_pod(&value);
    if (truncated) return corrupt("truncated scalar table");
    checkpoint.SetScalar(key, value);
  }
  uint64_t num_matrices = 0;
  read_pod(&num_matrices);
  if (truncated) return corrupt("truncated");
  if (num_matrices > kMaxCheckpointEntries) {
    return corrupt("implausible matrix count");
  }
  for (uint64_t i = 0; i < num_matrices; ++i) {
    std::string key;
    if (!read_key(&key).ok()) return corrupt("implausible matrix key");
    uint64_t rows = 0;
    uint64_t cols = 0;
    read_pod(&rows);
    read_pod(&cols);
    if (truncated) return corrupt("truncated matrix table");
    if (rows > kMaxDim || cols > kMaxDim || rows * cols > kMaxElements) {
      return corrupt("implausible matrix dimensions");
    }
    const size_t bytes = static_cast<size_t>(rows * cols) * sizeof(double);
    if (payload_size - offset < bytes) return corrupt("truncated matrix data");
    linalg::DenseMatrix matrix(static_cast<size_t>(rows),
                               static_cast<size_t>(cols));
    std::memcpy(matrix.data(), content.data() + offset, bytes);
    offset += bytes;
    checkpoint.SetMatrix(key, std::move(matrix));
  }
  if (offset != payload_size) return corrupt("trailing garbage");
  return checkpoint;
}

Status SaveCheckpoint(const core::PcaModel& model,
                      const core::SolverCheckpoint& checkpoint,
                      const std::string& path) {
  SPCA_RETURN_IF_ERROR(SaveModel(model, path));
  const Status sidecar =
      SaveSolverState(checkpoint, path + kCheckpointSidecarSuffix);
  if (!sidecar.ok()) {
    // Never leave a model that looks resumable but has no resume state.
    std::remove(path.c_str());
    return sidecar;
  }
  return Status::Ok();
}

StatusOr<LoadedCheckpoint> LoadCheckpoint(const std::string& path) {
  auto model = LoadModel(path);
  if (!model.ok()) return model.status();
  auto state = LoadSolverState(path + kCheckpointSidecarSuffix);
  if (!state.ok()) return state.status();
  LoadedCheckpoint loaded;
  loaded.model = std::move(model).value();
  loaded.state = std::move(state).value();
  return loaded;
}

}  // namespace spca::serve
