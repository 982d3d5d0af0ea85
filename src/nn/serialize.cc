#include "nn/serialize.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "nn/matrix.h"

namespace dlacep {

namespace {

constexpr char kMagic[4] = {'D', 'L', 'N', 'N'};
constexpr uint32_t kVersion = 2;

// Sanity bounds applied before any allocation driven by file contents. A
// bit-flipped dimension field must not turn into a multi-gigabyte alloc.
constexpr uint64_t kMaxNameLen = 4096;
constexpr uint64_t kMaxDim = 1ull << 20;
constexpr uint64_t kMaxElems = 1ull << 26;  // 64 Mi doubles = 512 MiB

Status ParsePayload(const std::string& path, ByteReader* reader,
                    const std::vector<Parameter*>& params,
                    std::unordered_map<std::string, Matrix>* staged) {
  uint64_t count = 0;
  if (!reader->ReadScalar(&count)) {
    return Status::InvalidArgument("truncated DLNN file: " + path);
  }
  std::unordered_map<std::string, Parameter*> by_name;
  for (Parameter* p : params) by_name.emplace(p->name, p);

  for (uint64_t k = 0; k < count; ++k) {
    uint64_t name_len = 0;
    if (!reader->ReadScalar(&name_len) || name_len > kMaxNameLen) {
      return Status::InvalidArgument("corrupt DLNN file: " + path);
    }
    std::string name;
    if (!reader->ReadString(&name, name_len)) {
      return Status::InvalidArgument("truncated DLNN file: " + path);
    }
    uint64_t rows = 0;
    uint64_t cols = 0;
    if (!reader->ReadScalar(&rows) || !reader->ReadScalar(&cols)) {
      return Status::InvalidArgument("truncated DLNN file: " + path);
    }
    if (rows > kMaxDim || cols > kMaxDim || rows * cols > kMaxElems) {
      return Status::InvalidArgument("implausible parameter shape for " +
                                     name + " in " + path);
    }
    auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::InvalidArgument("unknown parameter in file: " + name);
    }
    const Parameter* p = it->second;
    if (p->value.rows() != rows || p->value.cols() != cols) {
      return Status::InvalidArgument("shape mismatch for parameter " + name);
    }
    if (staged->count(name) != 0) {
      return Status::InvalidArgument("duplicate parameter in file: " + name);
    }
    Matrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
    if (!reader->Read(m.data(), rows * cols * sizeof(double))) {
      return Status::InvalidArgument("truncated DLNN file: " + path);
    }
    const double* values = m.data();
    for (uint64_t i = 0; i < rows * cols; ++i) {
      if (!std::isfinite(values[i])) {
        return Status::InvalidArgument("non-finite weight in parameter " +
                                       name + " of " + path);
      }
    }
    staged->emplace(std::move(name), std::move(m));
  }
  if (staged->size() != params.size()) {
    return Status::InvalidArgument("parameter count mismatch when loading " +
                                   path);
  }
  return Status::Ok();
}

}  // namespace

Status SaveParameters(const std::vector<Parameter*>& params,
                      const std::string& path) {
  std::string payload;
  AppendScalar<uint64_t>(&payload, params.size());
  for (const Parameter* p : params) {
    AppendScalar<uint64_t>(&payload, p->name.size());
    AppendRaw(&payload, p->name.data(), p->name.size());
    const uint64_t rows = p->value.rows();
    const uint64_t cols = p->value.cols();
    AppendScalar<uint64_t>(&payload, rows);
    AppendScalar<uint64_t>(&payload, cols);
    AppendRaw(&payload, p->value.data(), rows * cols * sizeof(double));
  }
  const uint32_t crc = Crc32(payload.data(), payload.size());

  std::string bytes(kMagic, sizeof(kMagic));
  AppendScalar<uint32_t>(&bytes, kVersion);
  bytes += payload;
  AppendScalar<uint32_t>(&bytes, crc);
  return WriteFileAtomic(path, bytes);
}

Status LoadParameters(const std::vector<Parameter*>& params,
                      const std::string& path) {
  const StatusOr<std::string> read = ReadFile(path);
  if (!read.ok()) return read.status();
  const std::string& bytes = read.value();
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a DLNN parameter file: " + path);
  }
  const size_t header = sizeof(kMagic) + sizeof(uint32_t);
  uint32_t version = 0;
  if (bytes.size() >= header) {
    std::memcpy(&version, bytes.data() + sizeof(kMagic), sizeof(version));
  }
  if (version != 1 && version != kVersion) {
    return Status::InvalidArgument("unsupported DLNN version");
  }

  const char* body = bytes.data() + header;
  size_t body_len = bytes.size() - header;
  if (version == 1) {
    DLACEP_LOG(Warning) << "loading legacy DLNN v1 file (no checksum): "
                        << path;
  } else {
    if (body_len < sizeof(uint32_t)) {
      return Status::InvalidArgument("truncated DLNN file: " + path);
    }
    body_len -= sizeof(uint32_t);
    uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, body + body_len, sizeof(uint32_t));
    if (Crc32(body, body_len) != stored_crc) {
      return Status::InvalidArgument("checksum mismatch in DLNN file: " +
                                     path);
    }
  }

  ByteReader reader(body, body_len);
  // Stage everything first; parameters are only overwritten after the whole
  // file validates, so a corrupt file leaves the model untouched.
  std::unordered_map<std::string, Matrix> staged;
  DLACEP_RETURN_IF_ERROR(ParsePayload(path, &reader, params, &staged));

  for (Parameter* p : params) {
    auto it = staged.find(p->name);
    if (it == staged.end()) {
      return Status::InvalidArgument("missing parameter " + p->name +
                                     " in " + path);
    }
    p->value = std::move(it->second);
  }
  return Status::Ok();
}

}  // namespace dlacep
