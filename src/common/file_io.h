// Whole-file I/O and byte encoding for the on-disk artifacts: DLNN
// model files (nn/serialize.cc) and runtime checkpoints
// (runtime/checkpoint.cc).
//
// Writes are durable replacements: the bytes go to `<path>.tmp`, which
// is fsync'd and renamed over `path`, and then the directory is fsync'd.
// A crash mid-write leaves the previous file intact (at worst a stray
// `.tmp` beside it), never a torn one.

#ifndef DLACEP_COMMON_FILE_IO_H_
#define DLACEP_COMMON_FILE_IO_H_

#include <cstring>
#include <string>

#include "common/status.h"

namespace dlacep {

inline void AppendRaw(std::string* buf, const void* data, size_t len) {
  buf->append(static_cast<const char*>(data), len);
}

template <typename T>
void AppendScalar(std::string* buf, T v) {
  AppendRaw(buf, &v, sizeof(v));
}

/// Cursor over an in-memory file; every read is bounds-checked, so a
/// truncated file fails cleanly instead of reading past the buffer.
class ByteReader {
 public:
  ByteReader(const char* data, size_t len) : data_(data), len_(len) {}

  bool Read(void* out, size_t n) {
    if (n > len_ - pos_) return false;
    // An empty vector's data() may be null, and memcpy forbids null
    // pointers even for zero bytes.
    if (n == 0) return true;
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
    return true;
  }

  template <typename T>
  bool ReadScalar(T* out) {
    return Read(out, sizeof(T));
  }

  bool ReadString(std::string* out, size_t n) {
    if (n > len_ - pos_) return false;
    out->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

  bool AtEnd() const { return pos_ == len_; }

 private:
  const char* data_;
  size_t len_;
  size_t pos_ = 0;
};

/// Atomically replaces `path` with `bytes` (temp file, fsync, rename,
/// directory fsync). OK means the new contents are crash-durable.
Status WriteFileAtomic(const std::string& path, const std::string& bytes);

/// Reads the whole file at `path`; NotFound if it cannot be opened.
StatusOr<std::string> ReadFile(const std::string& path);

}  // namespace dlacep

#endif  // DLACEP_COMMON_FILE_IO_H_
