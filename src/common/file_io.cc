#include "common/file_io.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dlacep {

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::Internal("open failed for " + tmp + ": " +
                            std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::Internal("write failed for " + tmp + ": " +
                              std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::Internal("fsync failed for " + tmp + ": " +
                            std::strerror(err));
  }
  if (::close(fd) != 0) {
    return Status::Internal("close failed for " + tmp);
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::Internal("rename failed for " + path + ": " +
                            std::strerror(err));
  }
  // Persist the rename itself: fsync the containing directory. Without
  // it, a power loss right after rename() can leave a directory that
  // still names the old file (or nothing), silently losing a write the
  // caller was told succeeded — so a failure here is an error, not
  // best-effort.
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash);
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    return Status::Internal("open failed for dir " + dir + ": " +
                            std::strerror(errno));
  }
  if (::fsync(dfd) != 0) {
    const int err = errno;
    ::close(dfd);
    return Status::Internal("fsync failed for dir " + dir + ": " +
                            std::strerror(err));
  }
  if (::close(dfd) != 0) {
    return Status::Internal("close failed for dir " + dir);
  }
  return Status::Ok();
}

StatusOr<std::string> ReadFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open for reading: " + path);
  }
  std::string bytes;
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      return Status::Internal("read failed for " + path + ": " +
                              std::strerror(err));
    }
    if (n == 0) break;
    bytes.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return bytes;
}

}  // namespace dlacep
