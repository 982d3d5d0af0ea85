#include "common/logging.h"

#include <cstdio>

namespace dlacep {

namespace {
LogLevel g_level = LogLevel::kInfo;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "D";
    case LogLevel::kInfo: return "I";
    case LogLevel::kWarning: return "W";
    case LogLevel::kError: return "E";
  }
  return "?";
}
}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : enabled_(level >= g_level), level_(level) {
  if (enabled_) {
    // Keep only the basename to avoid noisy absolute paths.
    const char* base = file;
    for (const char* p = file; *p; ++p) {
      if (*p == '/') base = p + 1;
    }
    stream_ << "[" << LevelTag(level_) << " " << base << ":" << line << "] ";
  }
}

LogMessage::~LogMessage() {
  if (enabled_) {
    std::fprintf(stderr, "%s\n", stream_.str().c_str());
  }
}

}  // namespace internal
}  // namespace dlacep
