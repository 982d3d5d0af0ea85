// Minimal leveled logging to stderr.
//
// Usage: DLACEP_LOG(INFO) << "trained " << epochs << " epochs";
// The global level defaults to INFO and can be lowered to silence
// benchmarks/tests (SetLogLevel(LogLevel::kWarning)).

#ifndef DLACEP_COMMON_LOGGING_H_
#define DLACEP_COMMON_LOGGING_H_

#include <sstream>
#include <string>

namespace dlacep {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Sets the minimum level that is actually emitted.
void SetLogLevel(LogLevel level);

namespace internal {

/// Collects one log line and flushes it (with level tag) on destruction.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (enabled_) stream_ << value;
    return *this;
  }

 private:
  bool enabled_;
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace dlacep

#define DLACEP_LOG(severity)                                      \
  ::dlacep::internal::LogMessage(::dlacep::LogLevel::k##severity, \
                                 __FILE__, __LINE__)

// Convenience aliases matching common spellings.
#define DLACEP_LOG_INFO DLACEP_LOG(Info)
#define DLACEP_LOG_WARN DLACEP_LOG(Warning)
#define DLACEP_LOG_ERROR DLACEP_LOG(Error)
#define DLACEP_LOG_DEBUG DLACEP_LOG(Debug)

#endif  // DLACEP_COMMON_LOGGING_H_
