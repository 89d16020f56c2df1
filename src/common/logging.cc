#include "common/logging.h"

#include <atomic>

namespace falcon {
namespace {
// Atomic: every FALCON_LOG statement reads it, from any thread.
std::atomic<LogLevel> g_level{LogLevel::kWarning};

const char* LevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarning:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}
}  // namespace

LogLevel GetLogLevel() { return g_level.load(std::memory_order_relaxed); }
void SetLogLevel(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line) {
  const char* base = file;
  for (const char* p = file; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  stream_ << "[" << LevelName(level) << " " << base << ":" << line << "] ";
}

// FALCON_LOG constructs a LogMessage only for enabled levels.
LogMessage::~LogMessage() { std::cerr << stream_.str() << std::endl; }

}  // namespace internal_logging
}  // namespace falcon
