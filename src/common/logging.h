// Minimal leveled logging for the library and harnesses. Defaults to WARNING
// so benchmark output stays clean; examples raise it to INFO.
#ifndef FALCON_COMMON_LOGGING_H_
#define FALCON_COMMON_LOGGING_H_

#include <cstdlib>
#include <iostream>
#include <sstream>

namespace falcon {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Global minimum level; messages below it are dropped.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

namespace internal_logging {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  std::ostream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

/// Turns `stream << ...` into void so FALCON_LOG can sit in the false arm
/// of a conditional: `&` binds looser than `<<` and tighter than `?:`.
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal_logging
}  // namespace falcon

// Usage: FALCON_LOG(Info) << "x=" << x;  The level is checked before the
// message is built, so a disabled statement evaluates none of its stream
// operands: it costs one GetLogLevel() call and a branch.
#define FALCON_LOG(level)                                               \
  (::falcon::LogLevel::k##level < ::falcon::GetLogLevel())              \
      ? (void)0                                                         \
      : ::falcon::internal_logging::Voidify() &                         \
            ::falcon::internal_logging::LogMessage(                     \
                ::falcon::LogLevel::k##level, __FILE__, __LINE__)       \
                .stream()

/// Fatal invariant check, active in all build types.
#define FALCON_CHECK(cond)                                             \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::cerr << "FALCON_CHECK failed at " << __FILE__ << ":"        \
                << __LINE__ << ": " #cond << std::endl;                \
      std::abort();                                                    \
    }                                                                  \
  } while (false)

/// Debug-build-only invariant check; compiles to nothing under NDEBUG so it
/// can guard hot loops (e.g. bitmap universe-size agreement).
#ifdef NDEBUG
#define FALCON_DCHECK(cond) \
  do {                      \
  } while (false)
#else
#define FALCON_DCHECK(cond) FALCON_CHECK(cond)
#endif

#endif  // FALCON_COMMON_LOGGING_H_
