// Bench-side tracing: spans recorded around calls into FALCON's public
// interfaces (never inside the program). A span has a name, a start and an
// end on the steady clock, the span that caused it, and the trace id of the
// session it belongs to. Spans are kept in memory and written once at exit.
//
// Tracing is off in end-to-end runs; a separate traced run produces the
// per-layer split, and the difference between the two is reported as the
// tracing overhead.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Milliseconds on the steady clock since an arbitrary epoch.
inline double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  const char* name = "";  ///< Static string: a layer-qualified span name.
  uint64_t trace_id = 0;  ///< One id per session (0 = set-up and probes).
  int64_t parent = -1;    ///< Index of the enclosing span, -1 at the root.
  double start_ms = 0.0;
  double end_ms = 0.0;
};

/// Aggregate of all spans with one name.
struct SpanTotals {
  size_t count = 0;
  double total_ms = 0.0;  ///< Σ durations.
  double self_ms = 0.0;   ///< Σ (duration − time covered by child spans).
};

class Tracer {
 public:
  /// Process-wide recorder. Disabled until Enable(true).
  static Tracer& Global();

  void Enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Trace id stamped on spans opened by this thread from now on.
  void SetTrace(uint64_t id);

  /// Opens a span on this thread's stack; returns its index (-1 when off).
  int64_t Begin(const char* name);
  void End(int64_t index);

  /// A span outside the thread's stack, for requests a single thread
  /// multiplexes: the caller decides whether to trace, names the trace and
  /// parent explicitly, and closes the span with EndAt (a no-op for -1).
  int64_t BeginAt(const char* name, uint64_t trace_id, int64_t parent,
                  double start_ms);
  void EndAt(int64_t index, double end_ms);

  /// Per-name totals with self time: a span's duration minus the part of
  /// its interval covered by its direct children.
  std::map<std::string, SpanTotals> Totals() const;

  /// Writes every span as one JSON object per line. Returns false on I/O
  /// failure.
  bool Write(const std::string& path) const;

  size_t size() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  ///< Guarded by mu_.
};

/// Switches span recording on or off for a scope, restoring it after.
class TraceScope {
 public:
  explicit TraceScope(bool on) : previous_(Tracer::Global().enabled()) {
    Tracer::Global().Enable(on);
  }
  ~TraceScope() { Tracer::Global().Enable(previous_); }
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  bool previous_;
};

/// RAII span; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name)
      : index_(Tracer::Global().enabled() ? Tracer::Global().Begin(name)
                                          : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) Tracer::Global().End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
