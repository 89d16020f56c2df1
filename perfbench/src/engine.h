// In-process cleaning sessions driven one analyst step at a time, shared by
// every workload: the measured runs of the in-process workloads, the
// reference runs of the correctness gate, and the serial twins of service
// sessions.
#ifndef PERFBENCH_ENGINE_H_
#define PERFBENCH_ENGINE_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/session.h"
#include "datagen/spec.h"
#include "relational/table.h"
#include "report.h"

namespace perfbench {

/// Which session configuration runs.
enum class EnginePath {
  kDefault,    ///< Default SessionOptions (CoDive, B = 3).
  /// The simple reference path: eager dense lattices rebuilt after every
  /// applied rule (naive_maintenance), no posting index, no intersection
  /// memo. (The paper's naive_init strawman is left out: at 200k rows it
  /// alone costs about a minute per session.)
  kReference,
};

/// What one session does besides stepping to convergence: after
/// `warm_steps` steps, every chunk is appended (clean rows first, then
/// CleaningSession::AppendBatch), then stepping resumes.
struct SessionPlan {
  size_t warm_steps = 0;
  const std::vector<falcon::SpecAppendChunk>* chunks = nullptr;
};

/// Counters summed over traced sessions (per-layer metrics).
struct EngineTotals {
  size_t sessions = 0;
  size_t steps = 0;
  double step_ms = 0.0;
  double search_ms = 0.0;
  double oracle_ms = 0.0;
  size_t search_questions = 0;
  size_t oracle_questions = 0;
  double build_ms = 0.0;
  double maintain_ms = 0.0;
  double scan_ms = 0.0;
  size_t nodes_materialized = 0;
  size_t nodes_total = 0;
  size_t posting_hits = 0;
  size_t posting_probes = 0;
  size_t memo_hits = 0;
  size_t memo_probes = 0;
  size_t memo_admitted = 0;
  size_t max_posting_resident_bytes = 0;
  size_t append_batches = 0;
  size_t rows_appended = 0;
  double append_ms = 0.0;
  double append_maintain_ms = 0.0;
};

/// Outcome of one session.
struct SessionOutcome {
  falcon::Status status = falcon::Status::Ok();
  falcon::SessionMetrics metrics;
  bool equals_clean = false;  ///< Final dirty table == grown clean table.
  size_t steps = 0;
  double wall_ms = 0.0;
  falcon::Table final_table;  ///< Kept only when requested.
};

/// Runs one session over COW clones of (clean, dirty) to convergence,
/// stepping with RunSteps(1). `samples` (nullable) receives step and append
/// timings;
/// `totals` (nullable) switches on the traced decorators and receives the
/// per-layer counters.
SessionOutcome RunEngineSession(const falcon::Table& clean,
                                const falcon::Table& dirty,
                                const SessionPlan& plan, uint64_t seed,
                                EnginePath path, bool keep_final,
                                RunResult* samples, EngineTotals* totals);

/// Per-layer metrics derived from traced sessions.
void AddEngineLayers(const EngineTotals& t, RunResult* r);

/// Out-of-window probes on the workload's table: cold TopK over every
/// column, a full posting-index build, and one table CRC.
void AddTableProbes(const falcon::Table& dirty, RunResult* r);

/// Checks a measured session against the reference outcome: converged to
/// the clean table with the same U and A. Records a failure on any
/// mismatch.
void CheckAgainstReference(const char* what, const SessionOutcome& got,
                           const SessionOutcome& want, RunResult* r);

/// Step and session records needed to count at least this many samples
/// of each latency (ten beyond the p99).
inline constexpr size_t kMinSamples = 1000;

}  // namespace perfbench

#endif  // PERFBENCH_ENGINE_H_
