// The two in-process workloads: session_large (engine layers on a large
// table, no service, no journal) and stream_append (the only workload that
// appends rows into a live session's posting index and lattice caches).
#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/session_journal.h"
#include "datagen/datasets.h"
#include "datagen/spec.h"
#include "engine.h"
#include "errorgen/injector.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s reports their median.
constexpr int kSetupRepeats = 5;

struct Base {
  falcon::Table clean;
  falcon::Table dirty;
};

/// Measured window shared by both in-process workloads: one untimed
/// warm-up session (the process's first session also pays allocator
/// growth), then back-to-back sessions over the same input until the
/// window has lasted config.seconds and holds enough step samples, then
/// the reference run and (traced runs) the probes. In traced runs every
/// other session is traced; the untraced ones give the tracing overhead.
void MeasureInProcess(const RunConfig& config, const Base& base,
                      const SessionPlan& plan, RunResult* r) {
  std::optional<SessionOutcome> first;
  {
    TraceScope off(false);
    first = RunEngineSession(base.clean, base.dirty, plan, config.seed,
                             EnginePath::kDefault, /*keep_final=*/true,
                             nullptr, nullptr);
  }
  EngineTotals totals;
  std::vector<double> traced_ms;
  std::vector<double> untraced_ms;
  std::vector<SessionOutcome> outcomes;
  const double hard_stop_s = 4 * config.seconds + 60;
  double start = NowMs();
  for (size_t i = 0;; ++i) {
    bool traced = config.trace && i % 2 == 1;
    TraceScope scope(traced);
    Tracer::Global().SetTrace(i + 1);
    SessionOutcome o = RunEngineSession(
        base.clean, base.dirty, plan, config.seed, EnginePath::kDefault,
        /*keep_final=*/false, r, traced ? &totals : nullptr);
    if (o.status.ok()) {
      r->session_s.push_back(o.wall_ms / 1000.0);
      r->user_cost.push_back(static_cast<double>(o.metrics.TotalCost()));
      (traced ? traced_ms : untraced_ms).push_back(o.wall_ms);
    }
    outcomes.push_back(std::move(o));
    double elapsed_s = (NowMs() - start) / 1000.0;
    bool enough = elapsed_s >= config.seconds &&
                  r->step_ms.size() >= kMinSamples &&
                  (!config.trace || i >= 1);
    if (enough || elapsed_s > hard_stop_s) break;
  }
  r->window_s = (NowMs() - start) / 1000.0;
  r->peak_rss_mb = PeakRssMb();

  // Correctness gate, outside the window: the simple reference path on the
  // same input (same append schedule) must reach the same U, A and final
  // table, and every measured session must equal it.
  Tracer::Global().SetTrace(0);
  std::optional<SessionOutcome> reference;
  {
    TraceScope off(false);
    reference = RunEngineSession(base.clean, base.dirty, plan, config.seed,
                                 EnginePath::kReference, /*keep_final=*/true,
                                 nullptr, nullptr);
  }
  const SessionOutcome& ref = *reference;
  ++r->attempted;
  if (!ref.status.ok() || !ref.equals_clean) {
    r->Fail("reference run: " + (ref.status.ok()
                                     ? std::string("did not converge")
                                     : ref.status.ToString()));
  } else {
    ++r->attempted;
    uint32_t want = falcon::TableContentsCrc(ref.final_table);
    uint32_t got = first->status.ok()
                       ? falcon::TableContentsCrc(first->final_table)
                       : 0;
    if (got != want) r->Fail("final-table CRC differs from reference");
    CheckAgainstReference("warm-up session", *first, ref, r);
    for (size_t i = 0; i < outcomes.size(); ++i) {
      std::string what = "session " + std::to_string(i + 1);
      CheckAgainstReference(what.c_str(), outcomes[i], ref, r);
    }
  }
  std::string times;
  for (double s : r->session_s) times += " " + std::to_string(s);
  r->notes.push_back("session wall times (s):" + times);
  r->notes.push_back(
      "sessions: " + std::to_string(outcomes.size()) + " measured, U=" +
      std::to_string(ref.metrics.user_updates) + " A=" +
      std::to_string(ref.metrics.user_answers) + " initial errors=" +
      std::to_string(ref.metrics.initial_errors) + " rows appended=" +
      std::to_string(ref.metrics.rows_appended));

  if (config.trace) {
    AddEngineLayers(totals, r);
    AddTableProbes(base.dirty, r);
    if (!traced_ms.empty() && !untraced_ms.empty()) {
      r->layer["trace.overhead_frac"] =
          Median(traced_ms) / Median(untraced_ms) - 1.0;
    }
  }
}

}  // namespace

RunResult RunSessionLarge(const RunConfig& config) {
  // ~200k rows x 10 attributes: large enough that the engine layers
  // (profiling, lattice, posting index, search) dominate each step.
  constexpr size_t kRows = 200000;
  RunResult r;
  std::optional<Base> base;
  for (int i = 0; i < kSetupRepeats; ++i) {
    base.reset();
    ScopedSpan span("setup");
    double t0 = NowMs();
    auto ds = falcon::MakeSynth(kRows, config.seed);
    if (!ds.ok()) {
      r.Fail("MakeSynth: " + ds.status().ToString());
      return r;
    }
    auto dirty = falcon::InjectErrors(ds->clean, ds->error_spec);
    if (!dirty.ok()) {
      r.Fail("InjectErrors: " + dirty.status().ToString());
      return r;
    }
    base = Base{std::move(ds->clean), std::move(dirty->dirty)};
    r.setup_s.push_back((NowMs() - t0) / 1000.0);
  }
  r.layer["datagen.build_ms"] = Median(r.setup_s) * 1000.0;
  MeasureInProcess(config, *base, SessionPlan{}, &r);
  return r;
}

namespace {

// The default GeneratorSpec of the Fig. 8 scalability bench at `rows`
// rows: derived fields are exact FDs by construction.
std::string StreamSpecJson(size_t rows, uint64_t seed) {
  size_t city_domain = std::max<size_t>(rows / 2000, 8);
  size_t zip_domain = std::max<size_t>(rows / 2000, 8);
  std::ostringstream os;
  os << "{\"name\": \"stream\", \"seed\": " << seed << ", \"rows\": " << rows
     << ", \"fields\": ["
     << "{\"name\": \"id\", \"dist\": \"unique\", \"prefix\": \"R\"},"
     << "{\"name\": \"city\", \"dist\": \"zipf\", \"domain\": " << city_domain
     << ", \"skew\": 1.0, \"prefix\": \"City\"},"
     << "{\"name\": \"state\", \"dist\": \"derived\", \"parents\": [\"city\"],"
     << " \"domain\": " << std::max<size_t>(city_domain / 10, 4)
     << ", \"prefix\": \"St\"},"
     << "{\"name\": \"zip\", \"dist\": \"uniform\", \"domain\": " << zip_domain
     << ", \"prefix\": \"Z\"},"
     << "{\"name\": \"area\", \"dist\": \"derived\", \"parents\": [\"zip\"],"
     << " \"domain\": " << std::max<size_t>(zip_domain / 20, 4)
     << ", \"prefix\": \"A\"},"
     << "{\"name\": \"flag\", \"dist\": \"dictionary\","
     << " \"values\": [\"yes\", \"no\", \"maybe\"]}],"
     << "\"errors\": {\"rules\": [{\"lhs\": [\"city\"], \"rhs\": \"state\","
     << " \"patterns\": 5, \"errors_per_pattern\": 20}],"
     << " \"random_errors\": 100, \"seed\": 5},"
     << "\"append\": {\"batches\": 20, \"rows_per_batch\": 10000,"
     << " \"error_rate\": 0.0005}}";
  return os.str();
}

}  // namespace

RunResult RunStreamAppend(const RunConfig& config) {
  constexpr size_t kRows = 1000000;
  constexpr size_t kWarmSteps = 5;
  RunResult r;
  auto spec = falcon::GeneratorSpec::Parse(StreamSpecJson(kRows, config.seed));
  if (!spec.ok()) {
    r.Fail("spec: " + spec.status().ToString());
    return r;
  }
  std::optional<falcon::SpecWorkload> sw;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sw.reset();
    ScopedSpan span("setup");
    double t0 = NowMs();
    auto made = falcon::MakeSpecWorkload(*spec);
    if (!made.ok()) {
      r.Fail("MakeSpecWorkload: " + made.status().ToString());
      return r;
    }
    sw.emplace(std::move(made).value());
    r.setup_s.push_back((NowMs() - t0) / 1000.0);
  }
  r.layer["datagen.build_ms"] = Median(r.setup_s) * 1000.0;

  // The appended stream is generated before the window opens.
  std::vector<falcon::SpecAppendChunk> chunks;
  for (size_t b = 0; b < spec->append.batches; ++b) {
    auto chunk = sw->generator.AppendBatchChunk(
        spec->rows + b * spec->append.rows_per_batch,
        spec->append.rows_per_batch);
    if (!chunk.ok()) {
      r.Fail("append chunk: " + chunk.status().ToString());
      return r;
    }
    chunks.push_back(std::move(chunk).value());
  }
  Base base{std::move(sw->workload.clean), std::move(sw->workload.dirty)};
  SessionPlan plan;
  plan.warm_steps = kWarmSteps;
  plan.chunks = &chunks;
  MeasureInProcess(config, base, plan, &r);
  return r;
}

}  // namespace perfbench
