// Lattice micro benchmark: lazy materialization vs. the legacy
// eager build, on the lattice hot paths. Four sections:
//
//  1. Build cost: Lattice::Build with lazy materialization (bottom node +
//     predicate bitmaps only) vs. the eager chain (every node ANDed up
//     front), across lattice widths. The headline `build_speedup` is the
//     widest configuration.
//  2. Count access: the first Count on a fresh lattice, which counts all
//     2^k nodes in one lattice_counts kernel pass and builds no node
//     bitmap; every count must equal the eager lattice's popcount.
//  3. Full cleaning sessions lazy vs. eager: the determinism gate. All
//     interaction metrics must be bit-identical; the lazy run must report
//     nodes_materialized < nodes_total.
//  4. Maintenance (Fig. 8a's shape): the same CoDive session with the
//     incremental Case 1-3 maintenance and with the naive rebuild of every
//     affected set after each applied rule, reported as lattice maintenance
//     ms per user update. Both run the eager lattice, so each maintains or
//     rebuilds every node, as in the paper (a lazy naive rebuild would
//     only drop its caches and pay the rebuild later, outside the
//     maintenance timer). U and A must be equal.
//
// Emits BENCH_micro_lattice.json. Exit code 1 when the determinism gate
// fails, the lazy path degenerates to full materialization, or the two
// maintenance runs disagree on U/A. Default 500k rows; --quick shrinks to
// 50k for CI smoke, --scale=<f> multiplies rows.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

#include "common/simd.h"
#include "core/lattice.h"
#include "core/session.h"
#include "datagen/datasets.h"
#include "errorgen/injector.h"
#include "relational/posting_index.h"

using namespace falcon;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Fixture {
  Table clean;
  Table dirty;
  Repair repair;
  std::vector<size_t> cols;  // Candidate WHERE columns (repair col excluded).
};

Fixture MakeFixture(const Table& clean, const Table& dirty,
                    const ErrorCell& e, size_t attrs) {
  Fixture f;
  f.clean = clean.Clone();
  f.dirty = dirty.Clone();
  f.repair = Repair{e.row, e.col,
                    std::string(clean.pool()->Get(e.clean_value))};
  for (size_t c = 0; c < f.dirty.num_cols() && f.cols.size() + 1 < attrs;
       ++c) {
    if (c != e.col) f.cols.push_back(c);
  }
  return f;
}

struct BuildResult {
  size_t attrs = 0;
  double eager_ms = 0;
  double lazy_ms = 0;
  double speedup = 0;
};

// Average per-build wall time over `iters` builds (one untimed warm-up).
double TimeBuilds(const Fixture& f, const LatticeOptions& options,
                  size_t iters) {
  { auto warm = Lattice::Build(f.dirty, f.repair, f.cols, options); }
  double t0 = NowMs();
  for (size_t i = 0; i < iters; ++i) {
    auto lat = Lattice::Build(f.dirty, f.repair, f.cols, options);
    if (!lat.ok()) return -1;
  }
  return (NowMs() - t0) / static_cast<double>(iters);
}

struct SessionResult {
  std::string name;
  double wall_ms = 0;
  SessionMetrics metrics;
};

SessionResult RunSession(const std::string& name, const Table& clean,
                         const Table& dirty, bool lazy,
                         SearchKind kind = SearchKind::kDive,
                         bool naive_maintenance = false) {
  SessionOptions options;
  options.budget = 1000;  // Effectively unbounded (Fig. 8 setting).
  options.max_updates = 40;
  options.lattice_attrs = 10;
  options.lattice.lazy = lazy;
  options.naive_maintenance = naive_maintenance;
  double t0 = NowMs();
  auto m = RunCleaning(clean, dirty, kind, options);
  SessionResult r;
  r.name = name;
  r.wall_ms = NowMs() - t0;
  if (m.ok()) r.metrics = *m;
  return r;
}

void PrintSession(FILE* f, const SessionResult& r, bool trailing_comma) {
  const SessionMetrics& m = r.metrics;
  std::fprintf(f,
               "    \"%s\": {\"wall_ms\": %.2f, \"lattice_build_ms\": %.3f, "
               "\"lattice_maintain_ms\": %.3f, \"lattices_built\": %zu, "
               "\"nodes_materialized\": %zu, \"nodes_total\": %zu, "
               "\"user_updates\": %zu, "
               "\"user_answers\": %zu, \"cells_repaired\": %zu, "
               "\"queries_applied\": %zu}%s\n",
               r.name.c_str(), r.wall_ms, m.lattice_build_ms,
               m.lattice_maintain_ms, m.lattices_built, m.nodes_materialized,
               m.nodes_total, m.user_updates,
               m.user_answers, m.cells_repaired, m.queries_applied,
               trailing_comma ? "," : "");
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  simd::ApplyLevelFlag(flags);
  double scale = bench::ParseScale(flags);
  size_t rows = static_cast<size_t>(500000.0 * scale);
  if (bench::ParseQuick(flags)) rows = 50000;
  if (auto rc = flags.Done(
          "bench_micro_lattice — lazy vs eager lattice materialization")) {
    return *rc;
  }
  bench::PrintBanner(
      "bench_micro_lattice — lazy materialization vs eager build",
      "Section 5.1 lattice hot paths");

  auto ds = MakeSynth(rows, 41);
  if (!ds.ok()) {
    std::fprintf(stderr, "dataset generation failed\n");
    return 1;
  }
  // Concentrate the errors on one FD target (A2,A3 → A6): successive
  // episodes repair tuples sharing predicate bindings.
  ErrorSpec spec;
  spec.seed = 31;
  RuleErrorSpec rule;
  rule.rule.lhs = {"A2", "A3"};
  rule.rule.rhs = "A6";
  rule.num_patterns = 32;
  rule.errors_per_pattern = std::max<size_t>(rows / 2500, 2);
  spec.rule_errors = {rule};
  auto injected = InjectErrors(ds->clean, spec);
  if (!injected.ok()) {
    std::fprintf(stderr, "error injection failed\n");
    return 1;
  }
  const Table& clean = ds->clean;
  const Table& dirty = injected->dirty;
  const ErrorCell& e = injected->errors.front();
  std::printf("rows=%zu cols=%zu errors=%zu\n", clean.num_rows(),
              clean.num_cols(), injected->errors.size());

  // --- Build cost: lazy vs eager across lattice widths ----------------------
  std::vector<BuildResult> builds;
  std::printf("\nbuild cost (per build, averaged):\n");
  for (size_t attrs : {6u, 8u, 10u}) {
    Fixture f = MakeFixture(clean, dirty, e, attrs);
    LatticeOptions eager;
    eager.lazy = false;
    LatticeOptions lazy;  // lazy = true by default.
    size_t iters = attrs >= 10 ? 3 : 5;
    BuildResult b;
    b.attrs = f.cols.size() + 1;
    b.eager_ms = TimeBuilds(f, eager, iters);
    b.lazy_ms = TimeBuilds(f, lazy, iters);
    b.speedup = b.eager_ms / std::max(b.lazy_ms, 1e-6);
    builds.push_back(b);
    std::printf("  k=%-2zu (%5zu nodes): eager %9.3f ms  lazy %9.3f ms  "
                "speedup %.1fx\n",
                b.attrs, size_t{1} << b.attrs, b.eager_ms, b.lazy_ms,
                b.speedup);
  }
  double build_speedup = builds.back().speedup;

  // --- Count access: one kernel pass over the whole lattice --------------
  // Best of three fresh lattices (the first also faults the count array's
  // pages in); the eager lattice's popcounts are the reference.
  Fixture cf = MakeFixture(clean, dirty, e, 10);
  LatticeOptions eager_counts;
  eager_counts.lazy = false;
  auto ref_lat = Lattice::Build(cf.dirty, cf.repair, cf.cols, eager_counts);
  if (!ref_lat.ok()) {
    std::fprintf(stderr, "lattice build failed\n");
    return 1;
  }
  size_t count_total = ref_lat->num_nodes();
  double kernel_count_ms = 1e30;
  bool counts_match = true;
  size_t count_materialized = 0;
  for (int rep = 0; rep < 3; ++rep) {
    auto lat = Lattice::Build(cf.dirty, cf.repair, cf.cols);
    if (!lat.ok()) {
      std::fprintf(stderr, "lattice build failed\n");
      return 1;
    }
    double t0 = NowMs();
    lat->Count(lat->top());
    kernel_count_ms = std::min(kernel_count_ms, NowMs() - t0);
    for (NodeId m = 0; m < count_total; ++m) {
      counts_match = counts_match && lat->Count(m) == ref_lat->Count(m);
    }
    count_materialized = lat->lazy_stats().nodes_materialized;
  }
  std::printf("\nfull-lattice counts (%zu nodes): kernel %0.3f ms; "
              "materialized %zu/%zu nodes; counts %s\n",
              count_total, kernel_count_ms, count_materialized, count_total,
              counts_match ? "match eager" : "MISMATCH");

  // --- Session comparison (determinism gate) --------------------------------
  SessionResult lazy_run = RunSession("lazy", clean, dirty, /*lazy=*/true);
  SessionResult eager_run = RunSession("eager", clean, dirty, /*lazy=*/false);

  bool identical =
      lazy_run.metrics.user_updates == eager_run.metrics.user_updates &&
      lazy_run.metrics.user_answers == eager_run.metrics.user_answers &&
      lazy_run.metrics.cells_repaired == eager_run.metrics.cells_repaired &&
      lazy_run.metrics.queries_applied == eager_run.metrics.queries_applied &&
      lazy_run.metrics.converged == eager_run.metrics.converged;
  bool actually_lazy =
      lazy_run.metrics.nodes_total > 0 &&
      lazy_run.metrics.nodes_materialized < lazy_run.metrics.nodes_total;
  double lazy_ratio =
      lazy_run.metrics.nodes_total == 0
          ? 1.0
          : static_cast<double>(lazy_run.metrics.nodes_materialized) /
                static_cast<double>(lazy_run.metrics.nodes_total);
  double session_build_speedup = eager_run.metrics.lattice_build_ms /
                                 std::max(lazy_run.metrics.lattice_build_ms,
                                          1e-6);

  std::printf("\n%-7s %9s %11s %14s\n", "mode", "wall(ms)", "build(ms)",
              "materialized");
  for (const SessionResult* r : {&lazy_run, &eager_run}) {
    std::printf("%-7s %9.1f %11.3f %7zu/%-7zu\n", r->name.c_str(),
                r->wall_ms, r->metrics.lattice_build_ms,
                r->metrics.nodes_materialized, r->metrics.nodes_total);
  }
  std::printf("\nbuild speedup (widest micro config): %.1fx\n", build_speedup);
  std::printf("session lattice_build_ms speedup:    %.2fx\n",
              session_build_speedup);
  std::printf("lazy materialization ratio:          %.3f\n", lazy_ratio);
  std::printf("identical session metrics lazy/eager: %s\n",
              identical ? "yes" : "NO — DETERMINISM BROKEN");
  if (!actually_lazy) {
    std::printf("LAZY PATH DEGENERATED: nodes_materialized == nodes_total\n");
  }

  // --- Maintenance: incremental vs naive rebuild (Fig. 8a) -----------------
  SessionResult inc_run =
      RunSession("incremental", clean, dirty, /*lazy=*/false,
                 SearchKind::kCoDive, /*naive_maintenance=*/false);
  SessionResult naive_run =
      RunSession("naive", clean, dirty, /*lazy=*/false, SearchKind::kCoDive,
                 /*naive_maintenance=*/true);
  auto per_update = [](const SessionResult& r) {
    return r.metrics.lattice_maintain_ms /
           static_cast<double>(std::max<size_t>(1, r.metrics.user_updates));
  };
  double inc_per_update = per_update(inc_run);
  double naive_per_update = per_update(naive_run);
  bool maintenance_same_ua =
      inc_run.metrics.user_updates == naive_run.metrics.user_updates &&
      inc_run.metrics.user_answers == naive_run.metrics.user_answers;
  std::printf("\nmaintenance (CoDive, U=%zu A=%zu): incremental %.3f ms/update"
              "  naive %.3f ms/update  (%.1fx); U/A %s\n",
              inc_run.metrics.user_updates, inc_run.metrics.user_answers,
              inc_per_update, naive_per_update,
              naive_per_update / std::max(inc_per_update, 1e-9),
              maintenance_same_ua ? "equal" : "DIFFER");

  FILE* f = std::fopen("BENCH_micro_lattice.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"micro_lattice\",\n  \"rows\": %zu,\n",
                 rows);
    std::fprintf(f, "  \"meta\": %s,\n",
                 bench::BenchMeta().Serialize().c_str());
    std::fprintf(f, "  \"build\": [\n");
    for (size_t i = 0; i < builds.size(); ++i) {
      const BuildResult& b = builds[i];
      std::fprintf(f,
                   "    {\"attrs\": %zu, \"nodes\": %zu, \"eager_ms\": %.3f, "
                   "\"lazy_ms\": %.3f, \"speedup\": %.2f}%s\n",
                   b.attrs, size_t{1} << b.attrs, b.eager_ms, b.lazy_ms,
                   b.speedup, i + 1 < builds.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"counts\": {\"nodes_total\": %zu, "
                 "\"kernel_ms\": %.3f, \"nodes_materialized\": %zu, "
                 "\"counts_match\": %s},\n",
                 count_total, kernel_count_ms, count_materialized,
                 counts_match ? "true" : "false");
    std::fprintf(f, "  \"sessions\": {\n");
    PrintSession(f, lazy_run, true);
    PrintSession(f, eager_run, false);
    std::fprintf(f, "  },\n");
    std::fprintf(f,
                 "  \"identical_metrics\": %s,\n"
                 "  \"lazy_path_lazy\": %s,\n"
                 "  \"lazy_ratio\": %.4f,\n"
                 "  \"lattice_build_ms\": {\"lazy\": %.3f, \"eager\": %.3f},\n"
                 "  \"build_speedup\": %.2f,\n"
                 "  \"session_build_speedup\": %.2f,\n",
                 identical ? "true" : "false",
                 actually_lazy ? "true" : "false", lazy_ratio,
                 lazy_run.metrics.lattice_build_ms,
                 eager_run.metrics.lattice_build_ms, build_speedup,
                 session_build_speedup);
    std::fprintf(f,
                 "  \"maintenance\": {\"algorithm\": \"CoDive\", "
                 "\"user_updates\": %zu, \"user_answers\": %zu, "
                 "\"naive_user_updates\": %zu, \"naive_user_answers\": %zu, "
                 "\"incremental_ms_per_update\": %.4f, "
                 "\"naive_ms_per_update\": %.4f, \"same_ua\": %s}\n}\n",
                 inc_run.metrics.user_updates, inc_run.metrics.user_answers,
                 naive_run.metrics.user_updates,
                 naive_run.metrics.user_answers, inc_per_update,
                 naive_per_update, maintenance_same_ua ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_micro_lattice.json\n");
  }
  return (identical && actually_lazy && counts_match && maintenance_same_ua)
             ? 0
             : 1;
}
