// Lattice micro benchmark on the lattice hot paths. Two sections:
//
//  1. Count access: the first Count on a fresh lattice, which counts all
//     2^k nodes in one lattice_counts kernel pass and builds no node
//     bitmap; every count must equal the popcount of a naive_init
//     lattice's bitmap (the strawman's row loop per node).
//  2. Maintenance (Fig. 8a's shape): the same CoDive session on the default
//     lattice with the incremental Case 1-3 maintenance and with the naive
//     recomputation of every affected set after each applied rule (a
//     rescan of the bottom and predicates and a full kernel recount, both
//     inside the maintenance timer), reported as lattice maintenance ms per
//     user update. U and A must be equal, and the incremental session must
//     stay lazy: nodes_materialized < nodes_total.
//
// Emits BENCH_micro_lattice.json. Exit code 1 when a kernel count differs
// from the naive popcount, the lattice degenerates to full
// materialization, or the two maintenance runs disagree on U/A. Default
// 500k rows; --quick shrinks to 50k for CI smoke, --scale=<f> multiplies
// rows.
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

struct SessionResult {
  std::string name;
  double wall_ms = 0;
  SessionMetrics metrics;
};

SessionResult RunSession(const std::string& name, const Table& clean,
                         const Table& dirty, bool naive_maintenance) {
  SessionOptions options;
  options.budget = 1000;  // Effectively unbounded (Fig. 8 setting).
  options.max_updates = 40;
  options.lattice_attrs = 10;
  options.naive_maintenance = naive_maintenance;
  double t0 = NowMs();
  auto m = RunCleaning(clean, dirty, SearchKind::kCoDive, options);
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
          "bench_micro_lattice — kernel counts and Fig. 8a maintenance")) {
    return *rc;
  }
  bench::PrintBanner(
      "bench_micro_lattice — kernel counts and Fig. 8a maintenance",
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

  // --- Count access: one kernel pass over the whole lattice --------------
  // Best of three fresh lattices (the first also faults the count array's
  // pages in); the naive_init lattice's popcounts are the reference.
  Fixture cf = MakeFixture(clean, dirty, e, 10);
  LatticeOptions naive_init;
  naive_init.naive_init = true;
  double n0 = NowMs();
  auto ref_lat = Lattice::Build(cf.dirty, cf.repair, cf.cols, naive_init);
  double naive_init_ms = NowMs() - n0;
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
  std::printf("\nfull-lattice counts (%zu nodes): kernel %0.3f ms "
              "(naive init %.1f ms); materialized %zu/%zu nodes; counts %s\n",
              count_total, kernel_count_ms, naive_init_ms, count_materialized,
              count_total, counts_match ? "match naive" : "MISMATCH");

  // --- Maintenance: incremental vs naive recomputation (Fig. 8a) -----------
  SessionResult inc_run =
      RunSession("incremental", clean, dirty, /*naive_maintenance=*/false);
  SessionResult naive_run =
      RunSession("naive", clean, dirty, /*naive_maintenance=*/true);
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

  bool actually_lazy =
      inc_run.metrics.nodes_total > 0 &&
      inc_run.metrics.nodes_materialized < inc_run.metrics.nodes_total;
  double lazy_ratio =
      inc_run.metrics.nodes_total == 0
          ? 1.0
          : static_cast<double>(inc_run.metrics.nodes_materialized) /
                static_cast<double>(inc_run.metrics.nodes_total);
  std::printf("lazy materialization ratio: %.3f\n", lazy_ratio);
  if (!actually_lazy) {
    std::printf("LAZY PATH DEGENERATED: nodes_materialized == nodes_total\n");
  }

  FILE* f = std::fopen("BENCH_micro_lattice.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"bench\": \"micro_lattice\",\n  \"rows\": %zu,\n",
                 rows);
    std::fprintf(f, "  \"meta\": %s,\n",
                 bench::BenchMeta().Serialize().c_str());
    std::fprintf(f,
                 "  \"counts\": {\"nodes_total\": %zu, "
                 "\"kernel_ms\": %.3f, \"naive_init_ms\": %.3f, "
                 "\"nodes_materialized\": %zu, \"counts_match\": %s},\n",
                 count_total, kernel_count_ms, naive_init_ms,
                 count_materialized, counts_match ? "true" : "false");
    std::fprintf(f, "  \"sessions\": {\n");
    PrintSession(f, inc_run, true);
    PrintSession(f, naive_run, false);
    std::fprintf(f, "  },\n");
    std::fprintf(f,
                 "  \"lazy_path_lazy\": %s,\n"
                 "  \"lazy_ratio\": %.4f,\n",
                 actually_lazy ? "true" : "false", lazy_ratio);
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
  return (actually_lazy && counts_match && maintenance_same_ua) ? 0 : 1;
}
