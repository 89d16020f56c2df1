// Fault-sweep driver: the crash-recovery experiment behind the
// fault-tolerance subsystem. Enumerates every injectable fault site a
// cleaning run passes through (discovery pass with hit recording), crashes
// a fresh session at each chosen hit, recovers from the write-ahead
// journal, and checks the recovered run against the uninterrupted baseline
// — table CRC and the four interaction counters must match bit-for-bit.
//
// Output is one JSON document on stdout (per-site crash/recover tallies
// plus timings), so CI can archive and diff it. --quick shrinks the
// workload and samples fewer hits per site; FALCON_FAULTS=<site:nth[...]>
// additionally runs one env-armed crash/recover first, exercising the
// same flag path a production operator would use.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"

#include "common/simd.h"
#include "common/fault_injector.h"
#include "core/session.h"
#include "core/session_journal.h"

using namespace falcon;

namespace {

struct Baseline {
  SessionMetrics metrics;
  uint32_t table_crc = 0;
  std::vector<std::pair<std::string, size_t>> hits;
};

struct SweepTally {
  size_t crashes = 0;
  size_t recoveries = 0;
  size_t identical = 0;
  double recover_ms = 0.0;
};

bool MatchesBaseline(const SessionMetrics& m, uint32_t crc,
                     const Baseline& base) {
  return m.user_updates == base.metrics.user_updates &&
         m.user_answers == base.metrics.user_answers &&
         m.cells_repaired == base.metrics.cells_repaired &&
         m.queries_applied == base.metrics.queries_applied &&
         m.converged == base.metrics.converged && crc == base.table_crc;
}

Baseline RunBaseline(const bench::Workload& w, const SessionOptions& opt) {
  FaultInjector::Global().Reset();
  FaultInjector::Global().set_recording(true);
  Table dirty = w.dirty.Clone();
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&w.clean, &dirty, algo.get(), opt);
  auto m = session.Run();
  Baseline base;
  if (m.ok()) base.metrics = *m;
  base.table_crc = TableContentsCrc(dirty);
  base.hits = FaultInjector::Global().Counts();
  FaultInjector::Global().set_recording(false);
  FaultInjector::Global().Reset();
  return base;
}

// One crash/recover cycle; faults must already be armed. Returns true when
// the recovered outcome is bit-identical to the baseline.
bool CrashAndRecover(const bench::Workload& w, const SessionOptions& opt,
                     const Baseline& base, SweepTally& tally) {
  Table dirty = w.dirty.Clone();
  {
    auto algo = MakeSearchAlgorithm(SearchKind::kDive);
    CleaningSession session(&w.clean, &dirty, algo.get(), opt);
    auto m = session.Run();
    FaultInjector::Global().Reset();
    if (m.ok()) return MatchesBaseline(*m, TableContentsCrc(dirty), base);
    ++tally.crashes;
  }
  auto t0 = std::chrono::steady_clock::now();
  auto algo = MakeSearchAlgorithm(SearchKind::kDive);
  CleaningSession session(&w.clean, &dirty, algo.get(), opt);
  auto recovered = session.Recover();
  auto t1 = std::chrono::steady_clock::now();
  tally.recover_ms +=
      std::chrono::duration<double, std::milli>(t1 - t0).count();
  if (!recovered.ok()) return false;
  ++tally.recoveries;
  bool same = MatchesBaseline(*recovered, TableContentsCrc(dirty), base);
  if (same) ++tally.identical;
  return same;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  simd::ApplyLevelFlag(flags);
  double scale = bench::ParseScale(flags);
  bool quick = bench::ParseQuick(flags);
  if (auto rc = flags.Done("bench_fault_sweep — crash/recover bit-identity sweep over journal fault sites")) return *rc;
  const char* env_faults = std::getenv("FALCON_FAULTS");

  bench::Workload w =
      bench::MakeWorkload("Synth10k", scale * (quick ? 0.02 : 0.08));
  std::string journal = "/tmp/falcon_bench_fault_sweep.journal";

  std::printf("{\n  \"bench\": \"fault_sweep\",\n");
  std::printf("  \"meta\": %s,\n", bench::BenchMeta().Serialize().c_str());
  std::printf("  \"rows\": %zu,\n  \"errors\": %zu,\n", w.clean.num_rows(),
              w.errors);

  bool all_ok = true;
  SessionOptions opt;
  opt.budget = 3;
  opt.update_mistake_prob = 0.2;
  opt.question_mistake_prob = 0.05;
  opt.journal_path = journal;

  // FALCON_FAULTS smoke: one crash/recover with the operator-facing env
  // arming (Global() parsed it at first use; Reset() disarms it after).
  if (env_faults != nullptr) {
    Baseline base = RunBaseline(w, opt);
    Status armed = FaultInjector::Global().ArmFromFlag(env_faults);
    SweepTally env_tally;
    bool same = armed.ok() && CrashAndRecover(w, opt, base, env_tally);
    all_ok = all_ok && same;
    std::printf("  \"env_faults\": {\"spec\": \"%s\", \"crashed\": %zu, "
                "\"recovered_identical\": %s},\n",
                env_faults, env_tally.crashes, same ? "true" : "false");
  }

  Baseline base = RunBaseline(w, opt);
  std::printf("  \"sweep\": {\n");
  std::printf("    \"baseline\": {\"user_updates\": %zu, "
              "\"user_answers\": %zu, \"cells_repaired\": %zu, "
              "\"queries_applied\": %zu, \"converged\": %s},\n",
              base.metrics.user_updates, base.metrics.user_answers,
              base.metrics.cells_repaired, base.metrics.queries_applied,
              base.metrics.converged ? "true" : "false");
  std::printf("    \"sites\": {\n");
  bool first_site = true;
  for (const auto& [site, count] : base.hits) {
    std::set<size_t> picks = {1, count};
    size_t stride =
        quick ? std::max<size_t>(1, count / 4) : std::max<size_t>(1, count / 16);
    for (size_t nth = 1; nth <= count; nth += stride) picks.insert(nth);
    SweepTally tally;
    bool site_ok = true;
    for (size_t nth : picks) {
      FaultInjector::Global().Reset();
      FaultInjector::Global().Arm(
          {site, nth, /*count=*/1, StatusCode::kIoError});
      site_ok = CrashAndRecover(w, opt, base, tally) && site_ok;
    }
    all_ok = all_ok && site_ok;
    std::printf("%s      \"%s\": {\"hits\": %zu, \"crash_points\": %zu, "
                "\"crashes\": %zu, \"recoveries\": %zu, "
                "\"identical\": %zu, \"recover_ms\": %.2f}",
                first_site ? "" : ",\n", site.c_str(), count, picks.size(),
                tally.crashes, tally.recoveries, tally.identical,
                tally.recover_ms);
    first_site = false;
  }
  std::printf("\n    }\n  },\n");
  std::printf("  \"all_identical\": %s\n}\n", all_ok ? "true" : "false");
  std::remove(journal.c_str());
  return all_ok ? 0 : 1;
}
