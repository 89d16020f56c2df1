// Service-layer chaos harness: N analysts drive cleaning sessions against
// a real falcon_serverd child process while a killer thread SIGKILLs the
// daemon at sampled points mid-workload and restarts it. Every analyst
// rides a ResilientClient (reconnect + `open_session {"resume"}` +
// seq-stamped idempotent retries); the daemon replays each session's
// journal on restart. The acceptance gate: after >= --min_kills unclean
// daemon deaths, every session's final table CRC and interaction counters
// must be bit-identical to an uninterrupted in-process serial run with the
// same seed.
//
// The workload is step-driven on purpose: queued-but-unconsumed external
// answers/updates live only in daemon memory and are documented as
// volatile across a crash (see DESIGN.md), so the chaos oracle is the
// deterministic fallback, exactly like the serial baseline's.
//
// Usage (from the build directory):
//   bench/bench_chaos_service --serverd=src/service/falcon_serverd --quick
// Writes BENCH_chaos_service.json; exits nonzero on any divergence or if
// fewer than --min_kills kills landed while the workload was in flight.
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <fcntl.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

#include "common/rng.h"
#include "common/simd.h"
#include "common/socket.h"
#include "core/session.h"
#include "service/resilient_client.h"
#include "service/session_manager.h"

using namespace falcon;

namespace {

struct Baseline {
  SessionMetrics metrics;
  uint32_t table_crc = 0;
};

Baseline RunSerial(const bench::Workload& w, uint64_t seed) {
  SessionOptions options;
  options.seed = seed;
  Table working = w.dirty.Clone();
  auto algorithm = MakeSearchAlgorithm(SearchKind::kCoDive);
  CleaningSession session(&w.clean, &working, algorithm.get(), options);
  auto metrics = session.Run();
  FALCON_CHECK(metrics.ok());
  return Baseline{*metrics, TableContentsCrc(working)};
}

struct AnalystOutcome {
  bool ok = false;
  std::string error;
  int64_t user_updates = 0;
  int64_t user_answers = 0;
  int64_t cells_repaired = 0;
  int64_t queries_applied = 0;
  bool converged = false;
  uint32_t table_crc = 0;
  size_t steps = 0;
  ResilientClient::Stats stats;
};

/// One analyst: open → step(1) until finished → close, all through the
/// resilient client so daemon deaths turn into resumes, not failures.
AnalystOutcome RunAnalyst(const std::string& socket_path,
                          const std::string& dataset, double scale,
                          uint64_t seed, int64_t step_delay_ms,
                          std::atomic<size_t>* steps_done) {
  AnalystOutcome out;
  ResilientClientOptions copts;
  copts.unix_path = socket_path;
  // Tight enough that a request caught in a kill window (written into a
  // doomed socket's buffer, never dispatched) costs seconds, not the
  // default 30 s, before the retry machinery takes over.
  copts.deadline_ms = 5000;
  // Generous: a kill can land while the client is mid-backoff, and the
  // respawn takes a moment. The per-attempt backoff is capped, so even 60
  // attempts bound the worst-case wait to about two minutes.
  copts.max_attempts = 60;
  copts.jitter_seed = seed;
  ResilientClient client(copts);

  SessionManager::OpenParams params;
  params.dataset = dataset;
  params.scale = scale;
  params.seed = seed;
  auto opened = client.OpenSession(params);
  if (!opened.ok()) {
    out.error = "open: " + opened.status().ToString();
    return out;
  }

  for (size_t i = 0; i < 100000; ++i) {
    auto r = client.Step(1);
    if (!r.ok()) {
      out.error = "step: " + r.status().ToString();
      return out;
    }
    ++out.steps;
    steps_done->fetch_add(1, std::memory_order_relaxed);
    if (step_delay_ms > 0 && !r->GetBool("finished")) {
      // Analyst think time: paces the workload so the killer gets its
      // full quota of mid-flight kill points even at smoke scales.
      std::this_thread::sleep_for(std::chrono::milliseconds(step_delay_ms));
    }
    if (r->GetBool("finished")) {
      const JsonValue* metrics = r->Find("metrics");
      if (metrics == nullptr) {
        out.error = "step response missing metrics";
        return out;
      }
      out.user_updates = metrics->GetInt("user_updates");
      out.user_answers = metrics->GetInt("user_answers");
      out.cells_repaired = metrics->GetInt("cells_repaired");
      out.queries_applied = metrics->GetInt("queries_applied");
      out.converged = metrics->GetBool("converged");
      out.table_crc = static_cast<uint32_t>(r->GetInt("table_crc"));
      Status closed = client.CloseSession();
      if (!closed.ok()) {
        out.error = "close: " + closed.ToString();
        return out;
      }
      out.ok = true;
      out.stats = client.stats();
      return out;
    }
  }
  out.error = "session never finished";
  return out;
}

/// Forks and execs falcon_serverd, stdout/stderr appended to `log_path`.
pid_t SpawnServer(const std::string& serverd, const std::string& socket,
                  const std::string& journal_dir, size_t max_sessions,
                  const std::string& log_path) {
  pid_t pid = ::fork();
  if (pid != 0) return pid;
  int fd = ::open(log_path.c_str(), O_CREAT | O_WRONLY | O_APPEND, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
  }
  std::string a_socket = "--socket=" + socket;
  std::string a_journal = "--journal_dir=" + journal_dir;
  std::string a_sessions =
      "--max_sessions=" + std::to_string(max_sessions);
  std::string a_workers = "--workers=" + std::to_string(max_sessions);
  std::vector<char*> argv = {
      const_cast<char*>(serverd.c_str()),
      const_cast<char*>(a_socket.c_str()),
      const_cast<char*>(a_journal.c_str()),
      const_cast<char*>(a_sessions.c_str()),
      const_cast<char*>(a_workers.c_str()),
      nullptr,
  };
  ::execv(serverd.c_str(), argv.data());
  std::perror("execv falcon_serverd");
  ::_exit(127);
}

/// Polls until the daemon accepts connections (or ~10 s elapse).
bool WaitReady(const std::string& socket) {
  for (int i = 0; i < 1000; ++i) {
    auto conn = ConnectUnix(socket);
    if (conn.ok()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

struct ChaosResult {
  bool identical = true;
  size_t kills = 0;
  size_t resumes = 0;
  size_t retries = 0;
  size_t seq_resyncs = 0;
  double wall_s = 0;
  std::string failure;
};

ChaosResult RunChaos(const std::string& serverd, const std::string& socket,
                     const std::string& journal_dir,
                     const std::string& log_path, const bench::Workload& w,
                     const std::string& dataset, double scale,
                     uint64_t base_seed, size_t analysts, size_t target_kills,
                     int64_t step_delay_ms) {
  ChaosResult result;
  ::mkdir(journal_dir.c_str(), 0755);

  // Session slots: one per analyst plus slack for sessions leaked by a
  // kill landing between open_session execution and the response read
  // (open of a FRESH session is the one non-idempotent verb).
  pid_t server = SpawnServer(serverd, socket, journal_dir,
                             analysts * 2 + 2, log_path);
  if (server < 0 || !WaitReady(socket)) {
    result.identical = false;
    result.failure = "daemon never became ready";
    return result;
  }

  std::atomic<size_t> steps_done{0};
  std::atomic<bool> workload_done{false};
  std::atomic<size_t> kills{0};

  // The killer: once the workload has made some progress, SIGKILL the
  // daemon at deterministically-jittered sample points, respawn it, and
  // let startup recovery + client resumes carry the sessions across.
  std::thread killer([&] {
    Rng rng(base_seed * 7919 + 1);
    while (!workload_done.load(std::memory_order_relaxed) &&
           kills.load(std::memory_order_relaxed) < target_kills) {
      // Sample a kill point: wait for fresh forward progress so every
      // kill lands mid-workload, then add jitter so the points spread
      // across episode boundaries, journal appends, and in-flight RPCs.
      size_t mark = steps_done.load(std::memory_order_relaxed);
      int waited = 0;
      while (!workload_done.load(std::memory_order_relaxed) &&
             (steps_done.load(std::memory_order_relaxed) <= mark ||
              waited < 50)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        waited += 10;
        if (waited > 15000) break;  // Stalled; kill anyway.
      }
      if (workload_done.load(std::memory_order_relaxed)) break;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(rng.NextInt(0, 120)));
      if (workload_done.load(std::memory_order_relaxed)) break;

      ::kill(server, SIGKILL);
      int wstatus = 0;
      ::waitpid(server, &wstatus, 0);
      kills.fetch_add(1, std::memory_order_relaxed);
      server = SpawnServer(serverd, socket, journal_dir,
                           analysts * 2 + 2, log_path);
      if (server < 0 || !WaitReady(socket)) {
        std::fprintf(stderr, "chaos: daemon respawn failed\n");
        return;
      }
    }
  });

  auto t0 = std::chrono::steady_clock::now();
  std::vector<AnalystOutcome> outcomes(analysts);
  {
    std::vector<std::thread> threads;
    threads.reserve(analysts);
    for (size_t i = 0; i < analysts; ++i) {
      threads.emplace_back([&, i] {
        outcomes[i] = RunAnalyst(socket, dataset, scale, base_seed + i,
                                 step_delay_ms, &steps_done);
      });
    }
    for (auto& t : threads) t.join();
  }
  workload_done.store(true, std::memory_order_relaxed);
  killer.join();
  result.wall_s = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
  result.kills = kills.load();

  // Clean shutdown of the final incarnation.
  ::kill(server, SIGTERM);
  int wstatus = 0;
  ::waitpid(server, &wstatus, 0);

  for (size_t i = 0; i < analysts; ++i) {
    const AnalystOutcome& got = outcomes[i];
    result.resumes += got.stats.resumes;
    result.retries += got.stats.retries;
    result.seq_resyncs += got.stats.seq_resyncs;
    if (!got.ok) {
      result.identical = false;
      result.failure = "analyst " + std::to_string(i) + ": " + got.error;
      std::fprintf(stderr, "chaos analyst %zu failed: %s\n", i,
                   got.error.c_str());
      continue;
    }
    Baseline want = RunSerial(w, base_seed + i);
    bool same =
        got.user_updates ==
            static_cast<int64_t>(want.metrics.user_updates) &&
        got.user_answers ==
            static_cast<int64_t>(want.metrics.user_answers) &&
        got.cells_repaired ==
            static_cast<int64_t>(want.metrics.cells_repaired) &&
        got.queries_applied ==
            static_cast<int64_t>(want.metrics.queries_applied) &&
        got.converged == want.metrics.converged &&
        got.table_crc == want.table_crc;
    if (!same) {
      result.identical = false;
      result.failure = "analyst " + std::to_string(i) + " diverged";
      std::fprintf(
          stderr,
          "chaos analyst %zu diverged: got U=%lld A=%lld repaired=%lld "
          "applied=%lld crc=%u; want U=%zu A=%zu repaired=%zu applied=%zu "
          "crc=%u\n",
          i, static_cast<long long>(got.user_updates),
          static_cast<long long>(got.user_answers),
          static_cast<long long>(got.cells_repaired),
          static_cast<long long>(got.queries_applied), got.table_crc,
          want.metrics.user_updates, want.metrics.user_answers,
          want.metrics.cells_repaired, want.metrics.queries_applied,
          want.table_crc);
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  simd::ApplyLevelFlag(flags);
  double scale = bench::ParseScale(flags);
  bool quick = bench::ParseQuick(flags);
  std::string serverd = flags.GetString(
      "serverd", "src/service/falcon_serverd",
      "path to the falcon_serverd binary to torture");
  std::string dataset =
      flags.GetString("dataset", "Synth10k", "workload dataset name");
  size_t analysts = static_cast<size_t>(
      flags.GetInt("analysts", 3, "concurrent analyst clients"));
  size_t min_kills = static_cast<size_t>(flags.GetInt(
      "min_kills", 5, "required SIGKILLs landed mid-workload"));
  uint64_t base_seed = static_cast<uint64_t>(
      flags.GetInt("seed", 4242, "base RNG seed (analyst i uses seed+i)"));
  int64_t step_delay_ms = flags.GetInt(
      "step_delay_ms", 25, "per-step analyst think time; paces the "
                           "workload so all kills land mid-flight");
  if (auto rc = flags.Done(
          "bench_chaos_service — SIGKILL falcon_serverd mid-workload, "
          "restart, resume, and require bit-identical outcomes")) {
    return *rc;
  }

  if (::access(serverd.c_str(), X_OK) != 0) {
    std::fprintf(stderr,
                 "no executable falcon_serverd at --serverd=%s (run from "
                 "the build directory or pass the path)\n",
                 serverd.c_str());
    return 2;
  }

  double dataset_scale = scale * (quick ? 0.02 : 0.05);
  std::string tag = std::to_string(static_cast<long>(::getpid()));
  std::string socket = "/tmp/falcon_chaos_" + tag + ".sock";
  std::string log_path = "/tmp/falcon_chaos_" + tag + ".log";

  bench::PrintBanner(
      "bench_chaos_service — crash-recovery torture for the service layer",
      "daemon SIGKILL + journal replay + idempotent client resume");

  bench::Workload w = bench::MakeWorkload(dataset, dataset_scale);
  std::printf("dataset=%s rows=%zu errors=%zu analysts=%zu min_kills=%zu "
              "serverd=%s\n",
              dataset.c_str(), w.clean.num_rows(), w.errors, analysts,
              min_kills, serverd.c_str());

  signal(SIGPIPE, SIG_IGN);

  std::string journal_dir = "/tmp/falcon_chaos_" + tag + "_journals";
  ChaosResult r =
      RunChaos(serverd, socket, journal_dir, log_path, w, dataset,
               dataset_scale, base_seed, analysts, min_kills, step_delay_ms);
  bool all_identical = r.identical;
  bool enough_kills = r.kills >= min_kills;
  std::printf("\n%8s %8s %8s %10s %8s %10s\n", "kills", "resumes",
              "retries", "seq_resync", "wall_s", "identical");
  std::printf("%8zu %8zu %8zu %10zu %8.2f %10s\n", r.kills, r.resumes,
              r.retries, r.seq_resyncs, r.wall_s, r.identical ? "yes" : "NO");
  if (!enough_kills) {
    std::fprintf(stderr,
                 "chaos: only %zu/%zu kills landed before the workload "
                 "finished — raise --scale or --analysts\n",
                 r.kills, min_kills);
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "chaos_service");
  doc.Set("meta", bench::BenchMeta());
  doc.Set("dataset", dataset);
  doc.Set("rows", w.clean.num_rows());
  doc.Set("analysts", analysts);
  doc.Set("min_kills", min_kills);
  doc.Set("kills", r.kills);
  doc.Set("resumes", r.resumes);
  doc.Set("retries", r.retries);
  doc.Set("seq_resyncs", r.seq_resyncs);
  doc.Set("wall_s", r.wall_s);
  if (!r.failure.empty()) doc.Set("failure", r.failure);
  doc.Set("all_identical", all_identical);
  doc.Set("enough_kills", enough_kills);
  FILE* f = std::fopen("BENCH_chaos_service.json", "w");
  if (f != nullptr) {
    std::string text = doc.Serialize();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote BENCH_chaos_service.json (daemon log: %s)\n",
                log_path.c_str());
  }
  std::printf("chaos verdict: %s\n",
              !all_identical       ? "DIVERGED — RECOVERY BROKEN"
              : !enough_kills      ? "inconclusive (too few kills)"
                                   : "bit-identical under fire");
  return (all_identical && enough_kills) ? 0 : 1;
}
