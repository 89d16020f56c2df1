// Service load benchmark: M simulated analysts drive concurrent cleaning
// sessions against one falcon_serverd and every session's outcome is
// checked bit-identical to a serial in-process run with the same seed.
//
// Each analyst is a closed-loop client with think time: open_session(seed
// = base + i) → [think --think_ms, then step(episodes=1)] until finished →
// close, measuring per-request latency. Think time models the paper's
// interactive cadence — an analyst reads the answer before asking the next
// question — so the analyst counts (--analysts=1,8,64,128,256) probe how
// many concurrent humans one daemon sustains within the latency SLO, not
// how fast one session can spin. Requests rejected by admission control
// (kUnavailable + retry_after_ms) are retried after the hinted backoff and
// counted per round as `rejected`/`retried`, so overload behaviour is
// visible in the JSON instead of silently folded into latency.
//
// Reported per M: p50/p95/p99 request latency, requests/s, sessions/s,
// throughput speedup vs the 1-analyst round, rejected/retried counts, and
// the bit-identity verdict (metrics counters + text-based table CRC vs the
// serial baseline). Writes BENCH_service_load.json (with provenance meta)
// and exits nonzero on any mismatch — this is the acceptance gate for the
// service's snapshot isolation. CI additionally gates the committed JSON:
// ≥ 8x throughput at 64 analysts and p99 ≤ 25ms (see ci.yml).
//
// By default the server runs in-process over a Unix socket; --connect=PATH
// targets an external falcon_serverd instead (the CI smoke job does this).
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"

#include "common/simd.h"
#include "common/socket.h"
#include "core/session.h"
#include "core/session_journal.h"
#include "service/client.h"
#include "service/server.h"

using namespace falcon;

namespace {

struct SessionOutcome {
  uint64_t seed = 0;
  bool ok = false;
  std::string error;
  // Counters reported by the service at convergence.
  int64_t user_updates = 0;
  int64_t user_answers = 0;
  int64_t cells_repaired = 0;
  int64_t queries_applied = 0;
  bool converged = false;
  int64_t table_crc = 0;
  std::vector<double> latencies_us;  ///< One entry per interactive request.
  std::vector<double> setup_us;      ///< open/close (+ admission retries).
  size_t steps = 0;
  size_t rejected = 0;  ///< kUnavailable + retry hint responses received.
  size_t retried = 0;   ///< Requests re-sent after a hinted backoff.
};

struct Baseline {
  SessionMetrics metrics;
  uint32_t table_crc = 0;
};

double NowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One closed-loop analyst driven by the multiplexer below: open (at a
/// staggered start), then step(episodes=1) every think interval until
/// finished, then close. At most one request is ever outstanding — the
/// analyst "reads the answer" before asking again.
struct Analyst {
  SessionOutcome out;
  FdHolder fd;
  std::string in;       ///< Partial-line receive buffer.
  std::string session;  ///< Session id once opened.
  enum class Verb { kOpen, kStep, kClose } pending = Verb::kOpen;
  bool awaiting = false;  ///< Request sent, response not yet read.
  bool done = false;
  double next_fire_us = 0;  ///< When to send `pending` (stagger/think/backoff).
  double sent_us = 0;
};

/// Runs one round of `m` concurrent analysts on a single driver thread: a
/// poll() loop multiplexes every connection, with per-analyst next-fire
/// times implementing think time, staggered starts, and retry backoff.
/// One thread per analyst would be simpler, but on small machines the
/// measured "latency" then includes the client thread's own scheduling
/// delay behind m-1 sibling threads — at 256 analysts that noise dwarfs
/// the server's actual response time.
std::vector<SessionOutcome> RunRound(const std::string& socket_path,
                                     const std::string& dataset,
                                     double scale, uint64_t base_seed,
                                     size_t m, int64_t think_ms) {
  std::vector<Analyst> analysts(m);
  // Stagger starts so a round ramps up instead of opening with a
  // synchronized thundering herd: open_session is an order of magnitude
  // slower than a step (COW clone + session build), so the 50 ms floor
  // keeps the opens from queueing behind each other and poisoning the
  // round's tail latency.
  int64_t stagger_us =
      m > 1 ? std::max<int64_t>(think_ms * 1000 / static_cast<int64_t>(m),
                                50000)
            : 0;
  double start_us = NowUs();
  for (size_t i = 0; i < m; ++i) {
    Analyst& a = analysts[i];
    a.out.seed = base_seed + i;
    auto conn = ConnectUnix(socket_path);
    if (!conn.ok()) {
      a.out.error = conn.status().ToString();
      a.done = true;
      continue;
    }
    a.fd = std::move(conn).value();
    a.next_fire_us = start_us + static_cast<double>(
                                    static_cast<int64_t>(i) * stagger_us);
  }

  auto fail = [](Analyst& a, std::string why) {
    a.out.error = std::move(why);
    a.done = true;
    a.fd.Close();
  };

  auto send_pending = [&](Analyst& a, double now) {
    JsonValue req = JsonValue::Object();
    switch (a.pending) {
      case Analyst::Verb::kOpen:
        req.Set("verb", "open_session");
        req.Set("dataset", dataset);
        req.Set("scale", scale);
        req.Set("seed", static_cast<int64_t>(a.out.seed));
        break;
      case Analyst::Verb::kStep:
        req.Set("verb", "step");
        req.Set("session", a.session);
        req.Set("episodes", 1);
        break;
      case Analyst::Verb::kClose:
        req.Set("verb", "close");
        req.Set("session", a.session);
        break;
    }
    std::string line = req.Serialize() + "\n";
    // One small frame on a local socket: a partial send would mean the
    // socket buffer is full with zero requests outstanding — treat it as
    // the connection failing rather than buffering.
    ssize_t n = ::send(a.fd.fd(), line.data(), line.size(), MSG_NOSIGNAL);
    if (n != static_cast<ssize_t>(line.size())) {
      fail(a, "short send on request");
      return;
    }
    a.sent_us = now;
    a.awaiting = true;
  };

  // One complete response line for `a`; returns false if the analyst is
  // finished (converged + closed) or failed.
  auto handle_line = [&](Analyst& a, const std::string& line) {
    double now = NowUs();
    auto parsed = JsonValue::Parse(line);
    if (!parsed.ok()) {
      fail(a, "bad response: " + line);
      return;
    }
    a.awaiting = false;
    double latency = now - a.sent_us;
    bool interactive = a.pending == Analyst::Verb::kStep;
    (interactive ? a.out.latencies_us : a.out.setup_us).push_back(latency);

    if (!parsed->GetBool("ok")) {
      int64_t backoff = parsed->GetInt("retry_after_ms", 0);
      if (parsed->GetString("code") == "UNAVAILABLE" && backoff > 0) {
        // Admission-control rejection: re-send the same verb after the
        // hinted backoff (safe — rejection happens before execution).
        ++a.out.rejected;
        ++a.out.retried;
        a.next_fire_us = now + static_cast<double>(backoff) * 1000.0;
        return;
      }
      fail(a, parsed->Serialize());
      return;
    }

    switch (a.pending) {
      case Analyst::Verb::kOpen:
        a.session = parsed->GetString("session");
        a.pending = Analyst::Verb::kStep;
        a.next_fire_us = now + static_cast<double>(think_ms) * 1000.0;
        break;
      case Analyst::Verb::kStep: {
        ++a.out.steps;
        if (!parsed->GetBool("finished")) {
          a.next_fire_us = now + static_cast<double>(think_ms) * 1000.0;
          break;
        }
        const JsonValue* metrics = parsed->Find("metrics");
        if (metrics == nullptr) {
          fail(a, "step response missing metrics");
          break;
        }
        a.out.user_updates = metrics->GetInt("user_updates");
        a.out.user_answers = metrics->GetInt("user_answers");
        a.out.cells_repaired = metrics->GetInt("cells_repaired");
        a.out.queries_applied = metrics->GetInt("queries_applied");
        a.out.converged = metrics->GetBool("converged");
        a.out.table_crc = parsed->GetInt("table_crc");
        a.pending = Analyst::Verb::kClose;
        a.next_fire_us = now;  // Teardown is immediate, no think time.
        break;
      }
      case Analyst::Verb::kClose:
        a.out.ok = true;
        a.done = true;
        a.fd.Close();
        break;
    }
  };

  std::vector<pollfd> fds;
  std::vector<size_t> fd_owner;
  for (;;) {
    // Send every due request, then compute the poll timeout from the
    // earliest not-yet-due fire time.
    double now = NowUs();
    bool any_live = false;
    double next_due = 0;
    bool have_due = false;
    for (Analyst& a : analysts) {
      if (a.done) continue;
      any_live = true;
      if (!a.awaiting) {
        if (now >= a.next_fire_us) {
          send_pending(a, now);
        } else if (!have_due || a.next_fire_us < next_due) {
          next_due = a.next_fire_us;
          have_due = true;
        }
      }
    }
    if (!any_live) break;

    fds.clear();
    fd_owner.clear();
    for (size_t i = 0; i < analysts.size(); ++i) {
      if (analysts[i].done || !analysts[i].awaiting) continue;
      fds.push_back(pollfd{analysts[i].fd.fd(), POLLIN, 0});
      fd_owner.push_back(i);
    }
    int timeout_ms = -1;
    if (have_due) {
      timeout_ms = static_cast<int>((next_due - NowUs()) / 1000.0) + 1;
      if (timeout_ms < 0) timeout_ms = 0;
    } else if (fds.empty()) {
      continue;  // Everyone due; loop back to send.
    }
    int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;

    for (size_t k = 0; k < fds.size() && ready > 0; ++k) {
      if (fds[k].revents == 0) continue;
      Analyst& a = analysts[fd_owner[k]];
      char chunk[4096];
      ssize_t n = ::recv(a.fd.fd(), chunk, sizeof chunk, 0);
      if (n <= 0) {
        fail(a, n == 0 ? "server closed connection" : "recv failed");
        continue;
      }
      a.in.append(chunk, static_cast<size_t>(n));
      size_t nl;
      while (!a.done && (nl = a.in.find('\n')) != std::string::npos) {
        std::string line = a.in.substr(0, nl);
        a.in.erase(0, nl + 1);
        handle_line(a, line);
      }
    }
  }

  std::vector<SessionOutcome> outcomes;
  outcomes.reserve(m);
  for (Analyst& a : analysts) outcomes.push_back(std::move(a.out));
  return outcomes;
}

/// Serial ground truth for one seed: same workload, same options, plain
/// RunCleaning in this process.
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

bool Matches(const SessionOutcome& got, const Baseline& want) {
  return got.ok &&
         got.user_updates ==
             static_cast<int64_t>(want.metrics.user_updates) &&
         got.user_answers ==
             static_cast<int64_t>(want.metrics.user_answers) &&
         got.cells_repaired ==
             static_cast<int64_t>(want.metrics.cells_repaired) &&
         got.queries_applied ==
             static_cast<int64_t>(want.metrics.queries_applied) &&
         got.converged == want.metrics.converged &&
         got.table_crc == static_cast<int64_t>(want.table_crc);
}

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0;
  size_t idx = static_cast<size_t>(p * static_cast<double>(sorted.size()));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  simd::ApplyLevelFlag(flags);
  double scale = bench::ParseScale(flags);
  bool quick = bench::ParseQuick(flags);
  std::string connect = flags.GetString(
      "connect", "", "unix socket of an external falcon_serverd "
                     "(default: in-process server)");
  std::string dataset =
      flags.GetString("dataset", "Synth10k", "workload dataset name");
  std::string analysts_csv = flags.GetString(
      "analysts", "",
      "comma-separated analyst counts per round "
      "(default: 1,8,64,128,256; --quick default: 1,8)");
  int64_t max_sessions_flag = flags.GetInt(
      "sessions", 0,
      "legacy: run doubling rounds 1..N instead of --analysts");
  int64_t think_ms = flags.GetInt(
      "think_ms", 250,
      "closed-loop think time between an analyst's requests");
  int64_t workers_flag = flags.GetInt(
      "workers", 0, "in-process server worker threads (0 = auto)");
  int64_t queue_limit_flag = flags.GetInt(
      "queue_limit", 64, "in-process server global request-queue bound");
  uint64_t base_seed = static_cast<uint64_t>(
      flags.GetInt("seed", 4242, "base RNG seed (analyst i uses seed+i)"));
  if (auto rc = flags.Done(
          "bench_service_load — M concurrent analysts vs falcon_serverd, "
          "verified bit-identical to serial runs")) {
    return *rc;
  }

  double dataset_scale = scale * (quick ? 0.02 : 0.08);
  std::vector<size_t> session_counts;
  if (max_sessions_flag > 0) {
    for (size_t m = 1; m <= static_cast<size_t>(max_sessions_flag); m *= 2) {
      session_counts.push_back(m);
    }
    if (quick) {
      session_counts.resize(
          std::min<size_t>(session_counts.size(), 2));  // {1, 2}
    }
  } else {
    if (analysts_csv.empty()) analysts_csv = quick ? "1,8" : "1,8,64,128,256";
    size_t pos = 0;
    while (pos < analysts_csv.size()) {
      size_t comma = analysts_csv.find(',', pos);
      if (comma == std::string::npos) comma = analysts_csv.size();
      long v = std::atol(analysts_csv.substr(pos, comma - pos).c_str());
      if (v > 0) session_counts.push_back(static_cast<size_t>(v));
      pos = comma + 1;
    }
    if (session_counts.empty()) session_counts.push_back(1);
  }
  size_t max_sessions =
      *std::max_element(session_counts.begin(), session_counts.end());

  bench::PrintBanner(
      "bench_service_load — concurrent analysts vs the cleaning service",
      "service-layer scalability on the Section 6 workloads");

  // In-process server unless --connect points at an external one.
  std::string socket_path = connect;
  std::unique_ptr<CleaningServer> server;
  size_t resolved_workers = 0;  // 0 = external server, count unknown.
  if (socket_path.empty()) {
    socket_path = "/tmp/falcon_bench_service_" +
                  std::to_string(static_cast<long>(getpid())) + ".sock";
    ServerOptions options;
    options.unix_path = socket_path;
    // Auto worker count tracks the machine instead of a fixed floor:
    // oversubscribing a low-core host timeslices the long steps against the
    // short ones and inflates tail latency (measured ~3x worse p99 at 64
    // analysts with 4 workers vs 2 on a 1-core box).
    options.workers =
        workers_flag > 0
            ? static_cast<size_t>(workers_flag)
            : std::clamp<size_t>(std::thread::hardware_concurrency(), 2, 16);
    options.queue_limit = static_cast<size_t>(
        std::max<int64_t>(0, queue_limit_flag));
    options.limits.max_sessions = max_sessions;
    resolved_workers = options.workers;
    server = std::make_unique<CleaningServer>(options);
    Status started = server->Start();
    if (!started.ok()) {
      std::fprintf(stderr, "server start failed: %s\n",
                   started.ToString().c_str());
      return 1;
    }
  }

  // Serial baselines (and the local workload copy they run on).
  bench::Workload w = bench::MakeWorkload(dataset, dataset_scale);
  std::printf("dataset=%s rows=%zu errors=%zu analysts up to %zu\n",
              dataset.c_str(), w.clean.num_rows(), w.errors, max_sessions);
  size_t distinct_seeds = session_counts.back();
  std::vector<Baseline> baselines;
  baselines.reserve(distinct_seeds);
  for (size_t i = 0; i < distinct_seeds; ++i) {
    baselines.push_back(RunSerial(w, base_seed + i));
  }

  bool all_identical = true;
  double one_analyst_rate = 0.0;
  double one_session_rate = 0.0;
  JsonValue rounds = JsonValue::Array();
  std::printf("\n%-9s %10s %10s %10s %10s %9s %9s %10s\n", "analysts",
              "p50(us)", "p95(us)", "p99(us)", "reqs/s", "rejected",
              "retried", "identical");
  for (size_t m : session_counts) {
    double t0 = NowUs();
    std::vector<SessionOutcome> outcomes =
        RunRound(socket_path, dataset, dataset_scale, base_seed, m,
                 think_ms);
    double wall_s = (NowUs() - t0) / 1e6;

    std::vector<double> latencies;
    std::vector<double> setup;
    size_t requests = 0;
    size_t rejected = 0;
    size_t retried = 0;
    bool round_identical = true;
    for (size_t i = 0; i < m; ++i) {
      latencies.insert(latencies.end(), outcomes[i].latencies_us.begin(),
                       outcomes[i].latencies_us.end());
      setup.insert(setup.end(), outcomes[i].setup_us.begin(),
                   outcomes[i].setup_us.end());
      requests += outcomes[i].latencies_us.size() +
                  outcomes[i].setup_us.size();
      rejected += outcomes[i].rejected;
      retried += outcomes[i].retried;
      bool same = Matches(outcomes[i], baselines[i]);
      if (!outcomes[i].ok) {
        std::fprintf(stderr, "analyst %zu failed: %s\n", i,
                     outcomes[i].error.c_str());
      } else if (!same) {
        std::fprintf(
            stderr,
            "analyst %zu diverged from serial: got U=%lld A=%lld "
            "repaired=%lld applied=%lld crc=%lld; want U=%zu A=%zu "
            "repaired=%zu applied=%zu crc=%u\n",
            i, static_cast<long long>(outcomes[i].user_updates),
            static_cast<long long>(outcomes[i].user_answers),
            static_cast<long long>(outcomes[i].cells_repaired),
            static_cast<long long>(outcomes[i].queries_applied),
            static_cast<long long>(outcomes[i].table_crc),
            baselines[i].metrics.user_updates,
            baselines[i].metrics.user_answers,
            baselines[i].metrics.cells_repaired,
            baselines[i].metrics.queries_applied, baselines[i].table_crc);
      }
      round_identical = round_identical && same;
    }
    all_identical = all_identical && round_identical;
    std::sort(latencies.begin(), latencies.end());
    std::sort(setup.begin(), setup.end());
    // Percentiles cover interactive requests (steps) — what an analyst
    // waits on mid-session. Session open/close is paid once, costs an
    // order of magnitude more (COW clone + session build), and is
    // reported separately as setup_p99_us.
    double p50 = Percentile(latencies, 0.50);
    double p95 = Percentile(latencies, 0.95);
    double p99 = Percentile(latencies, 0.99);
    double setup_p99 = Percentile(setup, 0.99);
    double reqs_per_s = static_cast<double>(requests) / wall_s;
    double sessions_per_s = static_cast<double>(m) / wall_s;
    if (m == 1) {
      one_analyst_rate = reqs_per_s;
      one_session_rate = sessions_per_s;
    }
    std::printf("%-9zu %10.1f %10.1f %10.1f %10.1f %9zu %9zu %10s\n", m,
                p50, p95, p99, reqs_per_s, rejected, retried,
                round_identical ? "yes" : "NO");

    JsonValue round = JsonValue::Object();
    round.Set("analysts", m);
    round.Set("wall_s", wall_s);
    round.Set("requests", requests);
    round.Set("think_ms", think_ms);
    round.Set("rejected", rejected);
    round.Set("retried", retried);
    round.Set("p50_us", p50);
    round.Set("p95_us", p95);
    round.Set("p99_us", p99);
    round.Set("setup_requests", setup.size());
    round.Set("setup_p99_us", setup_p99);
    round.Set("requests_per_s", reqs_per_s);
    round.Set("sessions_per_s", sessions_per_s);
    round.Set("speedup_vs_one_analyst",
              one_analyst_rate > 0 ? reqs_per_s / one_analyst_rate : 0);
    round.Set("speedup_vs_one_session",
              one_session_rate > 0 ? sessions_per_s / one_session_rate : 0);
    round.Set("identical_to_serial", round_identical);
    rounds.Append(std::move(round));
  }

  if (server != nullptr) {
    server->Stop();
    server->Wait();
  }

  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "service_load");
  doc.Set("meta", bench::BenchMeta());
  doc.Set("dataset", dataset);
  doc.Set("rows", w.clean.num_rows());
  doc.Set("errors", w.errors);
  doc.Set("external_server", !connect.empty());
  doc.Set("workers", resolved_workers);
  doc.Set("queue_limit", static_cast<size_t>(
                             std::max<int64_t>(0, queue_limit_flag)));
  doc.Set("rounds", std::move(rounds));
  doc.Set("all_identical", all_identical);
  FILE* f = std::fopen("BENCH_service_load.json", "w");
  if (f != nullptr) {
    std::string text = doc.Serialize();
    std::fwrite(text.data(), 1, text.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\nwrote BENCH_service_load.json\n");
  }
  std::printf("all sessions identical to serial: %s\n",
              all_identical ? "yes" : "NO — ISOLATION BROKEN");
  return all_identical ? 0 : 1;
}
