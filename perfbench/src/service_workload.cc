// service_hospital: four closed-loop analysts against an in-process
// CleaningServer over 1k-row Hospital. Four analysts share three workers,
// so most of a client step is queueing behind the other analysts and the
// journal fsync; the isolated request handling is the smaller part. The
// snapshot CRC is negligible at this table size.
//
// One client thread multiplexes the analysts, one connection each, with
// zero think time. Each analyst loops open_session → [step, status]* until
// the session is finished → close, then opens its next session with the
// next seed.
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/socket.h"
#include "core/session_journal.h"
#include "datagen/workload.h"
#include "engine.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/session_manager.h"
#include "trace.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kAnalysts = 4;
constexpr size_t kWorkers = 3;
/// Set-ups per run; setup_s reports their median. One set-up takes about
/// 5 ms including two fsyncs, so it takes many to settle the median.
constexpr int kSetupRepeats = 15;
/// UNAVAILABLE replies retried per request before it counts as failed.
constexpr int kMaxRetries = 50;
const char* const kDataset = "Hospital";
/// Hospital at 1,000 rows. At scale 1 (10k rows) one session runs for over
/// a minute under four analysts, so a run's window would hold no session
/// that reaches convergence.
constexpr double kScale = 0.1;

std::string OpenRequest(uint64_t seed) {
  return "{\"verb\":\"open_session\",\"dataset\":\"" + std::string(kDataset) +
         "\",\"scale\":" + std::to_string(kScale) +
         ",\"seed\":" + std::to_string(seed) +
         ",\"budget\":3,\"algorithm\":\"CoDive\"}";
}
std::string SessionRequest(const char* verb, const std::string& id) {
  std::string r = "{\"verb\":\"" + std::string(verb) + "\",\"session\":\"" +
                  id + "\"";
  if (std::string(verb) == "step") r += ",\"episodes\":1";
  return r + "}";
}

/// Final state of one session, as the service reported it.
struct ServiceOutcome {
  uint64_t seed = 0;
  std::string id;
  bool finished = false;
  bool converged = false;
  int64_t user_updates = 0;
  int64_t user_answers = 0;
  int64_t table_crc = 0;
  std::vector<double> step_ms;  ///< Client latency per step, in order.
};

/// One analyst's connection and request state machine.
struct Analyst {
  enum class Phase { kOpen, kStep, kStatus, kClose, kIdle };
  falcon::FdHolder fd;
  std::string in;
  Phase phase = Phase::kIdle;
  std::string request;  ///< Last request line (resent after a rejection).
  double sent_ms = 0.0;
  double retry_at_ms = 0.0;  ///< > 0: resend at this time.
  int retries = 0;
  ServiceOutcome session;
  double session_start_ms = 0.0;
  int64_t session_span = -1;
  int64_t request_span = -1;
  bool traced = false;
};

bool SendLine(int fd, const std::string& line) {
  std::string buf = line + "\n";
  size_t off = 0;
  while (off < buf.size()) {
    ssize_t n = ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 1000);
      continue;
    }
    if (n <= 0) return false;
    off += static_cast<size_t>(n);
  }
  return true;
}

/// Reads what is available; appends complete lines to `lines`. Returns
/// false on EOF or error.
bool ReadLines(Analyst& a, std::vector<std::string>* lines) {
  char buf[65536];
  while (true) {
    ssize_t n = ::read(a.fd.fd(), buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n <= 0) return false;
    a.in.append(buf, static_cast<size_t>(n));
  }
  size_t pos = 0;
  while (true) {
    size_t nl = a.in.find('\n', pos);
    if (nl == std::string::npos) break;
    lines->push_back(a.in.substr(pos, nl - pos));
    pos = nl + 1;
  }
  a.in.erase(0, pos);
  return true;
}

double JournalBytes(const std::string& dir, const std::string& id) {
  std::error_code ec;
  auto size = std::filesystem::file_size(dir + "/" + id + ".journal", ec);
  return ec ? 0.0 : static_cast<double>(size);
}

struct Server {
  std::unique_ptr<falcon::CleaningServer> server;
  ~Server() {
    if (server != nullptr) {
      server->Stop();
      server->Wait();
    }
  }
};

falcon::ServerOptions MakeServerOptions(const std::string& socket_path,
                                        const std::string& journal_dir) {
  falcon::ServerOptions o;
  o.unix_path = socket_path;
  o.workers = kWorkers;
  o.limits.journal_dir = journal_dir;
  return o;
}

/// Connects `conn` to the server's socket, nonblocking.
falcon::Status Connect(const std::string& path, Analyst* conn) {
  FALCON_ASSIGN_OR_RETURN(conn->fd, falcon::ConnectUnix(path));
  return falcon::SetNonBlocking(conn->fd.fd());
}

/// Blocking request/reply outside the window (set-up, ping, final close).
falcon::StatusOr<falcon::JsonValue> Call(Analyst& conn,
                                         const std::string& line) {
  if (!SendLine(conn.fd.fd(), line)) {
    return falcon::Status::Unavailable("send failed");
  }
  std::vector<std::string> lines;
  while (lines.empty()) {
    pollfd p{conn.fd.fd(), POLLIN, 0};
    if (::poll(&p, 1, 60000) <= 0) {
      return falcon::Status::DeadlineExceeded("no reply");
    }
    if (!ReadLines(conn, &lines)) {
      return falcon::Status::Unavailable("connection closed");
    }
  }
  return falcon::JsonValue::Parse(lines.front());
}

/// Isolated per-request latency of a session replayed serially through
/// HandleRequest on a private SessionManager with its own journal dir.
struct Replay {
  std::vector<double> step_ms;
  std::vector<double> status_ms;
};

Replay ReplaySession(falcon::SessionManager& manager, uint64_t seed,
                     RunResult* r) {
  Replay out;
  ScopedSpan span("service.replay");
  auto parse = [](const std::string& line) {
    auto v = falcon::JsonValue::Parse(line);
    return v.ok() ? std::move(v).value() : falcon::JsonValue();
  };
  falcon::JsonValue opened =
      falcon::HandleRequest(manager, parse(OpenRequest(seed)));
  if (!opened.GetBool("ok")) {
    r->Fail("replay open: " + opened.Serialize());
    return out;
  }
  std::string id = opened.GetString("session");
  falcon::JsonValue step_req = parse(SessionRequest("step", id));
  falcon::JsonValue status_req = parse(SessionRequest("status", id));
  while (true) {
    double t0 = NowMs();
    falcon::JsonValue step = falcon::HandleRequest(manager, step_req);
    double t1 = NowMs();
    falcon::JsonValue status = falcon::HandleRequest(manager, status_req);
    double t2 = NowMs();
    if (!step.GetBool("ok") || !status.GetBool("ok")) {
      r->Fail("replay step: " + step.Serialize());
      break;
    }
    out.step_ms.push_back(t1 - t0);
    out.status_ms.push_back(t2 - t1);
    if (step.GetBool("finished")) break;
  }
  falcon::HandleRequest(manager, parse(SessionRequest("close", id)));
  return out;
}

}  // namespace

RunResult RunServiceHospital(const RunConfig& config) {
  RunResult r;
  const std::string dir =
      config.work_dir + "/service-" + std::to_string(::getpid());
  const std::string socket_path = dir + "/falcon.sock";
  const std::string journal_dir = dir + "/journal";
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(journal_dir, ec);
  if (ec) {
    r.Fail("cannot create " + journal_dir);
    return r;
  }

  // ---- set-up: server start + first open_session (which builds the
  // Hospital base inside the server), repeated on fresh servers; the last
  // server stays up for the window.
  Server server;
  Analyst setup_conn;
  for (int i = 0; i < kSetupRepeats; ++i) {
    if (server.server != nullptr) {
      server.server->Stop();
      server.server->Wait();
      server.server.reset();
      std::filesystem::remove_all(journal_dir, ec);
      std::filesystem::create_directories(journal_dir, ec);
    }
    ScopedSpan span("setup");
    double t0 = NowMs();
    server.server = std::make_unique<falcon::CleaningServer>(
        MakeServerOptions(socket_path, journal_dir));
    falcon::Status started = server.server->Start();
    if (!started.ok()) {
      r.Fail("server start: " + started.ToString());
      return r;
    }
    falcon::Status connected = Connect(socket_path, &setup_conn);
    if (!connected.ok()) {
      r.Fail("connect: " + connected.ToString());
      return r;
    }
    auto opened = Call(setup_conn, OpenRequest(config.seed));
    if (!opened.ok() || !opened->GetBool("ok")) {
      r.Fail("first open_session: " + (opened.ok() ? opened->Serialize()
                                                    : opened.status().ToString()));
      return r;
    }
    r.setup_s.push_back((NowMs() - t0) / 1000.0);
    auto closed = Call(setup_conn,
                       SessionRequest("close", opened->GetString("session")));
    if (!closed.ok() || !closed->GetBool("ok")) {
      r.Fail("set-up close failed");
      return r;
    }
  }

  // ---- the measured window ------------------------------------------------
  std::vector<Analyst> analysts(kAnalysts);
  std::vector<ServiceOutcome> outcomes;
  std::vector<double> traced_step_ms;
  std::vector<double> untraced_step_ms;
  size_t next_session = 0;
  size_t rejected = 0;
  double response_bytes = 0.0;
  double journal_bytes = 0.0;  // summed over finished sessions
  double journal_steps = 0.0;
  Tracer& tracer = Tracer::Global();

  auto send = [&](Analyst& a, Analyst::Phase phase, std::string line,
                  const char* span_name) {
    a.phase = phase;
    a.request = std::move(line);
    a.retries = 0;
    a.retry_at_ms = 0.0;
    a.sent_ms = NowMs();
    ++r.attempted;
    a.request_span = a.traced ? tracer.BeginAt(span_name, a.session.seed,
                                               a.session_span, a.sent_ms)
                              : -1;
    if (!SendLine(a.fd.fd(), a.request)) {
      r.Fail("send failed");
      a.phase = Analyst::Phase::kIdle;
    }
  };
  auto open_next = [&](Analyst& a) {
    size_t index = next_session++;
    a.session = ServiceOutcome();
    a.session.seed = config.seed + index;
    a.traced = config.trace && index % 2 == 1;
    a.session_start_ms = NowMs();
    a.session_span = a.traced ? tracer.BeginAt("service.session",
                                               a.session.seed, -1,
                                               a.session_start_ms)
                              : -1;
    send(a, Analyst::Phase::kOpen, OpenRequest(a.session.seed),
         "service.request.open");
  };

  analysts[0].fd = std::move(setup_conn.fd);
  for (size_t i = 1; i < kAnalysts; ++i) {
    falcon::Status connected = Connect(socket_path, &analysts[i]);
    if (!connected.ok()) {
      r.Fail("connect: " + connected.ToString());
      return r;
    }
  }

  double start = NowMs();
  double stop_at = start + config.seconds * 1000.0;
  double hard_stop = start + (4 * config.seconds + 60) * 1000.0;
  for (Analyst& a : analysts) open_next(a);

  while (true) {
    size_t busy = 0;
    double now = NowMs();
    int timeout_ms = 100;
    std::vector<pollfd> fds;
    for (Analyst& a : analysts) {
      if (a.phase == Analyst::Phase::kIdle) continue;
      ++busy;
      if (a.retry_at_ms > 0) {
        if (now >= a.retry_at_ms) {
          // Latency keeps counting from the first send: the client waited
          // through the rejection and the backoff too.
          a.retry_at_ms = 0.0;
          if (!SendLine(a.fd.fd(), a.request)) {
            r.Fail("send failed");
            a.phase = Analyst::Phase::kIdle;
          }
        } else {
          timeout_ms = std::min(
              timeout_ms, static_cast<int>(a.retry_at_ms - now) + 1);
        }
      }
      fds.push_back(pollfd{a.fd.fd(), POLLIN, 0});
    }
    if (busy == 0 || now > hard_stop) break;
    int n = ::poll(fds.data(), fds.size(), timeout_ms);
    if (n < 0 && errno != EINTR) {
      r.Fail("poll failed");
      break;
    }
    for (Analyst& a : analysts) {
      if (a.phase == Analyst::Phase::kIdle) continue;
      std::vector<std::string> lines;
      if (!ReadLines(a, &lines)) {
        r.Fail("connection closed by server");
        a.phase = Analyst::Phase::kIdle;
        continue;
      }
      for (const std::string& line : lines) {
        double t = NowMs();
        double latency = t - a.sent_ms;
        auto reply = falcon::JsonValue::Parse(line);
        if (!reply.ok()) {
          r.Fail("unparsable reply");
          a.phase = Analyst::Phase::kIdle;
          break;
        }
        if (!reply->GetBool("ok")) {
          if (reply->GetString("code") == "UNAVAILABLE" &&
              a.retries < kMaxRetries) {
            ++rejected;
            ++a.retries;
            a.retry_at_ms =
                t + static_cast<double>(reply->GetInt("retry_after_ms", 10));
            continue;
          }
          r.Fail("request failed: " + line);
          tracer.EndAt(a.request_span, t);
          a.phase = Analyst::Phase::kIdle;
          break;
        }
        tracer.EndAt(a.request_span, t);
        bool stopping = t >= stop_at;
        switch (a.phase) {
          case Analyst::Phase::kOpen:
            a.session.id = reply->GetString("session");
            send(a, Analyst::Phase::kStep, SessionRequest("step", a.session.id),
                 "service.request.step");
            break;
          case Analyst::Phase::kStep: {
            r.step_ms.push_back(latency);
            a.session.step_ms.push_back(latency);
            (a.traced ? traced_step_ms : untraced_step_ms).push_back(latency);
            response_bytes += static_cast<double>(line.size() + 1);
            a.session.finished = reply->GetBool("finished");
            const falcon::JsonValue* m = reply->Find("metrics");
            if (m != nullptr) {
              a.session.converged = m->GetBool("converged");
              a.session.user_updates = m->GetInt("user_updates");
              a.session.user_answers = m->GetInt("user_answers");
            }
            a.session.table_crc = reply->GetInt("table_crc");
            send(a, Analyst::Phase::kStatus,
                 SessionRequest("status", a.session.id),
                 "service.request.status");
            break;
          }
          case Analyst::Phase::kStatus:
            r.status_ms.push_back(latency);
            if (a.session.finished) {
              journal_bytes += JournalBytes(journal_dir, a.session.id);
              journal_steps += static_cast<double>(a.session.step_ms.size());
              send(a, Analyst::Phase::kClose,
                   SessionRequest("close", a.session.id),
                   "service.request.close");
            } else if (stopping) {
              a.phase = Analyst::Phase::kIdle;  // closed after the window
            } else {
              send(a, Analyst::Phase::kStep,
                   SessionRequest("step", a.session.id),
                   "service.request.step");
            }
            break;
          case Analyst::Phase::kClose:
            r.session_s.push_back((t - a.session_start_ms) / 1000.0);
            tracer.EndAt(a.session_span, t);
            a.session_span = -1;
            outcomes.push_back(std::move(a.session));
            a.session = ServiceOutcome();
            if (stopping) {
              a.phase = Analyst::Phase::kIdle;
            } else {
              open_next(a);
            }
            break;
          case Analyst::Phase::kIdle:
            break;
        }
      }
    }
  }
  for (Analyst& a : analysts) tracer.EndAt(a.session_span, NowMs());
  r.window_s = (NowMs() - start) / 1000.0;
  r.attempted += rejected;

  // Shared base tier as the server saw it, before the last sessions close.
  {
    Analyst ping_conn;
    falcon::Status connected = Connect(socket_path, &ping_conn);
    auto ping = connected.ok()
                    ? Call(ping_conn, "{\"verb\":\"ping\"}")
                    : falcon::StatusOr<falcon::JsonValue>(connected);
    if (ping.ok() && ping->GetBool("ok")) {
      double hits = static_cast<double>(ping->GetInt("shared_hits"));
      double misses = static_cast<double>(ping->GetInt("shared_misses"));
      r.layer["core.shared_cache.hit_rate"] = ping->GetDouble("shared_hit_rate");
      r.layer["core.shared_cache.probes"] = hits + misses;
      double mb = static_cast<double>(ping->GetInt("shared_resident_bytes")) /
                  (1 << 20);
      r.layer["core.shared_cache.resident_mb"] = mb;
      r.notes.push_back("cache fit: shared base tier " + std::to_string(mb) +
                        " MiB of its 256 MiB budget (" +
                        (mb < 256 ? "fits" : "overflows") + ")");
    }
    for (Analyst& a : analysts) {
      if (!a.session.id.empty()) {
        Call(a, SessionRequest("close", a.session.id));
      }
    }
  }
  server.server->Stop();
  server.server->Wait();
  server.server.reset();
  r.peak_rss_mb = PeakRssMb();

  // ---- correctness: every converged service session must equal the serial
  // in-process run with its seed, and that run the simple reference path.
  auto base = falcon::MakeCleaningWorkload(kDataset, kScale);
  if (!base.ok()) {
    r.Fail("MakeCleaningWorkload: " + base.status().ToString());
    return r;
  }
  EngineTotals totals;
  std::optional<SessionOutcome> reference;
  for (const ServiceOutcome& s : outcomes) {
    // The serial twins are traced (they give the engine's per-layer split
    // for this workload); the reference run is not.
    tracer.SetTrace(s.seed);
    SessionOutcome serial = RunEngineSession(
        base->clean, base->dirty, SessionPlan{}, s.seed, EnginePath::kDefault,
        /*keep_final=*/true, nullptr, config.trace ? &totals : nullptr);
    ++r.attempted;
    uint32_t serial_crc =
        serial.status.ok() ? falcon::TableContentsCrc(serial.final_table) : 0;
    if (!s.finished || !s.converged ||
        s.user_updates != static_cast<int64_t>(serial.metrics.user_updates) ||
        s.user_answers != static_cast<int64_t>(serial.metrics.user_answers) ||
        s.table_crc != static_cast<int64_t>(serial_crc)) {
      r.Fail("service session seed " + std::to_string(s.seed) +
             " differs from its serial in-process run");
    }
    if (!reference.has_value()) {
      TraceScope off(false);
      reference = RunEngineSession(base->clean, base->dirty, SessionPlan{},
                                   s.seed, EnginePath::kReference,
                                   /*keep_final=*/true, nullptr, nullptr);
      ++r.attempted;
      if (!reference->status.ok() ||
          falcon::TableContentsCrc(reference->final_table) != serial_crc) {
        r.Fail("reference run differs in its final table");
      }
    }
    std::string what = "serial twin of seed " + std::to_string(s.seed);
    CheckAgainstReference(what.c_str(), serial, *reference, &r);
    r.user_cost.push_back(static_cast<double>(s.user_updates + s.user_answers));
  }
  r.notes.push_back("sessions converged: " + std::to_string(outcomes.size()) +
                    ", rejected requests: " + std::to_string(rejected));

  if (config.trace) {
    r.layer["datagen.build_ms"] = [&] {
      double t0 = NowMs();
      auto w = falcon::MakeCleaningWorkload(kDataset, kScale);
      return w.ok() ? NowMs() - t0 : 0.0;
    }();
    AddEngineLayers(totals, &r);
    AddTableProbes(base->dirty, &r);
    if (journal_steps > 0) {
      r.layer["core.journal.bytes_per_step"] = journal_bytes / journal_steps;
    }
    if (!r.step_ms.empty()) {
      r.layer["service.response_bytes"] =
          response_bytes / static_cast<double>(r.step_ms.size());
    }
    r.layer["service.rejected"] = static_cast<double>(rejected);

    // Replay the first sessions serially, one per analyst at most, and
    // pair each client step with its isolated HandleRequest latency.
    const std::string replay_dir = dir + "/replay-journal";
    std::filesystem::create_directories(replay_dir, ec);
    falcon::ServiceLimits limits;
    limits.journal_dir = replay_dir;
    falcon::SessionManager manager(limits);
    std::vector<double> handle_step;
    std::vector<double> handle_status;
    std::vector<double> wait;
    double paired_client = 0.0;
    double paired_handle = 0.0;
    for (size_t i = 0; i < outcomes.size() && i < kAnalysts; ++i) {
      Replay rep = ReplaySession(manager, outcomes[i].seed, &r);
      handle_step.insert(handle_step.end(), rep.step_ms.begin(),
                         rep.step_ms.end());
      handle_status.insert(handle_status.end(), rep.status_ms.begin(),
                           rep.status_ms.end());
      const std::vector<double>& client = outcomes[i].step_ms;
      if (client.size() != rep.step_ms.size()) {
        r.Fail("replay of seed " + std::to_string(outcomes[i].seed) +
               " took a different number of steps");
        continue;
      }
      for (size_t k = 0; k < client.size(); ++k) {
        wait.push_back(client[k] - rep.step_ms[k]);
        paired_client += client[k];
        paired_handle += rep.step_ms[k];
      }
    }
    r.layer["service.handle_step_ms"] = Median(handle_step);
    r.layer["service.handle_status_ms"] = Median(handle_status);
    r.layer["service.status_p50_ms"] = Percentile(r.status_ms, 0.50);
    r.layer["service.status_p99_ms"] = Percentile(r.status_ms, 0.99);
    r.layer["service.wait_ms_p50"] = Percentile(wait, 0.50);
    r.layer["service.wait_ms_p99"] = Percentile(wait, 0.99);
    if (paired_client > 0) {
      r.layer["share.service.handle"] = paired_handle / paired_client;
      r.layer["share.service.wait"] = 1.0 - paired_handle / paired_client;
    }
    if (!traced_step_ms.empty() && !untraced_step_ms.empty()) {
      r.layer["trace.overhead_frac"] =
          Median(traced_step_ms) / Median(untraced_step_ms) - 1.0;
    }
  }
  std::filesystem::remove_all(dir, ec);
  return r;
}

}  // namespace perfbench
