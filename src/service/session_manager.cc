#include "service/session_manager.h"

#include <dirent.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "common/json.h"
#include "core/session_journal.h"
#include "service/protocol.h"

namespace falcon {
namespace {

constexpr size_t kSeqWindow = 32;

StatusOr<SearchKind> ParseSearchKind(const std::string& name) {
  for (SearchKind k :
       {SearchKind::kBfs, SearchKind::kDfs, SearchKind::kDucc,
        SearchKind::kDive, SearchKind::kCoDive, SearchKind::kOffline}) {
    if (name == SearchKindName(k)) return k;
  }
  return Status::InvalidArgument("unknown search algorithm: " + name);
}

/// fsyncs the journal directory so freshly created/renamed/unlinked entry
/// names survive a crash. Fault site: service.journal_dir_sync.
Status SyncJournalDir(const std::string& dir) {
  FALCON_RETURN_IF_ERROR(
      FaultInjector::Global().Hit("service.journal_dir_sync"));
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("open journal dir " + dir + ": " +
                           std::strerror(errno));
  }
  int rc = ::fsync(fd);
  int saved = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IoError("fsync journal dir " + dir + ": " +
                           std::strerror(saved));
  }
  return Status::Ok();
}

Status WriteFileDurable(const std::string& path, const std::string& body) {
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  size_t off = 0;
  while (off < body.size()) {
    ssize_t n = ::write(fd, body.data() + off, body.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      return Status::IoError("write " + path + ": " + std::strerror(saved));
    }
    off += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int saved = errno;
    ::close(fd);
    return Status::IoError("fsync " + path + ": " + std::strerror(saved));
  }
  ::close(fd);
  return Status::Ok();
}

StatusOr<std::string> ReadFileToString(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return Status::IoError("open " + path + ": " + std::strerror(errno));
  }
  std::string out;
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      int saved = errno;
      ::close(fd);
      return Status::IoError("read " + path + ": " + std::strerror(saved));
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

/// Parses the numeric part of an "s-<n>" session id (0 when malformed).
uint64_t SessionIdNumber(const std::string& id) {
  if (id.size() < 3 || id.compare(0, 2, "s-") != 0) return 0;
  uint64_t n = 0;
  for (size_t i = 2; i < id.size(); ++i) {
    if (id[i] < '0' || id[i] > '9') return 0;
    n = n * 10 + static_cast<uint64_t>(id[i] - '0');
  }
  return n;
}

}  // namespace

SessionManager::SessionManager(ServiceLimits limits)
    : limits_(std::move(limits)),
      shards_(std::max<size_t>(1, limits_.session_shards)) {}

SessionManager::~SessionManager() { CloseAll(); }

SessionManager::Shard& SessionManager::ShardFor(const std::string& id) {
  // FNV-1a over the id; session ids are "s-<n>" so the low bytes carry all
  // the entropy and a multiplicative hash spreads them well across stripes.
  uint64_t h = 14695981039346656037ull;
  for (char c : id) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return shards_[h % shards_.size()];
}

const SessionManager::Shard& SessionManager::ShardFor(
    const std::string& id) const {
  return const_cast<SessionManager*>(this)->ShardFor(id);
}

std::string SessionManager::JournalPath(const std::string& id) const {
  return limits_.journal_dir + "/" + id + ".journal";
}

std::string SessionManager::MetaPath(const std::string& id) const {
  return limits_.journal_dir + "/" + id + ".meta";
}

StatusOr<std::shared_ptr<const CleaningWorkload>> SessionManager::AcquireBase(
    const std::string& dataset, double scale, std::string* key_out) {
  // Key includes the scale so differently-sized instances of one dataset
  // coexist; %g keeps the key stable for equal doubles.
  char key[128];
  std::snprintf(key, sizeof key, "%s@%g", dataset.c_str(), scale);
  *key_out = key;
  {
    std::lock_guard<std::mutex> lock(base_mu_);
    auto it = bases_.find(key);
    if (it != bases_.end()) {
      AttachBaseLocked(key);
      return it->second.workload;
    }
  }
  // Build outside the lock: workload generation takes seconds at scale and
  // must not block unrelated sessions. A racing open of the same dataset
  // builds twice; first insert wins and both get the same table.
  FALCON_ASSIGN_OR_RETURN(CleaningWorkload w,
                          MakeCleaningWorkload(dataset, scale));
  auto base = std::make_shared<const CleaningWorkload>(std::move(w));
  std::lock_guard<std::mutex> lock(base_mu_);
  auto [it, inserted] = bases_.emplace(key, BaseEntry{});
  if (inserted) it->second.workload = std::move(base);
  // Attached before eviction runs, so the new base counts as live.
  AttachBaseLocked(key);
  EvictIdleBasesLocked();
  return it->second.workload;
}

void SessionManager::AttachBaseLocked(const std::string& key) {
  auto it = bases_.find(key);
  if (it == bases_.end()) return;
  BaseEntry& entry = it->second;
  ++entry.live_sessions;
  entry.last_touch_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
}

void SessionManager::ReleaseBaseLocked(const std::string& key) {
  auto it = bases_.find(key);
  if (it == bases_.end()) return;
  BaseEntry& entry = it->second;
  if (entry.live_sessions > 0) --entry.live_sessions;
  entry.last_touch_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  // The workload stays cached for the next open, up to kMaxCachedBases.
  if (entry.live_sessions == 0) EvictIdleBasesLocked();
}

void SessionManager::EvictIdleBasesLocked() {
  while (bases_.size() > kMaxCachedBases) {
    auto oldest = bases_.end();
    for (auto it = bases_.begin(); it != bases_.end(); ++it) {
      if (it->second.live_sessions == 0 &&
          (oldest == bases_.end() ||
           it->second.last_touch_ns < oldest->second.last_touch_ns)) {
        oldest = it;
      }
    }
    if (oldest == bases_.end()) return;  // Every base has a live session.
    bases_.erase(oldest);
  }
}

void SessionManager::TouchBase(const std::string& key) {
  std::lock_guard<std::mutex> lock(base_mu_);
  auto it = bases_.find(key);
  if (it != bases_.end()) {
    it->second.last_touch_ns =
        std::chrono::steady_clock::now().time_since_epoch().count();
  }
}

StatusOr<std::shared_ptr<SessionManager::ServiceSession>>
SessionManager::Build(const OpenParams& params, const std::string& id) {
  FALCON_ASSIGN_OR_RETURN(SearchKind kind, ParseSearchKind(params.algorithm));
  // Attaches to the base now (refcounted). Every exit path that fails to
  // register this session must ReleaseBaseLocked.
  std::string base_key;
  FALCON_ASSIGN_OR_RETURN(auto base,
                          AcquireBase(params.dataset, params.scale, &base_key));

  auto s = std::make_shared<ServiceSession>(base);
  s->id = id;
  s->dataset = params.dataset;
  s->params = params;
  s->base_key = base_key;
  // The oracle mirrors the session's internal construction
  // (question_mistake_prob, seed + 1) so an answer-free service run is
  // bit-identical to a serial RunCleaning with the same options.
  s->oracle = std::make_unique<ScriptedOracle>(
      &base->clean, params.question_mistake_prob, params.seed + 1);
  s->algorithm = MakeSearchAlgorithm(kind);

  SessionOptions options;
  options.budget = params.budget;
  options.seed = params.seed;
  options.question_mistake_prob = params.question_mistake_prob;
  options.update_mistake_prob = params.update_mistake_prob;
  options.compressed_rowsets = params.compressed_rowsets;
  options.oracle = s->oracle.get();
  if (limits_.posting_budget_bytes > 0) {
    options.posting_budget_bytes =
        limits_.posting_budget_bytes / limits_.max_sessions;
  }
  if (!limits_.journal_dir.empty()) {
    options.journal_path = JournalPath(id);
  }
  s->session = std::make_unique<CleaningSession>(
      &base->clean, &s->working, s->algorithm.get(), options);
  s->Touch();
  return s;
}

Status SessionManager::WriteMeta(const ServiceSession& s) {
  if (limits_.journal_dir.empty()) return Status::Ok();
  JsonValue meta = JsonValue::Object();
  meta.Set("id", s.id);
  meta.Set("dataset", s.params.dataset);
  meta.Set("scale", s.params.scale);
  meta.Set("seed", static_cast<int64_t>(s.params.seed));
  meta.Set("budget", s.params.budget);
  meta.Set("question_mistake_prob", s.params.question_mistake_prob);
  meta.Set("update_mistake_prob", s.params.update_mistake_prob);
  meta.Set("algorithm", s.params.algorithm);
  meta.Set("compressed_rowsets", s.params.compressed_rowsets);
  FALCON_RETURN_IF_ERROR(
      WriteFileDurable(MetaPath(s.id), meta.Serialize() + "\n"));
  return SyncJournalDir(limits_.journal_dir);
}

void SessionManager::DeleteArtifacts(const std::string& id) {
  if (limits_.journal_dir.empty()) return;
  ::unlink(JournalPath(id).c_str());
  ::unlink(MetaPath(id).c_str());
  // Best-effort: a failed directory sync here only delays the cleanup
  // until the next startup scan notices the stale entries.
  Status st = SyncJournalDir(limits_.journal_dir);
  (void)st;
}

StatusOr<std::string> SessionManager::Open(const OpenParams& params) {
  // Reserve an admission slot atomically; every failure path below hands
  // it back, so the count can never go negative or double-admit.
  if (session_count_.fetch_add(1, std::memory_order_acq_rel) >=
      limits_.max_sessions) {
    session_count_.fetch_sub(1, std::memory_order_acq_rel);
    return Status::Unavailable(
        "session table full (" + std::to_string(limits_.max_sessions) +
        " live sessions); close one or retry later");
  }
  std::string id =
      "s-" + std::to_string(next_id_.fetch_add(1, std::memory_order_relaxed));
  StatusOr<std::shared_ptr<ServiceSession>> built = Build(params, id);
  if (!built.ok()) {
    session_count_.fetch_sub(1, std::memory_order_acq_rel);
    return built.status();
  }
  std::shared_ptr<ServiceSession> s = std::move(built).value();
  if (Status meta = WriteMeta(*s); !meta.ok()) {
    // Never leave a half-durable meta behind: an orphan would re-register
    // as a fresh session at the next startup scan.
    DeleteArtifacts(id);
    {
      std::lock_guard<std::mutex> lock(base_mu_);
      ReleaseBaseLocked(s->base_key);
    }
    session_count_.fetch_sub(1, std::memory_order_acq_rel);
    return meta;
  }

  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.sessions.emplace(s->id, s);
  return s->id;
}

StatusOr<std::string> SessionManager::RecoverOne(const std::string& id) {
  // Same reservation discipline as Open: take the admission slot before
  // the (expensive) rebuild, release it on every non-registering path.
  if (session_count_.fetch_add(1, std::memory_order_acq_rel) >=
      limits_.max_sessions) {
    session_count_.fetch_sub(1, std::memory_order_acq_rel);
    {
      // The table may be full *because* this session is already live
      // (raced resume): that is success, not exhaustion.
      Shard& shard = ShardFor(id);
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.sessions.count(id) > 0) return id;
    }
    return Status::Unavailable("session table full; cannot resume " + id);
  }
  auto release = [this] {
    session_count_.fetch_sub(1, std::memory_order_acq_rel);
  };
  StatusOr<std::string> body_or = ReadFileToString(MetaPath(id));
  if (!body_or.ok()) {
    release();
    return body_or.status();
  }
  std::string body = std::move(body_or).value();
  StatusOr<JsonValue> meta_or = JsonValue::Parse(body);
  if (!meta_or.ok()) {
    release();
    return meta_or.status();
  }
  // The meta carries open_session's fields, so it goes through the same
  // decoder and the same checks.
  StatusOr<OpenParams> params = DecodeOpenParams(meta_or.value());
  if (!params.ok()) {
    release();
    return params.status();
  }

  StatusOr<std::shared_ptr<ServiceSession>> built = Build(*params, id);
  if (!built.ok()) {
    release();
    return built.status();
  }
  std::shared_ptr<ServiceSession> s = std::move(built).value();
  // Replays the journaled prefix (tolerant of a torn tail) and completes
  // any interrupted episode deterministically, then stops so the client
  // resumes driving with `step`. A meta without a journal (the session
  // never ran an episode) starts fresh without running one.
  if (Status replay = s->session->RecoverToReplayEnd().status();
      !replay.ok()) {
    {
      std::lock_guard<std::mutex> lock(base_mu_);
      ReleaseBaseLocked(s->base_key);
    }
    release();
    return replay;
  }
  s->Touch();

  // Keep fresh ids ahead of every recovered id (lock-free CAS catch-up).
  uint64_t n = SessionIdNumber(id);
  uint64_t cur = next_id_.load(std::memory_order_relaxed);
  while (n >= cur && !next_id_.compare_exchange_weak(
                         cur, n + 1, std::memory_order_relaxed)) {
  }

  bool raced = false;
  {
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    raced = !shard.sessions.emplace(id, s).second;
  }
  if (raced) {
    // Raced with another resume: theirs is registered, ours is discarded.
    {
      std::lock_guard<std::mutex> lock(base_mu_);
      ReleaseBaseLocked(s->base_key);
    }
    release();
    return id;
  }
  recovered_sessions_.fetch_add(1, std::memory_order_relaxed);
  return id;
}

size_t SessionManager::RecoverSessions() {
  if (limits_.journal_dir.empty()) return 0;
  DIR* dir = ::opendir(limits_.journal_dir.c_str());
  if (dir == nullptr) return 0;
  std::vector<std::string> meta_ids;
  std::vector<std::string> journal_ids;
  while (struct dirent* e = ::readdir(dir)) {
    std::string name = e->d_name;
    auto strip = [&name](const char* suffix) -> std::string {
      size_t len = std::strlen(suffix);
      if (name.size() <= len ||
          name.compare(name.size() - len, len, suffix) != 0) {
        return "";
      }
      return name.substr(0, name.size() - len);
    };
    if (std::string id = strip(".meta"); !id.empty()) meta_ids.push_back(id);
    if (std::string id = strip(".journal"); !id.empty()) {
      journal_ids.push_back(id);
    }
  }
  ::closedir(dir);

  size_t recovered = 0;
  for (const std::string& id : meta_ids) {
    {
      Shard& shard = ShardFor(id);
      std::lock_guard<std::mutex> lock(shard.mu);
      if (shard.sessions.count(id) > 0) continue;
    }
    // A failed recovery (corrupt meta, unknown dataset) skips the session
    // but retains its files for inspection; it will be retried next start.
    if (RecoverOne(id).ok()) ++recovered;
  }
  // A journal without a meta sidecar is a stale leftover (the meta is
  // written before the journal's first record and deleted after the
  // journal on clean close): delete it.
  bool deleted_stale = false;
  for (const std::string& id : journal_ids) {
    bool has_meta = false;
    for (const std::string& m : meta_ids) {
      if (m == id) {
        has_meta = true;
        break;
      }
    }
    if (!has_meta) {
      ::unlink(JournalPath(id).c_str());
      deleted_stale = true;
    }
  }
  if (deleted_stale) {
    Status st = SyncJournalDir(limits_.journal_dir);
    (void)st;
  }
  return recovered;
}

StatusOr<std::string> SessionManager::Resume(const std::string& id) {
  {
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.sessions.count(id) > 0) return id;
  }
  if (limits_.journal_dir.empty()) {
    return Status::NotFound("no such session: " + id);
  }
  return RecoverOne(id);
}

StatusOr<std::shared_ptr<SessionManager::ServiceSession>>
SessionManager::Lookup(const std::string& id) {
  Shard& shard = ShardFor(id);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.sessions.find(id);
  if (it == shard.sessions.end()) {
    return Status::NotFound("no such session: " + id);
  }
  return it->second;
}

SessionStatus SessionManager::Snapshot(ServiceSession& s) {
  SessionStatus st;
  st.id = s.id;
  st.dataset = s.dataset;
  st.finished = s.session->finished();
  st.pending_cells = s.session->pending_cells();
  st.queued_verdicts = s.oracle->queued();
  st.repairs = s.session->log().size();
  st.table_crc = TableContentsCrc(s.working);
  st.last_seq = s.last_seq;
  st.metrics = s.session->metrics();
  s.posting_resident_bytes.store(st.metrics.posting_resident_bytes,
                                 std::memory_order_relaxed);
  s.rows_appended.store(st.metrics.rows_appended, std::memory_order_relaxed);
  s.append_batches.store(st.metrics.append_batches,
                         std::memory_order_relaxed);
  return st;
}

StatusOr<SessionStatus> SessionManager::Mutate(
    const std::string& id, uint64_t seq,
    const std::function<StatusOr<SessionStatus>(ServiceSession&)>& op) {
  FALCON_ASSIGN_OR_RETURN(auto s, Lookup(id));
  std::lock_guard<std::mutex> lock(s->mu);
  if (s->closed) return Status::NotFound("session closed: " + id);
  if (seq > 0) {
    if (seq <= s->last_seq) {
      // A retry of an already-applied request: answer from the cached
      // window without re-executing (errors replay too — the retry sees
      // exactly what the original caller saw).
      for (const auto& [cached_seq, response] : s->seq_window) {
        if (cached_seq == seq) return response;
      }
      return Status::FailedPrecondition(
          "seq " + std::to_string(seq) + " too old for session " + id +
          " (last_seq " + std::to_string(s->last_seq) +
          "; response evicted from the idempotency window)");
    }
    if (seq != s->last_seq + 1) {
      return Status::FailedPrecondition(
          "seq gap for session " + id + ": got " + std::to_string(seq) +
          ", expected " + std::to_string(s->last_seq + 1));
    }
  }
  // Advance before executing so the op's snapshot reports this request's
  // seq as applied.
  if (seq > 0) s->last_seq = seq;
  StatusOr<SessionStatus> result = op(*s);
  s->Touch();
  // Keep the base's LRU clock current for idle-base eviction.
  TouchBase(s->base_key);
  if (seq > 0) {
    s->seq_window.emplace_back(seq, result);
    while (s->seq_window.size() > kSeqWindow) s->seq_window.pop_front();
  }
  return result;
}

StatusOr<SessionStatus> SessionManager::Step(const std::string& id,
                                             size_t max_episodes,
                                             uint64_t seq) {
  return Mutate(id, seq,
                [max_episodes](ServiceSession& s) -> StatusOr<SessionStatus> {
                  auto metrics = s.session->RunSteps(max_episodes);
                  FALCON_RETURN_IF_ERROR(metrics.status());
                  return Snapshot(s);
                });
}

StatusOr<SessionStatus> SessionManager::UpdateCell(const std::string& id,
                                                   uint32_t row, uint32_t col,
                                                   const std::string& value,
                                                   uint64_t seq) {
  return Mutate(id, seq,
                [row, col, &value](ServiceSession& s)
                    -> StatusOr<SessionStatus> {
                  FALCON_RETURN_IF_ERROR(
                      s.session->SubmitUpdate(row, col, value));
                  return Snapshot(s);
                });
}

StatusOr<SessionStatus> SessionManager::Answer(const std::string& id,
                                               bool valid, uint64_t seq) {
  return Mutate(id, seq,
                [valid](ServiceSession& s) -> StatusOr<SessionStatus> {
                  s.oracle->QueueVerdict(valid);
                  return Snapshot(s);
                });
}

StatusOr<SessionStatus> SessionManager::Info(const std::string& id) {
  FALCON_ASSIGN_OR_RETURN(auto s, Lookup(id));
  std::lock_guard<std::mutex> lock(s->mu);
  if (s->closed) return Status::NotFound("session closed: " + id);
  s->Touch();
  return Snapshot(*s);
}

StatusOr<SessionStatus> SessionManager::Retract(const std::string& id,
                                                size_t repair_index,
                                                uint64_t seq) {
  return Mutate(id, seq,
                [repair_index](ServiceSession& s) -> StatusOr<SessionStatus> {
                  FALCON_RETURN_IF_ERROR(
                      s.session->RetractRule(repair_index));
                  return Snapshot(s);
                });
}

Status SessionManager::CloseInternal(const std::string& id,
                                     bool delete_artifacts) {
  std::shared_ptr<ServiceSession> s;
  {
    Shard& shard = ShardFor(id);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.sessions.find(id);
    if (it == shard.sessions.end()) {
      return Status::NotFound("no such session: " + id);
    }
    s = std::move(it->second);
    shard.sessions.erase(it);
  }
  // The erase above removed the session from every observer's view; hand
  // the admission slot back now so a waiting open can claim it while the
  // teardown below (which can fsync) runs.
  session_count_.fetch_sub(1, std::memory_order_acq_rel);
  // Wait for any in-flight operation, then tear the session down while we
  // still hold its lock; stragglers holding the shared_ptr see `closed`.
  std::lock_guard<std::mutex> lock(s->mu);
  s->closed = true;
  s->session.reset();
  s->algorithm.reset();
  s->oracle.reset();
  // A clean close is final: its journal + meta would otherwise be replayed
  // as an orphan at the next startup scan. Eviction and graceful shutdown
  // keep them so the session stays resumable.
  if (delete_artifacts) DeleteArtifacts(id);
  // The session is gone: release the base. Lock order is
  // s->mu → base_mu_ here, matching Mutate's op → TouchBase sequence;
  // base_mu_ is never held while acquiring a session or shard mutex.
  {
    std::lock_guard<std::mutex> base_lock(base_mu_);
    ReleaseBaseLocked(s->base_key);
  }
  return Status::Ok();
}

Status SessionManager::Close(const std::string& id) {
  return CloseInternal(id, /*delete_artifacts=*/true);
}

size_t SessionManager::EvictIdle() {
  if (limits_.idle_timeout_s <= 0) return 0;
  const int64_t now_ns =
      std::chrono::steady_clock::now().time_since_epoch().count();
  const int64_t timeout_ns =
      static_cast<int64_t>(limits_.idle_timeout_s * 1e9);
  std::vector<std::string> idle;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [id, s] : shard.sessions) {
      if (now_ns - s->last_active_ns.load(std::memory_order_relaxed) >
          timeout_ns) {
        idle.push_back(id);
      }
    }
  }
  size_t evicted = 0;
  for (const std::string& id : idle) {
    // Retain artifacts: an evicted session resumes lazily from disk.
    evicted += CloseInternal(id, /*delete_artifacts=*/false).ok();
  }
  return evicted;
}

void SessionManager::CloseAll() {
  std::vector<std::string> ids;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (const auto& [id, s] : shard.sessions) ids.push_back(id);
  }
  for (const std::string& id : ids) {
    // Graceful drain retains journals + metas: sessions survive a daemon
    // restart and are re-registered by the startup scan.
    Status st = CloseInternal(id, /*delete_artifacts=*/false);
    (void)st;
  }
}

ServiceHealth SessionManager::Health() const {
  ServiceHealth h;
  h.uptime_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start_time_)
                   .count();
  h.max_sessions = limits_.max_sessions;
  h.recovered_sessions = recovered_sessions_.load(std::memory_order_relaxed);
  // Per-shard locking: the totals are a consistent sum of per-shard
  // snapshots (each shard's count is exact at the instant its lock is
  // held), so concurrent opens/closes can make the sum land anywhere
  // between the start and end population — but never negative and never
  // double-counting a session.
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    h.live_sessions += shard.sessions.size();
    for (const auto& [id, s] : shard.sessions) {
      h.posting_resident_bytes +=
          s->posting_resident_bytes.load(std::memory_order_relaxed);
      h.rows_appended += s->rows_appended.load(std::memory_order_relaxed);
      h.append_batches += s->append_batches.load(std::memory_order_relaxed);
    }
  }
  return h;
}

size_t SessionManager::cached_bases() const {
  std::lock_guard<std::mutex> lock(base_mu_);
  return bases_.size();
}

size_t SessionManager::active_sessions() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    total += shard.sessions.size();
  }
  return total;
}

}  // namespace falcon
