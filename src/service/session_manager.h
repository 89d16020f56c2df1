// SessionManager: N concurrent cleaning sessions over shared immutable
// dataset snapshots.
//
// Threading model
//   - The session registry is lock-striped into `session_shards` shards
//     keyed by session-id hash: open/step/close on different sessions
//     contend only when their ids collide on a stripe, never on a global
//     lock. Shard mutexes are held only for lookups/insertions/erases,
//     never across session work and never while another lock is taken.
//   - Admission (max_sessions) uses an atomic reservation counter:
//     Open/RecoverOne reserve a slot up front and release it on every
//     failure path, so the live count is never transiently negative or
//     double-counted and needs no global lock.
//   - The dataset cache (`bases_`) sits behind its own mutex (`base_mu_`),
//     acquired after a session's mutex when both are needed (Mutate →
//     TouchBase, CloseInternal) and never while a shard mutex is held.
//   - Each session has its own mutex serializing all operations on it
//     (step, update_cell, answer, retract, status, close). Two requests
//     for the same session queue up; requests for different sessions run
//     fully in parallel.
//
// Snapshot model (copy-on-write)
//   - The first open of a (dataset, scale) pair builds the workload once
//     and caches it as an immutable shared base (clean + dirty tables and
//     their common ValuePool, which is thread-safe).
//   - Each session's working table is a COW clone of the shared dirty
//     base: Clone() is O(arity) and shares column buffers; a session's
//     first write to a column detaches a private copy. The clean table is
//     read in place by every session concurrently — nothing writes it.
//
// Isolation: per-session journal file, RNG seed, oracle, search-algorithm
// instance, and posting index. Each session keeps its own posting cache
// over its working table, capped at a slice of the global posting-index
// byte budget (total / max_sessions), so one session's cache pressure
// cannot starve the others.
//
// Base lifecycle: each bases_ entry counts the live sessions opened over
// it. A base with a live session is never evicted; idle bases stay cached
// for later opens until more than kMaxCachedBases are, when the least
// recently touched idle ones are evicted.
//
// Crash recovery (DESIGN.md "Service fault tolerance & recovery")
//   - With a journal_dir configured, every Open writes an `<id>.meta`
//     sidecar recording the OpenParams next to the session's `<id>.journal`
//     write-ahead log, and fsyncs the directory so both names survive a
//     crash.
//   - RecoverSessions() (called by the server at startup) scans the
//     directory: a meta+journal pair is replayed through
//     CleaningSession::RecoverToReplayEnd — tolerant torn-tail reader,
//     RNG-aligned deterministic replay — and re-registered under its
//     original id; a meta without a journal re-registers as a fresh
//     session (it never journaled anything); a journal without a meta is
//     a stale leftover and is deleted.
//   - A client-requested Close deletes both artifacts; graceful shutdown
//     (CloseAll) and idle eviction retain them so the session can resume
//     after a restart or via lazy Resume().
//
// Idempotent retries: mutating operations carry an optional per-session
// `seq` (monotonically increasing, starting at 1; 0 = legacy
// non-idempotent). The manager executes seq == last_seq + 1, caches the
// response in a bounded window, and answers a retried seq from the cache
// without re-executing. Stale (evicted) or gapped seqs fail with
// kFailedPrecondition. The window is in-memory only: it resets on daemon
// restart, and resumed clients re-sync from SessionStatus::last_seq.
#ifndef FALCON_SERVICE_SESSION_MANAGER_H_
#define FALCON_SERVICE_SESSION_MANAGER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/status.h"
#include "core/search.h"
#include "core/session.h"
#include "datagen/workload.h"
#include "service/scripted_oracle.h"

namespace falcon {

/// Manager-wide limits, fixed at construction.
struct ServiceLimits {
  /// Open() fails with kUnavailable once this many sessions are live.
  size_t max_sessions = 8;
  /// Total posting-index byte budget, sliced evenly across max_sessions
  /// (0 = unbounded caches).
  size_t posting_budget_bytes = 0;
  /// Directory for per-session write-ahead journals ("" disables
  /// journaling, and with it restart recovery).
  std::string journal_dir;
  /// Sessions idle longer than this are closed by EvictIdle() (0 = never).
  /// Evicted sessions keep their journal + meta and can be resumed.
  double idle_timeout_s = 0.0;
  /// Lock stripes for the session registry (clamped to ≥ 1). Sessions
  /// hash to a stripe by id; more stripes = less registry contention at
  /// high session counts, at a few hundred bytes each.
  size_t session_shards = 16;
};

/// Per-session view returned by Step/Info.
struct SessionStatus {
  std::string id;
  std::string dataset;
  bool finished = false;
  size_t pending_cells = 0;    ///< Worklist + queued external updates.
  size_t queued_verdicts = 0;  ///< Client answers not yet consumed.
  size_t repairs = 0;          ///< Repair-log entries (retract indexes).
  uint32_t table_crc = 0;      ///< TableContentsCrc of the working table.
  uint64_t last_seq = 0;       ///< Highest idempotent seq applied.
  SessionMetrics metrics;
};

/// Manager-level health snapshot (the `ping` verb).
struct ServiceHealth {
  /// Seconds since the manager (≈ the daemon) was constructed.
  double uptime_s = 0.0;
  size_t live_sessions = 0;
  size_t max_sessions = 0;
  /// Sessions replayed from journals since construction (startup scan +
  /// lazy resumes).
  size_t recovered_sessions = 0;
  /// Aggregate posting-cache resident bytes across live sessions, as of
  /// each session's last status snapshot.
  size_t posting_resident_bytes = 0;
  /// Streaming-append aggregates across live sessions (as of each
  /// session's last status snapshot).
  size_t rows_appended = 0;
  size_t append_batches = 0;
};

class SessionManager {
 public:
  /// Parameters of one `open_session` request.
  struct OpenParams {
    std::string dataset = "Synth10k";
    double scale = 1.0;
    uint64_t seed = 1234;
    size_t budget = 3;
    double question_mistake_prob = 0.0;
    double update_mistake_prob = 0.0;
    std::string algorithm = "CoDive";
    /// Posting storage (SessionOptions::compressed_rowsets: sparse
    /// postings as row-id arrays, or all dense); exposed so both modes
    /// are exercisable over the wire.
    bool compressed_rowsets = true;
  };

  explicit SessionManager(ServiceLimits limits);
  ~SessionManager();

  /// Creates a session; returns its id ("s-<n>"). kUnavailable when the
  /// session table is full (admission control — the caller should retry
  /// after a close or eviction).
  StatusOr<std::string> Open(const OpenParams& params);

  /// Resumes session `id`: returns immediately if it is live, otherwise
  /// recovers it from its on-disk journal + meta (evicted sessions, or a
  /// daemon restarted without a startup scan). kNotFound when neither
  /// exists.
  StatusOr<std::string> Resume(const std::string& id);

  /// Startup scan: replays every recoverable journal in journal_dir and
  /// re-registers the sessions under their original ids; deletes stale
  /// journals that lack a meta sidecar. Returns how many sessions were
  /// recovered. No-op without a journal_dir.
  size_t RecoverSessions();

  /// Runs up to `max_episodes` cleaning episodes (0 = to convergence).
  StatusOr<SessionStatus> Step(const std::string& id, size_t max_episodes,
                               uint64_t seq = 0);

  /// Queues an analyst cell repair; the next episode executes it.
  StatusOr<SessionStatus> UpdateCell(const std::string& id, uint32_t row,
                                     uint32_t col, const std::string& value,
                                     uint64_t seq = 0);

  /// Queues a validity verdict consumed by the next oracle question.
  StatusOr<SessionStatus> Answer(const std::string& id, bool valid,
                                 uint64_t seq = 0);

  /// Metrics + progress snapshot without running anything.
  StatusOr<SessionStatus> Info(const std::string& id);

  /// Retracts applied-repair log entry `repair_index` (newest-first rule
  /// applies; see CleaningSession::RetractRule).
  StatusOr<SessionStatus> Retract(const std::string& id, size_t repair_index,
                                  uint64_t seq = 0);

  /// Closes and destroys the session (waits for an in-flight operation)
  /// and deletes its journal + meta — the clean-close path.
  Status Close(const std::string& id);

  /// Closes sessions idle past the configured timeout; returns how many.
  /// Artifacts are retained so the sessions can be resumed.
  size_t EvictIdle();

  /// Graceful drain: closes every session, waiting for in-flight work.
  /// Artifacts are retained — sessions survive a daemon restart.
  void CloseAll();

  ServiceHealth Health() const;

  size_t active_sessions() const;
  /// Idle bases (no live session) stay cached for later opens until more
  /// than this many bases are cached; then the least recently touched idle
  /// bases are evicted. A base with a live session is never evicted, so
  /// the cache exceeds this only while that many bases are live.
  static constexpr size_t kMaxCachedBases = 4;

  /// Base workloads built and cached for reuse by later opens.
  size_t cached_bases() const;
  const ServiceLimits& limits() const { return limits_; }

 private:
  struct ServiceSession {
    std::string id;
    std::string dataset;
    std::mutex mu;  ///< Serializes all operations on this session.
    std::shared_ptr<const CleaningWorkload> base;
    std::string base_key;  ///< bases_ key, for the close-time release.
    Table working;         ///< COW clone of base->dirty.
    std::unique_ptr<ScriptedOracle> oracle;
    std::unique_ptr<SearchAlgorithm> algorithm;
    std::unique_ptr<CleaningSession> session;
    OpenParams params;  ///< For the meta sidecar + resume.
    /// Idempotency state (guarded by mu; in-memory only — resets on
    /// restart, clients re-sync from SessionStatus::last_seq).
    uint64_t last_seq = 0;
    std::deque<std::pair<uint64_t, StatusOr<SessionStatus>>> seq_window;
    /// steady_clock nanos of the last finished operation; atomic so the
    /// idle sweeper can read it without taking mu.
    std::atomic<int64_t> last_active_ns{0};
    /// Posting-cache bytes from the last Snapshot; atomic so Health() can
    /// aggregate without taking every session's mu.
    std::atomic<size_t> posting_resident_bytes{0};
    /// Streaming-append counters from the last Snapshot (same contract).
    std::atomic<size_t> rows_appended{0};
    std::atomic<size_t> append_batches{0};
    /// Set (under mu) once Close ran; late arrivals holding the shared_ptr
    /// observe it and report NotFound.
    bool closed = false;

    ServiceSession(std::shared_ptr<const CleaningWorkload> b)
        : base(std::move(b)), working(base->dirty.Clone()) {}
    void Touch() {
      last_active_ns.store(std::chrono::steady_clock::now()
                               .time_since_epoch()
                               .count(),
                           std::memory_order_relaxed);
    }
  };

  /// One cached immutable base and the count of live sessions on it.
  struct BaseEntry {
    std::shared_ptr<const CleaningWorkload> workload;
    size_t live_sessions = 0;
    /// steady_clock nanos of the last operation by any attached session;
    /// idle-base eviction drops the oldest first.
    int64_t last_touch_ns = 0;
  };

  /// Builds or fetches the shared immutable base for (dataset, scale) and
  /// registers a live session on it (AttachBaseLocked) in the same
  /// base_mu_ section, so eviction cannot drop it in between. Returns the
  /// workload and writes the bases_ key to *key_out. The caller owes one
  /// ReleaseBaseLocked.
  StatusOr<std::shared_ptr<const CleaningWorkload>> AcquireBase(
      const std::string& dataset, double scale, std::string* key_out);

  /// Registers a live session on its base under base_mu_: bumps the
  /// refcount and stamps the base's LRU clock.
  void AttachBaseLocked(const std::string& key);
  /// Last-close bookkeeping under base_mu_: decrements the refcount and
  /// evicts idle bases beyond kMaxCachedBases.
  void ReleaseBaseLocked(const std::string& key);
  /// Erases least-recently-touched idle bases until at most
  /// kMaxCachedBases remain or every remaining base is live. Call under
  /// base_mu_.
  void EvictIdleBasesLocked();
  /// Stamps the base's LRU clock (takes base_mu_ briefly; called after
  /// session operations).
  void TouchBase(const std::string& key);

  StatusOr<std::shared_ptr<ServiceSession>> Lookup(const std::string& id);
  static SessionStatus Snapshot(ServiceSession& s);

  /// The idempotent-retry gate: checks `seq` against the session's window
  /// under its mutex, executes `op` exactly once for a fresh seq, caches
  /// and returns the response. seq == 0 bypasses the window entirely.
  StatusOr<SessionStatus> Mutate(
      const std::string& id, uint64_t seq,
      const std::function<StatusOr<SessionStatus>(ServiceSession&)>& op);

  /// Builds a ServiceSession (not yet registered) from OpenParams; the
  /// common construction path for Open, recovery, and resume.
  StatusOr<std::shared_ptr<ServiceSession>> Build(const OpenParams& params,
                                                  const std::string& id);

  /// Recovers one session from `<journal_dir>/<id>.{meta,journal}` and
  /// registers it under its original id.
  StatusOr<std::string> RecoverOne(const std::string& id);

  Status CloseInternal(const std::string& id, bool delete_artifacts);
  Status WriteMeta(const ServiceSession& s);
  void DeleteArtifacts(const std::string& id);

  std::string JournalPath(const std::string& id) const;
  std::string MetaPath(const std::string& id) const;

  /// One lock stripe of the session registry.
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, std::shared_ptr<ServiceSession>> sessions;
  };
  Shard& ShardFor(const std::string& id);
  const Shard& ShardFor(const std::string& id) const;

  const ServiceLimits limits_;
  /// Session registry, lock-striped by id hash. Sized at construction;
  /// never resized (Shard is not movable).
  mutable std::vector<Shard> shards_;
  mutable std::mutex base_mu_;  ///< Guards bases_.
  std::map<std::string, BaseEntry> bases_;
  std::atomic<uint64_t> next_id_{1};
  /// Live + under-construction sessions: reserved before Build, released
  /// on every failure path and at close — the race-free admission gate.
  std::atomic<size_t> session_count_{0};
  std::atomic<size_t> recovered_sessions_{0};
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();
};

}  // namespace falcon

#endif  // FALCON_SERVICE_SESSION_MANAGER_H_
