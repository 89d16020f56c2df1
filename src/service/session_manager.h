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
//   - The dataset cache and shared base tiers (`bases_`) sit behind their
//     own mutex (`base_mu_`), acquired after a session's mutex when both
//     are needed (Mutate → TouchBase, CloseInternal) and never while a
//     shard mutex is held.
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
// instance, and a slice of the global posting-index byte budget
// (total / max_sessions), so one session's cache pressure cannot starve
// the others.
//
// Shared base tier (DESIGN.md "Shared base cache & epoch invalidation")
//   - Each bases_ entry owns at most one SharedBaseCache keyed on the
//     workload's snapshot id. Sessions opened over that base attach to it:
//     postings and pairwise intersections over columns a session has not
//     mutated are computed once process-wide and served to every session.
//   - Lifecycle: the cache is created when the first session registers on
//     a base and dropped (whole-tier invalidation + release) when the
//     last session on that base closes; the workload itself stays cached.
//   - Budget: each cache is capped at shared_cache_budget_bytes
//     (publish-time rejection), and the same number bounds the *sum*
//     across bases — exceeded, the least-recently-touched base's tier is
//     invalidated (LRU across bases, whole caches at a time).
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
#include "core/shared_base_cache.h"
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
  /// Attach sessions on one base to a process-wide SharedBaseCache of
  /// postings + pairwise intersections (pure acceleration; bit-identical
  /// behaviour). Off restores fully independent per-session caches.
  bool shared_base_cache = true;
  /// Byte cap per shared cache *and* on the sum across bases (LRU
  /// whole-cache invalidation when the aggregate exceeds it; 0 = unbounded).
  size_t shared_cache_budget_bytes = 256u << 20;
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
  /// Aggregate *private-tier* posting-cache resident bytes across live
  /// sessions, as of each session's last status snapshot. Shared-tier
  /// bytes are deliberately excluded: they are resident once per base,
  /// not once per session, and are reported below.
  size_t posting_resident_bytes = 0;
  /// Shared base tier, counted once per base cache (never per session).
  size_t shared_bases = 0;           ///< bases_ entries with a live cache.
  size_t shared_resident_bytes = 0;  ///< Σ cache resident bytes.
  size_t shared_entries = 0;         ///< Σ cached shared postings.
  size_t shared_hits = 0;            ///< Σ shared posting hits.
  size_t shared_misses = 0;          ///< Σ shared posting misses.
  /// Streaming-append aggregates across live sessions (as of each
  /// session's last status snapshot).
  size_t rows_appended = 0;
  size_t append_batches = 0;
  /// Derived shared hit rate in [0, 1] (0.0 with no probes).
  double shared_hit_rate() const {
    size_t total = shared_hits + shared_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(shared_hits) /
                            static_cast<double>(total);
  }
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
    /// Delta-maintain cached postings across repairs (SessionOptions::
    /// posting_delta); exposed so both posting modes are exercisable over
    /// the wire.
    bool posting_delta = true;
    /// Row-set representation (SessionOptions::compressed_rowsets);
    /// exposed so both representations are exercisable over the wire —
    /// the shared base tier keeps dense and compressed planes separate.
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
  /// Base workloads built and cached for reuse by later opens.
  size_t cached_bases() const;
  const ServiceLimits& limits() const { return limits_; }

 private:
  struct ServiceSession {
    std::string id;
    std::string dataset;
    std::mutex mu;  ///< Serializes all operations on this session.
    std::shared_ptr<const CleaningWorkload> base;
    /// The base's shared read tier (null when disabled). Co-owned so a
    /// session outliving the manager's bases_ entry (straggler holding
    /// the shared_ptr) never dangles; the manager's release on last-close
    /// drops discoverability, refcounts handle the rest.
    std::shared_ptr<SharedBaseCache> shared_cache;
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

  /// One cached immutable base plus its shared read tier and the count of
  /// live sessions attached to it.
  struct BaseEntry {
    std::shared_ptr<const CleaningWorkload> workload;
    /// Created on first attach, dropped when live_sessions returns to 0
    /// (the workload itself stays cached). Null while no session is open
    /// on this base or when limits_.shared_base_cache is off.
    std::shared_ptr<SharedBaseCache> cache;
    size_t live_sessions = 0;
    /// steady_clock nanos of the last operation by any attached session;
    /// the cross-base LRU invalidates the oldest tier first.
    int64_t last_touch_ns = 0;
  };

  /// Builds or fetches the shared immutable base for (dataset, scale);
  /// returns the workload and writes the bases_ key to *key_out.
  StatusOr<std::shared_ptr<const CleaningWorkload>> GetBase(
      const std::string& dataset, double scale, std::string* key_out);

  /// Registers a live session on its base under base_mu_: bumps the
  /// refcount and creates the shared tier if this is the first attach.
  /// Returns the cache to hand to the session (null when disabled).
  std::shared_ptr<SharedBaseCache> AttachBaseLocked(const std::string& key);
  /// Last-close bookkeeping under base_mu_: decrements the refcount and
  /// drops the base's shared tier when it reaches zero.
  void ReleaseBaseLocked(const std::string& key);
  /// Cross-base LRU: while Σ cache bytes exceeds the budget, invalidates
  /// the least-recently-touched tier with resident bytes. Call under
  /// base_mu_.
  void EnforceSharedBudgetLocked();
  /// Stamps the base's LRU clock and enforces the aggregate budget (takes
  /// base_mu_ briefly; called after session operations).
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
  mutable std::mutex base_mu_;  ///< Guards bases_ (workloads + shared tiers).
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
