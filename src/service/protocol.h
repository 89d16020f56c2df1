// Wire protocol of the cleaning service: line-delimited JSON.
//
// Grammar (one request line → one response line, in order):
//   request  := { "verb": <verb>, ...verb arguments }
//   response := { "ok": true, ...verb results }
//             | { "ok": false, "code": <STATUS_CODE>, "error": <message>
//                 [, "retry_after_ms": <int>] }
//
// Verbs:
//   open_session  {dataset, scale, seed, budget, question_mistake_prob,
//                  update_mistake_prob, algorithm, compressed_rowsets}
//                                                  → {session}
//                  (numeric fields must be numbers; budget >= 0 and both
//                  mistake probabilities finite in [0, 1], else
//                  INVALID_ARGUMENT before anything is built)
//   open_session  {resume: "s-<n>"}                → status body (resumes a
//                  live, evicted, or journal-recovered session; the body's
//                  last_seq re-syncs the client's idempotency counter)
//   step          {session, episodes [, seq]}      → status body (below)
//   update_cell   {session, row, col, value [, seq]} → {last_seq}
//   answer        {session, valid [, seq]}         → {last_seq}
//   status        {session}                        → status body
//   retract       {session, repair [, seq]}        → {last_seq}
//   close         {session}                        → {}
//   ping          {}                               → {uptime_s,
//                  live_sessions, max_sessions, recovered_sessions,
//                  posting_resident_bytes}
//   shutdown      {}                               → {} (only when the
//                  server was started with --allow-remote-shutdown)
//
// Status body: {session, dataset, finished, pending_cells,
//   queued_verdicts, table_crc, last_seq, metrics:{user_updates,
//   user_answers, master_answers, initial_errors, cells_repaired,
//   queries_applied, converged, benefit}}.
//
// Idempotent retries: a mutating verb may carry a per-session `seq`
// (monotonically increasing from 1). The server executes seq ==
// last_seq + 1 exactly once and caches the response; a retried seq
// returns the cached response without re-applying. Stale or gapped seqs
// fail with FAILED_PRECONDITION. seq == 0 / absent is the legacy
// non-idempotent path.
//
// "retry_after_ms" appears only on kUnavailable rejections (admission
// control: full request queue or full session table) and tells the client
// when to retry.
//
// HandleRequest is the single dispatcher shared by the socket server and
// in-process tests, so protocol behaviour is testable without sockets.
#ifndef FALCON_SERVICE_PROTOCOL_H_
#define FALCON_SERVICE_PROTOCOL_H_

#include <string>

#include "common/json.h"
#include "service/session_manager.h"

namespace falcon {

/// Dispatches one parsed request against `manager`; never throws and
/// always returns a well-formed response object (errors become
/// `{"ok":false,...}`). The `shutdown` verb is answered with
/// kUnimplemented here — the server intercepts it before dispatch.
JsonValue HandleRequest(SessionManager& manager, const JsonValue& request);

/// Builds an error response from a status. `retry_after_ms` > 0 adds the
/// backoff hint (used for kUnavailable).
JsonValue ErrorResponse(const Status& status, int64_t retry_after_ms = 0);

/// Serializes a session snapshot into the response's status body.
JsonValue StatusBody(const SessionStatus& st);

/// Decodes open_session's parameters: the one decoder for the request and
/// for the `<id>.meta` sidecar recovery reads back, which carries the same
/// fields. An absent field keeps its default and an unknown key is
/// ignored. `scale` and the mistake probabilities must be numbers; `seed`
/// and `budget` must be integers in [0, 2^63), so a fraction, a negative
/// value or one past int64 is refused rather than truncated or wrapped; a
/// mistake probability must be a finite value in [0, 1]. The scale's range
/// is checked where the workload is built (MakeCleaningWorkload).
StatusOr<SessionManager::OpenParams> DecodeOpenParams(const JsonValue& fields);

}  // namespace falcon

#endif  // FALCON_SERVICE_PROTOCOL_H_
