#include "service/resilient_client.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

namespace falcon {
namespace {

/// Maps a protocol-level {"ok":false} response back to a typed Status.
Status ResponseToStatus(const JsonValue& r) {
  const std::string code = r.GetString("code", "?");
  const std::string msg = r.GetString("error");
  if (code == "NOT_FOUND") return Status::NotFound(msg);
  if (code == "INVALID_ARGUMENT") return Status::InvalidArgument(msg);
  if (code == "FAILED_PRECONDITION") return Status::FailedPrecondition(msg);
  if (code == "UNAVAILABLE") return Status::Unavailable(msg);
  if (code == "DEADLINE_EXCEEDED") return Status::DeadlineExceeded(msg);
  return Status::Internal(code + ": " + msg);
}

}  // namespace

ResilientClient::ResilientClient(ResilientClientOptions options)
    : options_(std::move(options)), jitter_(options_.jitter_seed) {}

void ResilientClient::Backoff(size_t attempt, int64_t server_hint_ms) {
  int64_t base = options_.backoff_initial_ms
                 << std::min<size_t>(attempt, 10);
  base = std::min(base, options_.backoff_max_ms);
  if (server_hint_ms > 0) base = std::max(base, server_hint_ms);
  // Deterministic jitter in [base/2, base]: seeded, so a test's retry
  // schedule replays exactly, while concurrent clients (different seeds)
  // still de-synchronize.
  const int64_t lo = std::max<int64_t>(base / 2, 1);
  const int64_t sleep_ms = jitter_.NextInt(lo, std::max(base, lo));
  std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
}

Status ResilientClient::EnsureConnected() {
  if (client_.has_value()) return Status::Ok();
  StatusOr<ServiceClient> c =
      options_.unix_path.empty()
          ? ServiceClient::ConnectToTcp(options_.tcp_port)
          : ServiceClient::ConnectToUnix(options_.unix_path);
  FALCON_RETURN_IF_ERROR(c.status());
  client_.emplace(std::move(*c));
  client_->set_deadline(options_.deadline_ms);
  ++stats_.connects;
  if (session_id_.empty()) return Status::Ok();

  // Re-attach the session; after a daemon restart this triggers journal
  // recovery server-side, and the response's last_seq re-syncs us.
  JsonValue req = JsonValue::Object();
  req.Set("verb", "open_session");
  req.Set("resume", session_id_);
  StatusOr<JsonValue> resp = client_->Call(req);
  if (!resp.ok()) {
    client_.reset();
    return resp.status();
  }
  if (!resp->GetBool("ok")) return ResponseToStatus(*resp);
  last_resume_seq_ = static_cast<uint64_t>(resp->GetInt("last_seq", 0));
  if (next_seq_ <= *last_resume_seq_) next_seq_ = *last_resume_seq_ + 1;
  ++stats_.resumes;
  return Status::Ok();
}

StatusOr<JsonValue> ResilientClient::CallResilient(JsonValue request,
                                                   bool mutating) {
  uint64_t seq = 0;
  if (mutating && !session_id_.empty()) {
    seq = next_seq_++;
    request.Set("seq", static_cast<int64_t>(seq));
  }
  Status last = Status::Internal("no attempts made");
  for (size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) ++stats_.retries;
    Status conn = EnsureConnected();
    if (!conn.ok()) {
      // A definitive answer about the session (gone for good) is not
      // retryable; transport-level failures are.
      if (conn.code() == StatusCode::kNotFound ||
          conn.code() == StatusCode::kInvalidArgument) {
        return conn;
      }
      last = conn;
      Backoff(attempt, 0);
      continue;
    }
    if (seq > 0 && last_resume_seq_.has_value()) {
      // The server restarted and rebuilt its (in-memory) idempotency
      // window from the journal replay. An in-flight seq ≤ last_seq + 1
      // retries as-is — either a cache hit or the next expected request.
      // A gapped seq means the original was never applied before the
      // crash; re-stamp it as the next expected one.
      if (seq > *last_resume_seq_ + 1) {
        seq = *last_resume_seq_ + 1;
        request.Set("seq", static_cast<int64_t>(seq));
        next_seq_ = seq + 1;
        ++stats_.seq_resyncs;
      }
      last_resume_seq_.reset();
    }
    StatusOr<JsonValue> resp = client_->Call(request);
    if (!resp.ok()) {
      // Transport failure mid-request: the server may or may not have
      // applied it — exactly what the seq retry disambiguates.
      client_.reset();
      last = resp.status();
      Backoff(attempt, 0);
      continue;
    }
    if (resp->GetBool("ok")) return std::move(resp).value();
    const std::string code = resp->GetString("code");
    if (code == "UNAVAILABLE") {
      last = Status::Unavailable(resp->GetString("error"));
      Backoff(attempt, resp->GetInt("retry_after_ms", 0));
      continue;
    }
    if (code == "DEADLINE_EXCEEDED") {
      // The server evicted this connection as stalled; reconnect.
      client_.reset();
      last = Status::DeadlineExceeded(resp->GetString("error"));
      Backoff(attempt, 0);
      continue;
    }
    // Terminal protocol failure (bad arguments, session gone, seq evicted
    // from the window): surface it.
    return ResponseToStatus(*resp);
  }
  return last;
}

StatusOr<std::string> ResilientClient::OpenSession(
    const SessionManager::OpenParams& params) {
  JsonValue req = JsonValue::Object();
  req.Set("verb", "open_session");
  req.Set("dataset", params.dataset);
  req.Set("scale", params.scale);
  req.Set("seed", static_cast<int64_t>(params.seed));
  req.Set("budget", params.budget);
  req.Set("question_mistake_prob", params.question_mistake_prob);
  req.Set("update_mistake_prob", params.update_mistake_prob);
  req.Set("algorithm", params.algorithm);
  FALCON_ASSIGN_OR_RETURN(JsonValue resp,
                          CallResilient(std::move(req), /*mutating=*/false));
  session_id_ = resp.GetString("session");
  next_seq_ = 1;
  last_resume_seq_.reset();
  return session_id_;
}

Status ResilientClient::ResumeSession(const std::string& id) {
  session_id_ = id;
  next_seq_ = 1;
  last_resume_seq_.reset();
  client_.reset();  // Force a resume round-trip on the next connect.
  Status last = Status::Internal("no attempts made");
  for (size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    Status st = EnsureConnected();
    if (st.ok()) return Status::Ok();
    if (st.code() == StatusCode::kNotFound ||
        st.code() == StatusCode::kInvalidArgument) {
      return st;
    }
    ++stats_.retries;
    last = st;
    Backoff(attempt, 0);
  }
  return last;
}

StatusOr<JsonValue> ResilientClient::Step(size_t episodes) {
  JsonValue req = JsonValue::Object();
  req.Set("verb", "step");
  req.Set("session", session_id_);
  req.Set("episodes", episodes);
  return CallResilient(std::move(req), /*mutating=*/true);
}

StatusOr<JsonValue> ResilientClient::UpdateCell(uint32_t row, uint32_t col,
                                                const std::string& value) {
  JsonValue req = JsonValue::Object();
  req.Set("verb", "update_cell");
  req.Set("session", session_id_);
  req.Set("row", static_cast<int64_t>(row));
  req.Set("col", static_cast<int64_t>(col));
  req.Set("value", value);
  return CallResilient(std::move(req), /*mutating=*/true);
}

StatusOr<JsonValue> ResilientClient::Answer(bool valid) {
  JsonValue req = JsonValue::Object();
  req.Set("verb", "answer");
  req.Set("session", session_id_);
  req.Set("valid", valid);
  return CallResilient(std::move(req), /*mutating=*/true);
}

StatusOr<JsonValue> ResilientClient::Retract(size_t repair_index) {
  JsonValue req = JsonValue::Object();
  req.Set("verb", "retract");
  req.Set("session", session_id_);
  req.Set("repair", repair_index);
  return CallResilient(std::move(req), /*mutating=*/true);
}

StatusOr<JsonValue> ResilientClient::Info() {
  JsonValue req = JsonValue::Object();
  req.Set("verb", "status");
  req.Set("session", session_id_);
  return CallResilient(std::move(req), /*mutating=*/false);
}

StatusOr<JsonValue> ResilientClient::Ping() {
  JsonValue req = JsonValue::Object();
  req.Set("verb", "ping");
  return CallResilient(std::move(req), /*mutating=*/false);
}

Status ResilientClient::CloseSession() {
  if (session_id_.empty()) return Status::Ok();
  JsonValue req = JsonValue::Object();
  req.Set("verb", "close");
  req.Set("session", session_id_);
  // Close is naturally idempotent at the "gone" level: a retry that finds
  // the session already deleted reports NotFound, which we fold into ok.
  StatusOr<JsonValue> resp = CallResilient(std::move(req), false);
  session_id_.clear();
  next_seq_ = 1;
  last_resume_seq_.reset();
  if (!resp.ok() && resp.status().code() != StatusCode::kNotFound) {
    return resp.status();
  }
  return Status::Ok();
}

}  // namespace falcon
