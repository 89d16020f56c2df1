#include "service/protocol.h"

#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <utility>

namespace falcon {
namespace {

JsonValue OkResponse() {
  JsonValue r = JsonValue::Object();
  r.Set("ok", true);
  return r;
}

StatusOr<std::string> RequiredSession(const JsonValue& request) {
  std::string id = request.GetString("session");
  if (id.empty()) {
    return Status::InvalidArgument("missing required field: session");
  }
  return id;
}

/// Reads the non-negative integer field `key` of a request (`row`, `col`,
/// `repair`, `seq`, `episodes`, and open_session's `seed` and `budget`):
/// the one place those fields are checked. An absent field yields
/// `absent`, or is an error when `absent` is empty. A present one must be
/// a number holding an integer in [0, max]: a string, a fraction, a
/// non-finite value or one out of range is refused, never rounded,
/// truncated or replaced by a default.
StatusOr<uint64_t> ReadIndexField(const JsonValue& request, const char* key,
                                  uint64_t max,
                                  std::optional<uint64_t> absent) {
  const JsonValue* v = request.Find(key);
  if (v == nullptr) {
    if (absent.has_value()) return *absent;
    return Status::InvalidArgument(std::string("missing numeric field: ") +
                                   key);
  }
  auto bad = [&] {
    return Status::InvalidArgument(std::string(key) +
                                   " must be an integer in [0, " +
                                   std::to_string(max) + "]");
  };
  if (v->type() == JsonValue::Type::kInt) {
    int64_t i = v->AsInt();
    if (i < 0 || static_cast<uint64_t>(i) > max) return bad();
    return static_cast<uint64_t>(i);
  }
  if (v->type() != JsonValue::Type::kDouble) return bad();
  // A double must hold an exact integer; 0x1p63 bounds it so the cast below
  // is defined (every max used here is below 2^63).
  double d = v->AsDouble();
  if (!(d >= 0.0 && d < 0x1p63) || d != std::floor(d) ||
      static_cast<uint64_t>(d) > max) {
    return bad();
  }
  return static_cast<uint64_t>(d);
}

/// Largest value `seq`, `repair`, `episodes`, `seed` and `budget` may
/// carry: what a JSON integer (int64) holds.
constexpr uint64_t kMaxIndex = std::numeric_limits<int64_t>::max();

/// Optional idempotency sequence number (absent / 0 = legacy path).
StatusOr<uint64_t> SeqField(const JsonValue& request) {
  return ReadIndexField(request, "seq", kMaxIndex, 0);
}

JsonValue StatusResponse(const SessionStatus& st) {
  JsonValue r = OkResponse();
  const JsonValue body = StatusBody(st);
  for (const auto& [k, v] : body.members()) r.Set(k, v);
  return r;
}

JsonValue HandleOpen(SessionManager& manager, const JsonValue& request) {
  const std::string resume = request.GetString("resume");
  if (!resume.empty()) {
    auto id = manager.Resume(resume);
    if (!id.ok()) return ErrorResponse(id.status());
    auto st = manager.Info(*id);
    if (!st.ok()) return ErrorResponse(st.status());
    JsonValue r = StatusResponse(*st);
    r.Set("resumed", true);
    return r;
  }

  auto params = DecodeOpenParams(request);
  if (!params.ok()) return ErrorResponse(params.status());
  auto id = manager.Open(*params);
  if (!id.ok()) return ErrorResponse(id.status());
  JsonValue r = OkResponse();
  r.Set("session", *id);
  return r;
}

JsonValue HandleStep(SessionManager& manager, const JsonValue& request) {
  auto id = RequiredSession(request);
  if (!id.ok()) return ErrorResponse(id.status());
  auto episodes = ReadIndexField(request, "episodes", kMaxIndex, 1);
  if (!episodes.ok()) return ErrorResponse(episodes.status());
  auto seq = SeqField(request);
  if (!seq.ok()) return ErrorResponse(seq.status());
  auto st = manager.Step(*id, static_cast<size_t>(*episodes), *seq);
  if (!st.ok()) return ErrorResponse(st.status());
  return StatusResponse(*st);
}

JsonValue HandleUpdateCell(SessionManager& manager,
                           const JsonValue& request) {
  auto id = RequiredSession(request);
  if (!id.ok()) return ErrorResponse(id.status());
  constexpr uint64_t kMaxU32 = std::numeric_limits<uint32_t>::max();
  auto row = ReadIndexField(request, "row", kMaxU32, std::nullopt);
  if (!row.ok()) return ErrorResponse(row.status());
  auto col = ReadIndexField(request, "col", kMaxU32, std::nullopt);
  if (!col.ok()) return ErrorResponse(col.status());
  const JsonValue* value = request.Find("value");
  if (value == nullptr || !value->is_string()) {
    return ErrorResponse(
        Status::InvalidArgument("missing string field: value"));
  }
  auto seq = SeqField(request);
  if (!seq.ok()) return ErrorResponse(seq.status());
  auto st = manager.UpdateCell(*id, static_cast<uint32_t>(*row),
                               static_cast<uint32_t>(*col), value->AsString(),
                               *seq);
  if (!st.ok()) return ErrorResponse(st.status());
  JsonValue r = OkResponse();
  r.Set("last_seq", static_cast<int64_t>(st->last_seq));
  return r;
}

JsonValue HandleAnswer(SessionManager& manager, const JsonValue& request) {
  auto id = RequiredSession(request);
  if (!id.ok()) return ErrorResponse(id.status());
  const JsonValue* valid = request.Find("valid");
  if (valid == nullptr || !valid->is_bool()) {
    return ErrorResponse(
        Status::InvalidArgument("missing boolean field: valid"));
  }
  auto seq = SeqField(request);
  if (!seq.ok()) return ErrorResponse(seq.status());
  auto st = manager.Answer(*id, valid->AsBool(), *seq);
  if (!st.ok()) return ErrorResponse(st.status());
  JsonValue r = OkResponse();
  r.Set("last_seq", static_cast<int64_t>(st->last_seq));
  return r;
}

JsonValue HandleStatus(SessionManager& manager, const JsonValue& request) {
  auto id = RequiredSession(request);
  if (!id.ok()) return ErrorResponse(id.status());
  auto st = manager.Info(*id);
  if (!st.ok()) return ErrorResponse(st.status());
  return StatusResponse(*st);
}

JsonValue HandleRetract(SessionManager& manager, const JsonValue& request) {
  auto id = RequiredSession(request);
  if (!id.ok()) return ErrorResponse(id.status());
  auto repair = ReadIndexField(request, "repair", kMaxIndex, std::nullopt);
  if (!repair.ok()) return ErrorResponse(repair.status());
  auto seq = SeqField(request);
  if (!seq.ok()) return ErrorResponse(seq.status());
  auto st = manager.Retract(*id, static_cast<size_t>(*repair), *seq);
  if (!st.ok()) return ErrorResponse(st.status());
  JsonValue r = OkResponse();
  r.Set("last_seq", static_cast<int64_t>(st->last_seq));
  return r;
}

JsonValue HandlePing(SessionManager& manager) {
  const ServiceHealth h = manager.Health();
  JsonValue r = OkResponse();
  r.Set("uptime_s", h.uptime_s);
  r.Set("live_sessions", h.live_sessions);
  r.Set("max_sessions", h.max_sessions);
  r.Set("recovered_sessions", h.recovered_sessions);
  r.Set("posting_resident_bytes", h.posting_resident_bytes);
  r.Set("rows_appended", h.rows_appended);
  r.Set("append_batches", h.append_batches);
  return r;
}

JsonValue HandleClose(SessionManager& manager, const JsonValue& request) {
  auto id = RequiredSession(request);
  if (!id.ok()) return ErrorResponse(id.status());
  Status st = manager.Close(*id);
  if (!st.ok()) return ErrorResponse(st);
  return OkResponse();
}

}  // namespace

StatusOr<SessionManager::OpenParams> DecodeOpenParams(
    const JsonValue& fields) {
  SessionManager::OpenParams params;
  for (const char* key : {"scale", "question_mistake_prob",
                          "update_mistake_prob"}) {
    const JsonValue* v = fields.Find(key);
    if (v != nullptr && !v->is_number()) {
      return Status::InvalidArgument(std::string(key) + " must be a number");
    }
  }
  params.scale = fields.GetDouble("scale", params.scale);
  auto seed = ReadIndexField(fields, "seed", kMaxIndex, params.seed);
  if (!seed.ok()) return seed.status();
  params.seed = *seed;
  auto budget = ReadIndexField(fields, "budget", kMaxIndex, params.budget);
  if (!budget.ok()) return budget.status();
  params.budget = static_cast<size_t>(*budget);
  for (auto [key, out] :
       {std::pair{"question_mistake_prob", &params.question_mistake_prob},
        std::pair{"update_mistake_prob", &params.update_mistake_prob}}) {
    double p = fields.GetDouble(key, *out);
    if (!std::isfinite(p) || p < 0.0 || p > 1.0) {
      return Status::InvalidArgument(std::string(key) +
                                     " must be a finite value in [0, 1]");
    }
    *out = p;
  }
  params.dataset = fields.GetString("dataset", params.dataset);
  params.algorithm = fields.GetString("algorithm", params.algorithm);
  params.compressed_rowsets =
      fields.GetBool("compressed_rowsets", params.compressed_rowsets);
  return params;
}

JsonValue ErrorResponse(const Status& status, int64_t retry_after_ms) {
  JsonValue r = JsonValue::Object();
  r.Set("ok", false);
  r.Set("code", StatusCodeToString(status.code()));
  r.Set("error", status.message());
  if (retry_after_ms > 0) r.Set("retry_after_ms", retry_after_ms);
  return r;
}

JsonValue StatusBody(const SessionStatus& st) {
  JsonValue metrics = JsonValue::Object();
  metrics.Set("user_updates", st.metrics.user_updates);
  metrics.Set("user_answers", st.metrics.user_answers);
  metrics.Set("master_answers", st.metrics.master_answers);
  metrics.Set("initial_errors", st.metrics.initial_errors);
  metrics.Set("cells_repaired", st.metrics.cells_repaired);
  metrics.Set("queries_applied", st.metrics.queries_applied);
  metrics.Set("converged", st.metrics.converged);
  metrics.Set("benefit", st.metrics.Benefit());
  metrics.Set("posting_entries", st.metrics.posting_entries);
  metrics.Set("posting_resident_bytes", st.metrics.posting_resident_bytes);
  metrics.Set("posting_compression", st.metrics.posting_compression);
  metrics.Set("posting_hits", st.metrics.posting_hits);
  metrics.Set("posting_misses", st.metrics.posting_misses);
  // Streaming-append counters (AppendBatch-fed sessions; zero otherwise).
  metrics.Set("rows_appended", st.metrics.rows_appended);
  metrics.Set("append_batches", st.metrics.append_batches);
  metrics.Set("append_maintain_ms", st.metrics.append_maintain_ms);
  metrics.Set("ingest_rows_per_s", st.metrics.ingest_rows_per_s);
  // Derived rates so nobody recomputes them from counter pairs by hand.
  metrics.Set("posting_hit_rate", st.metrics.PostingHitRate());

  JsonValue body = JsonValue::Object();
  body.Set("session", st.id);
  body.Set("dataset", st.dataset);
  body.Set("finished", st.finished);
  body.Set("pending_cells", st.pending_cells);
  body.Set("queued_verdicts", st.queued_verdicts);
  body.Set("repairs", st.repairs);
  body.Set("table_crc", static_cast<int64_t>(st.table_crc));
  body.Set("last_seq", static_cast<int64_t>(st.last_seq));
  body.Set("metrics", std::move(metrics));
  return body;
}

JsonValue HandleRequest(SessionManager& manager, const JsonValue& request) {
  if (!request.is_object()) {
    return ErrorResponse(
        Status::InvalidArgument("request must be a JSON object"));
  }
  const std::string verb = request.GetString("verb");
  if (verb == "open_session") return HandleOpen(manager, request);
  if (verb == "step") return HandleStep(manager, request);
  if (verb == "update_cell") return HandleUpdateCell(manager, request);
  if (verb == "answer") return HandleAnswer(manager, request);
  if (verb == "status") return HandleStatus(manager, request);
  if (verb == "retract") return HandleRetract(manager, request);
  if (verb == "close") return HandleClose(manager, request);
  if (verb == "ping") return HandlePing(manager);
  if (verb == "shutdown") {
    return ErrorResponse(Status::Unimplemented(
        "shutdown requires a server started with --allow-remote-shutdown"));
  }
  return ErrorResponse(
      Status::InvalidArgument("unknown verb: \"" + verb + "\""));
}

}  // namespace falcon
