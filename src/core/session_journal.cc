#include "core/session_journal.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/crc32c.h"
#include "common/fault_injector.h"

#ifdef _WIN32
#include <io.h>
#else
#include <unistd.h>
#endif

namespace falcon {
namespace {

// Framing: [u32 payload_len][u32 crc32c(payload)][payload], little-endian.
constexpr size_t kFrameBytes = 8;
// Corrupt length fields must not trigger absurd allocations.
constexpr size_t kMaxPayloadBytes = size_t{1} << 30;

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

void PutStr(std::string& out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

void PutBool(std::string& out, bool b) { out.push_back(b ? 1 : 0); }

// Bounds-checked little-endian reader over one payload.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  Status U32(uint32_t* out) {
    if (pos_ + 4 > data_.size()) return Short();
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return Status::Ok();
  }

  Status U64(uint64_t* out) {
    if (pos_ + 8 > data_.size()) return Short();
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return Status::Ok();
  }

  Status Str(std::string* out) {
    uint32_t len = 0;
    FALCON_RETURN_IF_ERROR(U32(&len));
    if (pos_ + len > data_.size()) return Short();
    out->assign(data_.substr(pos_, len));
    pos_ += len;
    return Status::Ok();
  }

  Status Bool(bool* out) {
    if (pos_ >= data_.size()) return Short();
    *out = data_[pos_++] != 0;
    return Status::Ok();
  }

  Status BeforeImages(std::vector<std::pair<uint32_t, std::string>>* out) {
    uint32_t n = 0;
    FALCON_RETURN_IF_ERROR(U32(&n));
    // Each entry costs at least 8 payload bytes; a bigger count than the
    // remaining bytes could hold is damage — reject before reserving.
    if (static_cast<size_t>(n) * 8 > data_.size() - pos_) return Short();
    out->reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
      uint32_t row = 0;
      std::string before_value;
      FALCON_RETURN_IF_ERROR(U32(&row));
      FALCON_RETURN_IF_ERROR(Str(&before_value));
      out->emplace_back(row, std::move(before_value));
    }
    return Status::Ok();
  }

  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Short() const {
    return Status::InvalidArgument("journal payload truncated");
  }

  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace

bool JournalRecord::operator==(const JournalRecord& other) const {
  return kind == other.kind && seed == other.seed &&
         num_rows == other.num_rows && num_cols == other.num_cols &&
         table_crc == other.table_crc && row == other.row &&
         col == other.col && value == other.value && wrong == other.wrong &&
         node == other.node && valid == other.valid &&
         billed == other.billed && manual == other.manual &&
         before == other.before && user_updates == other.user_updates &&
         user_answers == other.user_answers &&
         cells_repaired == other.cells_repaired &&
         queries_applied == other.queries_applied && entry == other.entry;
}

std::string EncodeJournalRecord(const JournalRecord& r) {
  std::string out;
  out.push_back(static_cast<char>(r.kind));
  switch (r.kind) {
    case JournalRecord::Kind::kStart:
      PutU64(out, r.seed);
      PutU64(out, r.num_rows);
      PutU64(out, r.num_cols);
      PutU32(out, r.table_crc);
      break;
    case JournalRecord::Kind::kUserUpdate:
      PutU32(out, r.row);
      PutU32(out, r.col);
      PutStr(out, r.value);
      PutBool(out, r.wrong);
      break;
    case JournalRecord::Kind::kAnswer:
      PutU32(out, r.node);
      PutBool(out, r.valid);
      PutBool(out, r.billed);
      break;
    case JournalRecord::Kind::kApply:
      PutU32(out, r.node);
      PutU32(out, r.col);
      PutBool(out, r.manual);
      PutStr(out, r.value);
      PutU32(out, static_cast<uint32_t>(r.before.size()));
      for (const auto& [row, before_value] : r.before) {
        PutU32(out, row);
        PutStr(out, before_value);
      }
      break;
    case JournalRecord::Kind::kCheckpoint:
      PutU64(out, r.user_updates);
      PutU64(out, r.user_answers);
      PutU64(out, r.cells_repaired);
      PutU64(out, r.queries_applied);
      PutU32(out, r.table_crc);
      break;
    case JournalRecord::Kind::kRetract:
      PutU64(out, r.entry);
      PutU32(out, r.col);
      // Pre-undo cell values: rolling back a torn retraction re-applies
      // these, exactly like a kApply's before-images.
      PutU32(out, static_cast<uint32_t>(r.before.size()));
      for (const auto& [row, before_value] : r.before) {
        PutU32(out, row);
        PutStr(out, before_value);
      }
      break;
  }
  return out;
}

StatusOr<JournalRecord> DecodeJournalRecord(std::string_view payload) {
  if (payload.empty()) {
    return Status::InvalidArgument("empty journal payload");
  }
  JournalRecord r;
  uint8_t kind = static_cast<uint8_t>(payload[0]);
  if (kind < static_cast<uint8_t>(JournalRecord::Kind::kStart) ||
      kind > static_cast<uint8_t>(JournalRecord::Kind::kRetract)) {
    return Status::InvalidArgument("unknown journal record kind " +
                                   std::to_string(kind));
  }
  r.kind = static_cast<JournalRecord::Kind>(kind);
  Reader in(payload.substr(1));
  switch (r.kind) {
    case JournalRecord::Kind::kStart:
      FALCON_RETURN_IF_ERROR(in.U64(&r.seed));
      FALCON_RETURN_IF_ERROR(in.U64(&r.num_rows));
      FALCON_RETURN_IF_ERROR(in.U64(&r.num_cols));
      FALCON_RETURN_IF_ERROR(in.U32(&r.table_crc));
      break;
    case JournalRecord::Kind::kUserUpdate:
      FALCON_RETURN_IF_ERROR(in.U32(&r.row));
      FALCON_RETURN_IF_ERROR(in.U32(&r.col));
      FALCON_RETURN_IF_ERROR(in.Str(&r.value));
      FALCON_RETURN_IF_ERROR(in.Bool(&r.wrong));
      break;
    case JournalRecord::Kind::kAnswer:
      FALCON_RETURN_IF_ERROR(in.U32(&r.node));
      FALCON_RETURN_IF_ERROR(in.Bool(&r.valid));
      FALCON_RETURN_IF_ERROR(in.Bool(&r.billed));
      break;
    case JournalRecord::Kind::kApply: {
      FALCON_RETURN_IF_ERROR(in.U32(&r.node));
      FALCON_RETURN_IF_ERROR(in.U32(&r.col));
      FALCON_RETURN_IF_ERROR(in.Bool(&r.manual));
      FALCON_RETURN_IF_ERROR(in.Str(&r.value));
      FALCON_RETURN_IF_ERROR(in.BeforeImages(&r.before));
      break;
    }
    case JournalRecord::Kind::kCheckpoint:
      FALCON_RETURN_IF_ERROR(in.U64(&r.user_updates));
      FALCON_RETURN_IF_ERROR(in.U64(&r.user_answers));
      FALCON_RETURN_IF_ERROR(in.U64(&r.cells_repaired));
      FALCON_RETURN_IF_ERROR(in.U64(&r.queries_applied));
      FALCON_RETURN_IF_ERROR(in.U32(&r.table_crc));
      break;
    case JournalRecord::Kind::kRetract:
      FALCON_RETURN_IF_ERROR(in.U64(&r.entry));
      FALCON_RETURN_IF_ERROR(in.U32(&r.col));
      FALCON_RETURN_IF_ERROR(in.BeforeImages(&r.before));
      break;
  }
  if (!in.AtEnd()) {
    return Status::InvalidArgument("trailing bytes in journal payload");
  }
  return r;
}

StatusOr<SessionJournal> SessionJournal::Open(const std::string& path,
                                              bool truncate) {
  std::FILE* file = std::fopen(path.c_str(), truncate ? "wb" : "ab");
  if (file == nullptr) {
    return Status::IoError("cannot open journal " + path);
  }
  return SessionJournal(path, file);
}

SessionJournal::SessionJournal(SessionJournal&& other) noexcept
    : path_(std::move(other.path_)), file_(other.file_) {
  other.file_ = nullptr;
}

SessionJournal& SessionJournal::operator=(SessionJournal&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    path_ = std::move(other.path_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

SessionJournal::~SessionJournal() {
  if (file_ != nullptr) std::fclose(file_);
}

Status SessionJournal::Append(const JournalRecord& record) {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal is closed");
  }
  FALCON_RETURN_IF_ERROR(FaultInjector::Global().Hit("journal.append"));
  std::string payload = EncodeJournalRecord(record);
  std::string frame;
  frame.reserve(kFrameBytes + payload.size());
  PutU32(frame, static_cast<uint32_t>(payload.size()));
  PutU32(frame, Crc32c(payload));
  Status torn = FaultInjector::Global().Hit("journal.torn");
  if (!torn.ok()) {
    // Simulate a crash mid-write: the framing and half the payload reach
    // the file, then the process dies. Flush so the torn bytes are really
    // there for recovery to trip over.
    frame.append(payload.data(), payload.size() / 2);
    std::fwrite(frame.data(), 1, frame.size(), file_);
    std::fflush(file_);
    return torn;
  }
  frame.append(payload);
  if (std::fwrite(frame.data(), 1, frame.size(), file_) != frame.size()) {
    return Status::IoError("journal write failed: " + path_);
  }
  return Status::Ok();
}

Status SessionJournal::Checkpoint(const JournalRecord& record) {
  FALCON_RETURN_IF_ERROR(Append(record));
  return Sync();
}

Status SessionJournal::Sync() {
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal is closed");
  }
  FALCON_RETURN_IF_ERROR(FaultInjector::Global().Hit("journal.sync"));
  if (std::fflush(file_) != 0) {
    return Status::IoError("journal flush failed: " + path_);
  }
#ifndef _WIN32
  if (fsync(fileno(file_)) != 0) {
    return Status::IoError("journal fsync failed: " + path_);
  }
#endif
  return Status::Ok();
}

StatusOr<JournalContents> SessionJournal::Read(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no journal at " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string data = buf.str();

  JournalContents contents;
  size_t pos = 0;
  while (pos < data.size()) {
    if (data.size() - pos < kFrameBytes) {
      contents.torn = true;
      break;
    }
    auto read_u32 = [&](size_t at) {
      uint32_t v = 0;
      for (int i = 0; i < 4; ++i) {
        v |= static_cast<uint32_t>(static_cast<unsigned char>(data[at + i]))
             << (8 * i);
      }
      return v;
    };
    uint32_t len = read_u32(pos);
    uint32_t crc = read_u32(pos + 4);
    if (len > kMaxPayloadBytes || data.size() - pos - kFrameBytes < len) {
      contents.torn = true;
      break;
    }
    std::string_view payload(data.data() + pos + kFrameBytes, len);
    if (Crc32c(payload) != crc) {
      contents.torn = true;
      break;
    }
    StatusOr<JournalRecord> record = DecodeJournalRecord(payload);
    if (!record.ok()) {
      // Checksummed but structurally invalid: treat like damage, stop at
      // the last good record rather than aborting recovery.
      contents.torn = true;
      break;
    }
    contents.records.push_back(std::move(record).value());
    pos += kFrameBytes + len;
    contents.valid_bytes = pos;
  }
  return contents;
}

Status SessionJournal::TruncateTo(const std::string& path, size_t size) {
  std::error_code ec;
  std::filesystem::resize_file(path, size, ec);
  if (ec) {
    return Status::IoError("cannot truncate journal " + path + ": " +
                           ec.message());
  }
  return Status::Ok();
}

uint32_t TableContentsCrc(const Table& table) {
  // One pool lock for the whole pass: concurrent sessions share the pool,
  // and a lock per cell made this loop the service's contention point.
  // Cells are packed into a stack buffer and hashed a chunk at a time;
  // chained Crc32cExtend calls equal one call over the concatenation, so
  // the value is the per-cell one.
  return table.pool()->WithTexts([&table](const ValuePool::Texts& texts) {
    uint32_t crc = 0;
    char buf[4096];
    size_t used = 0;
    auto append = [&](const void* data, size_t n) {
      if (n > sizeof buf - used) {
        crc = Crc32cExtend(crc, buf, used);
        used = 0;
      }
      if (n > sizeof buf) {
        crc = Crc32cExtend(crc, data, n);
        return;
      }
      std::memcpy(buf + used, data, n);
      used += n;
    };
    for (size_t r = 0; r < table.num_rows(); ++r) {
      for (size_t c = 0; c < table.num_cols(); ++c) {
        std::string_view text = texts[table.cell(r, c)];
        uint32_t len = static_cast<uint32_t>(text.size());
        append(&len, 4);
        append(text.data(), text.size());
      }
    }
    return Crc32cExtend(crc, buf, used);
  });
}

}  // namespace falcon
