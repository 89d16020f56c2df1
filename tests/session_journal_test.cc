#include "core/session_journal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32c.h"
#include "common/fault_injector.h"
#include "common/rng.h"
#include "datagen/datasets.h"

namespace falcon {
namespace {

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::vector<JournalRecord> SampleRecords() {
  std::vector<JournalRecord> records;
  JournalRecord start;
  start.kind = JournalRecord::Kind::kStart;
  start.seed = 1234;
  start.num_rows = 6;
  start.num_cols = 5;
  start.table_crc = 0xDEADBEEF;
  records.push_back(start);

  JournalRecord update;
  update.kind = JournalRecord::Kind::kUserUpdate;
  update.row = 1;
  update.col = 1;
  update.value = "C22H28F";
  update.wrong = false;
  records.push_back(update);

  JournalRecord answer;
  answer.kind = JournalRecord::Kind::kAnswer;
  answer.node = 0b1010;
  answer.valid = true;
  answer.billed = true;
  records.push_back(answer);

  JournalRecord apply;
  apply.kind = JournalRecord::Kind::kApply;
  apply.node = 0b1010;
  apply.col = 1;
  apply.manual = false;
  apply.value = "C22H28F";
  apply.before = {{1, "statin"}, {4, "statin"}};
  records.push_back(apply);

  JournalRecord checkpoint;
  checkpoint.kind = JournalRecord::Kind::kCheckpoint;
  checkpoint.user_updates = 1;
  checkpoint.user_answers = 1;
  checkpoint.cells_repaired = 2;
  checkpoint.queries_applied = 1;
  checkpoint.table_crc = 0xCAFEF00D;
  records.push_back(checkpoint);

  JournalRecord retract;
  retract.kind = JournalRecord::Kind::kRetract;
  retract.entry = 0;
  retract.col = 1;
  retract.before = {{1, "C22H28F"}, {4, "C22H28F"}};
  records.push_back(retract);
  return records;
}

std::string WriteSampleJournal(const std::string& path) {
  auto journal = SessionJournal::Open(path, /*truncate=*/true);
  EXPECT_TRUE(journal.ok());
  for (const JournalRecord& r : SampleRecords()) {
    EXPECT_TRUE(journal->Append(r).ok());
  }
  EXPECT_TRUE(journal->Sync().ok());
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

TEST(SessionJournalTest, EncodeDecodeRoundTripsEveryKind) {
  for (const JournalRecord& r : SampleRecords()) {
    std::string payload = EncodeJournalRecord(r);
    auto back = DecodeJournalRecord(payload);
    ASSERT_TRUE(back.ok()) << back.status();
    EXPECT_TRUE(*back == r);
  }
}

TEST(SessionJournalTest, DecodeRejectsDamage) {
  EXPECT_FALSE(DecodeJournalRecord("").ok());
  EXPECT_FALSE(DecodeJournalRecord(std::string(1, '\x63')).ok());  // Kind 99.
  std::string payload = EncodeJournalRecord(SampleRecords()[3]);
  // Truncations of a valid payload must be rejected, not crash.
  for (size_t len = 0; len < payload.size(); ++len) {
    EXPECT_FALSE(DecodeJournalRecord(payload.substr(0, len)).ok());
  }
  // Trailing garbage is rejected too.
  EXPECT_FALSE(DecodeJournalRecord(payload + "x").ok());
}

TEST(SessionJournalTest, WriteReadRoundTrip) {
  std::string path = TempPath("journal_roundtrip.bin");
  WriteSampleJournal(path);
  auto contents = SessionJournal::Read(path);
  ASSERT_TRUE(contents.ok()) << contents.status();
  EXPECT_FALSE(contents->torn);
  std::vector<JournalRecord> expected = SampleRecords();
  ASSERT_EQ(contents->records.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(contents->records[i] == expected[i]) << "record " << i;
  }
  std::remove(path.c_str());
}

TEST(SessionJournalTest, MissingFileIsNotFound) {
  auto contents = SessionJournal::Read(TempPath("no_such_journal.bin"));
  EXPECT_FALSE(contents.ok());
  EXPECT_EQ(contents.status().code(), StatusCode::kNotFound);
}

// The torn-journal acceptance criterion: truncating at ANY byte boundary
// never aborts — Read returns the longest whole-record prefix.
TEST(SessionJournalTest, TruncationAtEveryByteReplaysToLastWholeRecord) {
  std::string path = TempPath("journal_trunc.bin");
  std::string bytes = WriteSampleJournal(path);
  size_t full = SampleRecords().size();

  size_t last_count = 0;
  for (size_t cut = 0; cut <= bytes.size(); ++cut) {
    std::string trunc_path = TempPath("journal_trunc_cut.bin");
    std::ofstream out(trunc_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();

    auto contents = SessionJournal::Read(trunc_path);
    ASSERT_TRUE(contents.ok()) << "cut at byte " << cut;
    // Record count grows monotonically with the cut and the valid prefix
    // is never larger than the cut.
    EXPECT_GE(contents->records.size(), last_count) << "cut " << cut;
    EXPECT_LE(contents->valid_bytes, cut);
    EXPECT_EQ(contents->torn, contents->valid_bytes != cut);
    last_count = contents->records.size();
    // Prefix property: records match the full journal's first N.
    std::vector<JournalRecord> expected = SampleRecords();
    for (size_t i = 0; i < contents->records.size(); ++i) {
      EXPECT_TRUE(contents->records[i] == expected[i]);
    }
    std::remove(trunc_path.c_str());
  }
  EXPECT_EQ(last_count, full);
  std::remove(path.c_str());
}

TEST(SessionJournalTest, BitFlipStopsAtLastGoodRecord) {
  std::string path = TempPath("journal_flip.bin");
  std::string bytes = WriteSampleJournal(path);
  Rng rng(99);
  for (int iter = 0; iter < 64; ++iter) {
    std::string corrupt = bytes;
    size_t at = rng.NextUint(corrupt.size());
    corrupt[at] = static_cast<char>(corrupt[at] ^
                                    (1 << rng.NextUint(8)));
    std::string flip_path = TempPath("journal_flip_case.bin");
    std::ofstream out(flip_path, std::ios::binary | std::ios::trunc);
    out.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    out.close();
    auto contents = SessionJournal::Read(flip_path);
    ASSERT_TRUE(contents.ok());
    // Whatever survived must be a prefix of the original records.
    std::vector<JournalRecord> expected = SampleRecords();
    ASSERT_LE(contents->records.size(), expected.size());
    for (size_t i = 0; i < contents->records.size(); ++i) {
      EXPECT_TRUE(contents->records[i] == expected[i]);
    }
    std::remove(flip_path.c_str());
  }
  std::remove(path.c_str());
}

TEST(SessionJournalTest, RandomBytesNeverCrashTheReader) {
  Rng rng(1007);
  for (int iter = 0; iter < 200; ++iter) {
    size_t len = rng.NextUint(300);
    std::string garbage;
    for (size_t i = 0; i < len; ++i) {
      garbage += static_cast<char>(rng.NextUint(256));
    }
    std::string path = TempPath("journal_garbage.bin");
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(garbage.data(), static_cast<std::streamsize>(garbage.size()));
    out.close();
    auto contents = SessionJournal::Read(path);
    ASSERT_TRUE(contents.ok());  // Tolerant read: garbage = torn tail.
    std::remove(path.c_str());
  }
}

TEST(SessionJournalTest, TornWriteFaultLeavesRecoverablePrefix) {
  std::string path = TempPath("journal_torn_fault.bin");
  auto journal = SessionJournal::Open(path, /*truncate=*/true);
  ASSERT_TRUE(journal.ok());
  std::vector<JournalRecord> records = SampleRecords();
  ASSERT_TRUE(journal->Append(records[0]).ok());
  ASSERT_TRUE(journal->Append(records[1]).ok());

  FaultInjector::Global().Reset();
  FaultInjector::Global().Arm({.site = "journal.torn", .nth = 1});
  Status st = journal->Append(records[2]);
  EXPECT_FALSE(st.ok());
  FaultInjector::Global().Reset();

  auto contents = SessionJournal::Read(path);
  ASSERT_TRUE(contents.ok());
  EXPECT_TRUE(contents->torn);
  ASSERT_EQ(contents->records.size(), 2u);

  // Recovery path: truncate the damage, append the record again, read back.
  ASSERT_TRUE(
      SessionJournal::TruncateTo(path, contents->valid_bytes).ok());
  auto resumed = SessionJournal::Open(path, /*truncate=*/false);
  ASSERT_TRUE(resumed.ok());
  ASSERT_TRUE(resumed->Append(records[2]).ok());
  ASSERT_TRUE(resumed->Sync().ok());
  auto repaired = SessionJournal::Read(path);
  ASSERT_TRUE(repaired.ok());
  EXPECT_FALSE(repaired->torn);
  ASSERT_EQ(repaired->records.size(), 3u);
  EXPECT_TRUE(repaired->records[2] == records[2]);
  std::remove(path.c_str());
}

TEST(SessionJournalTest, TableContentsCrcTracksCellEdits) {
  DrugExample ex = MakeDrugExample();
  uint32_t dirty_crc = TableContentsCrc(ex.dirty);
  uint32_t clean_crc = TableContentsCrc(ex.clean);
  EXPECT_NE(dirty_crc, clean_crc);
  Table copy = ex.dirty.Clone();
  EXPECT_EQ(TableContentsCrc(copy), dirty_crc);
  copy.SetCellText(0, 0, "something else");
  EXPECT_NE(TableContentsCrc(copy), dirty_crc);
}

// Journals written by earlier builds carry these values in their kStart and
// kCheckpoint records, and recovery compares them against the replayed
// table: the CRC must not change across versions or SIMD tiers.
TEST(SessionJournalTest, TableContentsCrcIsPinned) {
  DrugExample ex = MakeDrugExample();
  EXPECT_EQ(TableContentsCrc(ex.dirty), 0x57C9C62Au);
  EXPECT_EQ(TableContentsCrc(ex.clean), 0x0BEF0B90u);
}

TEST(SessionJournalTest, TableContentsCrcMatchesCellByCellDefinition) {
  // Texts from empty to well past any internal hashing chunk, so cells
  // land on every side of a chunk boundary.
  Table table("t", Schema({"a", "b", "c"}));
  Rng rng(99);
  for (size_t r = 0; r < 200; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < 3; ++c) {
      size_t len =
          rng.NextUint(10) == 0 ? rng.NextUint(9000) : rng.NextUint(40);
      row.emplace_back(len, static_cast<char>('a' + rng.NextUint(26)));
    }
    table.AppendRow(row);
  }
  // The definition: per cell in row-major order, the 4-byte length in
  // native byte order, then the text.
  uint32_t want = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_cols(); ++c) {
      std::string_view text = table.CellText(r, c);
      uint32_t len = static_cast<uint32_t>(text.size());
      want = Crc32cExtend(want, &len, 4);
      want = Crc32cExtend(want, text.data(), text.size());
    }
  }
  EXPECT_EQ(TableContentsCrc(table), want);
}

}  // namespace
}  // namespace falcon
