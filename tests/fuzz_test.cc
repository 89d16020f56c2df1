// Robustness fuzzing: the parsers and CSV reader must never crash and must
// either succeed or return InvalidArgument on arbitrary byte soup; CSV
// writing must round-trip arbitrary (printable and non-printable) cell
// contents. The JSON and workload-spec parsers also get mutated valid
// documents, and the journal reader gets valid journals with damaged
// bytes, which it must read as a clean prefix.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "core/session_journal.h"
#include "datagen/spec.h"
#include "relational/csv.h"
#include "relational/select.h"
#include "relational/sqlu_parser.h"

namespace falcon {
namespace {

std::string RandomBytes(Rng& rng, size_t max_len) {
  size_t len = rng.NextUint(max_len + 1);
  std::string s;
  s.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    s += static_cast<char>(rng.NextUint(256));
  }
  return s;
}

// Applies 1–4 random edits to `doc`: flip a bit, overwrite, insert or
// delete a byte, insert a JSON metacharacter, or truncate.
std::string Mutate(Rng& rng, std::string doc) {
  static const char kMeta[] = "{}[]:,\"\\-+.eE0123456789 tnfu";
  size_t edits = 1 + rng.NextUint(4);
  for (size_t e = 0; e < edits; ++e) {
    size_t at = doc.empty() ? 0 : rng.NextUint(doc.size());
    switch (rng.NextUint(6)) {
      case 0:
        if (!doc.empty()) doc[at] ^= static_cast<char>(1 << rng.NextUint(8));
        break;
      case 1:
        if (!doc.empty()) doc[at] = static_cast<char>(rng.NextUint(256));
        break;
      case 2:
        doc.insert(doc.begin() + at, static_cast<char>(rng.NextUint(256)));
        break;
      case 3:
        if (!doc.empty()) doc.erase(doc.begin() + at);
        break;
      case 4:
        doc.insert(doc.begin() + at, kMeta[rng.NextUint(sizeof(kMeta) - 1)]);
        break;
      default:
        doc.resize(at);
        break;
    }
  }
  return doc;
}

std::string RandomSqlish(Rng& rng) {
  static const char* kTokens[] = {
      "UPDATE", "SELECT", "SET",   "WHERE", "FROM",  "AND",   "GROUP",
      "BY",     "ORDER",  "LIMIT", "COUNT", "(",     ")",     "*",
      "=",      ",",      ";",     "'v'",   "\"w\"", "T",     "A",
      "B",      "'unterminated",   "''",    "42",    "--",    "  "};
  std::string s;
  size_t n = rng.NextUint(20);
  for (size_t i = 0; i < n; ++i) {
    s += kTokens[rng.NextUint(std::size(kTokens))];
    s += ' ';
  }
  return s;
}

TEST(FuzzTest, SqluParserSurvivesRandomBytes) {
  Rng rng(1001);
  for (int i = 0; i < 3000; ++i) {
    auto result = ParseSqlu(RandomBytes(rng, 80));
    if (!result.ok()) {
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(FuzzTest, SqluParserSurvivesTokenSoup) {
  Rng rng(1002);
  for (int i = 0; i < 3000; ++i) {
    auto result = ParseSqlu(RandomSqlish(rng));
    if (result.ok()) {
      // Whatever parsed must print and re-parse to the same query.
      auto again = ParseSqlu(result->ToSql());
      ASSERT_TRUE(again.ok()) << result->ToSql();
      EXPECT_EQ(*again, *result);
    } else {
      // Rejections are always InvalidArgument with a diagnostic message.
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(FuzzTest, SqluParserPrintParseIsAFixpoint) {
  // parse(print(parse(x))) == parse(x): one round of printing reaches the
  // canonical form, and re-printing that form is byte-stable. Statements
  // are structurally valid but carry hostile literals (quotes, separators,
  // keywords-as-values, whitespace).
  Rng rng(1008);
  auto literal = [&rng] {
    static const char* kValues[] = {"x",  "O''Brien", "new val", "100",
                                    "=",  ";",        "WHERE",   "AND",
                                    " ",  "a,b",      ""};
    return std::string("'") + kValues[rng.NextUint(std::size(kValues))] + "'";
  };
  for (int i = 0; i < 2000; ++i) {
    std::string sql = "UPDATE T SET A = " + literal();
    size_t preds = rng.NextUint(3);
    for (size_t p = 0; p < preds; ++p) {
      sql += (p == 0 ? " WHERE " : " AND ");
      sql += "B" + std::to_string(p) + " = " + literal();
    }
    if (rng.NextBool(0.5)) sql += ";";
    auto q = ParseSqlu(sql);
    ASSERT_TRUE(q.ok()) << sql << " -- " << q.status();
    std::string printed = q->ToSql();
    auto q2 = ParseSqlu(printed);
    ASSERT_TRUE(q2.ok()) << printed;
    EXPECT_EQ(*q2, *q);
    EXPECT_EQ(q2->ToSql(), printed);
  }
}

TEST(FuzzTest, SelectParserSurvivesRandomInput) {
  Rng rng(1003);
  for (int i = 0; i < 3000; ++i) {
    auto r1 = ParseSelect(RandomBytes(rng, 80));
    auto r2 = ParseSelect(RandomSqlish(rng));
    if (!r1.ok()) {
      EXPECT_EQ(r1.status().code(), StatusCode::kInvalidArgument);
    }
    if (!r2.ok()) {
      EXPECT_EQ(r2.status().code(), StatusCode::kInvalidArgument);
    }
  }
}

TEST(FuzzTest, CsvReaderSurvivesRandomBytes) {
  Rng rng(1004);
  for (int i = 0; i < 1500; ++i) {
    auto result = ReadCsvString(RandomBytes(rng, 200), "t");
    (void)result;  // Must not crash; any Status is acceptable.
  }
}

TEST(FuzzTest, CsvRoundTripsHostileCellContents) {
  Rng rng(1005);
  for (int iter = 0; iter < 40; ++iter) {
    Table t("t", Schema({"A", "B", "C"}));
    size_t rows = 1 + rng.NextUint(8);
    for (size_t r = 0; r < rows; ++r) {
      std::vector<std::string> row;
      for (int c = 0; c < 3; ++c) {
        // Hostile content: quotes, commas, newlines, CR.
        std::string cell;
        size_t len = rng.NextUint(12);
        static const char kAlphabet[] = "a\",\n\r'x;|";
        for (size_t j = 0; j < len; ++j) {
          cell += kAlphabet[rng.NextUint(sizeof(kAlphabet) - 1)];
        }
        row.push_back(cell);
      }
      t.AppendRow(row);
    }
    std::string path = testing::TempDir() + "/fuzz_roundtrip.csv";
    ASSERT_TRUE(WriteCsv(t, path).ok());
    auto back = ReadCsv(path, "t");
    ASSERT_TRUE(back.ok()) << back.status();
    ASSERT_EQ(back->num_rows(), t.num_rows());
    for (size_t r = 0; r < t.num_rows(); ++r) {
      for (size_t c = 0; c < 3; ++c) {
        EXPECT_EQ(back->CellText(r, c), t.CellText(r, c));
      }
    }
    std::remove(path.c_str());
  }
}

TEST(FuzzTest, SelectExecutorSurvivesArbitraryParsedQueries) {
  // Any query that parses must execute without crashing against a real
  // table (execution errors are fine).
  Table t("T", Schema({"A", "B"}));
  t.AppendRow({"x", "1"});
  t.AppendRow({"y", "2"});
  Rng rng(1006);
  size_t executed = 0;
  // Bias toward parseable statements: prefix with SELECT and sprinkle
  // structure the grammar expects.
  static const char* kStarts[] = {"SELECT * FROM T ", "SELECT A FROM T ",
                                  "SELECT COUNT ( * ) FROM T ",
                                  "SELECT A , B FROM T "};
  for (int i = 0; i < 5000; ++i) {
    std::string sql = kStarts[rng.NextUint(std::size(kStarts))];
    sql += RandomSqlish(rng);
    auto q = ParseSelect(sql);
    if (!q.ok()) continue;
    auto result = ExecuteSelect(t, *q);
    (void)result;
    ++executed;
  }
  EXPECT_GT(executed, 0u);  // The token soup parses occasionally.
}

// A parsed JSON value serializes to text that parses back to the same
// serialization; a rejection is InvalidArgument with a message.
void CheckJsonParse(const std::string& text) {
  auto parsed = JsonValue::Parse(text);
  if (!parsed.ok()) {
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
    EXPECT_FALSE(parsed.status().message().empty());
    return;
  }
  std::string printed = parsed->Serialize();
  auto again = JsonValue::Parse(printed);
  ASSERT_TRUE(again.ok()) << printed;
  EXPECT_EQ(again->Serialize(), printed);
}

const char* const kJsonDocs[] = {
    R"({"verb":"step","session":"s-1","episodes":3,"seq":17})",
    R"({"a":[1,-2,3.5,1e3,-0.25,true,false,null],"b":{"c":"x\"y\\z"}})",
    R"(["\u00e9\u0041\n\t",[[[]]],{},"",0,-9223372036854775808])",
    R"({"k":123456789012345678901234567890,"d":1.7976931348623157e308})",
    R"([-0.0,-0,0.0,5.0,-1e-320])",
};

TEST(FuzzTest, JsonParserSurvivesRandomBytes) {
  Rng rng(1009);
  for (int i = 0; i < 3000; ++i) CheckJsonParse(RandomBytes(rng, 80));
}

TEST(FuzzTest, JsonParserSurvivesMutatedDocuments) {
  Rng rng(1010);
  for (const char* doc : kJsonDocs) {
    CheckJsonParse(doc);
    ASSERT_TRUE(JsonValue::Parse(doc).ok()) << doc;
    for (int i = 0; i < 1500; ++i) CheckJsonParse(Mutate(rng, doc));
  }
  // Nesting far past the depth cap is rejected, not recursed into.
  std::string deep(100000, '[');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
  deep += std::string(100000, ']');
  EXPECT_FALSE(JsonValue::Parse(deep).ok());
}

constexpr char kSpecJson[] = R"({
  "name": "fuzz", "seed": 9, "rows": 2000,
  "fields": [
    {"name": "id", "dist": "unique", "prefix": "R"},
    {"name": "city", "dist": "zipf", "domain": 50, "skew": 1.2},
    {"name": "state", "dist": "derived", "parents": ["city"], "domain": 8},
    {"name": "flag", "dist": "dictionary", "values": ["yes", "no"]},
    {"name": "grade", "dist": "uniform", "domain": 10, "prefix": "G"}
  ],
  "errors": {
    "rules": [{"lhs": ["city"], "rhs": "state", "patterns": 3,
               "errors_per_pattern": 4}],
    "format_patterns": 2, "random_errors": 5, "seed": 3
  },
  "append": {"batches": 2, "rows_per_batch": 100, "error_rate": 0.01}
})";

// Puts a minus sign before one of the numbers in `doc`.
std::string NegateANumber(Rng& rng, std::string doc) {
  std::vector<size_t> starts;
  for (size_t i = 1; i < doc.size(); ++i) {
    bool digit = doc[i] >= '0' && doc[i] <= '9';
    bool after_space_or_colon = doc[i - 1] == ' ' || doc[i - 1] == ':';
    if (digit && after_space_or_colon) starts.push_back(i);
  }
  if (!starts.empty()) doc.insert(starts[rng.NextUint(starts.size())], "-");
  return doc;
}

TEST(FuzzTest, SpecParserSurvivesMutatedSpecs) {
  ASSERT_TRUE(GeneratorSpec::Parse(kSpecJson).ok());
  // Fixed hostile values: a negative count is rejected, and a count past
  // int64 reads as absent instead of overflowing the conversion.
  std::string spec = kSpecJson;
  EXPECT_FALSE(GeneratorSpec::Parse(
                   spec.replace(spec.find("\"domain\": 50"), 12,
                                "\"domain\": -50"))
                   .ok());
  spec = kSpecJson;
  auto huge = GeneratorSpec::Parse(
      spec.replace(spec.find("\"rows\": 2000"), 12, "\"rows\": 1e300"));
  ASSERT_TRUE(huge.ok()) << huge.status();
  EXPECT_EQ(huge->rows, 1000u);  // The default.
  Rng rng(1011);
  const size_t kMaxCount = std::numeric_limits<int64_t>::max();
  size_t accepted = 0;
  for (int i = 0; i < 4000; ++i) {
    std::string text = i % 4 == 0   ? RandomBytes(rng, 120)
                       : i % 4 == 1 ? NegateANumber(rng, kSpecJson)
                                    : Mutate(rng, kSpecJson);
    auto spec = GeneratorSpec::Parse(text);
    if (!spec.ok()) {
      EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(spec.status().message().empty());
      continue;
    }
    ++accepted;
    // Every count an accepted spec carries came from a non-negative JSON
    // integer; a negative one must be rejected, not wrapped to ~2^64.
    SCOPED_TRACE(text);
    EXPECT_GT(spec->rows, 0u);
    EXPECT_FALSE(spec->fields.empty());
    for (const SpecField& f : spec->fields) EXPECT_LE(f.domain, kMaxCount);
    for (const SpecRuleError& r : spec->errors.rules) {
      EXPECT_LE(r.patterns, kMaxCount);
      EXPECT_LE(r.errors_per_pattern, kMaxCount);
    }
    EXPECT_LE(spec->errors.format_patterns, kMaxCount);
    EXPECT_LE(spec->errors.random_errors, kMaxCount);
    EXPECT_LE(spec->append.batches, kMaxCount);
    EXPECT_LE(spec->append.rows_per_batch, kMaxCount);
    EXPECT_GE(spec->append.error_rate, 0.0);
    EXPECT_LE(spec->append.error_rate, 1.0);
  }
  EXPECT_GT(accepted, 0u);  // Some mutations keep the spec valid.
}

// Journal records of every kind with random contents, including binary
// bytes in values.
std::vector<JournalRecord> RandomJournalRecords(Rng& rng) {
  std::vector<JournalRecord> records;
  JournalRecord start;
  start.kind = JournalRecord::Kind::kStart;
  start.seed = rng.NextUint(1u << 30);
  start.num_rows = 1 + rng.NextUint(1000);
  start.num_cols = 1 + rng.NextUint(20);
  start.table_crc = static_cast<uint32_t>(rng.NextUint(1ull << 32));
  records.push_back(start);
  for (size_t i = 0; i < 12; ++i) {
    JournalRecord r;
    // Cell addressing: updates carry both, applies and retracts the column.
    uint32_t row = static_cast<uint32_t>(rng.NextUint(1000));
    uint32_t col = static_cast<uint32_t>(rng.NextUint(20));
    switch (rng.NextUint(5)) {
      case 0:
        r.kind = JournalRecord::Kind::kUserUpdate;
        r.row = row;
        r.col = col;
        r.value = RandomBytes(rng, 24);
        r.wrong = rng.NextBool(0.5);
        break;
      case 1:
        r.kind = JournalRecord::Kind::kAnswer;
        r.node = static_cast<uint32_t>(rng.NextUint(64));
        r.valid = rng.NextBool(0.5);
        r.billed = rng.NextBool(0.5);
        break;
      case 2:
        r.kind = JournalRecord::Kind::kApply;
        r.col = col;
        r.node = static_cast<uint32_t>(rng.NextUint(64));
        r.manual = rng.NextBool(0.5);
        r.value = RandomBytes(rng, 24);
        for (uint32_t row = 0; row < 40; row += 1 + rng.NextUint(9)) {
          r.before.emplace_back(row, RandomBytes(rng, 12));
        }
        break;
      case 3:
        r.kind = JournalRecord::Kind::kCheckpoint;
        r.user_updates = rng.NextUint(100);
        r.user_answers = rng.NextUint(100);
        r.cells_repaired = rng.NextUint(1000);
        r.queries_applied = rng.NextUint(100);
        r.table_crc = static_cast<uint32_t>(rng.NextUint(1ull << 32));
        break;
      default:
        r.kind = JournalRecord::Kind::kRetract;
        r.col = col;
        r.entry = rng.NextUint(10);
        r.before.emplace_back(static_cast<uint32_t>(rng.NextUint(1000)),
                              RandomBytes(rng, 12));
        break;
    }
    records.push_back(r);
  }
  return records;
}

TEST(FuzzTest, JournalReaderReturnsPrefixOfDamagedJournal) {
  Rng rng(1012);
  const std::string path = testing::TempDir() + "/fuzz_journal.bin";
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<JournalRecord> records = RandomJournalRecords(rng);
    {
      auto journal = SessionJournal::Open(path, /*truncate=*/true);
      ASSERT_TRUE(journal.ok()) << journal.status();
      for (const JournalRecord& r : records) {
        ASSERT_TRUE(journal->Append(r).ok());
      }
      ASSERT_TRUE(journal->Sync().ok());
    }
    std::ifstream in(path, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    auto whole = SessionJournal::Read(path);
    ASSERT_TRUE(whole.ok());
    ASSERT_EQ(whole->records.size(), records.size());
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_TRUE(whole->records[i] == records[i]) << "record " << i;
    }

    for (int trial = 0; trial < 25; ++trial) {
      std::string damaged = bytes;
      // Random byte flips (several in one trial), sometimes with the tail
      // cut or junk appended.
      size_t flips = 1 + rng.NextUint(4);
      for (size_t f = 0; f < flips; ++f) {
        size_t at = rng.NextUint(damaged.size());
        damaged[at] = static_cast<char>(damaged[at] ^ (1 + rng.NextUint(255)));
      }
      if (rng.NextBool(0.25)) damaged.resize(rng.NextUint(damaged.size()));
      if (rng.NextBool(0.25)) damaged += RandomBytes(rng, 16);
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(damaged.data(), static_cast<std::streamsize>(damaged.size()));
      out.close();

      auto contents = SessionJournal::Read(path);
      if (!contents.ok()) {
        EXPECT_FALSE(contents.status().message().empty());
        continue;
      }
      // A valid prefix: whole records, each equal to the one written.
      ASSERT_LE(contents->records.size(), records.size());
      for (size_t i = 0; i < contents->records.size(); ++i) {
        EXPECT_TRUE(contents->records[i] == records[i]) << "record " << i;
      }
      EXPECT_LE(contents->valid_bytes, damaged.size());
      EXPECT_EQ(contents->torn, contents->valid_bytes < damaged.size());
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace falcon
