#include "profiling/correlation.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace falcon {

// One sampled column as dense codes: codes[i] numbers the value of sample
// row i among the column's distinct non-null sampled values, in first-seen
// order, and is kNullCode for a NULL. Codes at most `distinct` - 1.
struct CodedColumn {
  static constexpr uint32_t kNullCode = ~uint32_t{0};
  std::vector<uint32_t> codes;
  uint32_t distinct = 0;
};

namespace {

// Open-addressing hash index from a 64-bit key to a dense id, handing out
// ids 0, 1, 2, ... in first-insertion order. The probe table holds only
// ids; the keys sit in a dense array in id order, which is also what a
// rehash walks. Linear probing over a power-of-two table kept at most half
// full.
class FlatIndex {
 public:
  // Sized for `expected` keys without a rehash.
  explicit FlatIndex(size_t expected = 0) { Reset(expected); }

  // Forgets every key, keeping the storage; sized for `expected` keys.
  void Reset(size_t expected) {
    keys_.clear();
    Rehash(std::bit_ceil(std::max<size_t>(2 * expected, kMinCapacity)));
  }

  uint32_t size() const { return static_cast<uint32_t>(keys_.size()); }

  // The key of id `id` (< size()).
  uint64_t key(uint32_t id) const { return keys_[id]; }

  // The id of `key`, inserting it as id size() if new.
  uint32_t FindOrInsert(uint64_t key) {
    size_t i = Home(key);
    for (uint32_t id; (id = slots_[i]) != kEmpty; i = (i + 1) & mask_) {
      if (keys_[id] == key) return id;
    }
    uint32_t id = size();
    slots_[i] = id;
    keys_.push_back(key);
    if (2 * keys_.size() > slots_.size()) Rehash(2 * slots_.size());
    return id;
  }

 private:
  static constexpr uint32_t kEmpty = ~uint32_t{0};
  static constexpr size_t kMinCapacity = 64;

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Rehash(size_t capacity) {
    slots_.assign(capacity, kEmpty);
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    for (uint32_t id = 0; id < keys_.size(); ++id) {
      size_t i = Home(keys_[id]);
      while (slots_[i] != kEmpty) i = (i + 1) & mask_;
      slots_[i] = id;
    }
  }

  std::vector<uint32_t> slots_;  // Probe table of ids, kEmpty if free.
  std::vector<uint64_t> keys_;   // Key of each id.
  size_t mask_ = 0;
  int shift_ = 64;
};

// Dense ids for packed keys in first-insertion order, reused across
// counts. With `direct` set, keys of at most 16 bits, counted over fewer
// than 65,535 entries, index a direct-addressed table of 16-bit ids that
// is kept between uses and cleared entry by entry, so a reuse costs
// O(ids); other keys (or any key without `direct`) go through a FlatIndex.
class KeyIds {
 public:
  explicit KeyIds(bool direct) : direct_allowed_(direct) {}

  // Forgets every key; the next keys have at most `bits` bits and come
  // from `entries` entries, about `expected` of them distinct.
  void Reset(int bits, size_t entries, size_t expected) {
    for (uint64_t key : direct_keys_) direct_table_[key] = kEmpty;
    direct_keys_.clear();
    direct_ = direct_allowed_ && bits <= 16 && entries < kEmpty;
    if (direct_) {
      size_t need = size_t{1} << bits;
      if (direct_table_.size() < need) direct_table_.resize(need, kEmpty);
    } else {
      hash_.Reset(expected);
    }
  }

  uint32_t size() const {
    return direct_ ? static_cast<uint32_t>(direct_keys_.size())
                   : hash_.size();
  }

  uint32_t FindOrInsert(uint64_t key) {
    if (!direct_) return hash_.FindOrInsert(key);
    uint16_t& id = direct_table_[key];
    if (id == kEmpty) {
      id = static_cast<uint16_t>(direct_keys_.size());
      direct_keys_.push_back(key);
    }
    return id;
  }

 private:
  static constexpr uint16_t kEmpty = 0xFFFF;

  bool direct_allowed_;
  bool direct_ = false;
  std::vector<uint16_t> direct_table_;  // key → id, kEmpty if absent.
  std::vector<uint64_t> direct_keys_;   // Keys inserted since Reset.
  FlatIndex hash_;
};

// Deterministic CORDS sample: evenly strided rows, at most `max` of them.
// Empty when the sample is the whole table (max == 0 or num_rows <= max).
std::vector<uint32_t> SampleRows(size_t num_rows, size_t max) {
  std::vector<uint32_t> rows;
  if (max == 0 || num_rows <= max) return rows;
  rows.reserve(max);
  double stride = static_cast<double>(num_rows) / static_cast<double>(max);
  for (size_t i = 0; i < max; ++i) {
    rows.push_back(static_cast<uint32_t>(static_cast<double>(i) * stride));
  }
  return rows;
}

// The code of `v` in `dict`, or kNullCode.
uint32_t CodeOf(ValueId v, FlatIndex* dict) {
  return v == kNullValueId ? CodedColumn::kNullCode : dict->FindOrInsert(v);
}

// Codes the cells column[rows[i]] (column[i] for every row i < num_rows
// when `rows` is empty) into `out`, numbering values in `dict` (reset
// first).
void CodeColumn(const ValueId* column, size_t num_rows,
                const std::vector<uint32_t>& rows, FlatIndex* dict,
                CodedColumn* out) {
  dict->Reset(0);
  size_t m = rows.empty() ? num_rows : rows.size();
  out->codes.resize(m);
  for (size_t i = 0; i < m; ++i) {
    out->codes[i] = CodeOf(column[rows.empty() ? i : rows[i]], dict);
  }
  out->distinct = dict->size();
}

// Packs the codes of cols[0..k) for m entries into one exact key per
// entry, a column at a time: key = key << b_j | code_j, with b_j the bits
// column j's codes (below distinct[j]) need. If the next column would not
// fit in 64 bits, the keys so far are first replaced by their dense ids
// (`fold`, first-seen order). Entries with a NULL in any column are
// flagged in `skip` and their keys are left unspecified — unless
// kNullsAsCodes, where NULL packs as the extra code distinct[j] and
// nothing is skipped (`skip` may then be null). Returns the bits of the
// keys and sets `last_bits` to the last column's b_j.
template <bool kNullsAsCodes>
int PackKeys(const std::vector<const uint32_t*>& cols,
             const std::vector<uint32_t>& distinct, size_t m, KeyIds* fold,
             std::vector<uint64_t>* keys, std::vector<uint8_t>* skip,
             int* last_bits) {
  keys->assign(m, 0);
  if (!kNullsAsCodes) skip->assign(m, 0);
  uint64_t* key = keys->data();
  int bits = 0;
  for (size_t j = 0; j < cols.size(); ++j) {
    const uint32_t* codes = cols[j];
    uint32_t top = kNullsAsCodes ? distinct[j]
                                 : std::max<uint32_t>(distinct[j], 1) - 1;
    *last_bits = std::bit_width(top);
    if (bits + *last_bits > 64) {
      fold->Reset(64, m, m);
      for (size_t i = 0; i < m; ++i) {
        if (kNullsAsCodes || !(*skip)[i]) key[i] = fold->FindOrInsert(key[i]);
      }
      bits = std::bit_width(fold->size());
    }
    bits += *last_bits;
    for (size_t i = 0; i < m; ++i) {
      uint32_t code = codes[i];
      if constexpr (kNullsAsCodes) {
        if (code == CodedColumn::kNullCode) code = distinct[j];
      } else {
        (*skip)[i] |= code == CodedColumn::kNullCode;
      }
      key[i] = key[i] << *last_bits | code;
    }
  }
  return bits;
}

// Joint value-combination counts of k coded columns over m entries: the
// sample rows, or groups of equal sample rows, where entry i stands for
// weights[i] rows. The keys come from PackKeys. Then ONE pass over the
// entries numbers the distinct keys, the joint combinations, in
// first-seen order and adds up their weights. Everything else comes from
// the combinations, not the entries:
//  - each combination's codes (read at its first entry) and its count;
//  - per column, a plain count array over its codes (the marginals, exact
//    integer sums), and m_i as the number of codes seen;
//  - the soft-FD LHS prefixes, as the distinct keys with the last column's
//    bits shifted out.
// Entries with a NULL in any involved column are skipped. The chi² sum
// runs over the combinations in first-seen order. Groups are in first-seen
// row order and a combination's first row opens its first group, so that
// is first-seen row order on both paths: the sum depends only on the
// sample, never on grouping, code numbering, hash layout or thread count,
// and profiles (and hence CoDive rankings) are reproducible across
// machines. The object keeps its buffers between counts.
class JointCounts {
 public:
  // `direct`: may count keys of up to 16 bits in a direct-addressed table
  // (worth its fill only when the object is reused).
  explicit JointCounts(bool direct)
      : ids_(direct), prefixes_(direct), fold_(direct) {}

  // Counts entries [0, m) of cols[0..k); column j's codes are below
  // distinct[j]. `weights` null means one row per entry.
  void Count(const std::vector<const uint32_t*>& cols,
             const std::vector<uint32_t>& distinct, size_t m,
             const uint32_t* weights) {
    k_ = cols.size();
    FALCON_CHECK(k_ >= 1);
    size_t bound = 1;  // At most min(m, d_0 * ... * d_{k-1}) combinations.
    for (uint32_t d : distinct) bound = std::min(m, bound * d);
    int last_bits = 0;
    int bits = PackKeys</*kNullsAsCodes=*/false>(cols, distinct, m, &fold_,
                                                  &keys_, &skip_, &last_bits);

    n_ = 0;
    combo_counts_.clear();
    first_.clear();
    ids_.Reset(bits, m, bound);
    for (size_t i = 0; i < m; ++i) {
      if (skip_[i]) continue;
      uint32_t w = weights == nullptr ? 1 : weights[i];
      n_ += w;
      uint32_t combo = ids_.FindOrInsert(keys_[i]);
      if (combo == combo_counts_.size()) {
        combo_counts_.push_back(0);
        first_.push_back(static_cast<uint32_t>(i));
      }
      combo_counts_[combo] += w;
    }

    marginals_.resize(k_);
    distinct_.resize(k_);
    for (size_t j = 0; j < k_; ++j) marginals_[j].assign(distinct[j], 0);
    combo_codes_.resize(combos() * k_);
    prefixes_.Reset(bits - last_bits, combos(), combos());
    for (size_t t = 0; t < combos(); ++t) {
      for (size_t j = 0; j < k_; ++j) {
        uint32_t code = cols[j][first_[t]];
        combo_codes_[t * k_ + j] = code;
        marginals_[j][code] += combo_counts_[t];
      }
      prefixes_.FindOrInsert(keys_[first_[t]] >> last_bits);
    }
    prefix_combos_ = prefixes_.size();
    for (size_t j = 0; j < k_; ++j) {
      distinct_[j] = marginals_[j].size() -
                     std::count(marginals_[j].begin(), marginals_[j].end(), 0u);
    }
  }

  // Columns counted.
  size_t k() const { return k_; }
  // Non-null rows counted.
  double n() const { return static_cast<double>(n_); }
  // Distinct combinations of all k columns.
  size_t combos() const { return combo_counts_.size(); }
  // Distinct combinations of the first k - 1 columns (the soft-FD LHS).
  size_t prefix_combos() const { return prefix_combos_; }
  // Distinct values of column j.
  size_t distinct(size_t j) const { return distinct_[j]; }

  // chi^2 = sum_observed (o - e)^2 / e  +  sum_unobserved e.
  // The unobserved total equals n - sum_observed e because the expected
  // counts over the full product space sum to n.
  double Chi2() {
    double n = this->n();
    // Marginal frequencies; e multiplies them in column order.
    freq_.resize(k_);
    for (size_t j = 0; j < k_; ++j) {
      freq_[j].clear();
      for (uint32_t count : marginals_[j]) {
        freq_[j].push_back(static_cast<double>(count) / n);
      }
    }
    double chi2 = 0.0;
    double observed_expected_sum = 0.0;
    for (size_t t = 0; t < combo_counts_.size(); ++t) {
      const uint32_t* codes = &combo_codes_[t * k_];
      double e = n;
      for (size_t j = 0; j < k_; ++j) e *= freq_[j][codes[j]];
      double d = static_cast<double>(combo_counts_[t]) - e;
      chi2 += d * d / e;
      observed_expected_sum += e;
    }
    chi2 += n - observed_expected_sum;
    return chi2;
  }

 private:
  size_t k_ = 0;
  uint32_t n_ = 0;
  size_t prefix_combos_ = 0;
  std::vector<std::vector<uint32_t>> marginals_;  // Per column: code → count.
  std::vector<size_t> distinct_;                  // Per column: codes seen.
  std::vector<uint32_t> combo_codes_;   // k codes per joint combination.
  std::vector<uint32_t> combo_counts_;  // Count per joint combination.
  // Scratch kept between counts.
  std::vector<uint64_t> keys_;
  std::vector<uint8_t> skip_;
  std::vector<uint32_t> first_;  // First entry of each combination.
  KeyIds ids_, prefixes_, fold_;
  std::vector<std::vector<double>> freq_;
};

// The joint counts of `cols` of `table` over its CORDS sample, each column
// coded afresh: the free functions' one-shot path, so no direct tables.
struct TableCounts {
  TableCounts(const Table& table, const std::vector<size_t>& cols,
              const CorrelationOptions& options)
      : coded(cols.size()), joint(/*direct=*/false) {
    std::vector<uint32_t> rows =
        SampleRows(table.num_rows(), options.max_sample_rows);
    std::vector<const uint32_t*> ptrs;
    std::vector<uint32_t> distinct;
    FlatIndex dict;
    for (size_t j = 0; j < cols.size(); ++j) {
      CodeColumn(table.column(cols[j]).data(), table.num_rows(), rows, &dict,
                 &coded[j]);
      ptrs.push_back(coded[j].codes.data());
      distinct.push_back(coded[j].distinct);
    }
    joint.Count(ptrs, distinct, coded[0].codes.size(), nullptr);
  }
  std::vector<CodedColumn> coded;
  JointCounts joint;
};

double SupportFromCounts(const JointCounts& joint) {
  if (joint.combos() == 0) return 0.0;
  return static_cast<double>(joint.prefix_combos()) /
         static_cast<double>(joint.combos());
}

// cor(X, B) from the joint counts of X ∪ {B} (B last).
double ScoreFromCounts(JointCounts& joint, const CorrelationOptions& options) {
  const size_t k = joint.k();
  double n = joint.n();
  if (n == 0) return 0.0;

  // Soft FD check first (the CORDS fast path).
  if (SupportFromCounts(joint) >= options.soft_fd_threshold) return 1.0;

  double prod_m = 1.0;
  double sum_m = 0.0;
  for (size_t j = 0; j < k; ++j) {
    prod_m *= static_cast<double>(joint.distinct(j));
    sum_m += static_cast<double>(joint.distinct(j));
  }
  double q = prod_m - sum_m + static_cast<double>(k) - 1.0;
  if (q <= 0.0) return 0.0;  // Degenerate: some attribute is constant.

  double score = joint.Chi2() / (n * q);
  return std::clamp(score, 0.0, 1.0);
}

// Whether `col` is key-like: distinct / rows > threshold. The ratio grows
// with the distinct count, so the test is the same as the count exceeding
// the largest count that is not key-like, and DistinctCount stops as soon
// as that is settled.
bool KeyLike(const Table& table, size_t col, double threshold) {
  const size_t n = table.num_rows();
  if (n == 0) return 0.0 > threshold;
  auto ratio = [n](size_t d) {
    return static_cast<double>(d) / static_cast<double>(n);
  };
  if (ratio(0) > threshold) return true;
  if (ratio(n) <= threshold) return false;
  // ratio(bound) ≤ threshold < ratio(bound + 1), with bound < n.
  auto bound = static_cast<size_t>(
      std::clamp(threshold * static_cast<double>(n), 0.0,
                 static_cast<double>(n - 1)));
  while (ratio(bound) > threshold) --bound;
  while (ratio(bound + 1) <= threshold) ++bound;
  return table.DistinctCount(col, bound) > bound;
}

}  // namespace

// The profiler's sample state (see CordsProfiler), plus the scratch its
// misses reuse.
struct CordsSample {
  // One column's sampled cells.
  struct Column {
    FlatIndex dict;     // ValueId → code; dict.key(code) is the value.
    CodedColumn coded;  // codes[i] codes the cell of sample row i.
    uint64_t writes = 0;   // Table::column_writes when `coded` was synced.
    uint64_t version = 0;  // Moves when a sampled cell changed.
  };

  // num_rows() the sample was drawn from (SIZE_MAX before the first miss).
  size_t num_rows = SIZE_MAX;
  // Sampled row ids, ascending; empty when the sample is the whole table,
  // and then nothing below is kept.
  std::vector<uint32_t> rows;
  // Sample rows [block_begin[b], block_begin[b + 1]) lie in 64-row block b.
  std::vector<uint32_t> block_begin;
  // Table::block_writes() when the sample was last patched.
  std::vector<uint64_t> seen_blocks;
  std::vector<Column> columns;

  // The grouped sample: which columns are grouped, and the groups with
  // group_versions[j] the code version of group_cols[j] they were built
  // from (empty while they are not built).
  std::vector<uint8_t> grouped;
  std::vector<size_t> group_cols;
  std::vector<uint64_t> group_versions;
  std::vector<std::vector<uint32_t>> group_codes;  // Per column, per group.
  std::vector<uint32_t> group_counts;              // Sample rows per group.

  // Scratch.
  JointCounts joint{/*direct=*/true};
  KeyIds group_ids{/*direct=*/true};
  KeyIds group_fold{/*direct=*/true};
  std::vector<uint64_t> group_keys;
  std::vector<uint32_t> group_first;
  std::vector<size_t> stale;
  std::vector<uint8_t> changed;
  std::vector<const uint32_t*> ptrs;
  std::vector<uint32_t> distinct;

  // Draws the sample from `table` as it is now: codes every column in full
  // and groups those whose sampled distinct ratio is at most `key_ratio`.
  // Returns the number of columns coded.
  size_t Draw(const Table& table, size_t max_rows, double key_ratio) {
    num_rows = table.num_rows();
    rows = SampleRows(num_rows, max_rows);
    columns.clear();
    grouped.clear();
    group_cols.clear();
    group_versions.clear();
    group_codes.clear();
    if (rows.empty()) return 0;
    columns.resize(table.num_cols());
    grouped.assign(table.num_cols(), 0);
    group_codes.resize(table.num_cols());
    for (size_t c = 0; c < columns.size(); ++c) {
      Column& col = columns[c];
      col.writes = table.column_writes(c);
      CodeColumn(table.column(c).data(), num_rows, rows, &col.dict,
                 &col.coded);
      if (col.coded.distinct <= key_ratio * static_cast<double>(rows.size())) {
        grouped[c] = 1;
        group_cols.push_back(c);
      }
    }
    std::span<const uint64_t> blocks = table.block_writes();
    seen_blocks.assign(blocks.begin(), blocks.end());
    block_begin.assign(blocks.size() + 1, 0);
    size_t i = 0;
    for (size_t b = 0; b < blocks.size(); ++b) {
      block_begin[b] = static_cast<uint32_t>(i);
      while (i < rows.size() && rows[i] < (b + 1) * Table::kRowsPerBlock) ++i;
    }
    block_begin[blocks.size()] = static_cast<uint32_t>(i);
    return columns.size();
  }

  // Brings the coded columns up to date with `table` (same num_rows()):
  // re-reads the columns written since, in the blocks written since.
  void Patch(const Table& table) {
    stale.clear();
    for (size_t c = 0; c < columns.size(); ++c) {
      if (columns[c].writes != table.column_writes(c)) stale.push_back(c);
    }
    if (stale.empty()) return;
    // A column that was not written has no moved cell in any block, so
    // re-reading the stale columns in the moved blocks brings every column
    // up to date, and the moved blocks are then seen.
    changed.assign(stale.size(), 0);
    std::span<const uint64_t> blocks = table.block_writes();
    for (size_t b = 0; b < blocks.size(); ++b) {
      if (blocks[b] == seen_blocks[b]) continue;
      seen_blocks[b] = blocks[b];
      for (size_t i = block_begin[b]; i < block_begin[b + 1]; ++i) {
        for (size_t j = 0; j < stale.size(); ++j) {
          Column& col = columns[stale[j]];
          ValueId v = table.cell(rows[i], stale[j]);
          uint32_t& code = col.coded.codes[i];
          ValueId old = code == CodedColumn::kNullCode
                            ? kNullValueId
                            : static_cast<ValueId>(col.dict.key(code));
          if (v == old) continue;
          code = CodeOf(v, &col.dict);
          changed[j] = 1;
        }
      }
    }
    for (size_t j = 0; j < stale.size(); ++j) {
      Column& col = columns[stale[j]];
      col.writes = table.column_writes(stale[j]);
      col.coded.distinct = col.dict.size();
      col.version += changed[j];
    }
  }

  // Rebuilds the groups if a grouped column's code version moved since
  // they were built.
  void EnsureGroups() {
    bool current = group_versions.size() == group_cols.size();
    for (size_t j = 0; current && j < group_cols.size(); ++j) {
      current = group_versions[j] == columns[group_cols[j]].version;
    }
    if (current) return;

    ptrs.clear();
    distinct.clear();
    group_versions.clear();
    for (size_t c : group_cols) {
      ptrs.push_back(columns[c].coded.codes.data());
      distinct.push_back(columns[c].coded.distinct);
      group_versions.push_back(columns[c].version);
    }
    const size_t m = rows.size();
    int last_bits = 0;
    int bits = PackKeys</*kNullsAsCodes=*/true>(
        ptrs, distinct, m, &group_fold, &group_keys, nullptr, &last_bits);
    group_ids.Reset(bits, m, m);
    group_first.clear();
    group_counts.clear();
    for (size_t i = 0; i < m; ++i) {
      uint32_t g = group_ids.FindOrInsert(group_keys[i]);
      if (g == group_counts.size()) {
        group_counts.push_back(0);
        group_first.push_back(static_cast<uint32_t>(i));
      }
      ++group_counts[g];
    }
    for (size_t c : group_cols) {
      const std::vector<uint32_t>& codes = columns[c].coded.codes;
      std::vector<uint32_t>& out = group_codes[c];
      out.resize(group_first.size());
      for (size_t g = 0; g < group_first.size(); ++g) {
        out[g] = codes[group_first[g]];
      }
    }
  }
};

double FdSupport(const Table& table, const std::vector<size_t>& x_cols,
                 size_t b_col, const CorrelationOptions& options) {
  std::vector<size_t> all = x_cols;
  all.push_back(b_col);
  return SupportFromCounts(TableCounts(table, all, options).joint);
}

double ChiSquared(const Table& table, const std::vector<size_t>& cols,
                  const CorrelationOptions& options) {
  FALCON_CHECK(cols.size() >= 2);
  TableCounts counts(table, cols, options);
  if (counts.joint.n() == 0) return 0.0;
  return counts.joint.Chi2();
}

double CorrelationScore(const Table& table, const std::vector<size_t>& x_cols,
                        size_t b_col, const CorrelationOptions& options) {
  if (x_cols.empty()) return 0.0;
  std::vector<size_t> all = x_cols;
  all.push_back(b_col);
  TableCounts counts(table, all, options);
  return ScoreFromCounts(counts.joint, options);
}

CordsProfiler::CordsProfiler(const Table* table, CorrelationOptions options)
    : table_(table),
      options_(options),
      sample_(std::make_unique<CordsSample>()) {}

CordsProfiler::~CordsProfiler() = default;

double CordsProfiler::Score(const std::vector<size_t>& x_cols,
                            size_t b_col) {
  std::vector<size_t> all = x_cols;
  all.push_back(b_col);
  CordsSample& s = *sample_;
  if (s.num_rows != table_->num_rows()) {
    full_codes_ += s.Draw(*table_, options_.max_sample_rows,
                          options_.key_ratio_threshold);
  } else if (!s.rows.empty()) {
    s.Patch(*table_);
  }
  if (s.rows.empty()) {
    TableCounts counts(*table_, all, options_);
    return ScoreFromCounts(counts.joint, options_);
  }
  bool grouped = std::all_of(all.begin(), all.end(),
                             [&](size_t c) { return s.grouped[c] != 0; });
  if (grouped) s.EnsureGroups();
  s.ptrs.clear();
  s.distinct.clear();
  for (size_t c : all) {
    const CodedColumn& coded = s.columns[c].coded;
    s.ptrs.push_back(grouped ? s.group_codes[c].data() : coded.codes.data());
    s.distinct.push_back(coded.distinct);
  }
  if (grouped) {
    s.joint.Count(s.ptrs, s.distinct, s.group_counts.size(),
                  s.group_counts.data());
  } else {
    s.joint.Count(s.ptrs, s.distinct, s.rows.size(), nullptr);
  }
  return ScoreFromCounts(s.joint, options_);
}

double CordsProfiler::PairCorrelation(size_t a_col, size_t b_col) {
  auto [it, inserted] = pair_cache_.try_emplace({a_col, b_col}, 0.0);
  if (inserted) {
    it->second = Score({a_col}, b_col);
  }
  return it->second;
}

double CordsProfiler::SetCorrelation(const std::vector<size_t>& x_cols,
                                     size_t b_col) {
  if (x_cols.empty()) return 0.0;
  if (x_cols.size() == 1) return PairCorrelation(x_cols[0], b_col);
  std::vector<size_t> sorted = x_cols;
  std::sort(sorted.begin(), sorted.end());
  auto [it, inserted] = set_cache_.try_emplace({sorted, b_col}, 0.0);
  if (inserted) {
    it->second = Score(sorted, b_col);
  }
  return it->second;
}

std::vector<size_t> CordsProfiler::TopKAttributes(size_t target, size_t k) {
  if (key_like_.empty()) {
    key_like_.resize(table_->num_cols());
    for (size_t c = 0; c < table_->num_cols(); ++c) {
      key_like_[c] = KeyLike(*table_, c, options_.key_ratio_threshold);
    }
  }
  std::vector<std::pair<double, size_t>> scored;
  for (size_t c = 0; c < table_->num_cols(); ++c) {
    if (c == target) continue;
    if (key_like_[c]) continue;
    scored.emplace_back(PairCorrelation(c, target), c);
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& a, const auto& b) {
                     return a.first > b.first;
                   });
  std::vector<size_t> out;
  for (size_t i = 0; i < scored.size() && i < k; ++i) {
    out.push_back(scored[i].second);
  }
  return out;
}

}  // namespace falcon
