#include "profiling/correlation.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace falcon {

// One sampled column as dense codes: codes[i] numbers the value of sample
// row i among the column's distinct non-null sampled values, in first-seen
// order, and is kNullCode for a NULL.
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
  explicit FlatIndex(size_t expected = 0) {
    Rehash(std::bit_ceil(std::max<size_t>(2 * expected, kMinCapacity)));
  }

  uint32_t size() const { return static_cast<uint32_t>(keys_.size()); }

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

// Codes the cells column[rows[i]] (column[i] for every row i < num_rows
// when `rows` is empty) into `out`.
void CodeColumn(const ValueId* column, size_t num_rows,
                const std::vector<uint32_t>& rows, CodedColumn* out) {
  FlatIndex values;
  size_t m = rows.empty() ? num_rows : rows.size();
  out->codes.resize(m);
  for (size_t i = 0; i < m; ++i) {
    ValueId v = column[rows.empty() ? i : rows[i]];
    out->codes[i] = v == kNullValueId ? CodedColumn::kNullCode
                                      : values.FindOrInsert(v);
  }
  out->distinct = values.size();
}

// Joint value-combination counts of k coded columns over one row sample.
// Each row's codes are first packed, a column at a time, into one exact
// 64-bit key: key = key << b_j | code_j, with b_j the bits column j's codes
// need. If the next column would not fit, the keys so far are first
// replaced by their dense ids (a flat index, first-seen order). Then ONE
// pass over the rows numbers the distinct keys, the joint combinations, in
// first-seen row order in a flat index and counts them. Everything else
// comes from the combinations, not the rows:
//  - each combination's codes (read at its first row) and its count;
//  - per column, a plain count array over its codes (the marginals, exact
//    integer sums), and m_i as the number of codes seen;
//  - the soft-FD LHS prefixes, as the distinct keys with the last column's
//    bits shifted out.
// Rows with a NULL in any involved column are skipped. The chi² sum runs
// over the combinations in first-seen row order, so it depends only on the
// sample, never on hash layout or thread count; profiles (and hence CoDive
// rankings) are reproducible across machines.
class JointCounts {
 public:
  // Counts the sample rows of cols[0..k), all coded over the same rows.
  explicit JointCounts(const std::vector<const CodedColumn*>& cols)
      : k_(cols.size()), marginals_(k_), distinct_(k_) {
    FALCON_CHECK(k_ >= 1);
    const size_t m = cols[0]->codes.size();
    std::vector<uint64_t> keys(m, 0);
    std::vector<uint8_t> skip(m, 0);
    int bits = 0;
    int last_bits = 0;
    size_t bound = 1;  // At most min(m, d_0 * ... * d_{k-1}) combinations.
    for (size_t j = 0; j < k_; ++j) {
      const uint32_t* codes = cols[j]->codes.data();
      last_bits = std::bit_width(std::max<uint32_t>(cols[j]->distinct, 1) - 1);
      bound = std::min(m, bound * cols[j]->distinct);
      marginals_[j].assign(cols[j]->distinct, 0);
      if (bits + last_bits > 64) {
        FlatIndex fold(m);
        for (size_t i = 0; i < m; ++i) {
          if (!skip[i]) keys[i] = fold.FindOrInsert(keys[i]);
        }
        bits = std::bit_width(fold.size());
      }
      bits += last_bits;
      for (size_t i = 0; i < m; ++i) {
        skip[i] |= codes[i] == CodedColumn::kNullCode;
        keys[i] = keys[i] << last_bits | codes[i];
      }
    }

    FlatIndex joint(bound);
    std::vector<uint32_t> first_row;
    for (size_t i = 0; i < m; ++i) {
      if (skip[i]) continue;
      ++n_;
      uint32_t combo = joint.FindOrInsert(keys[i]);
      if (combo == combo_counts_.size()) {
        combo_counts_.push_back(0);
        first_row.push_back(static_cast<uint32_t>(i));
      }
      ++combo_counts_[combo];
    }

    combo_codes_.resize(combos() * k_);
    FlatIndex prefixes(combos());
    for (size_t t = 0; t < combos(); ++t) {
      for (size_t j = 0; j < k_; ++j) {
        uint32_t code = cols[j]->codes[first_row[t]];
        combo_codes_[t * k_ + j] = code;
        marginals_[j][code] += combo_counts_[t];
      }
      prefixes.FindOrInsert(keys[first_row[t]] >> last_bits);
    }
    prefix_combos_ = prefixes.size();
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
  double Chi2() const {
    double n = this->n();
    // Marginal frequencies; e multiplies them in column order.
    std::vector<std::vector<double>> freq(k_);
    for (size_t j = 0; j < k_; ++j) {
      freq[j].reserve(marginals_[j].size());
      for (uint32_t count : marginals_[j]) {
        freq[j].push_back(static_cast<double>(count) / n);
      }
    }
    double chi2 = 0.0;
    double observed_expected_sum = 0.0;
    for (size_t t = 0; t < combo_counts_.size(); ++t) {
      const uint32_t* codes = &combo_codes_[t * k_];
      double e = n;
      for (size_t j = 0; j < k_; ++j) e *= freq[j][codes[j]];
      double d = static_cast<double>(combo_counts_[t]) - e;
      chi2 += d * d / e;
      observed_expected_sum += e;
    }
    chi2 += n - observed_expected_sum;
    return chi2;
  }

 private:
  size_t k_;
  uint32_t n_ = 0;
  size_t prefix_combos_ = 0;
  std::vector<std::vector<uint32_t>> marginals_;  // Per column: code → count.
  std::vector<size_t> distinct_;                  // Per column: codes seen.
  std::vector<uint32_t> combo_codes_;   // k codes per joint combination.
  std::vector<uint32_t> combo_counts_;  // Count per joint combination.
};

// Counts `cols` of `table` over the sample `rows` (every row when empty),
// coding each column afresh.
JointCounts CountTable(const Table& table, const std::vector<size_t>& cols,
                       const std::vector<uint32_t>& rows) {
  std::vector<CodedColumn> coded(cols.size());
  std::vector<const CodedColumn*> ptrs;
  for (size_t j = 0; j < cols.size(); ++j) {
    CodeColumn(table.column(cols[j]).data(), table.num_rows(), rows,
               &coded[j]);
    ptrs.push_back(&coded[j]);
  }
  return JointCounts(ptrs);
}

JointCounts CountTable(const Table& table, const std::vector<size_t>& cols,
                       const CorrelationOptions& options) {
  return CountTable(table, cols,
                    SampleRows(table.num_rows(), options.max_sample_rows));
}

double SupportFromCounts(const JointCounts& joint) {
  if (joint.combos() == 0) return 0.0;
  return static_cast<double>(joint.prefix_combos()) /
         static_cast<double>(joint.combos());
}

// cor(X, B) from the joint counts of X ∪ {B} (B last).
double ScoreFromCounts(const JointCounts& joint,
                       const CorrelationOptions& options) {
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

}  // namespace

double FdSupport(const Table& table, const std::vector<size_t>& x_cols,
                 size_t b_col, const CorrelationOptions& options) {
  std::vector<size_t> all = x_cols;
  all.push_back(b_col);
  return SupportFromCounts(CountTable(table, all, options));
}

double ChiSquared(const Table& table, const std::vector<size_t>& cols,
                  const CorrelationOptions& options) {
  FALCON_CHECK(cols.size() >= 2);
  JointCounts joint = CountTable(table, cols, options);
  if (joint.n() == 0) return 0.0;
  return joint.Chi2();
}

double CorrelationScore(const Table& table, const std::vector<size_t>& x_cols,
                        size_t b_col, const CorrelationOptions& options) {
  if (x_cols.empty()) return 0.0;
  std::vector<size_t> all = x_cols;
  all.push_back(b_col);
  return ScoreFromCounts(CountTable(table, all, options), options);
}

CordsProfiler::CordsProfiler(const Table* table, CorrelationOptions options)
    : table_(table), options_(options) {}

CordsProfiler::~CordsProfiler() = default;

const CodedColumn* CordsProfiler::SampleColumn(size_t col) {
  SnapshotColumn& snap = snapshot_[col];
  uint64_t writes = table_->column_writes(col);
  if (snap.cells == nullptr || snap.writes != writes) {
    if (snap.cells == nullptr) snap.cells = std::make_unique<CodedColumn>();
    CodeColumn(table_->column(col).data(), table_->num_rows(), sample_rows_,
               snap.cells.get());
    snap.writes = writes;
  }
  return snap.cells.get();
}

double CordsProfiler::Score(const std::vector<size_t>& x_cols,
                            size_t b_col) {
  std::vector<size_t> all = x_cols;
  all.push_back(b_col);
  if (sampled_num_rows_ != table_->num_rows()) {
    sampled_num_rows_ = table_->num_rows();
    sample_rows_ = SampleRows(sampled_num_rows_, options_.max_sample_rows);
    snapshot_.clear();
    snapshot_.resize(table_->num_cols());
  }
  if (sample_rows_.empty()) {
    return ScoreFromCounts(CountTable(*table_, all, sample_rows_), options_);
  }
  std::vector<const CodedColumn*> cols;
  for (size_t c : all) cols.push_back(SampleColumn(c));
  return ScoreFromCounts(JointCounts(cols), options_);
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
  if (distinct_ratio_.empty()) {
    distinct_ratio_.resize(table_->num_cols());
    for (size_t c = 0; c < table_->num_cols(); ++c) {
      distinct_ratio_[c] =
          table_->num_rows() == 0
              ? 0.0
              : static_cast<double>(table_->DistinctCount(c)) /
                    static_cast<double>(table_->num_rows());
    }
  }
  std::vector<std::pair<double, size_t>> scored;
  for (size_t c = 0; c < table_->num_cols(); ++c) {
    if (c == target) continue;
    if (distinct_ratio_[c] > options_.key_ratio_threshold) continue;
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
