// CORDS-style correlation profiling (Ilyas et al., SIGMOD 2004), modified as
// in the FALCON paper (Section 4.2.2) to score the correlation between a SET
// of attributes X and a single attribute B:
//
//   cor(X, B) = chi^2 / (n * q)                            (Eq. 1)
//   chi^2     = sum over joint value combos of X ∪ {B}
//               of (observed - expected)^2 / expected      (Eq. 2)
//   expected  = n * prod_j (marginal frequency of v_j / n) (Eq. 3)
//   q         = prod_i m_i - sum_i m_i + k - 1             (Eq. 4)
//
// where k = |X ∪ {B}| and m_i = #distinct values of the i-th attribute.
// Soft functional dependencies (support above a threshold) score 1.0.
// Rows with NULL in any involved attribute are ignored.
#ifndef FALCON_PROFILING_CORRELATION_H_
#define FALCON_PROFILING_CORRELATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "relational/table.h"

namespace falcon {

/// Tunables for correlation profiling.
struct CorrelationOptions {
  /// sup(X, B) at or above this is declared a soft FD (score 1.0).
  double soft_fd_threshold = 0.8;
  /// If non-zero and the table is larger, profile a deterministic sample of
  /// this many rows (CORDS' sampling step).
  size_t max_sample_rows = 0;
  /// TopKAttributes skips near-key columns (distinct/rows above this):
  /// CORDS prunes key columns up front, and a key trivially soft-FDs every
  /// attribute without ever generalizing a repair.
  double key_ratio_threshold = 0.9;
};

/// Soft-FD support of X → B: |distinct(X)| / |distinct(X ∪ {B})| over
/// non-null rows. Equals 1.0 iff X functionally determines B.
double FdSupport(const Table& table, const std::vector<size_t>& x_cols,
                 size_t b_col, const CorrelationOptions& options = {});

/// The paper's cor(X, B) in [0, 1]; 1.0 for soft FDs.
double CorrelationScore(const Table& table, const std::vector<size_t>& x_cols,
                        size_t b_col, const CorrelationOptions& options = {});

/// Chi-squared statistic over the joint contingency table of `cols`
/// (exposed for tests; reproduces the paper's Example 7 value 12.67 on the
/// drug dataset).
double ChiSquared(const Table& table, const std::vector<size_t>& cols,
                  const CorrelationOptions& options = {});

// The profiler's sample state (see correlation.cc).
struct CordsSample;

/// Caching profiler used by lattice construction (partial materialization)
/// and by the CoDive search strategy.
///
/// Scores are cached per (X, B) and never recomputed, as the paper profiles
/// once per session. A cache miss counts joint values over the CORDS sample
/// (the same evenly strided rows the free functions visit) and scores the
/// table as it is at that moment, bit for bit what `CorrelationScore`
/// returns on it. The profiler keeps:
///  - the sample: every column's sampled cells as dense codes, with the
///    code dictionary. The first miss draws the sample and codes each
///    column in full. Later misses patch it: for a column whose
///    `Table::column_writes` moved, they re-read only the sampled rows in
///    64-row blocks whose `Table::block_writes` counter moved, and give a
///    changed cell the code of its new value (a new value takes the next
///    code). A column's code version moves only when a sampled cell
///    actually changed. An append changes the strided sample, so the next
///    miss draws it again;
///  - the grouped sample: the distinct sampled rows over the non-key
///    columns (sampled distinct ratio at most `key_ratio_threshold`), each
///    with its row count, in first-seen row order. On Synth these are
///    ~1.4k groups for 5,000 rows. A miss whose columns are all grouped
///    counts the groups, weighted by their counts, instead of the rows; a
///    group with a NULL in a column the miss asks for is skipped, as the
///    row path skips its rows. The groups are rebuilt only after a grouped
///    column's code version moved. A miss that involves a key-like column
///    counts the sampled rows (the row path).
/// Combinations come out in first-seen row order on both paths and codes
/// only name values, so every χ² sum, soft-FD support and score is the one
/// the free functions compute. When the sample is the whole table
/// (`max_sample_rows == 0` or `num_rows() <= max_sample_rows`) a miss reads
/// `Table::column` directly and the profiler keeps no copy.
class CordsProfiler {
 public:
  explicit CordsProfiler(const Table* table, CorrelationOptions options = {});
  ~CordsProfiler();

  /// cor({a}, b): pairwise correlation, cached.
  double PairCorrelation(size_t a_col, size_t b_col);

  /// cor(X, b) for an attribute set, cached.
  double SetCorrelation(const std::vector<size_t>& x_cols, size_t b_col);

  /// The k attributes most correlated with `target` (by pairwise score,
  /// descending; `target` itself excluded). Ties break by column order.
  /// Key-like columns (distinct ratio over the whole table above
  /// key_ratio_threshold, decided on the first call) are never picked.
  std::vector<size_t> TopKAttributes(size_t target, size_t k);

  const CorrelationOptions& options() const { return options_; }

  /// Times a column of the sample was coded in full: every column each
  /// time a sample is drawn (the first miss, and the first after an
  /// append). Patches under cell writes do not count.
  size_t full_codes() const { return full_codes_; }

 private:
  // Scores cor(x_cols, b_col) on the current table (a cache miss).
  double Score(const std::vector<size_t>& x_cols, size_t b_col);

  const Table* table_;
  CorrelationOptions options_;
  std::vector<bool> key_like_;  // Lazily computed key detector.
  std::map<std::pair<size_t, size_t>, double> pair_cache_;
  std::map<std::pair<std::vector<size_t>, size_t>, double> set_cache_;
  std::unique_ptr<CordsSample> sample_;  // Sample state and scratch.
  size_t full_codes_ = 0;
};

}  // namespace falcon

#endif  // FALCON_PROFILING_CORRELATION_H_
