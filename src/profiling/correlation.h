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

// A column's sampled cells as dense value codes (see correlation.cc).
struct CodedColumn;

/// Caching profiler used by lattice construction (partial materialization)
/// and by the CoDive search strategy.
///
/// Scores are cached per (X, B) and never recomputed, as the paper profiles
/// once per session. A cache miss counts joint values over the CORDS sample,
/// which the profiler keeps as a column-major snapshot: the sampled row ids
/// (the same evenly strided rows the free functions visit) and, for each
/// column a miss has touched, a copy of that column's sampled cells as
/// dense value codes. A column's copy is refreshed when
/// `Table::column_writes` shows the column was written after the copy was
/// taken, and every copy is dropped and the rows are re-sampled when
/// `num_rows()` changes. So a miss always scores the table as it is now,
/// bit for bit what `CorrelationScore` returns on it, while reading only
/// cache-resident cells. When the sample is the whole table
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
  std::vector<size_t> TopKAttributes(size_t target, size_t k);

  const CorrelationOptions& options() const { return options_; }

 private:
  // One column's sampled cells, kept when the sample is a strict subset.
  struct SnapshotColumn {
    std::unique_ptr<CodedColumn> cells;
    uint64_t writes = 0;  // Table::column_writes when `cells` was taken.
  };

  // Scores cor(x_cols, b_col) on the current table (a cache miss).
  double Score(const std::vector<size_t>& x_cols, size_t b_col);
  // The sampled cells of `col`, refreshed if the column changed since.
  const CodedColumn* SampleColumn(size_t col);

  const Table* table_;
  CorrelationOptions options_;
  std::vector<double> distinct_ratio_;  // Lazily computed key detector.
  std::map<std::pair<size_t, size_t>, double> pair_cache_;
  std::map<std::pair<std::vector<size_t>, size_t>, double> set_cache_;

  // The sample snapshot. `sampled_num_rows_` is the num_rows() it was drawn
  // from (SIZE_MAX before the first miss); `sample_rows_` is empty when the
  // sample is the whole table.
  size_t sampled_num_rows_ = SIZE_MAX;
  std::vector<uint32_t> sample_rows_;
  std::vector<SnapshotColumn> snapshot_;
};

}  // namespace falcon

#endif  // FALCON_PROFILING_CORRELATION_H_
