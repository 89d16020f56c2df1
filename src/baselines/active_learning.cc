#include "baselines/active_learning.h"

#include <string_view>

namespace falcon {
namespace {

uint32_t HashFeature(std::string_view kind, std::string_view a,
                     std::string_view b, uint32_t dim) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::string_view s) {
    for (char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
    h ^= 0xff;
    h *= 1099511628211ull;
  };
  mix(kind);
  mix(a);
  mix(b);
  return static_cast<uint32_t>(h % dim);
}

}  // namespace

ActiveLearningSearch::ActiveLearningSearch(size_t bootstrap_sessions,
                                           uint32_t feature_dim,
                                           uint64_t seed)
    : svm_(feature_dim, /*lambda=*/1e-4, seed),
      bootstrap_sessions_(bootstrap_sessions),
      feature_dim_(feature_dim) {}

SparseVector ActiveLearningSearch::Featurize(const Lattice& lattice,
                                             NodeId n) const {
  SparseVector x;
  size_t k = lattice.num_attrs();
  size_t target = lattice.target_col();
  for (size_t i = 0; i < k; ++i) {
    bool in_node = (n >> i) & 1;
    // Indicator: 2 = updated attribute, 1 = in WHERE clause, 0 = absent.
    const char* ind = lattice.lattice_cols()[i] == target ? "2"
                      : in_node                           ? "1"
                                                          : "0";
    x.Add(HashFeature("ind", lattice.attr_name(i), ind, feature_dim_), 1.0f);
    if (in_node) {
      x.Add(HashFeature("val", lattice.attr_name(i),
                        lattice.binding_text(i), feature_dim_),
            1.0f);
    }
  }
  // Original (pre-update) and updated values of the repaired cell.
  for (size_t i = 0; i < k; ++i) {
    if (lattice.lattice_cols()[i] == target) {
      x.Add(HashFeature("orig", lattice.binding_text(i), "", feature_dim_),
            1.0f);
      break;
    }
  }
  x.Add(HashFeature("upd", lattice.repair().new_value, "", feature_dim_),
        1.0f);
  return x;
}

void ActiveLearningSearch::CollectLabels(Lattice& lattice) {
  // Harvest labels implied by this episode (user answers plus inference),
  // capped per class to keep the set balanced.
  constexpr size_t kPerClassCap = 40;
  size_t pos = 0;
  size_t neg = 0;
  for (NodeId m = 0; m < lattice.num_nodes(); ++m) {
    Validity v = lattice.validity(m);
    if (v == Validity::kUnknown) continue;
    if (v == Validity::kValid) {
      if (pos >= kPerClassCap) continue;
      ++pos;
      train_y_.push_back(+1);
    } else {
      if (neg >= kPerClassCap) continue;
      ++neg;
      train_y_.push_back(-1);
    }
    train_x_.push_back(Featurize(lattice, m));
  }
  // Bound memory: keep the most recent window of examples.
  constexpr size_t kMaxExamples = 8000;
  if (train_x_.size() > kMaxExamples) {
    size_t drop = train_x_.size() - kMaxExamples;
    train_x_.erase(train_x_.begin(),
                   train_x_.begin() + static_cast<ptrdiff_t>(drop));
    train_y_.erase(train_y_.begin(),
                   train_y_.begin() + static_cast<ptrdiff_t>(drop));
  }
}

void ActiveLearningSearch::Run(LatticeSearchContext& ctx) {
  Lattice& lattice = ctx.lattice();
  if (session_index_ < bootstrap_sessions_ || !svm_.trained()) {
    // Bootstrap phase: explore with Ducc and learn from the labels.
    ducc_.Run(ctx);
    CollectLabels(lattice);
    if (session_index_ + 1 >= bootstrap_sessions_ && !train_x_.empty()) {
      svm_.Train(train_x_, train_y_, /*epochs=*/8);
    }
    return;
  }

  while (ctx.BudgetLeft()) {
    // Full-lattice candidate scan; the counts are lookups.
    NodeId best = 0;
    double best_p = -1.0;
    for (NodeId m = 0; m < lattice.num_nodes(); ++m) {
      if (lattice.validity(m) != Validity::kUnknown) continue;
      if (lattice.affected_count(m) == 0) continue;
      double p = svm_.Probability(Featurize(lattice, m));
      if (p > best_p) {
        best_p = p;
        best = m;
      }
    }
    if (best_p < 0.0) break;  // Nothing left to ask.
    ctx.Ask(best);
  }
  CollectLabels(lattice);
  svm_.Train(train_x_, train_y_, /*epochs=*/4);
}

}  // namespace falcon
