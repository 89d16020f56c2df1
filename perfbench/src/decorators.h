// Bench-side decorators of FALCON's two public virtual interfaces on the
// analyst loop: SearchAlgorithm (core.search) and UserOracle (core.oracle,
// the simulated user — harness cost, not system cost). Each forwards to
// the wrapped object unchanged and times the call from outside, so a traced
// session asks the same questions and reaches the same table as an
// untraced one.
#ifndef PERFBENCH_DECORATORS_H_
#define PERFBENCH_DECORATORS_H_

#include <memory>
#include <string>
#include <utility>

#include "core/oracle.h"
#include "core/search.h"
#include "trace.h"

namespace perfbench {

class TimedSearch : public falcon::SearchAlgorithm {
 public:
  explicit TimedSearch(std::unique_ptr<falcon::SearchAlgorithm> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  void OnSessionStart(size_t session_index) override {
    inner_->OnSessionStart(session_index);
  }
  void Run(falcon::LatticeSearchContext& ctx) override {
    ScopedSpan span("core.search.run");
    double t0 = NowMs();
    inner_->Run(ctx);
    run_ms_ += NowMs() - t0;
    ++runs_;
    questions_ += ctx.answers_used();
  }

  double run_ms() const { return run_ms_; }
  size_t runs() const { return runs_; }
  /// Billed questions asked inside Run.
  size_t questions() const { return questions_; }

 private:
  std::unique_ptr<falcon::SearchAlgorithm> inner_;
  double run_ms_ = 0.0;
  size_t runs_ = 0;
  size_t questions_ = 0;
};

/// Wraps the simulated user a session would build for itself:
/// UserOracle(clean, mistake_prob = 0, session seed + 1), which the
/// session documents as bit-identical to its internal oracle.
class TimedOracle : public falcon::UserOracle {
 public:
  TimedOracle(const falcon::Table* clean, uint64_t session_seed)
      : falcon::UserOracle(clean), inner_(clean, 0.0, session_seed + 1) {}

  Answered AnswerEx(const falcon::Lattice& lattice,
                    falcon::NodeId n) override {
    ScopedSpan span("core.oracle.answer");
    double t0 = NowMs();
    Answered a = inner_.AnswerEx(lattice, n);
    answer_ms_ += NowMs() - t0;
    ++answers_;
    return a;
  }

  double answer_ms() const { return answer_ms_; }
  size_t answers() const { return answers_; }

 private:
  falcon::UserOracle inner_;
  double answer_ms_ = 0.0;
  size_t answers_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_H_
