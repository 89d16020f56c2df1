#include "trace.h"

#include <cstdio>

namespace perfbench {
namespace {

struct ThreadState {
  uint64_t trace_id = 0;
  std::vector<int64_t> stack;  ///< Open span indexes, innermost last.
};

ThreadState& Local() {
  thread_local ThreadState state;
  return state;
}

}  // namespace

Tracer& Tracer::Global() {
  static Tracer tracer;
  return tracer;
}

void Tracer::SetTrace(uint64_t id) { Local().trace_id = id; }

int64_t Tracer::Begin(const char* name) {
  ThreadState& local = Local();
  SpanRecord rec;
  rec.name = name;
  rec.trace_id = local.trace_id;
  rec.parent = local.stack.empty() ? -1 : local.stack.back();
  rec.start_ms = NowMs();
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(rec);
  }
  local.stack.push_back(index);
  return index;
}

void Tracer::End(int64_t index) {
  double end = NowMs();
  ThreadState& local = Local();
  if (!local.stack.empty() && local.stack.back() == index) {
    local.stack.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ms = end;
}

int64_t Tracer::BeginAt(const char* name, uint64_t trace_id, int64_t parent,
                        double start_ms) {
  SpanRecord rec;
  rec.name = name;
  rec.trace_id = trace_id;
  rec.parent = parent;
  rec.start_ms = start_ms;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(rec);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::EndAt(int64_t index, double end_ms) {
  if (index < 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ms = end_ms;
}

std::map<std::string, SpanTotals> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) {
      child_ms[static_cast<size_t>(s.parent)] += s.end_ms - s.start_ms;
    }
  }
  std::map<std::string, SpanTotals> totals;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    SpanTotals& t = totals[s.name];
    double dur = s.end_ms - s.start_ms;
    ++t.count;
    t.total_ms += dur;
    t.self_ms += dur - child_ms[i];
  }
  return totals;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"trace\":%llu,\"parent\":%lld,"
                 "\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                 i, s.name, static_cast<unsigned long long>(s.trace_id),
                 static_cast<long long>(s.parent), s.start_ms, s.end_ms);
  }
  return std::fclose(f) == 0;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

}  // namespace perfbench
