// The benchmark's own span recorder. Spans wrap the benchmark's calls into
// each layer's public functions (the program's APQ_TRACE stays off); they
// are kept in memory and written out when the run ends. A layer's self time
// is its spans' duration minus the part covered by their child spans.
#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;   // "<layer>.<call>", e.g. "exec.execute_whole"
  std::string query;  // the query or plan the span belongs to ("" = none)
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;    // index of the enclosing span, -1 for a root
};

/// Thread-safe; a disabled recorder records nothing. Nesting (the parent
/// link) is tracked per thread.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Opens a span under the calling thread's innermost open span.
  int Begin(const std::string& name, const std::string& query);
  void End(int id);

  /// {"spans":[{"name","query","start_ms","end_ms","parent"}...]}, times
  /// relative to the earliest span start.
  std::string Json() const;

  /// Per span name: total duration and total self time, in ms.
  struct Totals {
    double total_ms = 0;
    double self_ms = 0;
    uint64_t count = 0;
  };
  std::map<std::string, Totals> Summarize() const;

 private:
  const bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the recorder is disabled or null.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const std::string& name,
            const std::string& query = "")
      : rec_(rec != nullptr && rec->enabled() ? rec : nullptr),
        id_(rec_ != nullptr ? rec_->Begin(name, query) : -1) {}
  ~SpanScope() {
    if (rec_ != nullptr) rec_->End(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
