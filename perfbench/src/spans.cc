#include "spans.h"

#include <algorithm>
#include <sstream>

#include "common.h"

namespace perfbench {

namespace {

// Innermost open span of this thread, per recorder (one recorder per run).
thread_local std::vector<int> tls_open;

}  // namespace

int SpanRecorder::Begin(const std::string& name, const std::string& query) {
  Span s;
  s.name = name;
  s.query = query;
  s.parent = tls_open.empty() ? -1 : tls_open.back();
  s.start_ms = NowMs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  tls_open.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  const double now = NowMs();
  if (!tls_open.empty() && tls_open.back() == id) tls_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ms = now;
}

std::string SpanRecorder::Json() const {
  std::lock_guard<std::mutex> lock(mu_);
  double t0 = spans_.empty() ? 0 : spans_.front().start_ms;
  for (const Span& s : spans_) t0 = std::min(t0, s.start_ms);
  std::ostringstream os;
  os << "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\": \"" << JsonEscape(s.name)
       << "\", \"query\": \"" << JsonEscape(s.query)
       << "\", \"start_ms\": " << JsonNumber(s.start_ms - t0)
       << ", \"end_ms\": " << JsonNumber(s.end_ms - t0)
       << ", \"parent\": " << s.parent << "}";
  }
  os << "\n]}\n";
  return os.str();
}

std::map<std::string, SpanRecorder::Totals> SpanRecorder::Summarize() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children intervals per parent, merged so overlapping children (served
  // requests in flight together) are not subtracted twice.
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<size_t>(s.parent)].push_back({s.start_ms, s.end_ms});
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_b = 0, cur_e = -1;
    for (const auto& [b0, e0] : iv) {
      const double b = std::max(b0, s.start_ms);
      const double e = std::min(e0, s.end_ms);
      if (e <= b) continue;
      if (b > cur_e) {
        if (cur_e > cur_b) covered += cur_e - cur_b;
        cur_b = b;
        cur_e = e;
      } else {
        cur_e = std::max(cur_e, e);
      }
    }
    if (cur_e > cur_b) covered += cur_e - cur_b;
    Totals& t = out[s.name];
    const double dur = s.end_ms - s.start_ms;
    t.total_ms += dur;
    t.self_ms += dur - covered;
    ++t.count;
  }
  return out;
}

}  // namespace perfbench
