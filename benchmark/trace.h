#ifndef QANAAT_BENCHMARK_TRACE_H_
#define QANAAT_BENCHMARK_TRACE_H_

// In-memory span recorder for the traced rep. Spans are kept in memory
// while the benchmark runs and written once at the end as Chrome
// trace-event JSON ("X" complete events), which Perfetto and
// chrome://tracing open directly. Nesting is by time containment; each
// span also names its parent explicitly in `args.parent`.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace qbench {

class SpanRecorder {
 public:
  SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open one; returns its id.
  size_t Begin(std::string name) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? kNoParent : open_.back();
    s.start_us = NowUs();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Closes the innermost open span, attaching `args` (a JSON object
  /// body without braces, e.g. "\"events\":12").
  void End(std::string args = "") {
    Span& s = spans_[open_.back()];
    s.dur_us = NowUs() - s.start_us;
    s.args = std::move(args);
    open_.pop_back();
  }

  size_t size() const { return spans_.size(); }

  /// Writes every closed span as a Chrome trace-event JSON document.
  bool WriteChromeJson(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu",
                   i == 0 ? "" : ",\n", s.name.c_str(), s.start_us,
                   s.dur_us, i);
      if (s.parent != kNoParent) std::fprintf(f, ",\"parent\":%zu", s.parent);
      if (!s.args.empty()) std::fprintf(f, ",%s", s.args.c_str());
      std::fputs("}}", f);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
  }

 private:
  static constexpr size_t kNoParent = static_cast<size_t>(-1);

  struct Span {
    std::string name;
    size_t parent = kNoParent;
    double start_us = 0;
    double dur_us = 0;
    std::string args;
  };

  double NowUs() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// Opens a span on construction and closes it on destruction when a
/// recorder is present; a no-op otherwise, so untraced code paths pay one
/// null check.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name) : rec_(rec) {
    if (rec_ != nullptr) rec_->Begin(std::move(name));
  }
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(std::move(args_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_args(std::string args) { args_ = std::move(args); }

 private:
  SpanRecorder* rec_;
  std::string args_;
};

}  // namespace qbench

#endif  // QANAAT_BENCHMARK_TRACE_H_
