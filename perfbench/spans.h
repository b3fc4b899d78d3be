// Benchmark-side span recorder: spans around each call into the
// library, kept in memory and written once at the end as Chrome
// trace_event JSON (open in chrome://tracing or ui.perfetto.dev).
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a root
  };

  /// Opens a span whose parent is the innermost open span.
  void open(std::string name) {
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), now_ns(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
  }

  /// Closes the innermost open span.
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as a complete ("X") event; `args` carry the
  /// span id and its parent's id. Returns false on I/O failure.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << " {\"name\": \"" << s.name << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
         << static_cast<double>(s.start_ns) / 1e3
         << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) / 1e3
         << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent << "}}"
         << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    return os.good();
  }

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Opens a span for the enclosing scope; a null recorder records
/// nothing, so untraced runs take the same code path.
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, const char* name) : rec_(rec) {
    if (rec_ != nullptr) rec_->open(name);
  }
  ~SpanScope() {
    if (rec_ != nullptr) rec_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
};

}  // namespace perfbench
