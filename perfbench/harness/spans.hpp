#pragma once

/// \file spans.hpp
/// In-memory span recorder for the traced benchmark run.
///
/// A span is one timed call into a layer of the system: its name, start,
/// end and the span that was open when it began (its parent). Spans stay
/// in memory while the workload runs and are written out once, at exit, so
/// the recorder adds no I/O to the measured interval. A disabled recorder
/// (the untraced runs that produce the end-to-end numbers) records nothing
/// and costs one branch per scope.

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/profile.hpp"

namespace perfbench {

class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    int parent = -1;  ///< index into the log, -1 for a root span
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  /// RAII guard: opens a span on construction, closes it on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, std::string_view name) : log_(log), id_(log.open(name)) {}
    ~Scope() { log_.close(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    int id_;
  };

  int open(std::string_view name) {
    if (!enabled_) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::string(name), ddp::obs::wall_ns(), 0, parent});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = ddp::obs::wall_ns();
    stack_.pop_back();
  }

  /// One JSON object per line: {"id","name","start_ns","end_ns","parent"}.
  /// Times are relative to the first span's start.
  void write_jsonl(std::ostream& out) const {
    const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << (s.start_ns - t0)
          << ",\"end_ns\":" << (s.end_ns - t0) << ",\"parent\":" << s.parent
          << "}\n";
    }
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

}  // namespace perfbench
