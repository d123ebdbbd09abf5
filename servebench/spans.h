// In-memory span log for the benchmark's traced run. Spans are recorded
// from the benchmark's own code around each call into a layer of the
// program (name, start, end, parent, and a request id shared by the
// spans of one inference), kept in memory, and written out once at exit.
// With tracing off every call is a branch on a bool.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace servebench {

struct Span {
  std::string name;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t req = 0;     // spans of one inference share this id
  double start_s = 0;   // seconds since the log was created
  double end_s = 0;
  double dur() const { return end_s - start_s; }
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on), t0_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool on() const { return on_; }

  /// Opens a span; returns its id (0 when tracing is off).
  uint64_t begin(std::string name, uint64_t parent = 0, uint64_t req = 0) {
    if (!on_) return 0;
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.name = std::move(name);
    s.id = spans_.size() + 1;
    s.parent = parent;
    s.req = req;
    s.start_s = t;
    s.end_s = t;
    spans_.push_back(std::move(s));
    return spans_.back().id;
  }

  void end(uint64_t id) {
    if (id == 0) return;
    const double t = now();
    std::lock_guard<std::mutex> lock(mu_);
    spans_.at(id - 1).end_s = t;
  }

  /// A fresh request id for the spans of one inference (0 when tracing
  /// is off).
  uint64_t next_req() {
    if (!on_) return 0;
    std::lock_guard<std::mutex> lock(mu_);
    return ++last_req_;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Self time of every span: its duration minus the part of its
  /// interval that its child spans cover (children may overlap, e.g.
  /// the two parties of one protocol step).
  static std::vector<double> self_times(const std::vector<Span>& spans);

  /// Writes the spans as a JSON array (one object per span, with its
  /// self time) to `path`. Returns false when the file cannot be opened.
  static bool write_json(const std::vector<Span>& spans,
                         const std::string& path);

 private:
  using Clock = std::chrono::steady_clock;
  double now() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count();
  }

  const bool on_;
  const Clock::time_point t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; span id = index + 1
  uint64_t last_req_ = 0;    // guarded by mu_
};

/// Closes its span when it goes out of scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::string name, uint64_t parent = 0,
             uint64_t req = 0)
      : log_(log), id_(log.begin(std::move(name), parent, req)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  uint64_t id_;
};

}  // namespace servebench
