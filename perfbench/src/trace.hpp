// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// layer's public function: name, start, end, parent span and request id.
// They stay in memory while the workload runs and are written as Chrome
// trace-event JSON (chrome://tracing, Perfetto) at the end, together
// with a flat per-name table of total and self time. A disabled tracer
// records nothing; its only cost is one branch per span.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  /// Parent of a span opened with begin(): the innermost span still open
  /// on the calling thread.
  static constexpr std::int64_t kInherit = -2;
  static constexpr std::int64_t kNone = -1;

  explicit Tracer(bool enabled);

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span on the calling thread; returns its id (kNone when
  /// disabled). Spans opened with begin() must close in LIFO order per
  /// thread — ScopedSpan guarantees that.
  std::int64_t begin(std::string name, std::uint64_t request,
                     std::int64_t parent = kInherit);
  void end(std::int64_t id);

  /// Records a span timed elsewhere (for example from a due time on one
  /// thread to a completion seen on another).
  void record(std::string name, Clock::time_point start, Clock::time_point end,
              std::uint64_t request, std::int64_t parent);

  /// Durations in ms of every closed span called `name`, in open order.
  [[nodiscard]] std::vector<double> durations_ms(const std::string& name) const;

  struct Row {
    std::string name;
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus the time children cover
  };
  /// One row per span name, ordered by self time, largest first.
  [[nodiscard]] std::vector<Row> self_time_table() const;

  /// Chrome trace-event JSON; `host` (a JSON object) goes in otherData.
  [[nodiscard]] std::string chrome_json(const std::string& host) const;

  [[nodiscard]] std::size_t span_count() const;

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    std::int64_t parent = kNone;
    std::int64_t saved_current = kNone;  ///< thread's open span before it
    std::uint64_t request = 0;
    std::uint32_t thread = 0;
    bool closed = false;
  };

  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name, std::uint64_t request = 0)
      : tracer_(tracer), id_(tracer.begin(std::move(name), request)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

}  // namespace perfbench
