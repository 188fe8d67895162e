#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <sstream>

namespace perfbench {

namespace {

thread_local std::int64_t tls_current = Tracer::kNone;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::string escaped(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t Tracer::begin(std::string name, std::uint64_t request,
                           std::int64_t parent) {
  if (!enabled_) return kNone;
  Span s;
  s.name = std::move(name);
  s.parent = parent == kInherit ? tls_current : parent;
  s.saved_current = tls_current;
  s.request = request;
  s.thread = thread_index();
  std::int64_t id = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    id = static_cast<std::int64_t>(spans_.size());
    spans_.push_back(std::move(s));
    spans_.back().start = Clock::now();
  }
  tls_current = id;
  return id;
}

void Tracer::end(std::int64_t id) {
  if (id < 0) return;
  const Clock::time_point now = Clock::now();
  std::lock_guard<std::mutex> lk(mu_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = now;
  s.closed = true;
  tls_current = s.saved_current;
}

void Tracer::record(std::string name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t request,
                    std::int64_t parent) {
  if (!enabled_) return;
  Span s;
  s.name = std::move(name);
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.request = request;
  s.thread = thread_index();
  s.closed = true;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(std::move(s));
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.closed && s.name == name) out.push_back(ms_between(s.start, s.end));
  }
  return out;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

std::vector<Tracer::Row> Tracer::self_time_table() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Children of each span, as [start, end] intervals clipped to it.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_) {
    if (s.closed && s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                 s.end);
    }
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!s.closed) continue;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    Clock::time_point cursor = s.start;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, s.end);
      if (b > a) {
        covered += ms_between(a, b);
        cursor = b;
      }
    }
    Row& row = rows[s.name];
    row.name = s.name;
    ++row.count;
    const double total = ms_between(s.start, s.end);
    row.total_ms += total;
    row.self_ms += total - covered;
  }
  std::vector<Row> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(),
            [](const Row& a, const Row& b) { return a.self_ms > b.self_ms; });
  return out;
}

std::string Tracer::chrome_json(const std::string& host) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ostringstream os;
  os.precision(15);
  os << "{\"displayTimeUnit\": \"ms\", \"otherData\": {\"host\": " << host
     << "}, \"traceEvents\": [\n";
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!s.closed) continue;
    if (!first) os << ",\n";
    first = false;
    os << "{\"name\": \"" << escaped(s.name)
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
       << ", \"ts\": " << us_between(origin_, s.start)
       << ", \"dur\": " << us_between(s.start, s.end)
       << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
       << ", \"request\": " << s.request << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

}  // namespace perfbench
