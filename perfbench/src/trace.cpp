#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "obs/json.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
// Innermost open span of the calling thread (an index into the tracer
// that opened it). One tracer is active per thread at a time.
thread_local int t_open_span = -1;
}  // namespace

Tracer::Scope::Scope(Tracer* tracer, std::string name, std::uint64_t op)
    : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  saved_parent_ = t_open_span;
  index_ = tracer_->open(std::move(name), op, saved_parent_);
  t_open_span = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->close(index_);
  t_open_span = saved_parent_;
}

int Tracer::open(std::string name, std::uint64_t op, int parent) {
  const std::int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{std::move(name), start, 0, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::close(int index) {
  const std::int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = end;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi) {
  for (auto& [a, b] : iv) {
    a = std::clamp(a, lo, hi);
    b = std::clamp(b, lo, hi);
  }
  std::sort(iv.begin(), iv.end());
  std::int64_t total = 0;
  std::int64_t reach = lo;
  for (const auto& [a, b] : iv) {
    const std::int64_t from = std::max(a, reach);
    if (b > from) {
      total += b - from;
      reach = b;
    }
  }
  return total;
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                            s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    self[i] = (s.end_ns - s.start_ns) -
              covered_ns(std::move(kids[i]), s.start_ns, s.end_ns);
  }
  return self;
}

SpanTotals::SpanTotals(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Entry& e = by_name_[spans[i].name];
    ++e.count;
    e.total_s += static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
    e.self_s += static_cast<double>(self[i]) * 1e-9;
  }
}

const SpanTotals::Entry* SpanTotals::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : &it->second;
}

std::uint64_t SpanTotals::count(const std::string& name) const {
  const Entry* e = find(name);
  return e == nullptr ? 0 : e->count;
}

double SpanTotals::total_s(const std::string& name) const {
  const Entry* e = find(name);
  return e == nullptr ? 0.0 : e->total_s;
}

double SpanTotals::self_s(const std::string& name) const {
  const Entry* e = find(name);
  return e == nullptr ? 0.0 : e->self_s;
}

bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path) {
  std::int64_t t0 = 0;
  if (!spans.empty()) {
    t0 = std::min_element(spans.begin(), spans.end(),
                          [](const Span& a, const Span& b) {
                            return a.start_ns < b.start_ns;
                          })
             ->start_ns;
  }
  scalfrag::obs::JsonWriter w;
  w.begin_array();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    w.begin_object();
    w.kv("name", s.name);
    w.kv("ph", "X");
    w.kv("pid", 1);
    w.kv("tid", static_cast<std::uint64_t>(s.op));
    w.kv("ts", static_cast<double>(s.start_ns - t0) * 1e-3);
    w.kv("dur", static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    w.key("args").begin_object();
    w.kv("id", static_cast<std::uint64_t>(i));
    w.kv("parent", s.parent);
    w.kv("op", static_cast<std::uint64_t>(s.op));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  std::ofstream out(path);
  out << w.str() << '\n';
  return static_cast<bool>(out);
}

}  // namespace perfbench
