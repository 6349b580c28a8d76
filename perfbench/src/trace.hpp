#pragma once
// In-memory span recorder for the traced run. The benchmark wraps each
// call it makes into a layer's public function in a span; nothing
// inside the library is instrumented. Spans stay in memory until the
// run ends, when the caller writes them out (write_chrome_trace).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  /// Index of the enclosing span in the tracer's list; -1 for a root.
  int parent = -1;
  /// The op (decomposition, out-of-core pass, job) the span belongs to.
  std::uint64_t op = 0;
};

/// Steady-clock nanoseconds (the tracer's time base).
std::int64_t now_ns();

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

class Tracer {
 public:
  /// RAII span. A null tracer records nothing, so call sites read the
  /// same in traced and untraced code. The parent is the innermost span
  /// still open on the constructing thread.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
    int saved_parent_ = -1;
  };

  /// Copy of every span recorded so far (open spans have end_ns == 0).
  std::vector<Span> spans() const;

 private:
  int open(std::string name, std::uint64_t op, int parent);
  void close(int index);

  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Length of the union of the intervals [start, end), each clipped to
/// [lo, hi). Overlapping intervals (children running concurrently)
/// count once.
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>> iv,
                        std::int64_t lo, std::int64_t hi);

/// Self time of every span: its duration minus the part of it that its
/// direct children cover.
std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans);

/// Per-name count, summed duration and summed self time of a span
/// list; a name with no span reads 0.
class SpanTotals {
 public:
  explicit SpanTotals(const std::vector<Span>& spans);

  std::uint64_t count(const std::string& name) const;
  double total_s(const std::string& name) const;
  double self_s(const std::string& name) const;

 private:
  struct Entry {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  const Entry* find(const std::string& name) const;

  std::map<std::string, Entry> by_name_;
};

/// Write the spans as a Chrome trace-event JSON array (one "X" event per
/// span, microseconds from the first span's start). Returns false when
/// the file cannot be written.
bool write_chrome_trace(const std::vector<Span>& spans,
                        const std::string& path);

}  // namespace perfbench
