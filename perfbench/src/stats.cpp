#include "stats.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> xs) {
  if (xs.empty()) throw std::invalid_argument("median of no samples");
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  if (!(q > 0.0 && q <= 1.0)) {
    throw std::invalid_argument("percentile outside (0, 1]");
  }
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(xs.begin(), xs.end());
  return xs[nearest_rank(xs.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - nearest_rank(n, q);
}

std::optional<double> tail_percentile(const std::vector<double>& xs,
                                      double q, std::size_t min_beyond) {
  if (xs.empty() || samples_beyond(xs.size(), q) < min_beyond) {
    return std::nullopt;
  }
  return percentile(xs, q);
}

namespace {

bool alnum(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0;
}

}  // namespace

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64 || !alnum(name[0])) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return alnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

}  // namespace perfbench
