#include "stats.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// Nearest rank ceil(p/100 * n), computed so that exact products (99.9% of
// 10000) do not round up past the true rank.
std::size_t nearest_rank(std::size_t n, double p) {
  return static_cast<std::size_t>(std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
}

}  // namespace

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t rank = std::clamp<std::size_t>(nearest_rank(samples.size(), p), 1,
                                                   samples.size());
  return samples[rank - 1];
}

double median(std::vector<double> samples) { return percentile(std::move(samples), 50.0); }

std::size_t samples_beyond(std::size_t n, double p) {
  return n - std::min(nearest_rank(n, p), n);
}

std::optional<double> tail_percentile(std::size_t n, std::size_t min_beyond) {
  std::optional<double> best;
  for (double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (samples_beyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace perfbench
