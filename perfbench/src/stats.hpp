// Small statistics helpers for the benchmark: nearest-rank percentiles,
// the "highest percentile with at least k samples beyond it" rule used to
// pick a reportable tail, and the process's peak resident set.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in [0, 100]) of `samples`; 0 when empty.
double percentile(std::vector<double> samples, double p);

double median(std::vector<double> samples);

/// Samples that lie strictly beyond the nearest-rank p-th percentile of n
/// samples: n - ceil(p/100 * n).
std::size_t samples_beyond(std::size_t n, double p);

/// The highest of the candidate percentiles {50, 75, 90, 95, 99, 99.9}
/// that has at least `min_beyond` of `n` samples beyond it, or nullopt when
/// not even the median does (fewer than 2 * min_beyond samples).
std::optional<double> tail_percentile(std::size_t n, std::size_t min_beyond = 10);

/// Peak resident set size of this process so far, in MB (2^20 bytes).
double peak_rss_mb();

}  // namespace perfbench
