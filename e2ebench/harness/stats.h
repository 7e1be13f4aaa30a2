// Order statistics for latency samples, kept in bounded memory.

#ifndef E2EBENCH_HARNESS_STATS_H_
#define E2EBENCH_HARNESS_STATS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace e2ebench {

/// Samples that must lie beyond a percentile before it is reported.
inline constexpr uint64_t kMinTailSamples = 10;

/// Requests per latency batch; its highest supported percentile, p99,
/// has kMinTailSamples samples beyond it.
inline constexpr size_t kBatchRequests = 1000;

/// The tail quantile the benchmark gates on. A batch has 100 samples
/// beyond its p90; its p99 rests on 10, and on a shared host moves more
/// with how often the host interrupts a request than with the program,
/// so it is printed but not gated.
inline constexpr double kGatedTail = 0.9;

/// Nearest-rank quantile (q in [0, 1]) of an ascending `sorted` sample:
/// the value at rank ceil(q * n). Returns 0 for an empty sample.
double Quantile(const std::vector<double>& sorted, double q);

/// Median of an unsorted sample (copies and sorts it).
double Median(std::vector<double> values);

struct TailPercentile {
  /// In percent: 50, 90, 99, 99.9, ... or 0 when even the median has
  /// fewer than kMinTailSamples samples beyond it.
  double percentile = 0;
  /// Samples strictly beyond the nearest-rank percentile.
  uint64_t beyond = 0;
};

/// The highest percentile on the ladder 50, 90, 99, 99.9, ... that a
/// sample of `n` values supports: at least kMinTailSamples samples lie
/// beyond it.
TailPercentile HighestSupportedPercentile(uint64_t n);

/// One closed-loop client's requests, in memory that does not grow with
/// the request count, so the benchmark's own bookkeeping stays out of the
/// resident set it reports: requests and client time per window, and the
/// median, kGatedTail quantile and highest supported percentile of each
/// batch of kBatchRequests consecutive requests.
class ClientRecord {
 public:
  ClientRecord(int64_t window_ns, size_t windows);

  /// A request that started `start_ns` after the measured window opened
  /// and took `active_ns` of the client's time, preparation excluded.
  /// Requests past the last window count toward batches only.
  void Add(int64_t start_ns, int64_t latency_ns, int64_t active_ns);

  uint64_t count() const { return count_; }
  const std::vector<uint64_t>& requests() const { return requests_; }
  const std::vector<int64_t>& active_ns() const { return active_ns_; }
  const std::vector<double>& batch_p50_ms() const { return p50_ms_; }
  const std::vector<double>& batch_p90_ms() const { return p90_ms_; }
  const std::vector<double>& batch_tail_ms() const { return tail_ms_; }

 private:
  int64_t window_ns_;
  std::vector<uint64_t> requests_;
  std::vector<int64_t> active_ns_;
  std::vector<double> open_batch_ms_;
  std::vector<double> p50_ms_;
  std::vector<double> p90_ms_;
  std::vector<double> tail_ms_;
  uint64_t count_ = 0;
};

/// Requests per second in each window: the sum over clients of requests
/// started in the window / the client's time in it.
std::vector<double> WindowRates(const std::vector<const ClientRecord*>& clients);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_STATS_H_
