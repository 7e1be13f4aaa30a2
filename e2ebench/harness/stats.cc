#include "harness/stats.h"

#include <algorithm>
#include <cmath>

namespace e2ebench {

double Quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  // The epsilon keeps a product such as 0.999 * 10000 that lands just
  // above an integer from rounding up to the next rank.
  const double rank =
      std::ceil(q * static_cast<double>(sorted.size()) - 1e-9);
  const size_t index = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return Quantile(values, 0.5);
}

TailPercentile HighestSupportedPercentile(uint64_t n) {
  // With nearest rank, floor(n / 10^k) samples lie beyond the
  // (100 - 100 / 10^k)th percentile; the median leaves n - ceil(n / 2).
  TailPercentile best;
  if (n - (n + 1) / 2 < kMinTailSamples) return best;
  best = {50, n - (n + 1) / 2};
  uint64_t tail_share = 10;  // 10^k
  double percentile = 90;
  while (n / tail_share >= kMinTailSamples) {
    best = {percentile, n / tail_share};
    if (tail_share > UINT64_MAX / 10) break;
    tail_share *= 10;
    percentile = 100 - 100.0 / static_cast<double>(tail_share);
  }
  return best;
}

ClientRecord::ClientRecord(int64_t window_ns, size_t windows)
    : window_ns_(window_ns), requests_(windows, 0), active_ns_(windows, 0) {
  open_batch_ms_.reserve(kBatchRequests);
  // Room for a few thousand batches, so the record does not grow while
  // the resident set is measured.
  p50_ms_.reserve(4096);
  p90_ms_.reserve(4096);
  tail_ms_.reserve(4096);
}

void ClientRecord::Add(int64_t start_ns, int64_t latency_ns,
                       int64_t active_ns) {
  ++count_;
  const int64_t w = start_ns / window_ns_;
  if (w >= 0 && w < static_cast<int64_t>(requests_.size())) {
    ++requests_[static_cast<size_t>(w)];
    active_ns_[static_cast<size_t>(w)] += active_ns;
  }
  open_batch_ms_.push_back(latency_ns / 1e6);
  if (open_batch_ms_.size() == kBatchRequests) {
    std::sort(open_batch_ms_.begin(), open_batch_ms_.end());
    p50_ms_.push_back(Quantile(open_batch_ms_, 0.5));
    p90_ms_.push_back(Quantile(open_batch_ms_, kGatedTail));
    tail_ms_.push_back(Quantile(
        open_batch_ms_,
        HighestSupportedPercentile(kBatchRequests).percentile / 100));
    open_batch_ms_.clear();
  }
}

std::vector<double> WindowRates(
    const std::vector<const ClientRecord*>& clients) {
  std::vector<double> rates;
  for (const ClientRecord* c : clients) {
    rates.resize(std::max(rates.size(), c->requests().size()), 0.0);
    for (size_t w = 0; w < c->requests().size(); ++w) {
      if (c->active_ns()[w] > 0) {
        rates[w] += c->requests()[w] / (c->active_ns()[w] / 1e9);
      }
    }
  }
  return rates;
}

}  // namespace e2ebench
