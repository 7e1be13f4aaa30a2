// Benchmark-side spans around calls into the library's public functions.
//
// Each client thread owns one SpanLog. A request opens a kRequest span and
// nests one span per public call it makes (ParseXml, BindDocument, Cast,
// ...), so per-layer self times fall out of the log without any
// instrumentation inside the library. Requests in the untraced half of a
// traced run pass no log at all.

#ifndef E2EBENCH_HARNESS_SPANS_H_
#define E2EBENCH_HARNESS_SPANS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

namespace e2ebench {

enum class SpanKind : uint8_t {
  kRequest,       // one client request, the root of its spans
  kParse,         // xml::ParseXml
  kBind,          // ValidationService::BindDocument
  kRelease,       // xml::Document destructor
  kCast,          // ValidationService::Cast
  kValidate,      // ValidationService::Validate
  kStreamStart,   // ValidationService::StartCastStream
  kStreamFeed,    // CastStreamSession::Feed
  kStreamFinish,  // CastStreamSession::Finish
  kEditStream,    // ValidationService::SubmitEditStream
  kBatch,         // SubmitBatch(...).get()
  kCount
};
inline constexpr size_t kSpanKinds = static_cast<size_t>(SpanKind::kCount);

/// The library modules the benchmark reports on, plus "bench" for the
/// request span's own (unattributed) time.
enum class Layer : uint8_t { kBench, kXml, kSchema, kCore, kAnalysis,
                             kService, kCount };
inline constexpr size_t kLayers = static_cast<size_t>(Layer::kCount);

const char* LayerName(Layer layer);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same log, -1 for a root
  SpanKind kind = SpanKind::kRequest;
};

class SpanLog {
 public:
  /// Pre-sizes the log so growing it does not land inside a span.
  void Reserve(size_t records) {
    records_.reserve(records);
    open_.reserve(64);
  }
  /// Opens a span nested in the innermost open one; returns its index.
  int32_t Open(SpanKind kind);
  void Close(int32_t index);

  const std::vector<SpanRecord>& records() const { return records_; }

 private:
  std::vector<SpanRecord> records_;
  std::vector<int32_t> open_;
};

/// RAII span; a null log makes it free.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanKind kind)
      : log_(log), index_(log != nullptr ? log->Open(kind) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) log_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int32_t index_;
};

/// Per-span self time: its duration minus the part of its interval that
/// the union of its children's intervals covers.
std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& records);

/// Per-kind sums over one or more logs.
struct SpanTotals {
  std::array<int64_t, kSpanKinds> total_ns{};  // summed durations
  std::array<int64_t, kSpanKinds> self_ns{};   // summed self times

  void Add(const std::vector<SpanRecord>& records);
  int64_t total(SpanKind kind) const {
    return total_ns[static_cast<size_t>(kind)];
  }
  int64_t self(SpanKind kind) const {
    return self_ns[static_cast<size_t>(kind)];
  }
  /// Self time summed over the kinds of one layer; for Layer::kBench,
  /// the request spans' own. The layers' sum equals total(kRequest) when
  /// each child lies inside its parent and siblings do not overlap.
  int64_t LayerSelf(Layer layer) const;
};

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_SPANS_H_
