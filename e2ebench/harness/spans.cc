#include "harness/spans.h"

#include <algorithm>
#include <utility>

namespace e2ebench {

namespace {

Layer LayerOf(SpanKind kind) {
  switch (kind) {
    case SpanKind::kParse:
    case SpanKind::kBind:
    case SpanKind::kRelease:
      return Layer::kXml;
    case SpanKind::kCast:
    case SpanKind::kValidate:
    case SpanKind::kStreamStart:
    case SpanKind::kStreamFeed:
    case SpanKind::kStreamFinish:
      return Layer::kCore;
    case SpanKind::kEditStream:
      return Layer::kAnalysis;
    case SpanKind::kBatch:
      return Layer::kService;
    case SpanKind::kRequest:
    case SpanKind::kCount:
      break;
  }
  return Layer::kBench;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kBench: return "bench";
    case Layer::kXml: return "xml";
    case Layer::kSchema: return "schema";
    case Layer::kCore: return "core";
    case Layer::kAnalysis: return "analysis";
    case Layer::kService: return "service";
    case Layer::kCount: break;
  }
  return "?";
}

int32_t SpanLog::Open(SpanKind kind) {
  SpanRecord record;
  record.kind = kind;
  record.parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<int32_t>(records_.size());
  records_.push_back(record);
  open_.push_back(index);
  // Stamp last, so the log's own bookkeeping stays outside the span.
  records_.back().start_ns = NowNs();
  return index;
}

void SpanLog::Close(int32_t index) {
  records_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

std::vector<int64_t> SelfTimes(const std::vector<SpanRecord>& records) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      records.size());
  for (const SpanRecord& r : records) {
    if (r.parent >= 0) {
      children[static_cast<size_t>(r.parent)].emplace_back(r.start_ns,
                                                           r.end_ns);
    }
  }
  std::vector<int64_t> self(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    const int64_t start = records[i].start_ns;
    const int64_t end = records[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t reach = start;  // end of the covered prefix
    for (auto [s, e] : kids) {
      s = std::max(s, reach);
      e = std::min(e, end);
      if (e > s) {
        covered += e - s;
        reach = e;
      }
    }
    self[i] = (end - start) - covered;
  }
  return self;
}

void SpanTotals::Add(const std::vector<SpanRecord>& records) {
  const std::vector<int64_t> self = SelfTimes(records);
  for (size_t i = 0; i < records.size(); ++i) {
    const auto k = static_cast<size_t>(records[i].kind);
    total_ns[k] += records[i].end_ns - records[i].start_ns;
    self_ns[k] += self[i];
  }
}

int64_t SpanTotals::LayerSelf(Layer layer) const {
  int64_t sum = 0;
  for (size_t k = 0; k < kSpanKinds; ++k) {
    if (LayerOf(static_cast<SpanKind>(k)) == layer) sum += self_ns[k];
  }
  return sum;
}

}  // namespace e2ebench
