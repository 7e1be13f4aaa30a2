#include "harness/hostspeed.h"

#include <algorithm>

#include "harness/spans.h"
#include "harness/stats.h"

namespace e2ebench {
namespace {

constexpr size_t kKeptNames = 512;

}  // namespace

std::string ReferenceText() {
  static constexpr const char* kNames[] = {"item",     "productName",
                                           "quantity", "USPrice",
                                           "comment",  "shipDate"};
  uint64_t state = 0x9e3779b97f4a7c15ULL;
  auto next = [&state](uint64_t n) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % n;
  };
  std::string text = "<items>";
  text.reserve(kReferenceBytes + 64);
  while (text.size() < kReferenceBytes) {
    const char* name = kNames[next(std::size(kNames))];
    text += '<';
    text += name;
    if (next(4) == 0) text += " partNum=\"" + std::to_string(next(1000)) + "\"";
    text += '>';
    for (uint64_t i = 0, n = 4 + next(24); i < n; ++i) {
      text += static_cast<char>('a' + next(26));
    }
    text += "</";
    text += name;
    text += '>';
  }
  return text + "</items>";
}

uint64_t ReferencePass(const std::string& text,
                       std::vector<std::string>* names) {
  uint64_t hash = 1469598103934665603ULL;
  names->clear();
  const size_t n = text.size();
  size_t i = 0;
  while (i < n) {
    if (text[i] != '<') {
      while (i < n && text[i] != '<') hash += static_cast<unsigned char>(text[i++]);
      continue;
    }
    size_t j = ++i;
    while (j < n && text[j] != '>' && text[j] != ' ') {
      hash = (hash ^ static_cast<unsigned char>(text[j])) * 1099511628211ULL;
      ++j;
    }
    // Names are kept a few hundred at a time, so the kernel's memory
    // stays out of the resident set the benchmark reports.
    if (names->size() == kKeptNames) names->clear();
    names->emplace_back(text, i, j - i);
    while (j < n && text[j] != '>') {
      if (text[j] == '"') {
        ++j;
        while (j < n && text[j] != '"') ++j;
      }
      ++j;
    }
    i = j + 1;
  }
  return hash + names->size();
}

HostSpeed::HostSpeed() {
  // One copy for every instance, so the reference input costs the
  // resident set the same whatever the number of clients.
  static const std::string* const text = new std::string(ReferenceText());
  text_ = text;
}

void HostSpeed::Probe() {
  const int64_t start = NowNs();
  checksum_ += ReferencePass(*text_, &names_);
  recent_[probes_ % kRecentProbes] = static_cast<double>(NowNs() - start);
  ++probes_;
}

double HostSpeed::pass_ns() const {
  const size_t n = std::min(probes_, kRecentProbes);
  return Median(std::vector<double>(recent_.begin(), recent_.begin() + n));
}

double HostSpeed::factor() const {
  const double ns = pass_ns();
  return ns > 0 ? kNominalPassNs / ns : 1.0;
}

}  // namespace e2ebench
