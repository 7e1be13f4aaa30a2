// Golden SAX event streams for the XML tokenizer.
//
// tests/golden/tokenizer_events.txt was recorded from ParseXmlEvents while
// it still ran on its own recursive-descent grammar, before PushParser
// became the only tokenizer. It is the oracle the single tokenizer must
// reproduce, one-shot and under every chunking, so no second grammar has
// to stay in the tree. The file cannot be regenerated — the grammar that
// produced it is gone; a new case is added by hand, with its expected
// stream checked independently.
//
// File format, one record per line:
//   case skip|keep <doc>   a hand-written input; skip|keep is
//                          ParseOptions::skip_whitespace_text
//   status <code>          its StatusCode as an integer
//   event <event>          one event, in order (only for status 0)
//   fuzz <shard> <pair> <code>:<digest>...
//                          the streaming fuzz corpus: one entry per
//                          document in generation order, the status code
//                          and the EventDigest of its event stream
// <doc> and <event> are escaped with EscapeGolden. Lines starting with '#'
// are comments.

#ifndef XMLREVAL_TESTS_EVENT_GOLDEN_H_
#define XMLREVAL_TESTS_EVENT_GOLDEN_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/serde.h"
#include "common/status.h"
#include "xml/sax.h"

namespace xmlreval::testutil {

/// Records events as compact strings: "+tag a=v", "-tag", "t:text",
/// "d:name[subset]".
class EventRecorder : public xml::SaxHandler {
 public:
  Status Doctype(std::string_view name, std::string_view subset) override {
    std::string e = "d:";
    e.append(name).append("[").append(subset).append("]");
    events.push_back(std::move(e));
    return Status::OK();
  }
  Status StartElement(std::string_view name,
                      const std::vector<xml::SaxAttribute>& attrs) override {
    std::string e = "+";
    e.append(name);
    for (const xml::SaxAttribute& a : attrs) {
      e.append(" ").append(a.name).append("=").append(a.value);
    }
    events.push_back(std::move(e));
    return Status::OK();
  }
  Status EndElement(std::string_view name) override {
    std::string e = "-";
    events.push_back(std::move(e.append(name)));
    return Status::OK();
  }
  Status Characters(std::string_view text) override {
    std::string e = "t:";
    events.push_back(std::move(e.append(text)));
    return Status::OK();
  }

  std::vector<std::string> events;
};

/// FNV-1a over the event stream of a successful parse (events separated by
/// NUL); a failed parse digests to its status code alone, because events
/// emitted before an error are not part of the contract.
inline uint64_t EventDigest(StatusCode code,
                            const std::vector<std::string>& events) {
  if (code != StatusCode::kOk) {
    return common::Fnv1a("status:" + std::to_string(static_cast<int>(code)));
  }
  uint64_t h = common::kFnv1aOffset;
  for (const std::string& e : events) {
    h = common::Fnv1a(e, h);
    h = common::Fnv1a("\0", 1, h);
  }
  return h;
}

/// Escapes '\\' and every byte outside printable ASCII (space excluded)
/// as \xHH, so a record fits on one line with single-space separators.
inline std::string EscapeGolden(std::string_view s) {
  std::string out;
  for (unsigned char c : s) {
    if (c > ' ' && c < 0x7F && c != '\\') {
      out += static_cast<char>(c);
    } else {
      char buf[5];
      std::snprintf(buf, sizeof(buf), "\\x%02X", c);
      out += buf;
    }
  }
  return out;
}

inline std::string UnescapeGolden(std::string_view s) {
  std::string out;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '\\' && i + 3 < s.size()) {  // "\xHH"
      out += static_cast<char>(std::stoi(std::string(s.substr(i + 2, 2)),
                                         nullptr, 16));
      i += 3;
    } else {
      out += s[i];
    }
  }
  return out;
}

struct GoldenCase {
  bool keep_whitespace = false;
  std::string doc;
  StatusCode code = StatusCode::kOk;
  std::vector<std::string> events;
};

struct GoldenFuzzDoc {
  StatusCode code = StatusCode::kOk;
  uint64_t digest = 0;
};

struct EventGolden {
  std::vector<GoldenCase> cases;
  // (shard, pair_seed) -> per-document entries in generation order.
  std::map<std::pair<uint64_t, uint64_t>, std::vector<GoldenFuzzDoc>> fuzz;

  /// The case recorded for `doc` under the given whitespace mode, or
  /// nullptr when the golden holds none.
  const GoldenCase* Find(std::string_view doc, bool keep_whitespace) const {
    for (const GoldenCase& c : cases) {
      if (c.doc == doc && c.keep_whitespace == keep_whitespace) return &c;
    }
    return nullptr;
  }
};

inline EventGolden ParseEventGolden(std::istream& in) {
  EventGolden golden;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::string_view rest(line);
    size_t sp = rest.find(' ');
    std::string_view tag = rest.substr(0, sp);
    rest = sp == std::string_view::npos ? std::string_view()
                                        : rest.substr(sp + 1);
    if (tag == "case") {
      GoldenCase c;
      c.keep_whitespace = rest.substr(0, 4) == "keep";
      c.doc = UnescapeGolden(rest.substr(5));
      golden.cases.push_back(std::move(c));
    } else if (tag == "status") {
      golden.cases.back().code =
          static_cast<StatusCode>(std::stoi(std::string(rest)));
    } else if (tag == "event") {
      golden.cases.back().events.push_back(UnescapeGolden(rest));
    } else if (tag == "fuzz") {
      std::istringstream fields{std::string(rest)};
      uint64_t shard = 0;
      uint64_t pair = 0;
      fields >> shard >> pair;
      std::vector<GoldenFuzzDoc>& docs = golden.fuzz[{shard, pair}];
      std::string entry;
      while (fields >> entry) {
        size_t colon = entry.find(':');
        GoldenFuzzDoc d;
        d.code = static_cast<StatusCode>(std::stoi(entry.substr(0, colon)));
        d.digest = std::stoull(entry.substr(colon + 1), nullptr, 16);
        docs.push_back(d);
      }
    } else {
      ADD_FAILURE() << "unknown golden record: " << line;
    }
  }
  return golden;
}

/// The committed golden file, parsed once per test binary.
inline const EventGolden& LoadEventGolden() {
  static const EventGolden* golden = [] {
    std::ifstream in(XMLREVAL_TEST_SOURCE_DIR
                     "/tests/golden/tokenizer_events.txt");
    EXPECT_TRUE(in.good()) << "missing tests/golden/tokenizer_events.txt";
    return new EventGolden(ParseEventGolden(in));
  }();
  return *golden;
}

}  // namespace xmlreval::testutil

#endif  // XMLREVAL_TESTS_EVENT_GOLDEN_H_
