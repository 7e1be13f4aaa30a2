#include "xml/skip_scanner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <initializer_list>
#include <memory>
#include <random>
#include <string>
#include <string_view>

#include "common/string_util.h"
#include "tests/test_util.h"
#include "xml/byte_classes.h"

namespace xmlreval::xml {
namespace {

// Runs the scanner over `body` in chunks of `chunk` bytes (or of the
// sizes `next_chunk` returns); returns the result, the total bytes
// consumed, and the scanner's final depth and error. Each chunk is copied
// into its own heap block of exactly its size, so a read past a chunk's
// end is a heap overflow under AddressSanitizer.
struct ScanOutcome {
  SkipScanner::Result result = SkipScanner::Result::kNeedMore;
  size_t consumed = 0;
  uint64_t depth = 0;
  std::string error;
};

ScanOutcome ScanChunked(std::string_view body,
                        const std::function<size_t()>& next_chunk) {
  SkipScanner scanner;
  scanner.Begin();
  ScanOutcome out;
  size_t pos = 0;
  while (pos < body.size()) {
    size_t n = std::min(next_chunk(), body.size() - pos);
    auto copy = std::make_unique<char[]>(n);
    std::copy_n(body.data() + pos, n, copy.get());
    size_t consumed = 0;
    out.result = scanner.Scan(std::string_view(copy.get(), n), &consumed);
    out.consumed += consumed;
    pos += n;
    if (out.result != SkipScanner::Result::kNeedMore) break;
  }
  out.depth = scanner.depth();
  out.error = scanner.error();
  return out;
}

ScanOutcome ScanChunked(std::string_view body, size_t chunk) {
  return ScanChunked(body, [chunk] { return chunk; });
}

// The oracle for the block path: a 1-byte chunk never holds the 64 bytes
// the block classifier needs, so it runs the state machine alone.
void ExpectMatchesOneByteRun(std::string_view body, const ScanOutcome& out,
                             const std::string& context) {
  const ScanOutcome oracle = ScanChunked(body, 1);
  EXPECT_EQ(out.result, oracle.result) << context;
  EXPECT_EQ(out.consumed, oracle.consumed) << context;
  EXPECT_EQ(out.depth, oracle.depth) << context;
  EXPECT_EQ(out.error, oracle.error) << context;
}

// `body` is everything after the skipped element's start tag '>'. The
// subtree ends at the matching end tag; TAIL bytes after it must be left
// unconsumed.
void ExpectDoneAt(std::string_view body, size_t end_offset) {
  for (size_t chunk : {size_t{1}, size_t{2}, size_t{3}, size_t{7},
                       body.size()}) {
    ScanOutcome out = ScanChunked(body, chunk);
    EXPECT_EQ(out.result, SkipScanner::Result::kDone)
        << "chunk=" << chunk << " error=" << out.error;
    EXPECT_EQ(out.consumed, end_offset) << "chunk=" << chunk;
  }
}

TEST(SkipScannerTest, FlatSubtree) {
  std::string_view body = "text</a>tail";
  ExpectDoneAt(body, body.size() - 4);
}

TEST(SkipScannerTest, NestedSameName) {
  // Depth counting, not name matching, finds the right end tag.
  std::string_view body = "<a><a>x</a></a>junk</a><more/>";
  ExpectDoneAt(body, 23);
}

TEST(SkipScannerTest, SelfClosingDoesNotChangeDepth) {
  std::string_view body = "<b/><c x='1'/></a>t";
  ExpectDoneAt(body, body.size() - 1);
}

TEST(SkipScannerTest, MarkupHidingAngleBrackets) {
  std::string body =
      "<!-- </a> not an end tag -->"
      "<![CDATA[ </a> still data ]]>"
      "<?pi </a> ?>"
      "<b attr=\"/a> x\">x</b>"
      "</a>rest";
  ExpectDoneAt(body, body.size() - 4);
}

TEST(SkipScannerTest, CDataBracketRuns) {
  std::string body = "<![CDATA[ ]]] ]]]>]</a>";
  ExpectDoneAt(body, body.size());
}

TEST(SkipScannerTest, QuoteWithGt) {
  std::string body = "<b a='x>y' b=\"1<\"></b></a>";
  // '<' inside an attribute value is malformed.
  for (size_t chunk : {size_t{1}, body.size()}) {
    ScanOutcome out = ScanChunked(body, chunk);
    EXPECT_EQ(out.result, SkipScanner::Result::kError);
    EXPECT_EQ(out.error, "'<' not allowed in attribute value");
  }
}

TEST(SkipScannerTest, DoubleDashInComment) {
  ScanOutcome out = ScanChunked("<!-- a -- b --></a>", 1);
  EXPECT_EQ(out.result, SkipScanner::Result::kError);
  EXPECT_EQ(out.error, "'--' not allowed inside comment");
}

TEST(SkipScannerTest, TruncationReportsNeedMore) {
  std::string body = "<b><!-- c --><![CDATA[x]]></b></a>";
  for (size_t cut = 0; cut < body.size(); ++cut) {
    ScanOutcome out = ScanChunked(std::string_view(body).substr(0, cut), 3);
    EXPECT_EQ(out.result, SkipScanner::Result::kNeedMore) << "cut=" << cut;
  }
  ExpectDoneAt(body, body.size());
}

TEST(SkipScannerTest, GarbageAfterLt) {
  ScanOutcome out = ScanChunked("a <3 b</a>", 2);
  EXPECT_EQ(out.result, SkipScanner::Result::kError);
  EXPECT_EQ(out.error, "expected XML name");
}

TEST(SkipScannerTest, LtInAttributeValueStopsPastIt) {
  // The error offset must not depend on chunking: every run stops just
  // past the offending '<', as kStartTag does for its own '<' error.
  const std::string body = "<b x=\"ab<cdefgh\">t</b></a>";
  for (size_t chunk : {size_t{1}, size_t{3}, size_t{7}, body.size()}) {
    ScanOutcome out = ScanChunked(body, chunk);
    EXPECT_EQ(out.result, SkipScanner::Result::kError) << "chunk=" << chunk;
    EXPECT_EQ(out.consumed, 9u) << "chunk=" << chunk;
    EXPECT_EQ(out.error, "'<' not allowed in attribute value")
        << "chunk=" << chunk;
  }
}

// Every construct the block path settles or hands back, placed after k
// filler bytes for every k in 0..130 so it lands at each offset of a
// window and across window edges; each run must match the 1-byte run.
TEST(SkipScannerTest, WindowBoundariesMatchOneByteRun) {
  const std::string_view constructs[] = {
      "<b>", "<b/>", "</b>", "<b a=\"/>\">", "<b a='x'/>", "<!-- c -->",
      "<![CDATA[ x ]]>", "<?pi x?>", "</ a>", "<1>", "<b/x>", "<b a=\"<\">",
      // A '<' inside a start tag, and a quote as the only byte between the
      // name and a quoted '>'.
      "<b <c>", "<b a=\">\">",
  };
  const std::string filler = "plain text > with / and \" ' bytes, ";
  const std::string tail(70, 'z');
  int done = 0;
  for (std::string_view construct : constructs) {
    for (size_t k = 0; k <= 130; ++k) {
      std::string pad;
      while (pad.size() < k) pad += filler;
      pad.resize(k);
      const std::string body =
          pad + std::string(construct) + tail + "</b></a>" + tail;
      ASSERT_GT(body.size(), 128u);
      for (size_t chunk : {size_t{1}, size_t{2}, size_t{63}, size_t{64},
                           size_t{65}, size_t{4096}, body.size()}) {
        ScanOutcome out = ScanChunked(body, chunk);
        ExpectMatchesOneByteRun(body, out,
                                "construct=" + std::string(construct) +
                                    " k=" + std::to_string(k) +
                                    " chunk=" + std::to_string(chunk));
        done += out.result == SkipScanner::Result::kDone;
      }
    }
  }
  EXPECT_GT(done, 0);
}

// Random markup: mostly well-formed tags, text, comments, CDATA and PIs,
// with quoted '>' and '/', tags longer than a window, and a sprinkling of
// malformed constructs and truncations.
std::string RandomMarkup(std::mt19937_64& rng) {
  auto pick = [&](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  std::string out;
  auto put = [&](std::initializer_list<std::string_view> pieces) {
    for (std::string_view piece : pieces) out += piece;
  };
  auto name = [&] {
    static constexpr std::string_view kNames[] = {"a",  "item",        "x:y",
                                                  "_n", "productName", "b1"};
    return kNames[pick(6)];
  };
  auto text = [&](size_t max_len) {
    static constexpr std::string_view kBytes =
        "abc xyz 0123 >/\"'-]?=\n\t\xc3\xa9";
    std::string t;
    for (size_t n = pick(max_len + 1); n > 0; --n) {
      t += kBytes[pick(kBytes.size())];
    }
    return t;
  };
  uint64_t depth = 1;
  for (size_t steps = 1 + pick(120); steps > 0; --steps) {
    switch (pick(12)) {
      case 0:
      case 1:
        out += text(40);
        break;
      case 2:
      case 3:
      case 4: {  // start tag, maybe self-closing, with attributes
        put({"<", name()});
        for (size_t a = pick(4); a > 0; --a) {
          const char quote = pick(2) ? '"' : '\'';
          std::string value = text(pick(8) == 0 ? 120 : 12);
          std::replace(value.begin(), value.end(), quote, '.');
          if (pick(150) == 0) value.insert(value.size() / 2, 1, '<');
          const std::string_view q(&quote, 1);
          put({" ", name(), "=", q, value, q});
        }
        if (pick(3) == 0) out += ' ';
        if (pick(3) == 0) {
          out += "/>";
        } else {
          out += '>';
          ++depth;
        }
        break;
      }
      case 5:
      case 6:
      case 7:
        if (depth > 1) {
          put({"</", name(), pick(4) == 0 ? " >" : ">"});
          --depth;
        }
        break;
      case 8: {
        std::string comment = text(pick(6) == 0 ? 150 : 20);
        if (pick(60) != 0) {  // mostly well-formed: no "--", no '-' last
          for (size_t dd; (dd = comment.find("--")) != std::string::npos;) {
            comment[dd] = '.';
          }
          if (!comment.empty() && comment.back() == '-') comment.back() = '.';
        }
        put({"<!--", comment, "-->"});
        break;
      }
      case 9:
        put({"<![CDATA[", text(30), pick(3) == 0 ? "]]]" : "", "]]>"});
        break;
      case 10:
        put({"<?", name(), " ", text(20), "?>"});
        break;
      case 11: {
        static constexpr std::string_view kBad[] = {
            "</ a>", "<1>", "<b/x>",   "<!x>", "< b>",
            "<b a=\"<\">", "<", "<![CDAT", "<!-x", "<b <c>"};
        if (pick(15) == 0) out += kBad[pick(10)];
        break;
      }
    }
  }
  for (; depth > 0; --depth) put({"</", name(), ">"});
  out += text(10);
  if (pick(10) == 0) out.resize(pick(out.size() + 1));
  return out;
}

TEST(SkipScannerTest, RandomMarkupMatchesOneByteRun) {
  std::mt19937_64 rng(0x5c4e0000);
  std::mt19937_64 chunk_rng(0xc4a2c0de);
  auto random_chunk = [&] {
    return std::uniform_int_distribution<size_t>(1, 4096)(chunk_rng);
  };
  int done = 0;
  int errors = 0;
  for (int doc = 0; doc < 3000; ++doc) {
    const std::string body = RandomMarkup(rng);
    const std::string context = "doc=" + std::to_string(doc);
    ExpectMatchesOneByteRun(body, ScanChunked(body, random_chunk), context);
    const ScanOutcome whole = ScanChunked(body, body.size() + 1);
    ExpectMatchesOneByteRun(body, whole, context + " whole");
    done += whole.result == SkipScanner::Result::kDone;
    errors += whole.result == SkipScanner::Result::kError;
  }
  // The corpus must exercise both outcomes, not only one of them.
  EXPECT_GT(done, 1200);
  EXPECT_GT(errors, 500);
}

TEST(SkipScannerTest, ClassifyBlockMatchesScalar) {
  std::mt19937_64 rng(0xb10c);
  static constexpr std::string_view kHot = "<>/\"'";
  for (int round = 0; round < 20000; ++round) {
    char block[64];
    for (char& c : block) {
      const uint64_t r = rng();
      c = (r & 3) == 0 ? kHot[(r >> 2) % kHot.size()]
                       : static_cast<char>(r >> 8);
    }
    const TagMasks simd = ClassifyBlock(block);
    const TagMasks scalar = ClassifyBlockScalar(block);
    ASSERT_EQ(simd.lt, scalar.lt) << "round=" << round;
    ASSERT_EQ(simd.gt, scalar.gt) << "round=" << round;
    ASSERT_EQ(simd.special, scalar.special) << "round=" << round;
  }
}

TEST(ByteClassesTest, AgreeWithStringUtilOnAllBytes) {
  for (int i = 0; i < 256; ++i) {
    const char c = static_cast<char>(i);
    EXPECT_EQ(IsNameStart(c), IsNameStartChar(c)) << "byte=" << i;
    EXPECT_EQ(IsName(c), IsNameChar(c)) << "byte=" << i;
    EXPECT_EQ(IsSpace(c), IsXmlWhitespace(c)) << "byte=" << i;
  }
}

TEST(SkipScannerTest, FindByteSimd) {
  std::string hay(1000, 'x');
  EXPECT_EQ(FindByteSimd(hay.data(), hay.size(), '<'), nullptr);
  for (size_t pos : {size_t{0}, size_t{7}, size_t{15}, size_t{16},
                     size_t{17}, size_t{999}}) {
    std::string s = hay;
    s[pos] = '<';
    EXPECT_EQ(FindByteSimd(s.data(), s.size(), '<'), s.data() + pos)
        << "pos=" << pos;
  }
}

}  // namespace
}  // namespace xmlreval::xml
