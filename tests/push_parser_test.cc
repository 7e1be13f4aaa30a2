#include "xml/push_parser.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "tests/event_golden.h"
#include "tests/test_util.h"
#include "xml/sax.h"

namespace xmlreval::xml {
namespace {

using Recorder = testutil::EventRecorder;

struct PushOutcome {
  Status status = Status::OK();
  std::vector<std::string> events;
  uint64_t peak_carry = 0;
};

PushOutcome RunPush(std::string_view doc, size_t chunk,
                    const ParseOptions& options = {}) {
  Recorder recorder;
  PushParser parser(&recorder, options);
  PushOutcome out;
  for (size_t pos = 0; pos < doc.size(); pos += chunk) {
    Status s = parser.Feed(doc.substr(pos, std::min(chunk, doc.size() - pos)));
    if (!s.ok()) {
      out.status = s;
      break;
    }
  }
  if (out.status.ok()) out.status = parser.Finish();
  out.events = std::move(recorder.events);
  out.peak_carry = parser.peak_carry_bytes();
  return out;
}

const size_t kChunks[] = {1, 2, 3, 5, 17, 4096};

// For every chunking, the push parser must reproduce the golden event
// stream and status code recorded for `doc` (tests/event_golden.h), and
// agree with its own one-shot run byte for byte — including the error
// message, whose offsets must not depend on chunk boundaries.
void ExpectParity(std::string_view doc, const ParseOptions& options = {}) {
  const testutil::GoldenCase* golden = testutil::LoadEventGolden().Find(
      doc, !options.skip_whitespace_text);
  ASSERT_NE(golden, nullptr) << "no golden case for " << doc;
  PushOutcome oneshot = RunPush(doc, doc.size() ? doc.size() : 1, options);
  EXPECT_EQ(oneshot.status.code(), golden->code) << doc;
  if (golden->code == StatusCode::kOk) {
    EXPECT_EQ(oneshot.events, golden->events) << doc;
  }
  for (size_t chunk : kChunks) {
    PushOutcome chunked = RunPush(doc, chunk, options);
    EXPECT_EQ(chunked.status.code(), oneshot.status.code())
        << doc << " chunk=" << chunk;
    EXPECT_EQ(chunked.status.message(), oneshot.status.message())
        << doc << " chunk=" << chunk;
    EXPECT_EQ(chunked.events, oneshot.events) << doc << " chunk=" << chunk;
  }
}

TEST(PushParserTest, ValidCorpusParity) {
  const std::string_view docs[] = {
      "<a/>",
      "<a x=\"1\" y='two'><b>hi</b><c/></a>",
      "<?xml version=\"1.0\"?>\n<!-- head --><root>text</root>\n<!-- tail -->",
      "<!DOCTYPE note [<!ELEMENT note EMPTY>]><note/>",
      "<!DOCTYPE r SYSTEM \"some>file.dtd\"><r/>",
      "<a>one<!-- gap -->two</a>",
      "<a>pre<![CDATA[ <raw> & stuff ]]>post</a>",
      "<a>x<?pi data?>y</a>",
      "<a>&lt;&amp;&gt;&quot;&apos;</a>",
      "<a>&#65;&#x42;&#x1F600;</a>",
      "<a attr=\"a&amp;b&#33;\">v</a>",
      "<a>\n  <b/>\n</a>",
      "<deep><deep><deep>x</deep></deep></deep>",
      "<a><![CDATA[]]]></a>",
      "<a><![CDATA[a]]b]]>c</a>",
  };
  for (std::string_view doc : docs) ExpectParity(doc);
}

TEST(PushParserTest, WhitespaceModeParity) {
  ParseOptions keep;
  keep.skip_whitespace_text = false;
  ExpectParity("<a>\n<b/> </a>", keep);
  ExpectParity("<a> mixed <b/>\n\t</a>", keep);
}

TEST(PushParserTest, MalformedCorpusParity) {
  const std::string_view docs[] = {
      "<a><b></a></b>",
      "<a>text",
      "<a x=\"1\" x=\"2\"/>",
      "<a x=\"<\"/>",
      "<a></a><b/>",
      "<a>tail</a>junk",
      "<a><!-- -- --></a>",
      "<a>&undefined;</a>",
      "<a>&#xZZ;</a>",
      "<a>&#;</a>",
      "<a><3/></a>",
      "text only",
      "<a x=1/>",
      "<a x></a>",
      "</a>",
      "<a/><!-- ok --><![CDATA[no]]>",
  };
  for (std::string_view doc : docs) ExpectParity(doc);

  // References to code points outside XML 1.0's Char production, in text
  // and in attribute values. The golden predates their rejection, so they
  // are checked here: a parse error under every chunking, same message.
  const std::string_view non_chars[] = {
      "<a>&#0;</a>",         "<a>&#1;</a>",
      "<a>&#xD800;</a>",     "<a>&#xFFFE;</a>",
      "<a v=\"&#0;\"/>",     "<a v=\"&#1;\"/>",
      "<a v=\"&#xD800;\"/>", "<a v='x&#xFFFE;'/>",
  };
  for (std::string_view doc : non_chars) {
    PushOutcome oneshot = RunPush(doc, doc.size());
    EXPECT_EQ(oneshot.status.code(), StatusCode::kParseError) << doc;
    EXPECT_NE(oneshot.status.message().find("invalid character reference"),
              std::string::npos)
        << doc << ": " << oneshot.status.message();
    for (size_t chunk : kChunks) {
      EXPECT_EQ(RunPush(doc, chunk).status.message(),
                oneshot.status.message())
          << doc << " chunk=" << chunk;
    }
  }
}

TEST(PushParserTest, CharacterReferenceBoundariesAreAccepted) {
  // The edges of each Char range decode; whitespace references survive
  // whitespace skipping because the text run also holds "x".
  const std::string doc =
      "<a v=\"&#x9;&#x10FFFF;\">x&#x9;&#xA;&#xD;&#x20;&#xD7FF;&#xE000;"
      "&#xFFFD;&#x10000;&#x10FFFF;</a>";
  for (size_t chunk : kChunks) {
    PushOutcome out = RunPush(doc, chunk);
    ASSERT_OK(out.status);
    EXPECT_EQ(out.events,
              (std::vector<std::string>{
                  "+a v=\t\xF4\x8F\xBF\xBF",
                  "t:x\t\n\r \xED\x9F\xBF\xEE\x80\x80\xEF\xBF\xBD"
                  "\xF0\x90\x80\x80\xF4\x8F\xBF\xBF",
                  "-a"}))
        << "chunk=" << chunk;
  }
}

TEST(PushParserTest, OneShotFeedCarriesNothing) {
  // Every construct lies wholly inside the single chunk, so all of it is
  // parsed in place from the caller's bytes.
  const std::string doc =
      "<?xml version=\"1.0\"?><!-- c --><root a=\"1&amp;2\" b='x'>"
      "text &lt;more&gt; <![CDATA[raw]]><?pi?><child/><x>y</x></root>";
  PushOutcome out = RunPush(doc, doc.size());
  ASSERT_OK(out.status);
  EXPECT_EQ(out.peak_carry, 0u);
  EXPECT_EQ(out.events,
            (std::vector<std::string>{"+root a=1&2 b=x", "t:text <more> raw",
                                      "+child", "-child", "+x", "t:y", "-x",
                                      "-root"}));
}

TEST(PushParserTest, EveryPrefixOfValidDocFails) {
  // No epilog whitespace: only the complete document may succeed.
  std::string doc =
      "<!DOCTYPE a [<!ELEMENT a ANY>]>"
      "<a n=\"&amp;\"><!-- c --><b><![CDATA[x]]>&#65;</b><c/></a>";
  for (size_t cut = 0; cut < doc.size(); ++cut) {
    PushOutcome out = RunPush(std::string_view(doc).substr(0, cut), 3);
    EXPECT_FALSE(out.status.ok()) << "cut=" << cut;
  }
  EXPECT_OK(RunPush(doc, 3).status);
}

TEST(PushParserTest, ErrorOffsetsAreBytePositions) {
  PushOutcome out = RunPush("<a></b>", 2);
  ASSERT_FALSE(out.status.ok());
  EXPECT_NE(out.status.message().find("XML parse error at byte 3"),
            std::string::npos)
      << out.status.message();
}

TEST(PushParserTest, CarryStaysBoundedOnTinyChunks) {
  // One-byte chunks force maximal carrying; the carry buffer must still be
  // bounded by the longest markup construct, not the document size.
  std::string doc = "<root>";
  for (int i = 0; i < 200; ++i) doc += "<item key=\"value\">text</item>";
  doc += "</root>";
  PushOutcome out = RunPush(doc, 1);
  EXPECT_OK(out.status);
  EXPECT_LE(out.peak_carry, 64u);
}

// Handler that skips every element named `skip`.
class Skipper : public Recorder {
 public:
  Status StartElement(std::string_view name,
                      const std::vector<SaxAttribute>& attrs) override {
    Status s = Recorder::StartElement(name, attrs);
    if (name == "skip") parser->SkipCurrentSubtree();
    return s;
  }
  PushParser* parser = nullptr;
};

struct SkipOutcome {
  Status status = Status::OK();
  std::vector<std::string> events;
  uint64_t bytes_skipped = 0;
  uint64_t bytes_fed = 0;
};

SkipOutcome RunSkip(std::string_view doc, size_t chunk) {
  Skipper skipper;
  PushParser parser(&skipper);
  skipper.parser = &parser;
  SkipOutcome out;
  for (size_t pos = 0; pos < doc.size() && out.status.ok(); pos += chunk) {
    out.status =
        parser.Feed(doc.substr(pos, std::min(chunk, doc.size() - pos)));
  }
  if (out.status.ok()) out.status = parser.Finish();
  out.events = std::move(skipper.events);
  out.bytes_skipped = parser.bytes_skipped();
  out.bytes_fed = parser.bytes_fed();
  return out;
}

TEST(PushParserTest, SkipSuppressesSubtreeEvents) {
  std::string doc =
      "<r><keep>a</keep>"
      "<skip><skip>nested</skip><x y=\"&bad;\">not parsed</x></skip>"
      "<keep>b</keep></r>";
  for (size_t chunk : kChunks) {
    SkipOutcome out = RunSkip(doc, chunk);
    EXPECT_OK(out.status);
    // The skipped element's own StartElement fires (that is where the skip
    // decision is made) but nothing else from the subtree — including its
    // EndElement — and malformed entities inside are never seen.
    EXPECT_EQ(out.events,
              (std::vector<std::string>{"+r", "+keep", "t:a", "-keep",
                                        "+skip", "+keep", "t:b", "-keep",
                                        "-r"}))
        << "chunk=" << chunk;
    EXPECT_GT(out.bytes_skipped, 0u) << "chunk=" << chunk;
    EXPECT_EQ(out.bytes_fed, doc.size()) << "chunk=" << chunk;
  }
}

TEST(PushParserTest, SelfClosingSkipOnlyDropsEndElement) {
  SkipOutcome out = RunSkip("<r><skip a=\"1\"/><b/></r>", 2);
  EXPECT_OK(out.status);
  EXPECT_EQ(out.events,
            (std::vector<std::string>{"+r", "+skip a=1", "+b", "-b", "-r"}));
  EXPECT_EQ(out.bytes_skipped, 0u);  // nothing handed to the byte scanner
}

TEST(PushParserTest, SkippedRootReachesEpilog) {
  SkipOutcome out = RunSkip("<skip><a>x</a><b/></skip>\n<!-- tail -->", 3);
  EXPECT_OK(out.status);
  EXPECT_EQ(out.events, (std::vector<std::string>{"+skip"}));
  EXPECT_GT(out.bytes_skipped, 0u);
}

TEST(PushParserTest, SkipScannerStillChecksStructure) {
  // Mismatched nesting depth inside a skipped subtree: input truncation is
  // still detected at Finish.
  SkipOutcome out = RunSkip("<r><skip><unclosed></skip>", 4);
  EXPECT_FALSE(out.status.ok());
}

TEST(PushParserTest, TruncatedMidSkipFails) {
  std::string doc = "<r><skip><a><![CDATA[big";
  SkipOutcome out = RunSkip(doc, 5);
  ASSERT_FALSE(out.status.ok());
  EXPECT_NE(out.status.message().find("skipped subtree"), std::string::npos)
      << out.status.message();
}

TEST(PushParserTest, FeedAfterFinishIsLatched) {
  Recorder recorder;
  PushParser parser(&recorder);
  ASSERT_OK(parser.Feed("<a/>"));
  ASSERT_OK(parser.Finish());
  Status again = parser.Feed("<b/>");
  EXPECT_FALSE(again.ok());
}

}  // namespace
}  // namespace xmlreval::xml
