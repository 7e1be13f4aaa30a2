// The single tokenizer against golden event streams.
//
// tests/golden/tokenizer_events.txt holds what ParseXmlEvents produced
// while it ran on a second, recursive-descent grammar: the event stream
// and status code of every hand-written input of the parser tests, and an
// FNV-1a digest per document of the streaming fuzz corpus. PushParser must
// reproduce all of it one-shot (through ParseXmlEvents) and fed in 1, 2,
// 3, 17 and 4096-byte chunks.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <vector>

#include "tests/event_golden.h"
#include "tests/streaming_fuzz_corpus.h"
#include "tests/test_util.h"
#include "xml/push_parser.h"
#include "xml/sax.h"

namespace xmlreval::xml {
namespace {

using testutil::EventRecorder;

constexpr size_t kChunks[] = {1, 2, 3, 17, 4096};

struct Outcome {
  StatusCode code = StatusCode::kOk;
  std::vector<std::string> events;
};

Outcome RunOneShot(std::string_view doc, const ParseOptions& options) {
  EventRecorder recorder;
  Status status = ParseXmlEvents(doc, &recorder, options);
  return Outcome{status.code(), std::move(recorder.events)};
}

Outcome RunChunked(std::string_view doc, size_t chunk,
                   const ParseOptions& options) {
  EventRecorder recorder;
  PushParser parser(&recorder, options);
  Status status = Status::OK();
  for (size_t pos = 0; pos < doc.size() && status.ok(); pos += chunk) {
    status = parser.Feed(doc.substr(pos, std::min(chunk, doc.size() - pos)));
  }
  if (status.ok()) status = parser.Finish();
  return Outcome{status.code(), std::move(recorder.events)};
}

void ExpectMatches(const Outcome& got, const testutil::GoldenCase& want,
                   const std::string& context) {
  EXPECT_EQ(got.code, want.code) << context;
  if (want.code == StatusCode::kOk) {
    EXPECT_EQ(got.events, want.events) << context;
  }
}

TEST(TokenizerGoldenTest, HandWrittenCorporaMatchEveryChunking) {
  const testutil::EventGolden& golden = testutil::LoadEventGolden();
  ASSERT_GE(golden.cases.size(), 150u);
  for (const testutil::GoldenCase& c : golden.cases) {
    ParseOptions options;
    options.skip_whitespace_text = !c.keep_whitespace;
    const std::string doc = testutil::EscapeGolden(c.doc);
    ExpectMatches(RunOneShot(c.doc, options), c, "one-shot " + doc);
    for (size_t chunk : kChunks) {
      ExpectMatches(RunChunked(c.doc, chunk, options), c,
                    "chunk=" + std::to_string(chunk) + " " + doc);
    }
  }
}

class TokenizerGoldenFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TokenizerGoldenFuzz, StreamingFuzzCorpusMatchesEveryChunking) {
  const uint64_t shard = GetParam();
  const testutil::EventGolden& golden = testutil::LoadEventGolden();
  uint64_t docs = 0;
  testutil::ForEachFuzzDocument(shard, [&](const testutil::FuzzSchemaPair&,
                                           uint64_t pair_seed,
                                           uint64_t doc_seed,
                                           const std::string& text) {
    auto it = golden.fuzz.find({shard, pair_seed});
    ASSERT_NE(it, golden.fuzz.end()) << "shard=" << shard
                                     << " pair=" << pair_seed;
    ASSERT_EQ(it->second.size(), testutil::kFuzzDocsPerPair);
    const testutil::GoldenFuzzDoc& want = it->second[doc_seed - 1];
    const std::string context = "shard=" + std::to_string(shard) +
                                " pair=" + std::to_string(pair_seed) +
                                " doc=" + std::to_string(doc_seed);
    auto expect = [&](const Outcome& got, const std::string& how) {
      EXPECT_EQ(got.code, want.code) << context << " " << how;
      EXPECT_EQ(testutil::EventDigest(got.code, got.events), want.digest)
          << context << " " << how;
    };
    expect(RunOneShot(text, ParseOptions()), "one-shot");
    for (size_t chunk : kChunks) {
      expect(RunChunked(text, chunk, ParseOptions()),
             "chunk=" + std::to_string(chunk));
    }
    ++docs;
  });
  EXPECT_EQ(docs, testutil::kFuzzPairsPerShard * testutil::kFuzzDocsPerPair);
}

INSTANTIATE_TEST_SUITE_P(Shards, TokenizerGoldenFuzz,
                         ::testing::Range<uint64_t>(0, testutil::kFuzzShards));

}  // namespace
}  // namespace xmlreval::xml
