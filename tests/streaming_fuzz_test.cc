// Differential fuzzing of the incremental streaming cast engine.
//
// Thousands of random documents over random related schema pairs are fed
// to StreamingCastSession in random 1..4096-byte chunks and checked two
// ways:
//   1. Verdict parity with the DOM pipeline (ParseXml + CastValidator) —
//      including truncated inputs, where the cut can land mid-skip, inside
//      markup, or inside a text run.
//   2. Determinism: a chunked session and a one-shot session must produce
//      byte-for-byte identical reports (verdict, message, blamed path,
//      counters, byte accounting) — chunk boundaries must never leak into
//      results.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <string_view>

#include "core/cast_validator.h"
#include "core/relations.h"
#include "core/streaming_validator.h"
#include "tests/streaming_fuzz_corpus.h"
#include "tests/test_util.h"
#include "xml/parser.h"

namespace xmlreval::core {
namespace {

StreamingReport RunSession(const TypeRelations& relations,
                           std::string_view text, std::mt19937_64* rng) {
  StreamingCastSession session(relations);
  size_t pos = 0;
  while (pos < text.size()) {
    size_t chunk = rng == nullptr
                       ? text.size()
                       : std::uniform_int_distribution<size_t>(1, 4096)(*rng);
    chunk = std::min(chunk, text.size() - pos);
    if (!session.Feed(text.substr(pos, chunk)).ok()) break;
    pos += chunk;
  }
  return session.Finish();
}

// The ground truth for arbitrary bytes: parse; parse failure means the
// session must fail; otherwise the DOM cast validator's verdict.
struct DomVerdict {
  bool parsed = false;
  bool valid = false;
  std::string violation;
};

DomVerdict DomCast(const TypeRelations& relations, std::string_view text) {
  DomVerdict v;
  auto doc = xml::ParseXml(text);
  if (!doc.ok()) return v;
  v.parsed = true;
  CastValidator cast(&relations);
  ValidationReport report = cast.Validate(*doc);
  v.valid = report.valid;
  v.violation = report.violation;
  return v;
}

void ExpectReportsIdentical(const StreamingReport& a, const StreamingReport& b,
                            const std::string& context) {
  EXPECT_EQ(a.valid, b.valid) << context;
  EXPECT_EQ(a.violation, b.violation) << context;
  EXPECT_EQ(a.violation_path_known, b.violation_path_known) << context;
  EXPECT_EQ(a.violation_path, b.violation_path) << context;
  EXPECT_EQ(a.max_live_frames, b.max_live_frames) << context;
  EXPECT_EQ(a.bytes_skipped, b.bytes_skipped) << context;
  EXPECT_EQ(a.counters.nodes_visited, b.counters.nodes_visited) << context;
  EXPECT_EQ(a.counters.subtrees_skipped, b.counters.subtrees_skipped)
      << context;
  EXPECT_EQ(a.counters.dfa_steps, b.counters.dfa_steps) << context;
  EXPECT_EQ(a.counters.simple_checks, b.counters.simple_checks) << context;
  EXPECT_EQ(a.counters.attr_checks, b.counters.attr_checks) << context;
}

// Sharded so the ~10k documents spread across parallel ctest workers.
class StreamingFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StreamingFuzz, SessionAgreesWithDomPipeline) {
  const uint64_t shard = GetParam();
  // Chunk sizes come from their own generator, so the documents depend on
  // the shard alone (tests/streaming_fuzz_corpus.h).
  std::mt19937_64 chunk_rng(0xc4a2c000 + shard);
  uint64_t total_skipped_bytes = 0;
  uint64_t docs = 0;

  testutil::ForEachFuzzDocument(shard, [&](const testutil::FuzzSchemaPair& pair,
                                           uint64_t pair_seed,
                                           uint64_t doc_seed,
                                           const std::string& text) {
    ++docs;
    std::string context = "shard=" + std::to_string(shard) +
                          " pair=" + std::to_string(pair_seed) +
                          " doc=" + std::to_string(doc_seed);

    StreamingReport chunked = RunSession(*pair.relations, text, &chunk_rng);
    StreamingReport oneshot = RunSession(*pair.relations, text, nullptr);
    ExpectReportsIdentical(chunked, oneshot, context);
    total_skipped_bytes += chunked.bytes_skipped;

    DomVerdict dom = DomCast(*pair.relations, text);
    if (!dom.parsed) {
      EXPECT_FALSE(chunked.valid) << context << "\ntext: " << text;
    } else {
      EXPECT_EQ(chunked.valid, dom.valid)
          << context << "\nstream: " << chunked.violation
          << "\ndom: " << dom.violation << "\ntext: " << text;
    }
  });
  EXPECT_GE(docs, 630u);
  // The corpus includes identical source/target pairs, so the raw-byte
  // skip path must actually fire.
  EXPECT_GT(total_skipped_bytes, 0u) << "skip scanner never engaged";
}

// 16 shards x 630 documents ≈ 10k fuzzed documents.
INSTANTIATE_TEST_SUITE_P(Shards, StreamingFuzz,
                         ::testing::Range<uint64_t>(0, testutil::kFuzzShards));

}  // namespace
}  // namespace xmlreval::core
