// The random document corpus of the streaming fuzz test, shared with the
// tokenizer golden test so both exercise exactly the same bytes.
//
// Each of the 16 shards draws 7 related random schema pairs (source plus a
// mutated target, with their TypeRelations) and 90 documents sampled from
// each source schema. Every third document is cut at a random byte, so
// cuts land mid-tag, mid-text and mid-skip. Generation depends only on the
// shard number: callers that also need randomness (chunk sizes) must use
// their own generator.

#ifndef XMLREVAL_TESTS_STREAMING_FUZZ_CORPUS_H_
#define XMLREVAL_TESTS_STREAMING_FUZZ_CORPUS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <utility>

#include "core/relations.h"
#include "schema/abstract_schema.h"
#include "workload/random_docs.h"
#include "workload/random_schemas.h"
#include "xml/serializer.h"

namespace xmlreval::testutil {

inline constexpr uint64_t kFuzzShards = 16;
inline constexpr uint64_t kFuzzPairsPerShard = 7;
inline constexpr uint64_t kFuzzDocsPerPair = 90;

struct FuzzSchemaPair {
  std::shared_ptr<schema::Alphabet> alphabet;
  std::unique_ptr<schema::Schema> source;
  std::unique_ptr<schema::Schema> target;
  std::unique_ptr<core::TypeRelations> relations;
};

inline FuzzSchemaPair MakeFuzzSchemaPair(uint64_t seed) {
  FuzzSchemaPair pair;
  pair.alphabet = std::make_shared<schema::Alphabet>();
  workload::RandomSchemaOptions schema_options;
  schema_options.seed = seed;
  schema_options.complex_types = 3 + seed % 5;
  auto source = workload::GenerateRandomSchema(pair.alphabet, schema_options);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  pair.source = std::make_unique<schema::Schema>(std::move(source).value());
  workload::MutationOptions mutation_options;
  mutation_options.seed = seed * 13 + 5;
  mutation_options.mutations = seed % 5;  // 0 = identical pair: max skipping
  auto target = workload::MutateSchema(*pair.source, mutation_options);
  EXPECT_TRUE(target.ok()) << target.status().ToString();
  pair.target = std::make_unique<schema::Schema>(std::move(target).value());
  auto relations =
      core::TypeRelations::Compute(pair.source.get(), pair.target.get());
  EXPECT_TRUE(relations.ok()) << relations.status().ToString();
  pair.relations =
      std::make_unique<core::TypeRelations>(std::move(relations).value());
  return pair;
}

/// Calls fn(pair, pair_seed, doc_seed, text) for every document of
/// `shard`, in a fixed order.
template <typename Fn>
void ForEachFuzzDocument(uint64_t shard, Fn&& fn) {
  std::mt19937_64 rng(0x5eed0000 + shard);
  uint64_t docs = 0;
  for (uint64_t pair_seed = 1; pair_seed <= kFuzzPairsPerShard; ++pair_seed) {
    FuzzSchemaPair pair = MakeFuzzSchemaPair(shard * 101 + pair_seed);
    for (uint64_t doc_seed = 1; doc_seed <= kFuzzDocsPerPair; ++doc_seed) {
      workload::RandomDocOptions options;
      options.seed = doc_seed * 61 + shard;
      options.root_label = "root";
      options.max_elements = 1 + static_cast<size_t>(rng() % 60);
      auto doc = workload::SampleDocument(*pair.source, options);
      ASSERT_TRUE(doc.ok()) << doc.status().ToString();
      std::string text = xml::Serialize(*doc);
      if (docs % 3 == 2 && text.size() > 1) {
        text.resize(1 + rng() % (text.size() - 1));
      }
      ++docs;
      fn(static_cast<const FuzzSchemaPair&>(pair), pair_seed, doc_seed,
         static_cast<const std::string&>(text));
    }
  }
}

}  // namespace xmlreval::testutil

#endif  // XMLREVAL_TESTS_STREAMING_FUZZ_CORPUS_H_
