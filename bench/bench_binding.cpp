// Symbol-binding microbenchmark: the same schema-cast validation over the
// same document, bound vs. unbound.
//
// The Experiment 2 pair (quantity<200 → quantity<100) is deliberately NOT
// subsumption-friendly: every <item> subtree must be walked, so the cast
// validator's per-node work dominates. On an unbound document that work
// includes one Alphabet::Find (a string hash + compare) per element; on a
// document bound to the pair's alphabet the symbol is a direct field read.
// Reports median ns per visited node for both paths and the speedup.
//
// BM_ParseXml times what comes before the walk on the same purchase
// orders, serialized (100 and 1000 items): the tokenizer alone (PushParser
// into a null handler, one Feed), a one-shot ParseXml, and a PushParser
// fed 64 KiB chunks into a DomBuilder. Everything lands in
// BENCH_binding.json for CI consumption; tokenize_ns_per_byte is gated.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/cast_validator.h"
#include "workload/po_generator.h"
#include "xml/parser.h"
#include "xml/push_parser.h"
#include "xml/serializer.h"

namespace {

using namespace xmlreval;

// Median ns per input byte of `parse` over `reps` timed runs, after
// warm-up; `parse` returns false on a parse failure, which aborts.
template <typename Parse>
double MedianNsPerByte(size_t bytes, int reps, Parse&& parse) {
  using Clock = std::chrono::steady_clock;
  constexpr int kWarmup = 5;
  std::vector<double> samples;
  samples.reserve(reps);
  for (int rep = 0; rep < kWarmup + reps; ++rep) {
    auto start = Clock::now();
    const bool ok = parse();
    auto stop = Clock::now();
    if (!ok) {
      std::fprintf(stderr, "BM_ParseXml: parse failed\n");
      std::abort();
    }
    if (rep >= kWarmup) {
      samples.push_back(
          double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     stop - start)
                     .count()) /
          double(bytes));
    }
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

// Parse costs per input byte for one serialized purchase order.
struct ParseCosts {
  size_t items = 0;
  size_t bytes = 0;
  double tokenize_ns_per_byte = 0;
  double parse_ns_per_byte = 0;
  double push_dom_ns_per_byte = 0;
};

ParseCosts BM_ParseXml(size_t items) {
  constexpr int kReps = 41;
  constexpr size_t kChunkBytes = 64 * 1024;
  workload::PoGeneratorOptions options;
  options.item_count = items;
  const std::string text =
      xml::Serialize(workload::GeneratePurchaseOrder(options));
  ParseCosts costs;
  costs.items = items;
  costs.bytes = text.size();
  costs.tokenize_ns_per_byte = MedianNsPerByte(text.size(), kReps, [&] {
    xml::SaxHandler null_handler;
    xml::PushParser parser(&null_handler);
    return parser.Feed(text).ok() && parser.Finish().ok();
  });
  costs.parse_ns_per_byte = MedianNsPerByte(text.size(), kReps, [&] {
    return xml::ParseXml(text).ok();
  });
  costs.push_dom_ns_per_byte = MedianNsPerByte(text.size(), kReps, [&] {
    xml::DomBuilder builder;
    xml::PushParser parser(&builder);
    for (size_t pos = 0; pos < text.size(); pos += kChunkBytes) {
      if (!parser.Feed(std::string_view(text).substr(pos, kChunkBytes)).ok()) {
        return false;
      }
    }
    if (!parser.Finish().ok()) return false;
    return builder.Take().document.has_root();
  });
  return costs;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ConsumeForceFlag(&argc, argv);
  using Clock = std::chrono::steady_clock;

  constexpr size_t kItems = 1000;
  constexpr int kReps = 41;
  constexpr int kWarmup = 5;

  bench::SchemaPair& pair = bench::Experiment2Pair();
  core::CastValidator validator(pair.relations.get());

  workload::PoGeneratorOptions options;
  options.item_count = kItems;
  xml::Document unbound = workload::GeneratePurchaseOrder(options);
  xml::Document bound = workload::GeneratePurchaseOrder(options);
  if (!bound.Bind(pair.alphabet).ok()) {
    std::fprintf(stderr, "Bind failed\n");
    return 1;
  }

  auto median_ns_per_node = [&](const xml::Document& doc) {
    uint64_t nodes = 0;
    std::vector<double> samples;
    samples.reserve(kReps);
    for (int rep = 0; rep < kWarmup + kReps; ++rep) {
      auto start = Clock::now();
      core::ValidationReport report = validator.Validate(doc);
      auto stop = Clock::now();
      if (!report.valid) {
        std::fprintf(stderr, "unexpected invalid verdict: %s\n",
                     report.violation.c_str());
        std::abort();
      }
      nodes = report.counters.nodes_visited;
      if (rep >= kWarmup) {
        samples.push_back(
            double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                       stop - start)
                       .count()) /
            double(nodes));
      }
    }
    std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                     samples.end());
    return std::pair<double, uint64_t>(samples[samples.size() / 2], nodes);
  };

  auto [unbound_ns, nodes] = median_ns_per_node(unbound);
  auto [bound_ns, bound_nodes] = median_ns_per_node(bound);
  double speedup = unbound_ns / bound_ns;
  // Resident footprint of the SoA layout, amortised over every node the
  // document holds (topology columns + payload refs + string arena +
  // attribute side table).
  double bytes_per_node =
      double(bound.MemoryUsage().total()) / double(bound.NodeCount());

  std::printf("Symbol binding: cast validation, %zu items (%llu nodes)\n",
              kItems, static_cast<unsigned long long>(nodes));
  std::printf("%-24s %10.2f ns/node\n", "unbound (Find per node)", unbound_ns);
  std::printf("%-24s %10.2f ns/node\n", "bound (symbol read)", bound_ns);
  std::printf("%-24s %10.2fx\n", "speedup", speedup);
  std::printf("%-24s %10.2f bytes/node\n", "document footprint",
              bytes_per_node);

  const ParseCosts small = BM_ParseXml(100);
  const ParseCosts large = BM_ParseXml(kItems);
  std::printf("\nBM_ParseXml: serialized purchase orders, ns per input byte\n");
  std::printf("%-10s %10s %12s %12s %14s\n", "items", "bytes", "tokenize",
              "ParseXml", "push 64K DOM");
  for (const ParseCosts* c : {&small, &large}) {
    std::printf("%-10zu %10zu %12.2f %12.2f %14.2f\n", c->items, c->bytes,
                c->tokenize_ns_per_byte, c->parse_ns_per_byte,
                c->push_dom_ns_per_byte);
  }

  bench::WriteBenchJson(
      "BENCH_binding.json", "bench_binding",
      {{"hardware_concurrency", double(std::thread::hardware_concurrency())},
       {"items", double(kItems)},
       {"nodes_visited", double(nodes)},
       {"unbound_ns_per_node", unbound_ns},
       {"bound_ns_per_node", bound_ns},
       {"speedup", speedup},
       {"bytes_per_node", bytes_per_node},
       {"tokenize_ns_per_byte", large.tokenize_ns_per_byte},
       {"parse_ns_per_byte_100", small.parse_ns_per_byte},
       {"parse_ns_per_byte_1000", large.parse_ns_per_byte},
       {"push_dom_ns_per_byte_100", small.push_dom_ns_per_byte},
       {"push_dom_ns_per_byte_1000", large.push_dom_ns_per_byte}});
  std::printf("\nwrote BENCH_binding.json\n");
  return bound_nodes == nodes ? 0 : 1;
}
