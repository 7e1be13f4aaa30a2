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
// fed 64 KiB chunks into a DomBuilder.
//
// BM_SkipScan times the experiment-1 skip path alone: xml::SkipScanner
// over the <items> body of a serialized 10,000-item purchase order, fed in
// 64 KiB chunks, as a streaming cast hands it a subsumed subtree.
//
// BM_Bind times Document::Bind of a parsed 1000-item order to the
// experiment-2 alphabet: one lookup per distinct label, then a gather of
// symbols into the rows.
//
// Everything lands in BENCH_binding.json for CI consumption;
// tokenize_ns_per_byte, skip_ns_per_byte and bind_ns_per_node are gated.

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
#include "xml/skip_scanner.h"

namespace {

using namespace xmlreval;

// Median ns per unit (input byte, node) of `run` over `reps` timed runs
// of `units` units each, after warm-up; `run` returns false on a failure,
// which aborts.
template <typename Run>
double MedianNsPer(size_t units, int reps, Run&& run) {
  using Clock = std::chrono::steady_clock;
  constexpr int kWarmup = 5;
  std::vector<double> samples;
  samples.reserve(reps);
  for (int rep = 0; rep < kWarmup + reps; ++rep) {
    auto start = Clock::now();
    const bool ok = run();
    auto stop = Clock::now();
    if (!ok) {
      std::fprintf(stderr, "bench_binding: run failed\n");
      std::abort();
    }
    if (rep >= kWarmup) {
      samples.push_back(
          double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                     stop - start)
                     .count()) /
          double(units));
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
  costs.tokenize_ns_per_byte = MedianNsPer(text.size(), kReps, [&] {
    xml::SaxHandler null_handler;
    xml::PushParser parser(&null_handler);
    return parser.Feed(text).ok() && parser.Finish().ok();
  });
  costs.parse_ns_per_byte = MedianNsPer(text.size(), kReps, [&] {
    return xml::ParseXml(text).ok();
  });
  costs.push_dom_ns_per_byte = MedianNsPer(text.size(), kReps, [&] {
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

// Median ns per byte of SkipScanner over the <items> body (from just past
// its start tag's '>' through its end tag) of a 10,000-item order.
double BM_SkipScan() {
  constexpr int kReps = 41;
  constexpr size_t kChunkBytes = 64 * 1024;
  workload::PoGeneratorOptions options;
  options.item_count = 10000;
  const std::string text =
      xml::Serialize(workload::GeneratePurchaseOrder(options));
  const size_t open = text.find("<items>");
  const size_t close = text.rfind("</items>");
  if (open == std::string::npos || close == std::string::npos) {
    std::fprintf(stderr, "BM_SkipScan: no <items> element\n");
    std::abort();
  }
  const std::string_view body = std::string_view(text).substr(
      open + 7, close + 8 - (open + 7));
  xml::SkipScanner scanner;
  const double ns = MedianNsPer(body.size(), kReps, [&] {
    scanner.Begin();
    for (size_t pos = 0; pos < body.size(); pos += kChunkBytes) {
      size_t consumed = 0;
      switch (scanner.Scan(body.substr(pos, kChunkBytes), &consumed)) {
        case xml::SkipScanner::Result::kNeedMore:
          break;
        case xml::SkipScanner::Result::kDone:
          return pos + consumed == body.size();
        case xml::SkipScanner::Result::kError:
          return false;
      }
    }
    return false;
  });
  std::printf("\nBM_SkipScan: <items> body of a 10000-item order (%zu bytes), "
              "64 KiB chunks\n%-24s %10.3f ns/byte\n",
              body.size(), "skip scan", ns);
  return ns;
}

// Median ns per node of Document::Bind of a parsed `items`-item order to
// `alphabet`, over every row the document holds.
double BM_Bind(const std::shared_ptr<automata::Alphabet>& alphabet,
               size_t items) {
  constexpr int kReps = 41;
  workload::PoGeneratorOptions options;
  options.item_count = items;
  auto doc = xml::ParseXml(
      xml::Serialize(workload::GeneratePurchaseOrder(options)));
  if (!doc.ok()) {
    std::fprintf(stderr, "BM_Bind: %s\n", doc.status().ToString().c_str());
    std::abort();
  }
  const double ns = MedianNsPer(doc->NodeCount(), kReps, [&] {
    return doc->Bind(alphabet).ok();
  });
  std::printf("\nBM_Bind: parsed %zu-item order (%zu nodes)\n"
              "%-24s %10.3f ns/node\n",
              items, doc->NodeCount(), "Document::Bind", ns);
  return ns;
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

  const double skip_ns_per_byte = BM_SkipScan();
  const double bind_ns_per_node = BM_Bind(pair.alphabet, kItems);

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
       {"push_dom_ns_per_byte_1000", large.push_dom_ns_per_byte},
       {"skip_ns_per_byte", skip_ns_per_byte},
       {"bind_ns_per_node", bind_ns_per_node}});
  std::printf("\nwrote BENCH_binding.json\n");
  return bound_nodes == nodes ? 0 : 1;
}
