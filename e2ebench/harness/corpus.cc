#include "harness/corpus.h"

#include <algorithm>
#include <numeric>

#include "common/macros.h"
#include "workload/po_generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace e2ebench {

namespace {

using xmlreval::xml::Document;
using xmlreval::xml::EditOp;
using xmlreval::xml::NodeId;

// The paper's item grid for small documents (Table 2).
constexpr size_t kItemGrid[] = {2, 50, 100, 200};

// Root children of a purchase order: shipTo, billTo, items.
constexpr uint32_t kItemsOrdinal = 2;

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Child `ordinal` of `node` (elements only in generated documents).
NodeId ChildAt(const Document& doc, NodeId node, size_t ordinal) {
  NodeId child = doc.first_child(node);
  for (size_t i = 0; i < ordinal && child != xmlreval::xml::kInvalidNode; ++i) {
    child = doc.next_sibling(child);
  }
  XMLREVAL_CHECK(child != xmlreval::xml::kInvalidNode, "missing child");
  return child;
}

NodeId ItemsNode(const Document& doc) {
  return doc.last_child(doc.root());
}

// Indices [0, n) in a seeded order; the first n / 10 are the invalid ones.
std::vector<size_t> InvalidSet(size_t n, std::mt19937_64* rng) {
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), *rng);
  order.resize(n / 10);
  std::sort(order.begin(), order.end());
  return order;
}

bool Contains(const std::vector<size_t>& sorted, size_t i) {
  return std::binary_search(sorted.begin(), sorted.end(), i);
}

enum class Fault { kBadQuantity, kMissingBillTo };

// `count` documents, one tenth of them invalid by `fault`; item counts
// fixed at `items`, or cycling through the grid when `items` is 0.
std::vector<PoDoc> MakePool(size_t count, size_t items, Fault fault,
                            uint64_t seed) {
  std::mt19937_64 rng(SplitMix(seed));
  const std::vector<size_t> invalid = InvalidSet(count, &rng);
  std::vector<PoDoc> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    PoSpec spec;
    spec.items = items != 0 ? items : kItemGrid[i % std::size(kItemGrid)];
    spec.seed = SplitMix(seed ^ (i + 1));
    if (Contains(invalid, i)) {
      if (fault == Fault::kMissingBillTo) {
        spec.include_bill_to = false;
      } else {
        spec.bad_item =
            static_cast<int>(std::uniform_int_distribution<size_t>(
                0, spec.items - 1)(rng));
        spec.bad_quantity = std::uniform_int_distribution<int>(100, 199)(rng);
      }
    }
    pool.push_back(MakePoDoc(spec));
  }
  return pool;
}

void HashBytes(uint64_t* h, std::string_view bytes) {
  for (unsigned char c : bytes) {
    *h ^= c;
    *h *= 0x100000001b3ULL;
  }
}

void HashInt(uint64_t* h, int64_t v) {
  HashBytes(h, std::string_view(reinterpret_cast<const char*>(&v), sizeof v));
}

}  // namespace

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kExp2DomCast: return "exp2_dom_cast";
    case Workload::kExp1StreamSkip: return "exp1_stream_skip";
    case Workload::kBrokerMix: return "broker_mix";
  }
  return "?";
}

bool ParseWorkload(std::string_view name, Workload* out) {
  for (Workload w : {Workload::kExp2DomCast, Workload::kExp1StreamSkip,
                     Workload::kBrokerMix}) {
    if (name == WorkloadName(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

bool BlameMatches(const Expected& expected,
                  const std::vector<uint32_t>& path) {
  if (expected.bad_item >= 0) {
    return path.size() >= 2 && path[0] == kItemsOrdinal &&
           path[1] == static_cast<uint32_t>(expected.bad_item);
  }
  if (expected.missing_bill_to) return path.empty();
  return false;
}

bool ReportMatches(const Expected& expected,
                   const xmlreval::core::ValidationReport& report) {
  if (report.valid != expected.valid) return false;
  return expected.valid ||
         BlameMatches(expected, report.violation_path.components());
}

PoDoc MakePoDoc(const PoSpec& spec) {
  xmlreval::workload::PoGeneratorOptions options;
  options.item_count = spec.items;
  options.include_bill_to = spec.include_bill_to;
  options.seed = spec.seed;
  Document doc = xmlreval::workload::GeneratePurchaseOrder(options);

  PoDoc out;
  out.items = spec.items;
  out.expect.missing_bill_to = !spec.include_bill_to;
  if (spec.bad_item >= 0) {
    XMLREVAL_CHECK(spec.include_bill_to && spec.bad_quantity >= 100 &&
                       spec.bad_quantity < 200 &&
                       static_cast<size_t>(spec.bad_item) < spec.items,
                   "bad PoSpec");
    const NodeId item =
        ChildAt(doc, ItemsNode(doc), static_cast<size_t>(spec.bad_item));
    const NodeId quantity_text = doc.first_child(ChildAt(doc, item, 1));
    XMLREVAL_CHECK(
        doc.SetText(quantity_text, std::to_string(spec.bad_quantity)).ok(),
        "SetText failed");
    out.expect.bad_item = spec.bad_item;
  }
  out.expect.valid = out.expect.bad_item < 0 && !out.expect.missing_bill_to;
  out.text = xmlreval::xml::Serialize(doc);
  return out;
}

bool EditKeepsValid(EditKind kind) {
  return kind == EditKind::kInsertShipDate;
}

EditTemplate MakeEditTemplate(size_t items, uint64_t seed) {
  PoSpec spec;
  spec.items = items;
  spec.seed = seed;
  EditTemplate tmpl;
  tmpl.text = MakePoDoc(spec).text;
  auto doc = xmlreval::xml::ParseXml(tmpl.text);
  XMLREVAL_CHECK(doc.ok(), "edit template does not parse");
  tmpl.node_count = doc->NodeCount();
  for (NodeId item = doc->first_child(ItemsNode(*doc));
       item != xmlreval::xml::kInvalidNode; item = doc->next_sibling(item)) {
    ItemNodes nodes;
    nodes.product_name = ChildAt(*doc, item, 0);
    nodes.product_name_text = doc->first_child(nodes.product_name);
    nodes.quantity_text = doc->first_child(ChildAt(*doc, item, 1));
    nodes.us_price = ChildAt(*doc, item, 2);
    nodes.has_ship_date = doc->CountChildren(item) == 4;
    tmpl.items.push_back(nodes);
  }
  return tmpl;
}

void AppendEdit(EditKind kind, const ItemNodes& item, int quantity,
                NodeId* next_id, std::vector<EditOp>* ops) {
  switch (kind) {
    case EditKind::kInsertShipDate: {
      const NodeId ship_date = (*next_id)++;
      ops->push_back({EditOp::Kind::kInsertElementAfter, item.us_price,
                      "shipDate"});
      ops->push_back({EditOp::Kind::kInsertTextFirstChild, ship_date,
                      "2004-07-04"});
      ++*next_id;
      return;
    }
    case EditKind::kDeleteProductName:
      ops->push_back({EditOp::Kind::kDeleteLeaf, item.product_name_text, ""});
      ops->push_back({EditOp::Kind::kDeleteLeaf, item.product_name, ""});
      return;
    case EditKind::kSetQuantity:
      ops->push_back({EditOp::Kind::kUpdateText, item.quantity_text,
                      std::to_string(quantity)});
      return;
  }
}

EditScript DrawEditScript(const EditTemplate& tmpl, std::mt19937_64* rng) {
  std::vector<size_t> order(tmpl.items.size());
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), *rng);
  std::vector<bool> used(tmpl.items.size(), false);

  EditScript script;
  NodeId next_id = static_cast<NodeId>(tmpl.node_count);
  const size_t edits = std::uniform_int_distribution<size_t>(1, 16)(*rng);
  for (size_t e = 0; e < edits; ++e) {
    const int roll = std::uniform_int_distribution<int>(1, 10)(*rng);
    const EditKind kind = roll <= 8    ? EditKind::kInsertShipDate
                          : roll == 9 ? EditKind::kDeleteProductName
                                      : EditKind::kSetQuantity;
    const int quantity = std::uniform_int_distribution<int>(100, 999)(*rng);
    // The first unused item the edit applies to, in the shuffled order.
    auto it = std::find_if(order.begin(), order.end(), [&](size_t i) {
      return !used[i] && (kind != EditKind::kInsertShipDate ||
                          !tmpl.items[i].has_ship_date);
    });
    if (it == order.end()) continue;
    used[*it] = true;
    AppendEdit(kind, tmpl.items[*it], quantity, &next_id, &script.ops);
    ++script.edits;
    script.expect_valid = script.expect_valid && EditKeepsValid(kind);
  }
  return script;
}

uint64_t Corpus::Fingerprint() const {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::vector<PoDoc>* pool : {&exp1, &exp2, &validate}) {
    HashInt(&h, static_cast<int64_t>(pool->size()));
    for (const PoDoc& doc : *pool) {
      HashBytes(&h, doc.text);
      HashInt(&h, doc.expect.valid);
      HashInt(&h, doc.expect.bad_item);
      HashInt(&h, doc.expect.missing_bill_to);
    }
  }
  HashInt(&h, static_cast<int64_t>(edits.size()));
  for (const EditTemplate& tmpl : edits) HashBytes(&h, tmpl.text);
  return h;
}

Corpus MakeCorpus(Workload workload, uint64_t seed) {
  Corpus corpus;
  switch (workload) {
    case Workload::kExp2DomCast:
      corpus.exp2 = MakePool(60, 1000, Fault::kBadQuantity, seed);
      break;
    case Workload::kExp1StreamSkip:
      corpus.exp1 = MakePool(20, 10000, Fault::kMissingBillTo, seed);
      break;
    case Workload::kBrokerMix:
      corpus.exp1 = MakePool(40, 0, Fault::kMissingBillTo, seed * 3 + 1);
      corpus.exp2 = MakePool(40, 0, Fault::kBadQuantity, seed * 3 + 2);
      corpus.validate = MakePool(40, 0, Fault::kMissingBillTo, seed * 3 + 3);
      for (uint64_t i = 0; i < 8; ++i) {
        corpus.edits.push_back(MakeEditTemplate(200, SplitMix(seed * 16 + i)));
      }
      break;
  }
  return corpus;
}

}  // namespace e2ebench
