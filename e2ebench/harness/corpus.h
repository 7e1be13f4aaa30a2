// Seeded inputs for the three workloads, each with the verdict the
// generator's own parameters imply.
//
// Expected verdicts never come from a validator: a purchase order is
// Fig. 2-invalid exactly when the generator omitted billTo or pushed one
// item's quantity out of [1, 100), and an edit script is invalid exactly
// when it contains an edit whose kind breaks Fig. 2 (see EditKeepsValid).

#ifndef E2EBENCH_HARNESS_CORPUS_H_
#define E2EBENCH_HARNESS_CORPUS_H_

#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "core/report.h"
#include "xml/editor.h"
#include "xml/tree.h"

namespace e2ebench {

enum class Workload : uint8_t { kExp2DomCast, kExp1StreamSkip, kBrokerMix };

const char* WorkloadName(Workload workload);
bool ParseWorkload(std::string_view name, Workload* out);

/// The verdict a document's generator parameters imply under Fig. 2.
struct Expected {
  bool valid = true;
  /// Item whose quantity was set to [100, 200); -1 when none.
  int bad_item = -1;
  /// billTo was omitted (the document is only Fig. 1a-valid).
  bool missing_bill_to = false;
};

/// True when `path` (a violation's Dewey path) blames what `expected` says
/// is wrong: the injected item or a node inside it, or for a missing
/// billTo the root, whose content model no longer matches.
bool BlameMatches(const Expected& expected,
                  const std::vector<uint32_t>& path);

/// True when `report` has `expected`'s verdict and blame.
bool ReportMatches(const Expected& expected,
                   const xmlreval::core::ValidationReport& report);

struct PoSpec {
  size_t items = 2;
  bool include_bill_to = true;
  int bad_item = -1;       // item whose quantity is replaced, or -1
  int bad_quantity = 150;  // the replacement, in [100, 200)
  uint64_t seed = 1;
};

struct PoDoc {
  std::string text;
  size_t items = 0;
  Expected expect;
};

/// workload::GeneratePurchaseOrder, mutated as `spec` says and serialized.
PoDoc MakePoDoc(const PoSpec& spec);

// ---------------------------------------------------------------------
// Edit catalog (§3.3 edit streams)
// ---------------------------------------------------------------------

enum class EditKind : uint8_t {
  kInsertShipDate,     // add <shipDate>2004-07-04</shipDate> after USPrice
  kDeleteProductName,  // remove productName (its text, then the element)
  kSetQuantity,        // set quantity's text to a value in [100, 1000)
};
inline constexpr EditKind kEditKinds[] = {EditKind::kInsertShipDate,
                                          EditKind::kDeleteProductName,
                                          EditKind::kSetQuantity};

/// Whether one edit of `kind`, applied to an item it is drawn for (an
/// item without shipDate for kInsertShipDate), leaves a Fig. 2-valid
/// document valid. From the Fig. 2 Item type: shipDate is an optional
/// xsd:date after USPrice; productName is required; quantity is a
/// positiveInteger below 100.
bool EditKeepsValid(EditKind kind);

/// Node ids of one item in a fresh parse of an edit template. ParseXml
/// numbers nodes in document order, so every parse of the same text
/// yields the same ids.
struct ItemNodes {
  xmlreval::xml::NodeId product_name = xmlreval::xml::kInvalidNode;
  xmlreval::xml::NodeId product_name_text = xmlreval::xml::kInvalidNode;
  xmlreval::xml::NodeId quantity_text = xmlreval::xml::kInvalidNode;
  xmlreval::xml::NodeId us_price = xmlreval::xml::kInvalidNode;
  bool has_ship_date = false;
};

/// A source document for edit streams: its text plus the node map of a
/// reference parse.
struct EditTemplate {
  std::string text;
  size_t node_count = 0;  // NodeCount() of a fresh parse
  std::vector<ItemNodes> items;
};

EditTemplate MakeEditTemplate(size_t items, uint64_t seed);

/// Appends the operations of one edit on `item`. Nodes the edit inserts
/// take the next ids, which `next_id` tracks.
void AppendEdit(EditKind kind, const ItemNodes& item, int quantity,
                xmlreval::xml::NodeId* next_id,
                std::vector<xmlreval::xml::EditOp>* ops);

struct EditScript {
  std::vector<xmlreval::xml::EditOp> ops;
  size_t edits = 0;
  bool expect_valid = true;
};

/// 1..16 edits on distinct items of `tmpl`; kinds drawn 80/10/10 from
/// insert-shipDate / delete-productName / set-quantity.
EditScript DrawEditScript(const EditTemplate& tmpl, std::mt19937_64* rng);

// ---------------------------------------------------------------------
// Corpora
// ---------------------------------------------------------------------

struct Corpus {
  /// Documents cast Fig. 1a → Fig. 2 (exp1_stream_skip, broker_mix).
  std::vector<PoDoc> exp1;
  /// Documents cast Fig. 2 (quantity < 200) → Fig. 2 (exp2_dom_cast,
  /// broker_mix).
  std::vector<PoDoc> exp2;
  /// Documents fully validated against Fig. 2 (broker_mix).
  std::vector<PoDoc> validate;
  /// Edit-stream source documents (broker_mix).
  std::vector<EditTemplate> edits;

  /// FNV-1a 64 over every text and expected verdict, in order.
  uint64_t Fingerprint() const;
};

Corpus MakeCorpus(Workload workload, uint64_t seed);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_CORPUS_H_
