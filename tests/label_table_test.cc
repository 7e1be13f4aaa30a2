// The per-document label table behind Document::Bind.
//
// Every element label is interned once per document; Bind and
// BindInterning resolve each distinct label once and gather the symbols
// into the rows. These tests hold that design to the contract of a
// per-node lookup: after every one of thousands of random edits and
// (re)bindings, each live element's symbol equals a naive alphabet.Find of
// its label, and BindInterning grows Σ by the same labels in the same
// order as interning every live element in row order would.
// Adversarial label sets (2^17 distinct names; names sharing their first
// and last 8 bytes) check the hash table under load.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "automata/alphabet.h"
#include "tests/test_util.h"
#include "workload/po_generator.h"
#include "xml/parser.h"
#include "xml/serializer.h"
#include "xml/tree.h"

namespace xmlreval::xml {
namespace {

using automata::Alphabet;
using automata::Symbol;

enum class Binding { kNone, kFind, kIntern };

// A parsed purchase order under random edits, with the reference state the
// checks compare against: each live element's expected label, and a copy
// of Σ grown the way the per-node interning loop would grow it.
struct Harness {
  Document doc;
  std::shared_ptr<Alphabet> alphabet = std::make_shared<Alphabet>();
  Alphabet reference;  // Σ as per-node interning would have grown it
  Binding binding = Binding::kNone;
  std::unordered_map<NodeId, std::string> label_of;  // live elements
  std::vector<NodeId> attached;  // live nodes in the tree, any kind

  void Collect(NodeId n) {
    attached.push_back(n);
    if (doc.IsElement(n)) label_of[n] = std::string(doc.label(n));
    for (NodeId c = doc.first_child(n); c != kInvalidNode;
         c = doc.next_sibling(c)) {
      Collect(c);
    }
  }

  // Σ grows under the interning binding exactly when a label is resolved.
  void NoteLabel(std::string_view label) {
    if (binding == Binding::kIntern) reference.Intern(label);
  }

  void Check(const std::string& context) {
    ASSERT_EQ(alphabet->size(), reference.size()) << context;
    for (size_t s = 0; s < reference.size(); ++s) {
      ASSERT_EQ(alphabet->Name(static_cast<Symbol>(s)),
                reference.Name(static_cast<Symbol>(s)))
          << context << " symbol " << s;
    }
    for (const auto& [node, label] : label_of) {
      ASSERT_TRUE(doc.IsAlive(node) && doc.IsElement(node)) << context;
      ASSERT_EQ(doc.label(node), label) << context << " node " << node;
      Symbol expected = automata::kUnboundSymbol;
      if (binding != Binding::kNone) {
        auto found = alphabet->Find(label);
        if (found) expected = *found;
      }
      ASSERT_EQ(doc.symbol(node), expected)
          << context << " node " << node << " label " << label;
    }
  }
};

std::string PickLabel(std::mt19937_64& rng) {
  // Labels the schema alphabet knows, labels it does not, and long names
  // that differ only in the middle.
  static const char* kKnown[] = {"item", "productName", "quantity",
                                 "USPrice", "comment", "shipDate"};
  switch (rng() % 3) {
    case 0:
      return kKnown[rng() % (sizeof(kKnown) / sizeof(kKnown[0]))];
    case 1:
      return "x" + std::to_string(rng() % 40);
    default:
      return "prefix__" + std::to_string(rng() % 40) + "__suffix";
  }
}

void RunLabelTableProperty(uint64_t seed, int ops) {
  std::mt19937_64 rng(seed);
  Harness h;
  // Σ starts with part of the purchase-order vocabulary, so find-only
  // bindings see both hits and misses.
  for (const char* label : {"purchaseOrder", "item", "quantity", "comment",
                            "x3", "prefix__7__suffix"}) {
    h.alphabet->Intern(label);
    h.reference.Intern(label);
  }
  workload::PoGeneratorOptions po;
  po.item_count = 20;
  po.seed = seed;
  auto parsed = ParseXml(Serialize(workload::GeneratePurchaseOrder(po)));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  h.doc = std::move(parsed).value();
  h.Collect(h.doc.root());
  h.Check("parsed");

  for (int op = 0; op < ops; ++op) {
    const std::string context =
        "seed " + std::to_string(seed) + " op " + std::to_string(op);
    const uint64_t roll = rng() % 100;
    const NodeId target = h.attached[rng() % h.attached.size()];
    if (roll < 4) {
      // Rebind (or drop the binding). Σ grows as the per-node loop would:
      // every live element in row order.
      const uint64_t kind = rng() % 3;
      if (kind == 0) {
        h.doc.Unbind();
        h.binding = Binding::kNone;
      } else if (kind == 1) {
        ASSERT_OK(h.doc.Bind(h.alphabet));
        h.binding = Binding::kFind;
      } else {
        ASSERT_OK(h.doc.BindInterning(h.alphabet));
        h.binding = Binding::kIntern;
        for (NodeId n = 0; n < h.doc.NodeCount(); ++n) {
          if (h.label_of.count(n) != 0) h.reference.Intern(h.label_of[n]);
        }
      }
    } else if (roll < 24) {
      if (!h.doc.IsElement(target)) continue;
      // A view taken before the rename keeps reading the old label.
      const std::string_view before = h.doc.label(target);
      const std::string old_label(before);
      const std::string label = PickLabel(rng);
      ASSERT_OK(h.doc.Rename(target, label));
      ASSERT_EQ(before, old_label) << context;
      h.NoteLabel(label);
      h.label_of[target] = label;
    } else if (roll < 40) {
      if (target == h.doc.root() || h.doc.HasChildren(target)) continue;
      ASSERT_OK(h.doc.RemoveLeaf(target));
      h.label_of.erase(target);
      for (size_t i = 0; i < h.attached.size(); ++i) {
        if (h.attached[i] == target) {
          h.attached[i] = h.attached.back();
          h.attached.pop_back();
          break;
        }
      }
    } else if (roll < 50) {
      if (!h.doc.IsElement(target)) continue;
      h.attached.push_back(h.doc.AppendNewText(target, "t"));
    } else {
      const std::string label = PickLabel(rng);
      NodeId node;
      if (roll < 75 && h.doc.IsElement(target)) {
        // The DOM builder's path, with its label prediction.
        node = h.doc.AppendNewElement(target, label);
      } else {
        node = h.doc.CreateElement(label);
        if (target == h.doc.root()) {
          ASSERT_OK(h.doc.InsertFirstChild(target, node));
        } else if (rng() % 2 == 0) {
          ASSERT_OK(h.doc.InsertBefore(target, node));
        } else {
          ASSERT_OK(h.doc.InsertAfter(target, node));
        }
      }
      h.NoteLabel(label);
      h.label_of[node] = label;
      h.attached.push_back(node);
    }
    h.Check(context);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(LabelTableTest, RandomEditsKeepSymbolsEqualToNaiveFind) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RunLabelTableProperty(seed, 3000);  // 12,000 operations in all
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(LabelTableTest, BindInterningSkipsLabelsOnlyDeadNodesCarry) {
  auto alphabet = std::make_shared<Alphabet>();
  Document doc;
  const NodeId root = doc.AppendNewElement(kInvalidNode, "r");
  const NodeId dead = doc.AppendNewElement(root, "gone");
  const NodeId renamed = doc.AppendNewElement(root, "old");
  doc.AppendNewElement(root, "b");
  doc.AppendNewElement(root, "a");
  ASSERT_OK(doc.RemoveLeaf(dead));
  ASSERT_OK(doc.Rename(renamed, "c"));
  ASSERT_OK(doc.BindInterning(alphabet));
  ASSERT_EQ(alphabet->size(), 4u);
  EXPECT_EQ(alphabet->Name(0), "r");
  EXPECT_EQ(alphabet->Name(1), "c");
  EXPECT_EQ(alphabet->Name(2), "b");
  EXPECT_EQ(alphabet->Name(3), "a");
  EXPECT_FALSE(alphabet->Find("gone").has_value());
  EXPECT_FALSE(alphabet->Find("old").has_value());
}

// Under a find-only binding a miss is not final: Σ may grow afterwards,
// and an element created then gets the new symbol, as a per-node Find
// would give it.
TEST(LabelTableTest, FindOnlyMissIsLookedUpAgainAfterSigmaGrows) {
  auto alphabet = std::make_shared<Alphabet>();
  alphabet->Intern("r");
  Document doc;
  const NodeId root = doc.AppendNewElement(kInvalidNode, "r");
  const NodeId first = doc.AppendNewElement(root, "late");
  ASSERT_OK(doc.Bind(alphabet));
  EXPECT_EQ(doc.symbol(first), automata::kUnboundSymbol);
  const Symbol late = alphabet->Intern("late");
  const NodeId second = doc.AppendNewElement(root, "late");
  EXPECT_EQ(doc.symbol(second), late);
}

// Parses `text`, binds it to a fresh alphabet by interning, and checks
// every element's label and symbol; then a find-only binding to an
// alphabet holding every other name.
void ExpectLabelsBound(const std::string& text,
                       const std::vector<std::string>& names) {
  ASSERT_OK_AND_ASSIGN(Document doc, ParseXml(text));
  auto alphabet = std::make_shared<Alphabet>();
  ASSERT_OK(doc.BindInterning(alphabet));
  ASSERT_EQ(alphabet->size(), names.size() + 1);  // + the root
  size_t i = 0;
  for (NodeId c = doc.first_child(doc.root()); c != kInvalidNode;
       c = doc.next_sibling(c), ++i) {
    ASSERT_LT(i, names.size());
    ASSERT_EQ(doc.label(c), names[i]);
    ASSERT_EQ(doc.symbol(c), *alphabet->Find(names[i])) << names[i];
    ASSERT_EQ(alphabet->Name(doc.symbol(c)), names[i]);
  }
  ASSERT_EQ(i, names.size());

  auto half = std::make_shared<Alphabet>();
  for (size_t k = 0; k < names.size(); k += 2) half->Intern(names[k]);
  ASSERT_OK(doc.Bind(half));
  i = 0;
  for (NodeId c = doc.first_child(doc.root()); c != kInvalidNode;
       c = doc.next_sibling(c), ++i) {
    const Symbol expected = i % 2 == 0 ? static_cast<Symbol>(i / 2)
                                       : automata::kUnboundSymbol;
    ASSERT_EQ(doc.symbol(c), expected) << names[i];
  }
}

std::string FlatDocument(const std::vector<std::string>& names) {
  std::string text = "<root>";
  for (const std::string& n : names) text += "<" + n + "/>";
  return text + "</root>";
}

TEST(LabelTableTest, ManyDistinctLabels) {
  std::vector<std::string> names;
  for (size_t i = 0; i < (size_t{1} << 17); ++i) {
    names.push_back("n" + std::to_string(i));
  }
  ExpectLabelsBound(FlatDocument(names), names);
}

TEST(LabelTableTest, LabelsSharingFirstAndLastEightBytes) {
  std::vector<std::string> names;
  for (size_t i = 0; i < 20000; ++i) {
    std::string middle = std::to_string(i);
    middle.insert(0, 5 - middle.size(), '0');
    names.push_back("abcdefgh" + middle + "stuvwxyz");
  }
  ExpectLabelsBound(FlatDocument(names), names);
}

}  // namespace
}  // namespace xmlreval::xml
