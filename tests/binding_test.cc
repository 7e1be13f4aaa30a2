// Symbol binding: Document ↔ Alphabet coherence.
//
// The tentpole invariant: for every live element n of a bound document,
//   doc.symbol(n) == *alphabet.Find(doc.label(n))   when the label is in Σ,
//   doc.symbol(n) == kUnboundSymbol                 otherwise,
// maintained across CreateElement, Rename, editor batches, bind /
// re-bind / unbind, and parsing with an interning alphabet.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "automata/alphabet.h"
#include "tests/test_util.h"
#include "xml/editor.h"
#include "xml/label_index.h"
#include "xml/parser.h"
#include "xml/tree.h"

namespace xmlreval {
namespace {

using automata::Alphabet;
using automata::kUnboundSymbol;
using automata::Symbol;

// Checks the binding invariant for every live element.
void ExpectCoherent(const xml::Document& doc, const Alphabet& alphabet) {
  for (xml::NodeId n = 0; n < doc.NodeCount(); ++n) {
    if (!doc.IsAlive(n) || !doc.IsElement(n)) continue;
    auto found = alphabet.Find(doc.label(n));
    if (found) {
      EXPECT_EQ(doc.symbol(n), *found) << "label " << doc.label(n);
    } else {
      EXPECT_EQ(doc.symbol(n), kUnboundSymbol) << "label " << doc.label(n);
    }
  }
}

TEST(BindingTest, UnboundDocumentUsesSentinel) {
  xml::Document doc;
  xml::NodeId root = doc.CreateElement("po");
  ASSERT_OK(doc.SetRoot(root));
  EXPECT_FALSE(doc.IsBound());
  EXPECT_EQ(doc.symbol(root), kUnboundSymbol);
}

TEST(BindingTest, BindResolvesExistingNodes) {
  auto alphabet = std::make_shared<Alphabet>();
  Symbol po = alphabet->Intern("po");
  Symbol item = alphabet->Intern("item");

  xml::Document doc;
  xml::NodeId root = doc.CreateElement("po");
  ASSERT_OK(doc.SetRoot(root));
  xml::NodeId c1 = doc.CreateElement("item");
  ASSERT_OK(doc.AppendChild(root, c1));
  xml::NodeId stranger = doc.CreateElement("not-in-sigma");
  ASSERT_OK(doc.AppendChild(root, stranger));

  ASSERT_OK(doc.Bind(alphabet));
  EXPECT_TRUE(doc.IsBound());
  EXPECT_TRUE(doc.BoundTo(*alphabet));
  EXPECT_EQ(doc.symbol(root), po);
  EXPECT_EQ(doc.symbol(c1), item);
  EXPECT_EQ(doc.symbol(stranger), kUnboundSymbol);
  ExpectCoherent(doc, *alphabet);
}

TEST(BindingTest, BindIsFindOnly) {
  auto alphabet = std::make_shared<Alphabet>();
  alphabet->Intern("po");
  size_t size_before = alphabet->size();

  xml::Document doc;
  ASSERT_OK(doc.SetRoot(doc.CreateElement("po")));
  ASSERT_OK(doc.AppendChild(doc.root(), doc.CreateElement("new-label")));
  ASSERT_OK(doc.Bind(alphabet));
  EXPECT_EQ(alphabet->size(), size_before);  // Σ untouched
}

TEST(BindingTest, BindInterningGrowsAlphabet) {
  auto alphabet = std::make_shared<Alphabet>();
  xml::Document doc;
  ASSERT_OK(doc.SetRoot(doc.CreateElement("po")));
  ASSERT_OK(doc.BindInterning(alphabet));
  // Existing node was interned.
  EXPECT_EQ(doc.symbol(doc.root()), *alphabet->Find("po"));
  // Future creations intern too.
  xml::NodeId c = doc.CreateElement("fresh");
  ASSERT_OK(doc.AppendChild(doc.root(), c));
  ASSERT_TRUE(alphabet->Find("fresh").has_value());
  EXPECT_EQ(doc.symbol(c), *alphabet->Find("fresh"));
  ExpectCoherent(doc, *alphabet);
}

TEST(BindingTest, CreateAndRenameStayCoherent) {
  auto alphabet = std::make_shared<Alphabet>();
  Symbol a = alphabet->Intern("a");
  Symbol b = alphabet->Intern("b");

  xml::Document doc;
  ASSERT_OK(doc.SetRoot(doc.CreateElement("a")));
  ASSERT_OK(doc.Bind(alphabet));
  EXPECT_EQ(doc.symbol(doc.root()), a);

  // Rename within Σ.
  ASSERT_OK(doc.Rename(doc.root(), "b"));
  EXPECT_EQ(doc.symbol(doc.root()), b);
  // Rename out of Σ degrades to the sentinel (find-only bind).
  ASSERT_OK(doc.Rename(doc.root(), "zzz"));
  EXPECT_EQ(doc.symbol(doc.root()), kUnboundSymbol);
  // And back.
  ASSERT_OK(doc.Rename(doc.root(), "a"));
  EXPECT_EQ(doc.symbol(doc.root()), a);
  ExpectCoherent(doc, *alphabet);
}

TEST(BindingTest, UnbindResetsSymbols) {
  auto alphabet = std::make_shared<Alphabet>();
  alphabet->Intern("a");
  xml::Document doc;
  ASSERT_OK(doc.SetRoot(doc.CreateElement("a")));
  ASSERT_OK(doc.Bind(alphabet));
  ASSERT_NE(doc.symbol(doc.root()), kUnboundSymbol);
  doc.Unbind();
  EXPECT_FALSE(doc.IsBound());
  EXPECT_EQ(doc.symbol(doc.root()), kUnboundSymbol);
}

TEST(BindingTest, RebindToDifferentAlphabetReResolves) {
  auto first = std::make_shared<Alphabet>();
  Symbol a1 = first->Intern("x");
  auto second = std::make_shared<Alphabet>();
  second->Intern("pad");  // shift ids so x differs between alphabets
  Symbol a2 = second->Intern("x");
  ASSERT_NE(a1, a2);

  xml::Document doc;
  ASSERT_OK(doc.SetRoot(doc.CreateElement("x")));
  ASSERT_OK(doc.Bind(first));
  EXPECT_EQ(doc.symbol(doc.root()), a1);
  ASSERT_OK(doc.Bind(second));
  EXPECT_TRUE(doc.BoundTo(*second));
  EXPECT_FALSE(doc.BoundTo(*first));
  EXPECT_EQ(doc.symbol(doc.root()), a2);
}

// Parse, then BindInterning: the one way to intern a parsed document.
TEST(BindingTest, ParserInternsWhenGivenAlphabet) {
  auto alphabet = std::make_shared<Alphabet>();
  ASSERT_OK_AND_ASSIGN(
      xml::Document doc,
      xml::ParseXml("<po><item>1</item><item>2</item></po>"));
  ASSERT_OK(doc.BindInterning(alphabet));
  EXPECT_TRUE(doc.IsBound());
  EXPECT_TRUE(doc.BoundTo(*alphabet));
  ASSERT_TRUE(alphabet->Find("po").has_value());
  ASSERT_TRUE(alphabet->Find("item").has_value());
  EXPECT_EQ(doc.symbol(doc.root()), *alphabet->Find("po"));
  ExpectCoherent(doc, *alphabet);
}

TEST(BindingTest, ElementChildRangeSkipsTextAndMatchesHelper) {
  ASSERT_OK_AND_ASSIGN(
      xml::Document doc,
      xml::ParseXml("<r>text<a/>more<b/><c/>tail</r>"));
  std::vector<xml::NodeId> from_range;
  for (xml::NodeId c : xml::ElementChildRange(doc, doc.root())) {
    from_range.push_back(c);
  }
  EXPECT_EQ(from_range, xml::ElementChildren(doc, doc.root()));
  ASSERT_EQ(from_range.size(), 3u);
  EXPECT_EQ(doc.label(from_range[0]), "a");
  EXPECT_EQ(doc.label(from_range[2]), "c");

  // Empty and element-free parents.
  EXPECT_TRUE(xml::ElementChildRange(doc, from_range[0]).empty());
  EXPECT_FALSE(xml::ElementChildRange(doc, doc.root()).empty());
}

TEST(BindingTest, LabelIndexSymbolBuckets) {
  auto alphabet = std::make_shared<Alphabet>();
  Symbol item = alphabet->Intern("item");
  ASSERT_OK_AND_ASSIGN(
      xml::Document doc,
      xml::ParseXml("<po><item/><item/><other/></po>"));

  // Unbound build: no symbol buckets.
  xml::LabelIndex unbound_index = xml::LabelIndex::Build(doc);
  EXPECT_FALSE(unbound_index.HasSymbolBuckets());
  EXPECT_TRUE(unbound_index.Instances(item).empty());

  ASSERT_OK(doc.Bind(alphabet));
  xml::LabelIndex index = xml::LabelIndex::Build(doc);
  EXPECT_TRUE(index.HasSymbolBuckets());
  EXPECT_EQ(index.Instances(item).size(), 2u);
  EXPECT_EQ(index.Instances(item), index.Instances("item"));
  // "po" and "other" are out of Σ: string index only, marker set.
  EXPECT_EQ(index.Instances("other").size(), 1u);
  EXPECT_NE(index.FirstUnbound(), xml::kInvalidNode);
  EXPECT_EQ(index.FirstUnbound(), doc.root());  // first in document order
}

TEST(BindingTest, EditorTracksOldAndNewSymbols) {
  auto alphabet = std::make_shared<Alphabet>();
  Symbol a = alphabet->Intern("a");
  Symbol b = alphabet->Intern("b");
  Symbol r = alphabet->Intern("r");

  ASSERT_OK_AND_ASSIGN(xml::Document doc, xml::ParseXml("<r><a/></r>"));
  ASSERT_OK(doc.Bind(alphabet));
  xml::NodeId child = xml::ElementChildren(doc, doc.root())[0];

  xml::DocumentEditor editor(&doc);
  ASSERT_OK(editor.RenameElement(child, "b"));
  ASSERT_OK_AND_ASSIGN(xml::NodeId inserted,
                       editor.InsertElementAfter(child, "a"));
  xml::ModificationIndex mods = editor.Seal();

  // Renamed node: old symbol is the pre-edit one, new is the current one.
  EXPECT_EQ(mods.OldSymbol(doc, child), std::optional<Symbol>(a));
  EXPECT_EQ(mods.NewSymbol(doc, child), std::optional<Symbol>(b));
  // Inserted node: no old symbol, new symbol resolves.
  EXPECT_EQ(mods.OldSymbol(doc, inserted), std::nullopt);
  EXPECT_EQ(mods.NewSymbol(doc, inserted), std::optional<Symbol>(a));
  // Untouched root: both sides are its (unchanged) symbol.
  EXPECT_EQ(mods.OldSymbol(doc, doc.root()), std::optional<Symbol>(r));
  EXPECT_EQ(mods.NewSymbol(doc, doc.root()), std::optional<Symbol>(r));
}

TEST(BindingTest, EditorOldSymbolAfterBindLaterThanEdit) {
  // Edits on an UNBOUND document, bound afterwards: OldSymbol re-resolves
  // the stored old label through the now-bound alphabet.
  auto alphabet = std::make_shared<Alphabet>();
  Symbol a = alphabet->Intern("a");
  alphabet->Intern("b");
  alphabet->Intern("r");

  ASSERT_OK_AND_ASSIGN(xml::Document doc, xml::ParseXml("<r><a/></r>"));
  xml::NodeId child = xml::ElementChildren(doc, doc.root())[0];
  xml::DocumentEditor editor(&doc);
  ASSERT_OK(editor.RenameElement(child, "b"));
  xml::ModificationIndex mods = editor.Seal();

  ASSERT_OK(doc.Bind(alphabet));
  EXPECT_EQ(mods.OldSymbol(doc, child), std::optional<Symbol>(a));
}

}  // namespace
}  // namespace xmlreval
