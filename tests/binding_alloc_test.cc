// Allocation discipline of the bound validation hot loop and the tokenizer.
//
// Replaces global operator new/delete with counting versions and checks
// that cast-validating a BOUND document with a warmed CastScratch performs
// ZERO heap allocations: the explicit frontier and the multi-chunk
// simple-value buffer both live in caller-owned scratch whose capacity
// survives across runs, and the single-text-child fast path validates a
// string_view straight out of the document without materializing anything.
// Feeding a warmed PushParser more tags allocates nothing either.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <vector>

#include "core/cast_validator.h"
#include "core/relations.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "schema/xsd_parser.h"
#include "tests/test_util.h"
#include "workload/po_generator.h"
#include "workload/po_schemas.h"
#include "xml/push_parser.h"
#include "xml/tree.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocs{0};

void* CountedAlloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace xmlreval {
namespace {

struct Fixture {
  std::shared_ptr<automata::Alphabet> alphabet;
  std::unique_ptr<schema::Schema> source;
  std::unique_ptr<schema::Schema> target;
  std::unique_ptr<core::TypeRelations> relations;
};

Fixture MakeFixture() {
  Fixture f;
  f.alphabet = std::make_shared<automata::Alphabet>();
  auto source = schema::ParseXsd(workload::kRelaxedQuantityXsd, f.alphabet);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  f.source = std::make_unique<schema::Schema>(std::move(source).value());
  auto target = schema::ParseXsd(workload::kTargetXsd, f.alphabet);
  EXPECT_TRUE(target.ok()) << target.status().ToString();
  f.target = std::make_unique<schema::Schema>(std::move(target).value());
  auto relations =
      core::TypeRelations::Compute(f.source.get(), f.target.get());
  EXPECT_TRUE(relations.ok()) << relations.status().ToString();
  f.relations =
      std::make_unique<core::TypeRelations>(std::move(relations).value());
  return f;
}

size_t AllocsDuringValidate(const core::CastValidator& validator,
                            const xml::Document& doc,
                            core::CastScratch* scratch = nullptr) {
  // One warm-up run (grows scratch capacity if provided), then count.
  core::ValidationReport warm =
      scratch ? validator.Validate(doc, scratch) : validator.Validate(doc);
  EXPECT_TRUE(warm.valid) << warm.violation;
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  core::ValidationReport report =
      scratch ? validator.Validate(doc, scratch) : validator.Validate(doc);
  g_counting.store(false, std::memory_order_relaxed);
  EXPECT_TRUE(report.valid) << report.violation;
  return g_allocs.load(std::memory_order_relaxed);
}

TEST(BindingAllocTest, BoundCastValidationWithScratchIsZeroAllocation) {
  Fixture f = MakeFixture();
  core::CastValidator validator(f.relations.get());

  for (size_t item_count : {size_t{50}, size_t{1000}}) {
    workload::PoGeneratorOptions opts;
    opts.item_count = item_count;
    xml::Document doc = workload::GeneratePurchaseOrder(opts);
    ASSERT_OK(doc.Bind(f.alphabet));

    core::CastScratch scratch;
    size_t allocs = AllocsDuringValidate(validator, doc, &scratch);
    EXPECT_EQ(allocs, 0u)
        << "bound hot loop allocated with warmed scratch (item_count="
        << item_count << ")";
  }
}

// A simple value split across several text nodes cannot use the
// string_view fast path; it is assembled into the scratch's reusable
// buffer instead — still zero allocations once the buffer holds capacity.
TEST(BindingAllocTest, MultiChunkSimpleValueReusesScratchBuffer) {
  auto alphabet = std::make_shared<automata::Alphabet>();
  auto src = schema::ParseXsd(R"(
    <schema><element name="r" type="R"/>
      <complexType name="R"><sequence>
        <element name="v" type="integer"/>
      </sequence></complexType></schema>)",
                              alphabet);
  ASSERT_TRUE(src.ok()) << src.status().ToString();
  auto tgt = schema::ParseXsd(R"(
    <schema><element name="r" type="R"/>
      <complexType name="R"><sequence>
        <element name="v" type="positiveInteger"/>
      </sequence></complexType></schema>)",
                              alphabet);
  ASSERT_TRUE(tgt.ok()) << tgt.status().ToString();
  schema::Schema source = std::move(src).value();
  schema::Schema target = std::move(tgt).value();
  auto relations = core::TypeRelations::Compute(&source, &target);
  ASSERT_TRUE(relations.ok()) << relations.status().ToString();
  core::CastValidator validator(&*relations);

  // <v> holds TWO text chunks ("4" + "2" = value "42") — only reachable
  // through the tree API; the parser coalesces adjacent text.
  xml::Document doc;
  xml::NodeId r = doc.CreateElement("r");
  xml::NodeId v = doc.CreateElement("v");
  ASSERT_OK(doc.SetRoot(r));
  ASSERT_OK(doc.AppendChild(r, v));
  ASSERT_OK(doc.AppendChild(v, doc.CreateText("4")));
  ASSERT_OK(doc.AppendChild(v, doc.CreateText("2")));
  ASSERT_OK(doc.Bind(alphabet));

  core::CastScratch scratch;
  size_t allocs = AllocsDuringValidate(validator, doc, &scratch);
  EXPECT_EQ(allocs, 0u)
      << "multi-chunk simple value allocated despite warmed scratch";
}

// The SoA accessor surface itself: a raw HotView preorder walk over the
// whole document — kind checks, symbol reads, link chasing, prefetches —
// touches only the parallel columns and must never materialize a string
// or any other heap block. This is the layer the cast frontier loop sits
// on; if it allocates, "zero allocations per node" is unrecoverable above.
TEST(BindingAllocTest, HotViewPreorderWalkIsZeroAllocation) {
  Fixture f = MakeFixture();
  workload::PoGeneratorOptions opts;
  opts.item_count = 1000;
  xml::Document doc = workload::GeneratePurchaseOrder(opts);
  ASSERT_OK(doc.Bind(f.alphabet));

  std::vector<xml::NodeId> stack;
  stack.reserve(doc.NodeCount());  // pre-size outside the counted region

  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  const xml::Document::HotView hv = doc.hot_view();
  size_t elements = 0, texts = 0;
  uint64_t symbol_sum = 0;
  stack.push_back(doc.root());
  while (!stack.empty()) {
    xml::NodeId node = stack.back();
    stack.pop_back();
    if (!stack.empty()) hv.PrefetchRow(stack.back());
    if (hv.IsText(node)) {
      ++texts;
      continue;
    }
    ++elements;
    symbol_sum += hv.symbol[node];
    for (xml::NodeId c = hv.last_child[node]; c != xml::kInvalidNode;
         c = hv.prev_sibling[c]) {
      stack.push_back(c);
    }
  }
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_EQ(elements + texts, doc.NodeCount());
  EXPECT_GT(symbol_sum, 0u);  // bound symbols actually read
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
      << "HotView column walk allocated";
}

// Neither edit touches the heap. A rename repoints the row at the label
// table's copy of the new label, and interning a new label allocates
// nothing while the table's first (reserved) block has room. A shorter
// SetText overwrites the text's arena bytes in place (growing edits may
// append to the arena).
TEST(BindingAllocTest, ShrinkingRenameAndSetTextAreZeroAllocation) {
  xml::Document doc;
  xml::NodeId root = doc.CreateElement("purchaseOrder");
  ASSERT_OK(doc.SetRoot(root));
  xml::NodeId t = doc.CreateText("0123456789");
  ASSERT_OK(doc.AppendChild(root, t));

  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  Status rename_status = doc.Rename(root, "po");
  Status text_status = doc.SetText(t, "42");
  g_counting.store(false, std::memory_order_relaxed);

  ASSERT_OK(rename_status);
  ASSERT_OK(text_status);
  EXPECT_EQ(doc.label(root), "po");
  EXPECT_EQ(doc.text(t), "42");
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
      << "rename and shrinking SetText should not allocate";
}

// A label the document already holds is stored once, in its label table:
// appending an element with it writes one row and no label bytes, whether
// the label is predicted from the siblings or found by hashing.
TEST(BindingAllocTest, AppendNewElementWithKnownLabelAllocatesNothing) {
  auto alphabet = std::make_shared<automata::Alphabet>();
  xml::Document doc;
  xml::NodeId root = doc.AppendNewElement(xml::kInvalidNode, "items");
  xml::NodeId item = doc.AppendNewElement(root, "item");
  doc.AppendNewElement(item, "productName");
  doc.AppendNewElement(item, "quantity");
  ASSERT_OK(doc.BindInterning(alphabet));
  ASSERT_LT(doc.NodeCount() + 16, size_t{64});  // rows fit the first block

  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  xml::NodeId next = doc.AppendNewElement(root, "item");  // predicted
  doc.AppendNewElement(next, "productName");              // predicted
  doc.AppendNewElement(next, "quantity");                 // predicted
  doc.AppendNewElement(next, "item");                     // hashed
  xml::NodeId detached = doc.CreateElement("quantity");   // hashed
  g_counting.store(false, std::memory_order_relaxed);

  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
      << "appending an element with a known label allocated";
  EXPECT_EQ(doc.label(next), "item");
  EXPECT_EQ(doc.symbol(detached), *alphabet->Find("quantity"));
  EXPECT_EQ(alphabet->size(), 4u);
}

// A warmed tokenizer allocates nothing per tag or attribute: names and
// undecoded values are views into the chunk, and the open-tag stack, the
// attribute list, the decode buffers and the carry buffer keep their
// capacity across tags. Fed whole and in 7-byte pieces (every construct
// then crosses a chunk boundary and goes through the carry buffer).
TEST(BindingAllocTest, WarmPushParserAllocatesNothingPerTag) {
  std::string items;
  for (int i = 0; i < 64; ++i) {
    items +=
        "<item partNum=\"872-AA\" note='a&amp;b'>\n"
        "  <productName>Widget &amp; co</productName>"
        "<quantity>3</quantity><comment><![CDATA[x]]><!-- c --></comment>\n"
        "</item>\n";
  }
  for (size_t chunk : {items.size(), size_t{7}}) {
    xml::SaxHandler null_handler;
    xml::PushParser parser(&null_handler);
    ASSERT_OK(parser.Feed("<purchaseOrder>"));
    auto feed_items = [&] {
      Status status = Status::OK();
      for (size_t pos = 0; pos < items.size() && status.ok(); pos += chunk) {
        status = parser.Feed(std::string_view(items).substr(pos, chunk));
      }
      return status;
    };
    ASSERT_OK(feed_items());  // warm-up: buffers reach their capacity

    g_allocs.store(0, std::memory_order_relaxed);
    g_counting.store(true, std::memory_order_relaxed);
    Status status = Status::OK();
    for (int round = 0; round < 8 && status.ok(); ++round) {
      status = feed_items();
    }
    g_counting.store(false, std::memory_order_relaxed);

    ASSERT_OK(status);
    EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), 0u)
        << "steady-state tokenizing allocated (chunk=" << chunk << ")";
    ASSERT_OK(parser.Feed("</purchaseOrder>"));
    ASSERT_OK(parser.Finish());
  }
}

// The observability layer must not change the hot loop's allocation
// profile in either state: disabled instrumentation is a relaxed load and
// nothing else; enabled tracing records one fixed-size event per document
// into a PREALLOCATED ring — still zero allocations per node or per span.
TEST(BindingAllocTest, ObservabilityStatesDoNotAddAllocations) {
  Fixture f = MakeFixture();
  core::CastValidator validator(f.relations.get());

  workload::PoGeneratorOptions opts;
  opts.item_count = 500;
  xml::Document doc = workload::GeneratePurchaseOrder(opts);
  ASSERT_OK(doc.Bind(f.alphabet));

  // Warm the trace sink's ring and thread id outside the counted region.
  obs::TraceSink::Global().Clear();
  obs::TraceSink::CurrentThreadId();

  obs::SetEnabled(false);
  obs::SetTraceEnabled(false);
  size_t disabled_allocs = AllocsDuringValidate(validator, doc);

  obs::SetEnabled(true);
  size_t default_allocs = AllocsDuringValidate(validator, doc);

  obs::SetTraceEnabled(true);
  size_t traced_allocs = AllocsDuringValidate(validator, doc);
  obs::SetTraceEnabled(false);
#ifndef XMLREVAL_OBS_DISABLED
  // The traced runs really did hit the sink (warm-up + counted pass).
  EXPECT_GE(obs::TraceSink::Global().size(), 2u);
#endif
  obs::TraceSink::Global().Clear();

  EXPECT_EQ(default_allocs, disabled_allocs)
      << "enabling metrics changed the bound-cast allocation profile";
  EXPECT_EQ(traced_allocs, disabled_allocs)
      << "span recording allocated (ring should be preallocated)";
}

}  // namespace
}  // namespace xmlreval
