// Self-tests of the benchmark's own machinery: span self times, the
// percentile rule, corpus determinism, and the ground truth behind every
// expected verdict. Validators appear here only as oracles for the
// generator; the benchmark itself never derives a verdict from one.

#include <gtest/gtest.h>

#include <random>
#include <set>

#include "harness/corpus.h"
#include "harness/hostspeed.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "service/validation_service.h"
#include "workload/po_schemas.h"
#include "xml/editor.h"
#include "xml/parser.h"

namespace e2ebench {
namespace {

using xmlreval::service::ValidationService;

SpanRecord Rec(int64_t start, int64_t end, int32_t parent, SpanKind kind) {
  SpanRecord r;
  r.start_ns = start;
  r.end_ns = end;
  r.parent = parent;
  r.kind = kind;
  return r;
}

// ------------------------------------------------------------ self time

int64_t LayerSum(const SpanTotals& totals) {
  int64_t sum = 0;
  for (size_t l = 0; l < kLayers; ++l) {
    sum += totals.LayerSelf(static_cast<Layer>(l));
  }
  return sum;
}

TEST(SelfTimes, NestedAndAdjacentChildren) {
  // request [0,100): parse [10,30) holding release [15,20), then bind
  // [30,50) starting exactly where parse ends.
  const std::vector<SpanRecord> records = {
      Rec(0, 100, -1, SpanKind::kRequest),
      Rec(10, 30, 0, SpanKind::kParse),
      Rec(15, 20, 1, SpanKind::kRelease),
      Rec(30, 50, 0, SpanKind::kBind),
  };
  EXPECT_EQ(SelfTimes(records), (std::vector<int64_t>{60, 15, 5, 20}));

  SpanTotals totals;
  totals.Add(records);
  EXPECT_EQ(totals.LayerSelf(Layer::kXml), 40);
  EXPECT_EQ(totals.LayerSelf(Layer::kBench), 60);
  EXPECT_EQ(LayerSum(totals), totals.total(SpanKind::kRequest));
}

TEST(SelfTimes, OverlapIsCoveredOnceAndBreaksReconciliation) {
  const std::vector<SpanRecord> records = {
      Rec(0, 100, -1, SpanKind::kRequest),
      Rec(10, 40, 0, SpanKind::kParse),
      Rec(30, 60, 0, SpanKind::kBind),
      Rec(90, 120, 0, SpanKind::kCast),  // runs past its parent
  };
  // Covered: [10,60) and [90,100) = 60.
  EXPECT_EQ(SelfTimes(records)[0], 40);
  SpanTotals totals;
  totals.Add(records);
  EXPECT_NE(LayerSum(totals), totals.total(SpanKind::kRequest));
}

TEST(SpanLog, RecordsNestingAndReconciles) {
  SpanLog log;
  {
    ScopedSpan request(&log, SpanKind::kRequest);
    { ScopedSpan parse(&log, SpanKind::kParse); }
    {
      ScopedSpan cast(&log, SpanKind::kCast);
      ScopedSpan inner(&log, SpanKind::kRelease);
    }
  }
  const auto& r = log.records();
  ASSERT_EQ(r.size(), 4u);
  EXPECT_EQ(r[0].parent, -1);
  EXPECT_EQ(r[1].parent, 0);
  EXPECT_EQ(r[2].parent, 0);
  EXPECT_EQ(r[3].parent, 2);
  for (const SpanRecord& s : r) EXPECT_LE(s.start_ns, s.end_ns);
  SpanTotals totals;
  totals.Add(r);
  EXPECT_EQ(LayerSum(totals), totals.total(SpanKind::kRequest));
  { ScopedSpan none(nullptr, SpanKind::kRequest); }
}

// ------------------------------------------------------------ percentiles

TEST(Percentiles, HighestWithTenSamplesBeyond) {
  EXPECT_EQ(HighestSupportedPercentile(19).percentile, 0);
  EXPECT_EQ(HighestSupportedPercentile(20).percentile, 50);
  EXPECT_EQ(HighestSupportedPercentile(20).beyond, 10u);
  EXPECT_EQ(HighestSupportedPercentile(99).percentile, 50);
  EXPECT_EQ(HighestSupportedPercentile(100).percentile, 90);
  EXPECT_EQ(HighestSupportedPercentile(999).percentile, 90);
  EXPECT_EQ(HighestSupportedPercentile(999).beyond, 99u);
  EXPECT_EQ(HighestSupportedPercentile(1000).percentile, 99);
  EXPECT_EQ(HighestSupportedPercentile(1000).beyond, 10u);
  EXPECT_EQ(HighestSupportedPercentile(9999).percentile, 99);
  EXPECT_DOUBLE_EQ(HighestSupportedPercentile(10000).percentile, 99.9);
  EXPECT_EQ(HighestSupportedPercentile(10000).beyond, 10u);
}

TEST(Percentiles, NearestRankLeavesTheReportedCountBeyond) {
  for (uint64_t n : {20u, 100u, 1000u, 1234u, 10000u}) {
    std::vector<double> v;
    for (uint64_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
    const TailPercentile tail = HighestSupportedPercentile(n);
    const double at = Quantile(v, tail.percentile / 100);
    uint64_t beyond = 0;
    for (double x : v) beyond += x > at;
    EXPECT_EQ(beyond, tail.beyond) << "n=" << n;
    EXPECT_GE(beyond, kMinTailSamples);
  }
  EXPECT_EQ(Quantile({}, 0.5), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(Percentiles, ClientRecordKeepsBatchesAndWindows) {
  ClientRecord record(1'000'000'000, 2);
  for (int i = 0; i < 2500; ++i) {
    record.Add(i, (i % 1000 + 1) * 1'000'000LL, 0);  // 1..1000 ms per batch
  }
  EXPECT_EQ(record.count(), 2500u);
  // Two whole batches; the open one of 500 is not reported.
  EXPECT_EQ(record.batch_p50_ms(), (std::vector<double>{500, 500}));
  EXPECT_EQ(record.batch_p90_ms(), (std::vector<double>{900, 900}));
  EXPECT_EQ(record.batch_tail_ms(), (std::vector<double>{990, 990}));

  // Two clients, two 1 s windows: client a does 10 requests of 0.1 s in
  // window 0; client b does 5 requests of 0.1 s (0.5 s active) in each,
  // and one more after the last window, which no window counts.
  ClientRecord a(1'000'000'000, 2);
  ClientRecord b(1'000'000'000, 2);
  for (int i = 0; i < 10; ++i) a.Add(i * 100'000'000LL, 100'000'000, 100'000'000);
  for (int w = 0; w < 2; ++w) {
    for (int i = 0; i < 5; ++i) {
      b.Add(w * 1'000'000'000LL + i * 100'000'000LL, 100'000'000,
            100'000'000);
    }
  }
  b.Add(5'000'000'000LL, 100'000'000, 100'000'000);
  EXPECT_EQ(b.count(), 11u);
  EXPECT_EQ(WindowRates({&a, &b}), (std::vector<double>{20, 10}));
}

// ------------------------------------------------------------ host speed

TEST(HostSpeed, ReferenceWorkIsFixed) {
  // The kernel's input must not depend on anything a run can vary.
  const std::string text = ReferenceText();
  EXPECT_EQ(text, ReferenceText());
  EXPECT_GE(text.size(), kReferenceBytes);
  std::vector<std::string> names;
  const uint64_t sum = ReferencePass(text, &names);
  EXPECT_EQ(sum, ReferencePass(text, &names));
  EXPECT_GT(names.size(), 100u);
  EXPECT_EQ(names.front().find_first_of("<> \""), std::string::npos);
}

TEST(HostSpeed, FactorScalesToTheNominalPass) {
  HostSpeed host;
  EXPECT_EQ(host.factor(), 1.0);
  for (size_t i = 0; i < kRecentProbes + 2; ++i) host.Probe();
  ASSERT_GT(host.pass_ns(), 0);
  EXPECT_DOUBLE_EQ(host.factor(), kNominalPassNs / host.pass_ns());
}

// ------------------------------------------------------------ corpora

TEST(Corpus, SameSeedSameHashOtherSeedOtherHash) {
  for (Workload w : {Workload::kExp2DomCast, Workload::kExp1StreamSkip,
                     Workload::kBrokerMix}) {
    const uint64_t a = MakeCorpus(w, 7).Fingerprint();
    EXPECT_EQ(a, MakeCorpus(w, 7).Fingerprint()) << WorkloadName(w);
    EXPECT_NE(a, MakeCorpus(w, 8).Fingerprint()) << WorkloadName(w);
  }
}

TEST(Corpus, OneTenthOfEachPoolIsInvalid) {
  const Corpus broker = MakeCorpus(Workload::kBrokerMix, 3);
  for (const auto* pool : {&broker.exp1, &broker.exp2, &broker.validate}) {
    size_t invalid = 0;
    for (const PoDoc& doc : *pool) invalid += !doc.expect.valid;
    EXPECT_EQ(invalid, pool->size() / 10);
  }
  size_t invalid = 0;
  for (const PoDoc& doc : MakeCorpus(Workload::kExp2DomCast, 3).exp2) {
    invalid += !doc.expect.valid;
    EXPECT_EQ(doc.items, 1000u);
  }
  EXPECT_EQ(invalid, 6u);
}

// ------------------------------------------------------------ ground truth

class GroundTruth : public ::testing::Test {
 protected:
  void SetUp() override {
    fig1a_ = *service_.registry().RegisterXsd("fig1a",
                                              xmlreval::workload::kSourceXsd);
    fig2_ = *service_.registry().RegisterXsd("fig2",
                                             xmlreval::workload::kTargetXsd);
    q200_ = *service_.registry().RegisterXsd(
        "q200", xmlreval::workload::kRelaxedQuantityXsd);
  }

  xmlreval::xml::Document Parse(const std::string& text) {
    auto doc = xmlreval::xml::ParseXml(text);
    EXPECT_TRUE(doc.ok());
    EXPECT_TRUE(service_.BindDocument(&*doc).ok());
    return std::move(doc).value();
  }

  ValidationService service_;
  xmlreval::service::SchemaHandle fig1a_ = 0, fig2_ = 0, q200_ = 0;
};

TEST_F(GroundTruth, PurchaseOrderFaultsAreBlamedWhereInjected) {
  for (int bad_item : {0, 7, 49}) {
    PoSpec spec;
    spec.items = 50;
    spec.bad_item = bad_item;
    const PoDoc doc = MakePoDoc(spec);
    ASSERT_FALSE(doc.expect.valid);
    const auto parsed = Parse(doc.text);
    const auto report = service_.Cast(q200_, fig2_, parsed);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(ReportMatches(doc.expect, *report))
        << report->violation_path.ToString();
  }
  PoSpec spec;
  spec.items = 50;
  spec.include_bill_to = false;
  const PoDoc doc = MakePoDoc(spec);
  const auto parsed = Parse(doc.text);
  for (const auto& report : {service_.Cast(fig1a_, fig2_, parsed),
                             service_.Validate(fig2_, parsed)}) {
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(ReportMatches(doc.expect, *report));
  }
  // A blame elsewhere does not match.
  Expected item3;
  item3.valid = false;
  item3.bad_item = 3;
  EXPECT_FALSE(BlameMatches(item3, {2, 4, 1}));
  EXPECT_TRUE(BlameMatches(item3, {2, 3, 1}));
  EXPECT_FALSE(BlameMatches(doc.expect, {1}));
}

TEST_F(GroundTruth, EachCatalogEditHasItsDerivedVerdict) {
  const EditTemplate tmpl = MakeEditTemplate(40, 11);
  for (EditKind kind : kEditKinds) {
    size_t item = 0;
    while (kind == EditKind::kInsertShipDate &&
           tmpl.items[item].has_ship_date) {
      ++item;
    }
    ASSERT_LT(item, tmpl.items.size());
    std::vector<xmlreval::xml::EditOp> ops;
    auto next_id = static_cast<xmlreval::xml::NodeId>(tmpl.node_count);
    AppendEdit(kind, tmpl.items[item], 150, &next_id, &ops);

    auto doc = Parse(tmpl.text);
    ASSERT_EQ(doc.NodeCount(), tmpl.node_count);
    xmlreval::xml::DocumentEditor editor(&doc);
    for (const auto& op : ops) ASSERT_TRUE(editor.Apply(op).ok());
    editor.Seal();
    ASSERT_TRUE(editor.Commit().ok());
    EXPECT_EQ(doc.NodeCount(), static_cast<size_t>(next_id));
    if (kind == EditKind::kInsertShipDate) {
      EXPECT_EQ(doc.label(static_cast<xmlreval::xml::NodeId>(tmpl.node_count)),
                "shipDate");
    }
    ASSERT_TRUE(service_.BindDocument(&doc).ok());
    const auto report = service_.Validate(fig2_, doc);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->valid, EditKeepsValid(kind))
        << "edit kind " << static_cast<int>(kind);
  }
}

TEST_F(GroundTruth, DrawnScriptsMatchFullValidation) {
  const EditTemplate tmpl = MakeEditTemplate(200, 5);
  std::mt19937_64 rng(17);
  std::set<bool> seen;
  for (int i = 0; i < 200; ++i) {
    const EditScript script = DrawEditScript(tmpl, &rng);
    ASSERT_GE(script.edits, 1u);
    ASSERT_LE(script.edits, 16u);
    auto doc = Parse(tmpl.text);
    xmlreval::xml::DocumentEditor editor(&doc);
    for (const auto& op : script.ops) ASSERT_TRUE(editor.Apply(op).ok());
    editor.Seal();
    ASSERT_TRUE(editor.Commit().ok());
    ASSERT_TRUE(service_.BindDocument(&doc).ok());
    const auto report = service_.Validate(fig2_, doc);
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report->valid, script.expect_valid) << "script " << i;
    seen.insert(script.expect_valid);

    auto fresh = Parse(tmpl.text);
    const auto streamed =
        service_.SubmitEditStream(q200_, fig2_, &fresh, script.ops);
    ASSERT_TRUE(streamed.ok());
    EXPECT_EQ(streamed->report.valid, script.expect_valid) << "script " << i;
  }
  EXPECT_EQ(seen.size(), 2u);  // both verdicts occur
}

}  // namespace
}  // namespace e2ebench
