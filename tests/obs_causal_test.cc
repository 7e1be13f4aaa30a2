// Causal tracing across the batch executor: every SubmitBatch item must be
// reachable from the submitting span via Chrome flow events — each item's
// 's' (flow start) lies inside batch.submit on the submitting thread, and
// its one 'f' (flow finish) binds inside that item's batch.item slice on a
// worker thread, under the item's own trace_id. Plus the tail-sampling
// contract on the sink: staged events only surface for kept traces.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "common/json.h"
#include "obs/trace.h"
#include "schema/dtd_parser.h"
#include "service/validation_service.h"

#ifdef XMLREVAL_OBS_DISABLED
#define SKIP_IF_OBS_COMPILED_OUT() \
  GTEST_SKIP() << "instrumentation compiled out (XMLREVAL_OBS_DISABLED)"
#else
#define SKIP_IF_OBS_COMPILED_OUT() (void)0
#endif

namespace xmlreval::obs {
namespace {

class TraceGuard {
 public:
  TraceGuard() {
    TraceSink::Global().Clear();
    SetTraceEnabled(true);
  }
  ~TraceGuard() {
    SetTraceEnabled(false);
    TraceSink::Global().SetTailSampling(false);
    TraceSink::Global().Clear();
  }
};

// One exported Chrome trace event, decoded just enough for flow checks.
struct DecodedEvent {
  std::string name;
  std::string ph;
  uint64_t ts = 0;
  uint64_t dur = 0;
  uint64_t tid = 0;
  uint64_t id = 0;        // flow events only
  uint64_t trace_id = 0;  // args.trace_id
};

std::vector<DecodedEvent> DecodeExport() {
  auto parsed = json::Parse(TraceSink::Global().ExportChromeJson());
  EXPECT_TRUE(parsed.ok());
  std::vector<DecodedEvent> out;
  const json::Value* events = parsed->Find("traceEvents");
  if (events == nullptr || !events->is_array()) return out;
  for (const json::Value& e : events->AsArray()) {
    DecodedEvent d;
    d.name = e.Find("name")->AsString();
    d.ph = e.Find("ph")->AsString();
    d.ts = static_cast<uint64_t>(e.Find("ts")->AsNumber());
    if (const json::Value* v = e.Find("dur"); v != nullptr) {
      d.dur = static_cast<uint64_t>(v->AsNumber());
    }
    if (const json::Value* v = e.Find("tid"); v != nullptr) {
      d.tid = static_cast<uint64_t>(v->AsNumber());
    }
    if (const json::Value* v = e.Find("id"); v != nullptr) {
      d.id = static_cast<uint64_t>(v->AsNumber());
    }
    if (const json::Value* args = e.Find("args"); args != nullptr) {
      if (const json::Value* v = args->Find("trace_id"); v != nullptr) {
        d.trace_id = static_cast<uint64_t>(v->AsNumber());
      }
    }
    out.push_back(std::move(d));
  }
  return out;
}

TEST(ObsCausalTest, EveryBatchItemIsFlowLinkedToItsSubmitter) {
  SKIP_IF_OBS_COMPILED_OUT();
  TraceGuard guard;

  service::ValidationService::Options options;
  options.batch_threads = 4;
  service::ValidationService service(options);
  schema::DtdParseOptions roots;
  roots.roots = {"note"};
  auto v1 = service.registry().RegisterDtd(
      "v1", "<!ELEMENT note (to, body?)><!ELEMENT to (#PCDATA)>"
            "<!ELEMENT body (#PCDATA)>", roots);
  auto v2 = service.registry().RegisterDtd(
      "v2", "<!ELEMENT note (to, body)><!ELEMENT to (#PCDATA)>"
            "<!ELEMENT body (#PCDATA)>", roots);
  ASSERT_TRUE(v1.ok()) << v1.status();
  ASSERT_TRUE(v2.ok()) << v2.status();

  constexpr size_t kItems = 32;
  std::vector<service::ValidationService::BatchItem> items(kItems);
  for (auto& item : items) {
    item.op = service::ValidationService::BatchOp::kCast;
    item.source = *v1;
    item.target = *v2;
    item.xml_text = "<note><to>a</to><body>b</body></note>";
  }
  for (const auto& result : service.SubmitBatch(std::move(items)).get()) {
    ASSERT_TRUE(result.status.ok()) << result.status;
  }
  const uint64_t submitter_tid = TraceSink::CurrentThreadId();

  std::vector<DecodedEvent> events = DecodeExport();
  ASSERT_FALSE(events.empty());
  auto inside = [&](const DecodedEvent& flow, const char* slice) {
    for (const DecodedEvent& t : events) {
      if (t.ph == "X" && t.name == slice && t.tid == flow.tid &&
          t.trace_id == flow.trace_id && flow.ts >= t.ts &&
          flow.ts <= t.ts + t.dur) {
        return true;
      }
    }
    return false;
  };

  std::map<uint64_t, uint64_t> starts;    // flow id → trace_id
  std::map<uint64_t, uint64_t> finishes;  // flow id → trace_id
  size_t items_traced = 0;
  for (const DecodedEvent& e : events) {
    if (e.ph == "s") {
      EXPECT_EQ(e.name, "batch.flow");
      EXPECT_EQ(e.tid, submitter_tid);
      EXPECT_NE(e.trace_id, 0u);
      // The submit span is the submitter's request, not the item's: match
      // it by thread and time only.
      bool in_submit = false;
      for (const DecodedEvent& t : events) {
        if (t.ph == "X" && t.name == "batch.submit" && t.tid == e.tid &&
            e.ts >= t.ts && e.ts <= t.ts + t.dur) {
          in_submit = true;
          break;
        }
      }
      EXPECT_TRUE(in_submit) << "flow start outside batch.submit";
      EXPECT_TRUE(starts.emplace(e.id, e.trace_id).second)
          << "flow id " << e.id << " started twice";
    } else if (e.ph == "f") {
      EXPECT_EQ(e.name, "batch.flow");
      EXPECT_NE(e.tid, submitter_tid);
      EXPECT_TRUE(inside(e, "batch.item"))
          << "flow finish outside its batch.item slice";
      EXPECT_TRUE(finishes.emplace(e.id, e.trace_id).second)
          << "flow id " << e.id << " consumed twice";
    } else if (e.ph == "X" && e.name == "batch.item") {
      ++items_traced;
    }
  }
  EXPECT_EQ(items_traced, kItems);
  // Flow edges pair up 1:1 under one trace_id per item: every submitted
  // item was picked up, every pickup has a submitter.
  EXPECT_EQ(starts.size(), kItems);
  EXPECT_EQ(starts, finishes);
  std::map<uint64_t, size_t> per_trace;
  for (const auto& [id, trace_id] : starts) ++per_trace[trace_id];
  EXPECT_EQ(per_trace.size(), kItems) << "items share a trace_id";
}

// ------------------------------------------------------- tail sampling

TEST(ObsCausalTest, TailSamplingKeepsResolvedTracesAndDropsTheRest) {
  SKIP_IF_OBS_COMPILED_OUT();
  TraceGuard guard;
  TraceSink& sink = TraceSink::Global();
  sink.SetTailSampling(true);

  uint64_t kept_id = 0;
  uint64_t dropped_id = 0;
  {
    RequestScope scope;
    kept_id = scope.trace_id();
    ASSERT_NE(kept_id, 0u);
    { Span span("kept.work"); }
    // Events are staged, not yet visible.
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.staged(), 1u);
    scope.set_keep(true);
  }
  {
    RequestScope scope;
    dropped_id = scope.trace_id();
    { Span span("dropped.work"); }
    scope.set_keep(false);
  }
  EXPECT_NE(kept_id, dropped_id);
  EXPECT_EQ(sink.staged(), 0u);

  std::vector<TraceSink::Event> events = sink.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "kept.work");
  EXPECT_EQ(events[0].trace_id, kept_id);
  EXPECT_EQ(sink.tail_dropped(), 1u);
}

TEST(ObsCausalTest, NestedScopeAdoptsAndHintsKeepToOwner) {
  SKIP_IF_OBS_COMPILED_OUT();
  TraceGuard guard;
  TraceSink& sink = TraceSink::Global();
  sink.SetTailSampling(true);

  {
    RequestScope owner;
    ASSERT_TRUE(owner.owns());
    owner.set_keep(false);  // owner itself votes drop...
    {
      RequestScope nested;
      EXPECT_FALSE(nested.owns());
      EXPECT_EQ(nested.trace_id(), owner.trace_id());
      { Span span("nested.work"); }
      HintKeepTrace();  // ...but a nested sampler saw something tail-worthy
    }
  }
  // The hint overrides the owner's drop: the trace survived.
  std::vector<TraceSink::Event> events = sink.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].name, "nested.work");
}

}  // namespace
}  // namespace xmlreval::obs
