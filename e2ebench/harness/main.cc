// e2ebench — bytes in, verdict out, through ValidationService.
//
//   e2ebench --workload exp2_dom_cast|exp1_stream_skip|broker_mix
//            --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Generates the workload's corpus from the seed, sets the service up
// (median of repeated cold set-ups), then runs one closed-loop client,
// with the whole process pinned to one CPU, for two warm-up seconds plus
// S measured seconds. Every verdict is checked against the generator's
// ground truth (harness/corpus.h). End-to-end times are scaled to a
// nominal host speed (harness/hostspeed.h).
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates untraced
// and traced half-second phases over the same S seconds, derives the
// per-layer metrics from the traced phases' spans (harness/spans.h), and
// reports the traced-vs-untraced throughput cost as trace.overhead_pct.
// The last stdout line is one JSON object: correct, attempted, failed,
// metrics. A verdict mismatch, an error status, or a failed
// reconciliation exits 1; bad arguments exit 2. DIR (default ".") holds
// the temporary plan-cache directory of a traced run.

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/corpus.h"
#include "harness/hostspeed.h"
#include "harness/spans.h"
#include "harness/stats.h"
#include "service/validation_service.h"
#include "workload/po_schemas.h"
#include "xml/parser.h"

namespace e2ebench {
namespace {

using xmlreval::Result;
using xmlreval::Status;
using xmlreval::core::ValidationReport;
using xmlreval::service::SchemaHandle;
using Service = xmlreval::service::ValidationService;

constexpr size_t kChunkBytes = 64 * 1024;
constexpr size_t kBatchItems = 8;
// One client and one batch thread, with the whole process pinned to one
// CPU: the host-speed probe then times the CPU every request runs on, and
// never runs beside the benchmark's own work. A batch still goes through
// the executor's queue and hand-off, to a thread on the same CPU.
constexpr size_t kClients = 1;
constexpr size_t kBatchThreads = 1;
// A client probes the host's speed before a request once this much time
// has passed since its last probe.
constexpr int64_t kProbeIntervalNs = 50'000'000;
// Set-up probes the host's speed before every this many set-ups.
constexpr int kSetupsPerProbe = 5;
constexpr int kSetupRuns = 501;
constexpr int64_t kWarmupNs = 2'000'000'000;
constexpr int64_t kWindowNs = 1'000'000'000;
constexpr int64_t kPhaseNs = kWindowNs / 2;
// A client that has not finished one latency batch of untraced requests
// when the window ends goes on, for at most this long.
constexpr int64_t kOverrunNs = 60'000'000'000;
// Layer self times plus the request's own must sum to the request spans.
constexpr double kReconcileTolerance = 1e-3;
constexpr size_t kMaxNotes = 5;

struct Args {
  Workload workload = Workload::kExp2DomCast;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) return false;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0 && args->seconds <= 120)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

size_t OnlineCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

// Pins the process (and every thread it starts later) to the CPU it is
// running on; returns that CPU, or -1.
int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

// ---------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------

enum class PairId : uint8_t { kExp1, kExp2 };

Service::PlanPairSpec SpecOf(PairId pair) {
  Service::PlanPairSpec spec;
  spec.source_key = pair == PairId::kExp1 ? "fig1a" : "fig2_q200";
  spec.source_text = pair == PairId::kExp1
                         ? xmlreval::workload::kSourceXsd
                         : xmlreval::workload::kRelaxedQuantityXsd;
  spec.target_key = "fig2";
  spec.target_text = xmlreval::workload::kTargetXsd;
  return spec;
}

std::vector<PairId> PairsOf(Workload workload) {
  switch (workload) {
    case Workload::kExp2DomCast: return {PairId::kExp2};
    case Workload::kExp1StreamSkip: return {PairId::kExp1};
    case Workload::kBrokerMix: return {PairId::kExp1, PairId::kExp2};
  }
  return {};
}

struct Handles {
  std::array<SchemaHandle, 2> source{xmlreval::service::kInvalidSchemaHandle,
                                     xmlreval::service::kInvalidSchemaHandle};
  std::array<SchemaHandle, 2> target{xmlreval::service::kInvalidSchemaHandle,
                                     xmlreval::service::kInvalidSchemaHandle};
};

struct Ready {
  std::unique_ptr<Service> service;
  Handles handles;
};

Service::Options ServiceOptions(size_t threads, const std::string& plan_dir) {
  Service::Options options;
  options.batch_threads = threads;
  options.plan_cache_dir = plan_dir;
  return options;
}

// Constructs a service and registers the workload's pairs; with an empty
// `plan_dir` every pair compiles cold (parse + fixpoints + analyzer).
Result<Ready> SetUp(Workload workload, size_t threads,
                    const std::string& plan_dir) {
  Ready ready;
  ready.service =
      std::make_unique<Service>(ServiceOptions(threads, plan_dir));
  for (PairId pair : PairsOf(workload)) {
    auto handles = ready.service->RegisterPlanPair(SpecOf(pair));
    if (!handles.ok()) return handles.status();
    ready.handles.source[static_cast<size_t>(pair)] = handles->source;
    ready.handles.target[static_cast<size_t>(pair)] = handles->target;
  }
  return ready;
}

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e9; }

struct SetupTimes {
  double setup_s = 0;        // median cold set-up
  double register_ms = 0;    // median Σ RegisterXsd of the pairs' schemas
  double relations_ms = 0;   // median Σ cold RegisterPlanPair − register_ms
  double plan_load_ms = 0;   // median Σ warm RegisterPlanPair
  uint64_t schema_errors = 0;
  uint64_t service_errors = 0;
};

// The per-layer split of set-up, from fresh services: each schema
// registered alone, each pair registered cold, each pair loaded warm
// from a plan directory an earlier cold registration wrote.
SetupTimes SplitSetup(Workload workload, size_t threads,
                      const std::filesystem::path& plan_dir) {
  SetupTimes t;
  std::vector<double> reg, cold, warm;
  // A plan is saved and adopted only by a service with an empty registry,
  // so each pair gets a fresh service, here and in the warm loads below.
  for (PairId pair : PairsOf(workload)) {
    Service service(ServiceOptions(threads, plan_dir.string()));
    if (!service.RegisterPlanPair(SpecOf(pair)).ok()) ++t.service_errors;
  }
  for (int run = 0; run < kSetupRuns; ++run) {
    double reg_ms = 0, cold_ms = 0, warm_ms = 0;
    {
      Service service(ServiceOptions(threads, ""));
      for (PairId pair : PairsOf(workload)) {
        const Service::PlanPairSpec spec = SpecOf(pair);
        for (const auto& [key, text] :
             {std::pair{spec.source_key, spec.source_text},
              std::pair{spec.target_key, spec.target_text}}) {
          const int64_t start = NowNs();
          auto handle = service.registry().RegisterXsd(key, text);
          reg_ms += SecondsSince(start) * 1e3;
          if (!handle.ok()) ++t.schema_errors;
        }
      }
    }
    {
      Service service(ServiceOptions(threads, ""));
      for (PairId pair : PairsOf(workload)) {
        const int64_t start = NowNs();
        auto handles = service.RegisterPlanPair(SpecOf(pair));
        cold_ms += SecondsSince(start) * 1e3;
        if (!handles.ok()) ++t.service_errors;
      }
    }
    for (PairId pair : PairsOf(workload)) {
      Service service(ServiceOptions(threads, plan_dir.string()));
      const int64_t start = NowNs();
      auto handles = service.RegisterPlanPair(SpecOf(pair));
      warm_ms += SecondsSince(start) * 1e3;
      if (!handles.ok() || !handles->warm) ++t.service_errors;
    }
    reg.push_back(reg_ms);
    cold.push_back(cold_ms);
    warm.push_back(warm_ms);
  }
  t.register_ms = Median(reg);
  t.relations_ms = Median(cold) - t.register_ms;
  t.plan_load_ms = Median(warm);
  return t;
}

// ---------------------------------------------------------------------
// Clients
// ---------------------------------------------------------------------

/// Work the traced phases did, for the per-layer ratios.
struct Work {
  uint64_t parse_bytes = 0;
  uint64_t bind_nodes = 0;
  uint64_t casts = 0;
  uint64_t cast_nodes = 0;
  uint64_t validates = 0;
  uint64_t full_nodes = 0;
  uint64_t streams = 0;
  uint64_t stream_fed = 0;
  uint64_t stream_skipped = 0;
  uint64_t stream_max_frames = 0;
  uint64_t edit_streams = 0;
  uint64_t edit_short = 0;
  uint64_t batch_items = 0;

  void Add(const Work& o) {
    parse_bytes += o.parse_bytes;
    bind_nodes += o.bind_nodes;
    casts += o.casts;
    cast_nodes += o.cast_nodes;
    validates += o.validates;
    full_nodes += o.full_nodes;
    streams += o.streams;
    stream_fed += o.stream_fed;
    stream_skipped += o.stream_skipped;
    stream_max_frames = std::max(stream_max_frames, o.stream_max_frames);
    edit_streams += o.edit_streams;
    edit_short += o.edit_short;
    batch_items += o.batch_items;
  }
};

enum class Kind : uint8_t { kCastExp1, kCastExp2, kValidate, kStream,
                            kBatch, kEdit };

/// One drawn request with everything it needs prepared, so the timed
/// interval holds only calls into the service.
struct Prepared {
  Kind kind = Kind::kCastExp2;
  const PoDoc* doc = nullptr;
  size_t index = 0;  // doc's position in its pool
  std::vector<Service::BatchItem> items;
  std::vector<Expected> item_expect;
  std::optional<xmlreval::xml::Document> edit_doc;
  EditScript script;
};

struct Client {
  Client(uint64_t seed, size_t windows)
      : rng(seed),
        records{ClientRecord(kWindowNs, windows),
                ClientRecord(kWindowNs, windows)} {}

  std::mt19937_64 rng;
  HostSpeed host;
  int64_t last_probe_ns = 0;
  std::vector<size_t> order;  // single-pool workloads: seeded doc order
  size_t cursor = 0;
  SpanLog log;
  // Each indexed [untraced, traced].
  std::array<ClientRecord, 2> records;
  std::array<uint64_t, 2> failed{};
  std::array<Work, 2> work;
  std::array<uint64_t, kLayers> errors{};
  std::vector<std::string> notes;

  bool Fail(std::string note) {
    if (notes.size() < kMaxNotes) notes.push_back(std::move(note));
    return false;
  }
  bool Error(Layer layer, const Status& status) {
    ++errors[static_cast<size_t>(layer)];
    return Fail(std::string(LayerName(layer)) + ": " + status.ToString());
  }
};

std::string PathString(const std::vector<uint32_t>& path) {
  if (path.empty()) return "ε";
  std::string s = std::to_string(path[0]);
  for (size_t i = 1; i < path.size(); ++i) {
    s += '.';
    s += std::to_string(path[i]);
  }
  return s;
}

std::string Mismatch(const Expected& e, bool valid,
                     const std::vector<uint32_t>& path) {
  return "verdict mismatch: expected " +
         std::string(e.valid ? "valid" : "invalid") +
         (e.bad_item >= 0 ? " at item " + std::to_string(e.bad_item) : "") +
         (e.missing_bill_to ? " (no billTo)" : "") + ", got " +
         (valid ? "valid" : "invalid at " + PathString(path));
}

class Runner {
 public:
  Runner(const Args& args, const Corpus& corpus, Ready& ready)
      : args_(args),
        corpus_(corpus),
        service_(*ready.service),
        handles_(ready.handles) {}

  /// Serial cast of every exp2 document: the reference nodes_visited each
  /// in-run cast must repeat, and a warm-up of the DOM path.
  bool ReferencePass() {
    for (const PoDoc& doc : corpus_.exp2) {
      auto parsed = xmlreval::xml::ParseXml(doc.text);
      if (!parsed.ok() || !service_.BindDocument(&*parsed).ok()) return false;
      auto report = service_.Cast(Source(PairId::kExp2),
                                  Target(PairId::kExp2), *parsed);
      if (!report.ok()) return false;
      reference_nodes_.push_back(report->counters.nodes_visited);
    }
    return true;
  }
  const std::vector<uint64_t>& reference_nodes() const {
    return reference_nodes_;
  }

  /// Runs `clients` closed-loop clients through warm-up and the window.
  void Run(std::vector<Client>& clients) {
    const int64_t now = NowNs();
    start_ns_ = now + kWarmupNs;
    end_ns_ = start_ns_ + static_cast<int64_t>(args_.seconds * 1e9);
    std::vector<std::thread> threads;
    threads.reserve(clients.size());
    for (Client& c : clients) {
      threads.emplace_back([this, &c] { RunClient(c); });
    }
    for (std::thread& t : threads) t.join();
  }

 private:
  SchemaHandle Source(PairId p) const {
    return handles_.source[static_cast<size_t>(p)];
  }
  SchemaHandle Target(PairId p) const {
    return handles_.target[static_cast<size_t>(p)];
  }

  void RunClient(Client& c) {
    int64_t last_end = 0;
    for (;;) {
      const int64_t iter_start = NowNs();
      if (iter_start >= end_ns_ &&
          (c.records[0].count() >= kBatchRequests ||
           iter_start >= end_ns_ + kOverrunNs)) {
        break;
      }
      if (iter_start - c.last_probe_ns >= kProbeIntervalNs) {
        c.host.Probe();
        c.last_probe_ns = iter_start;
      }
      Prepared p = Prepare(c);
      const int64_t t0 = NowNs();
      const bool counted = t0 >= start_ns_;
      const size_t phase =
          args_.trace && counted && ((t0 - start_ns_) / kPhaseNs) % 2 == 1;
      SpanLog* log = phase == 1 ? &c.log : nullptr;
      const bool ok = Execute(c, p, c.work[phase], log);
      const int64_t t1 = NowNs();
      if (counted) {
        // Client time since its previous request, less the untimed probe
        // and preparation.
        const int64_t active = std::max(
            t1 - t0, (t1 - std::max(last_end, start_ns_)) - (t0 - iter_start));
        const double f = c.host.factor();
        c.records[phase].Add(t0 - start_ns_, std::llround((t1 - t0) * f),
                             std::llround(active * f));
        if (!ok) ++c.failed[phase];
      }
      last_end = t1;
    }
  }

  size_t NextInOrder(Client& c, size_t pool_size) {
    if (c.order.empty()) {
      c.order.resize(pool_size);
      for (size_t i = 0; i < pool_size; ++i) c.order[i] = i;
      std::shuffle(c.order.begin(), c.order.end(), c.rng);
    }
    const size_t index = c.order[c.cursor];
    c.cursor = (c.cursor + 1) % c.order.size();
    return index;
  }

  static size_t Draw(Client& c, size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(c.rng);
  }

  Prepared Prepare(Client& c) {
    Prepared p;
    switch (args_.workload) {
      case Workload::kExp2DomCast:
        p.kind = Kind::kCastExp2;
        p.index = NextInOrder(c, corpus_.exp2.size());
        p.doc = &corpus_.exp2[p.index];
        return p;
      case Workload::kExp1StreamSkip:
        p.kind = Kind::kStream;
        p.index = NextInOrder(c, corpus_.exp1.size());
        p.doc = &corpus_.exp1[p.index];
        return p;
      case Workload::kBrokerMix:
        break;
    }
    // broker_mix: four single-document kinds at 4/17 each, batches at
    // 1/17. A batch hands its items to executor threads and waits, and on
    // a virtual machine the wake-up delay of an idle CPU follows the host's
    // load; at the 1/5 share of an even mix that delay moved throughput
    // between runs about twice as much. Batches still carry a third of
    // the documents.
    const size_t roll = Draw(c, 17);
    if (roll == 16) {
      p.kind = Kind::kBatch;
    } else {
      static constexpr Kind kSingle[] = {Kind::kCastExp1, Kind::kCastExp2,
                                         Kind::kValidate, Kind::kEdit};
      p.kind = kSingle[roll % 4];
    }
    switch (p.kind) {
      case Kind::kCastExp1:
      case Kind::kCastExp2:
      case Kind::kValidate: {
        const std::vector<PoDoc>& pool = Pool(p.kind);
        p.index = Draw(c, pool.size());
        p.doc = &pool[p.index];
        return p;
      }
      case Kind::kBatch:
        for (size_t i = 0; i < kBatchItems; ++i) {
          static constexpr Kind kItemKinds[] = {
              Kind::kCastExp1, Kind::kCastExp2, Kind::kValidate};
          const Kind kind = kItemKinds[Draw(c, std::size(kItemKinds))];
          const std::vector<PoDoc>& pool = Pool(kind);
          const PoDoc& doc = pool[Draw(c, pool.size())];
          Service::BatchItem item;
          if (kind == Kind::kValidate) {
            item.op = Service::BatchOp::kValidate;
            item.target = Target(PairId::kExp2);
          } else {
            const PairId pair =
                kind == Kind::kCastExp1 ? PairId::kExp1 : PairId::kExp2;
            item.op = Service::BatchOp::kCast;
            item.source = Source(pair);
            item.target = Target(pair);
          }
          item.xml_text = doc.text;
          p.items.push_back(std::move(item));
          p.item_expect.push_back(doc.expect);
        }
        return p;
      case Kind::kEdit: {
        const EditTemplate& tmpl = corpus_.edits[Draw(c, corpus_.edits.size())];
        auto parsed = xmlreval::xml::ParseXml(tmpl.text);
        if (parsed.ok() && service_.BindDocument(&*parsed).ok() &&
            parsed->NodeCount() == tmpl.node_count) {
          p.edit_doc.emplace(std::move(parsed).value());
        }
        p.script = DrawEditScript(tmpl, &c.rng);
        return p;
      }
      case Kind::kStream:
        break;
    }
    return p;
  }

  const std::vector<PoDoc>& Pool(Kind kind) const {
    return kind == Kind::kCastExp1   ? corpus_.exp1
           : kind == Kind::kCastExp2 ? corpus_.exp2
                                     : corpus_.validate;
  }

  bool Execute(Client& c, Prepared& p, Work& w, SpanLog* log) {
    switch (p.kind) {
      case Kind::kCastExp1:
      case Kind::kCastExp2:
      case Kind::kValidate:
        return DomRequest(c, p, w, log);
      case Kind::kStream:
        return StreamRequest(c, *p.doc, w, log);
      case Kind::kBatch:
        return BatchRequest(c, p, w, log);
      case Kind::kEdit:
        return EditRequest(c, p, w, log);
    }
    return false;
  }

  // ParseXml → BindDocument → Cast or Validate: the steps a batch item
  // takes, on the caller's thread.
  bool DomRequest(Client& c, Prepared& p, Work& w, SpanLog* log) {
    ScopedSpan request(log, SpanKind::kRequest);
    auto parsed = [&] {
      ScopedSpan span(log, SpanKind::kParse);
      return xmlreval::xml::ParseXml(p.doc->text);
    }();
    w.parse_bytes += p.doc->text.size();
    if (!parsed.ok()) return c.Error(Layer::kXml, parsed.status());
    const Status bound = [&] {
      ScopedSpan span(log, SpanKind::kBind);
      return service_.BindDocument(&*parsed);
    }();
    w.bind_nodes += parsed->NodeCount();
    if (!bound.ok()) return c.Error(Layer::kXml, bound);
    Result<ValidationReport> report = [&] {
      if (p.kind == Kind::kValidate) {
        ScopedSpan span(log, SpanKind::kValidate);
        return service_.Validate(Target(PairId::kExp2), *parsed);
      }
      const PairId pair =
          p.kind == Kind::kCastExp1 ? PairId::kExp1 : PairId::kExp2;
      ScopedSpan span(log, SpanKind::kCast);
      return service_.Cast(Source(pair), Target(pair), *parsed);
    }();
    {
      ScopedSpan span(log, SpanKind::kRelease);
      xmlreval::xml::Document released = std::move(parsed).value();
    }
    if (!report.ok()) return c.Error(Layer::kCore, report.status());
    const uint64_t nodes = report->counters.nodes_visited;
    if (p.kind == Kind::kValidate) {
      ++w.validates;
      w.full_nodes += nodes;
    } else {
      ++w.casts;
      w.cast_nodes += nodes;
      if (args_.workload == Workload::kExp2DomCast &&
          nodes != reference_nodes_[p.index]) {
        return c.Fail("cast visited " + std::to_string(nodes) +
                      " nodes, reference pass " +
                      std::to_string(reference_nodes_[p.index]));
      }
    }
    if (!ReportMatches(p.doc->expect, *report)) {
      return c.Fail(Mismatch(p.doc->expect, report->valid,
                             report->violation_path.components()));
    }
    return true;
  }

  // StartCastStream → Feed (64 KiB chunks, until decided) → Finish.
  bool StreamRequest(Client& c, const PoDoc& doc, Work& w, SpanLog* log) {
    ScopedSpan request(log, SpanKind::kRequest);
    auto session = [&] {
      ScopedSpan span(log, SpanKind::kStreamStart);
      return service_.StartCastStream(Source(PairId::kExp1),
                                      Target(PairId::kExp1));
    }();
    if (!session.ok()) return c.Error(Layer::kCore, session.status());
    Service::CastStreamSession& s = **session;
    const std::string_view text = doc.text;
    for (size_t offset = 0; offset < text.size(); offset += kChunkBytes) {
      Status fed;
      {
        ScopedSpan span(log, SpanKind::kStreamFeed);
        fed = s.Feed(text.substr(offset, kChunkBytes));
      }
      if (!fed.ok()) break;  // decided: the rest need not be read
    }
    Result<ValidationReport> report = Status::Internal("not finished");
    xmlreval::core::StreamingReport stream;
    {
      ScopedSpan span(log, SpanKind::kStreamFinish);
      report = s.Finish();
      stream = s.streaming_report();
      session->reset();
    }
    ++w.streams;
    w.stream_fed += stream.bytes_fed;
    w.stream_skipped += stream.bytes_skipped;
    w.stream_max_frames = std::max(w.stream_max_frames, stream.max_live_frames);
    if (!report.ok()) return c.Error(Layer::kCore, report.status());
    if (report->valid != doc.expect.valid ||
        (!doc.expect.valid &&
         (!stream.violation_path_known ||
          !BlameMatches(doc.expect, stream.violation_path)))) {
      return c.Fail(Mismatch(doc.expect, report->valid,
                             stream.violation_path));
    }
    return true;
  }

  bool BatchRequest(Client& c, Prepared& p, Work& w, SpanLog* log) {
    ScopedSpan request(log, SpanKind::kRequest);
    const size_t n = p.items.size();
    std::vector<Service::BatchItemResult> results = [&] {
      ScopedSpan span(log, SpanKind::kBatch);
      return service_.SubmitBatch(std::move(p.items)).get();
    }();
    w.batch_items += n;
    if (results.size() != n) {
      return c.Error(Layer::kService,
                     Status::Internal("batch returned a short result"));
    }
    bool ok = true;
    for (size_t i = 0; i < n; ++i) {
      const Service::BatchItemResult& r = results[i];
      if (!r.status.ok()) {
        ok = c.Error(Layer::kService, r.status);
      } else if (!ReportMatches(p.item_expect[i], r.report)) {
        ok = c.Fail(Mismatch(p.item_expect[i], r.report.valid,
                             r.report.violation_path.components()));
      }
    }
    return ok;
  }

  bool EditRequest(Client& c, Prepared& p, Work& w, SpanLog* log) {
    ScopedSpan request(log, SpanKind::kRequest);
    if (!p.edit_doc) {
      return c.Error(Layer::kXml,
                     Status::Internal("edit template did not re-parse to the "
                                      "reference node ids"));
    }
    auto result = [&] {
      ScopedSpan span(log, SpanKind::kEditStream);
      return service_.SubmitEditStream(Source(PairId::kExp2),
                                       Target(PairId::kExp2), &*p.edit_doc,
                                       p.script.ops);
    }();
    if (!result.ok()) return c.Error(Layer::kAnalysis, result.status());
    ++w.edit_streams;
    if (result->short_circuited) ++w.edit_short;
    if (result->report.valid != p.script.expect_valid) {
      return c.Fail("edit stream of " + std::to_string(p.script.edits) +
                    " edits: expected " +
                    (p.script.expect_valid ? "valid" : "invalid") + ", got " +
                    (result->report.valid ? "valid" : "invalid"));
    }
    return true;
  }

  const Args& args_;
  const Corpus& corpus_;
  Service& service_;
  Handles handles_;
  std::vector<uint64_t> reference_nodes_;
  int64_t start_ns_ = 0;
  int64_t end_ns_ = 0;
};

// ---------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------

// kB field of /proc/self/status, or -1.
int64_t StatusKb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(key);
  while (std::getline(status, line)) {
    if (line.compare(0, len, key) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::strtoll(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return -1;
}

// Resets VmHWM to the current resident set.
bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return clear.good();
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", ch);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

// For the human-readable lines.
std::string Short(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // printed beside the value, not in the JSON
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2ebench --workload exp2_dom_cast|exp1_stream_skip|"
                 "broker_mix --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n");
    return 2;
  }
  // Keep freed memory in the process: with glibc's default trimming, the
  // DOM of every request is returned to the kernel and faulted back in by
  // the next, and that page-fault cost varies with the host far more than
  // the program's own work does. Allocation calls are still measured.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const size_t nproc = OnlineCpus();
  const int cpu = PinToCurrentCpu();
  if (cpu < 0) {
    std::fprintf(stderr, "cannot pin the benchmark to one CPU\n");
    return 1;
  }
  const Corpus corpus = MakeCorpus(args.workload, args.seed);

  // Cold set-ups: time each at the host speed a probe just before it
  // read, keep the last one to serve.
  std::vector<double> setups;
  std::optional<Ready> ready;
  HostSpeed setup_host;
  for (int run = 0; run < kSetupRuns; ++run) {
    ready.reset();
    if (run % kSetupsPerProbe == 0) setup_host.Probe();
    const int64_t start = NowNs();
    Result<Ready> r = SetUp(args.workload, kBatchThreads, "");
    setups.push_back(SecondsSince(start) * setup_host.factor());
    if (!r.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    ready.emplace(std::move(r).value());
  }
  SetupTimes setup;
  if (args.trace) {
    const std::filesystem::path plan_dir =
        std::filesystem::path(args.work_dir) /
        ("plans." + std::to_string(getpid()));
    std::error_code ec;
    std::filesystem::remove_all(plan_dir, ec);
    std::filesystem::create_directories(plan_dir, ec);
    setup = SplitSetup(args.workload, kBatchThreads, plan_dir);
    std::filesystem::remove_all(plan_dir, ec);
  }
  setup.setup_s = Median(setups);

  Runner runner(args, corpus, *ready);
  if (args.workload == Workload::kExp2DomCast && !runner.ReferencePass()) {
    std::fprintf(stderr, "reference pass failed\n");
    return 1;
  }

  if (!ResetPeakRss()) {
    std::fprintf(stderr, "cannot reset the peak resident set\n");
    return 1;
  }
  const int64_t base_kb = StatusKb("VmRSS");
  // Throughput is taken per one-second window.
  const size_t windows = std::max<size_t>(1, static_cast<size_t>(args.seconds));
  std::vector<Client> clients;
  clients.reserve(kClients);
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back(args.seed * 1000003 + i, windows);
    if (args.trace) clients.back().log.Reserve(1 << 18);
  }
  runner.Run(clients);
  const int64_t peak_kb = StatusKb("VmHWM");
  if (base_kb < 0 || peak_kb < 0) {
    std::fprintf(stderr, "cannot read the resident set\n");
    return 1;
  }

  // Merge.
  std::array<uint64_t, 2> attempted{}, failed{};
  std::array<std::vector<const ClientRecord*>, 2> records;
  std::array<Work, 2> work;
  std::array<uint64_t, kLayers> errors{};
  std::vector<double> batch_p50, batch_p90, batch_tail;
  SpanTotals spans;
  std::vector<std::string> notes;
  double host_pass_ns = 0;
  for (const Client& c : clients) {
    for (size_t ph = 0; ph < 2; ++ph) {
      attempted[ph] += c.records[ph].count();
      failed[ph] += c.failed[ph];
      records[ph].push_back(&c.records[ph]);
      work[ph].Add(c.work[ph]);
    }
    for (size_t l = 0; l < kLayers; ++l) errors[l] += c.errors[l];
    const ClientRecord& untraced = c.records[0];
    batch_p50.insert(batch_p50.end(), untraced.batch_p50_ms().begin(),
                     untraced.batch_p50_ms().end());
    batch_p90.insert(batch_p90.end(), untraced.batch_p90_ms().begin(),
                     untraced.batch_p90_ms().end());
    batch_tail.insert(batch_tail.end(), untraced.batch_tail_ms().begin(),
                      untraced.batch_tail_ms().end());
    spans.Add(c.log.records());
    notes.insert(notes.end(), c.notes.begin(), c.notes.end());
    host_pass_ns += c.host.pass_ns() / static_cast<double>(clients.size());
  }
  std::array<std::vector<double>, 2> rates;
  std::array<double, 2> rps{};
  for (size_t ph = 0; ph < 2; ++ph) {
    rates[ph] = WindowRates(records[ph]);
    rps[ph] = Median(rates[ph]);
  }
  const uint64_t total_attempted = attempted[0] + attempted[1];
  const uint64_t total_failed = failed[0] + failed[1];
  bool correct = total_failed == 0 && !batch_p50.empty();

  std::vector<Metric> metrics;
  std::string layer_share;  // traced runs: self time by layer
  if (!args.trace) {
    const TailPercentile tail = HighestSupportedPercentile(kBatchRequests);
    const std::string batches =
        "median over " + std::to_string(batch_p50.size()) + " runs of " +
        std::to_string(kBatchRequests) + " requests of one client, n=" +
        std::to_string(attempted[0]);
    metrics = {
        {"requests_per_s", rps[0], "req/s",
         std::to_string(kClients) + " closed-loop client; median of " +
             std::to_string(windows) + " 1 s windows, range " +
             Short(*std::min_element(rates[0].begin(), rates[0].end())) +
             ".." + Short(*std::max_element(rates[0].begin(), rates[0].end()))},
        {"latency_p50_ms", Median(batch_p50), "ms", batches},
        {"latency_p90_ms", Median(batch_p90), "ms",
         std::to_string(kBatchRequests - static_cast<size_t>(
                                             kGatedTail * kBatchRequests)) +
             " beyond per run; " + batches},
        {"latency_p99_ms", Median(batch_tail), "ms",
         "p" + Short(tail.percentile) + ", the highest a run supports (" +
             std::to_string(tail.beyond) + " beyond); " + batches},
        {"failed_pct", Ratio(100.0 * total_failed, total_attempted), "%",
         std::to_string(total_failed) + " of " +
             std::to_string(total_attempted)},
        {"setup_s", setup.setup_s, "s",
         "median of " + std::to_string(kSetupRuns) + " cold set-ups"},
        {"peak_rss_mb", peak_kb / 1024.0, "MiB",
         "of which serving added " + Short((peak_kb - base_kb) / 1024.0) +
             " MiB to the corpus-loaded " + Short(base_kb / 1024.0) + " MiB"},
    };
  } else {
    const Work& w = work[1];
    const double request_ns = static_cast<double>(spans.total(SpanKind::kRequest));
    const double stream_ns = spans.total(SpanKind::kStreamStart) +
                             spans.total(SpanKind::kStreamFeed) +
                             spans.total(SpanKind::kStreamFinish);
    // Stage-sum reconciliation: the layers' self times plus the request
    // spans' own must add up to the request spans.
    double stage_sum = 0;
    for (size_t l = 0; l < kLayers; ++l) {
      const auto layer = static_cast<Layer>(l);
      stage_sum += spans.LayerSelf(layer);
      layer_share += std::string(LayerName(layer)) + " " +
                     Short(100 * Ratio(spans.LayerSelf(layer), request_ns)) +
                     "%  ";
    }
    const double unattributed = spans.LayerSelf(Layer::kBench);
    const double reconcile_gap =
        Ratio(std::abs(stage_sum - request_ns), request_ns);
    if (reconcile_gap > kReconcileTolerance || request_ns <= 0) {
      notes.push_back("stage-sum reconciliation failed: gap " +
                      Short(reconcile_gap));
      correct = false;
    }
    const xmlreval::obs::MetricsSnapshot snapshot =
        ready->service->metrics().Snapshot();
    const xmlreval::obs::HistogramSnapshot* wait =
        snapshot.FindHistogram("xmlreval_batch_queue_wait_us");
    double nodes_per_doc = 0;
    for (uint64_t n : runner.reference_nodes()) nodes_per_doc += n;
    nodes_per_doc = Ratio(nodes_per_doc, runner.reference_nodes().size());
    auto layer_errors = [&](Layer layer) {
      return static_cast<double>(errors[static_cast<size_t>(layer)]);
    };
    const std::string traced =
        std::to_string(attempted[1]) + " traced requests";
    metrics = {
        {"xml.parse_ns_per_byte",
         Ratio(spans.total(SpanKind::kParse), w.parse_bytes), "ns/B",
         std::to_string(w.parse_bytes) + " B"},
        {"xml.parse_self_pct",
         100 * Ratio(spans.total(SpanKind::kParse), request_ns), "%", traced},
        {"xml.bind_ns_per_node",
         Ratio(spans.total(SpanKind::kBind), w.bind_nodes), "ns/node",
         std::to_string(w.bind_nodes) + " nodes"},
        {"core.cast_ns_per_node",
         Ratio(spans.total(SpanKind::kCast), w.cast_nodes), "ns/node",
         std::to_string(w.casts) + " casts"},
        {"core.cast_nodes_per_doc", nodes_per_doc, "count",
         std::to_string(runner.reference_nodes().size()) + " documents"},
        {"core.full_ns_per_node",
         Ratio(spans.total(SpanKind::kValidate), w.full_nodes), "ns/node",
         std::to_string(w.validates) + " validations"},
        {"core.stream_ns_per_byte", Ratio(stream_ns, w.stream_fed), "ns/B",
         std::to_string(w.streams) + " streams"},
        {"core.stream_skipped_pct", 100 * Ratio(w.stream_skipped, w.stream_fed),
         "%", std::to_string(w.stream_fed) + " B fed"},
        {"core.stream_max_live_frames",
         static_cast<double>(w.stream_max_frames), "count", ""},
        {"analysis.edit_stream_us",
         Ratio(spans.total(SpanKind::kEditStream), w.edit_streams) / 1e3, "us",
         std::to_string(w.edit_streams) + " streams"},
        {"analysis.short_circuit_pct",
         100 * Ratio(w.edit_short, w.edit_streams), "%", ""},
        {"service.batch_us_per_item",
         Ratio(spans.total(SpanKind::kBatch), w.batch_items) / 1e3, "us",
         std::to_string(w.batch_items) + " items"},
        {"service.batch_queue_wait_us_p50",
         wait != nullptr ? wait->Quantile(0.5) : 0, "us",
         "n=" + std::to_string(wait != nullptr ? wait->count : 0)},
        {"service.batch_queue_wait_us_p99",
         wait != nullptr ? wait->Quantile(0.99) : 0, "us", ""},
        {"schema.register_ms", setup.register_ms, "ms",
         "median of " + std::to_string(kSetupRuns)},
        {"core.relations_ms", setup.relations_ms, "ms",
         "median cold set-up less registration"},
        {"service.plan_load_ms", setup.plan_load_ms, "ms",
         "median of " + std::to_string(kSetupRuns)},
        {"xml.errors", layer_errors(Layer::kXml), "count", ""},
        {"schema.errors",
         layer_errors(Layer::kSchema) + static_cast<double>(setup.schema_errors),
         "count", ""},
        {"core.errors", layer_errors(Layer::kCore), "count", ""},
        {"analysis.errors", layer_errors(Layer::kAnalysis), "count", ""},
        {"service.errors",
         layer_errors(Layer::kService) +
             static_cast<double>(setup.service_errors),
         "count", ""},
        {"trace.overhead_pct", 100 * Ratio(rps[0] - rps[1], rps[0]), "%",
         "untraced " + Short(rps[0]) + " vs traced " + Short(rps[1]) +
             " req/s"},
        {"bench.unattributed_pct", 100 * Ratio(unattributed, request_ns), "%",
         "reconciliation gap " + Short(reconcile_gap)},
        {"bench.host_pass_ms", host_pass_ns / 1e6, "ms",
         "reference pass at the end of the run; per-layer times are unscaled"},
    };
    if (setup.schema_errors + setup.service_errors != 0) correct = false;
  }

  std::printf("workload %s  seed %" PRIu64 "  clients %zu  batch threads %zu"
              "  on cpu %d  window %g s%s\n",
              WorkloadName(args.workload), args.seed, kClients, kBatchThreads,
              cpu, args.seconds, args.trace ? "  (half traced)" : "");
  std::printf("  host speed: reference pass %.3f ms while serving, %.3f ms "
              "during set-up (nominal %.3f ms); times below are scaled to "
              "nominal\n",
              host_pass_ns / 1e6, setup_host.pass_ns() / 1e6,
              kNominalPassNs / 1e6);
  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  std::printf("  req/s per 1 s window:");
  for (double r : rates[0]) std::printf(" %.0f", r);
  std::printf("\n");
  if (!layer_share.empty()) {
    std::printf("  self time by layer: %s\n", layer_share.c_str());
  }
  for (const std::string& note : notes) {
    std::printf("  FAILED: %s\n", note.c_str());
  }
  size_t corpus_bytes = 0;
  for (const auto* pool : {&corpus.exp1, &corpus.exp2, &corpus.validate}) {
    for (const PoDoc& doc : *pool) corpus_bytes += doc.text.size();
  }
  for (const EditTemplate& tmpl : corpus.edits) corpus_bytes += tmpl.text.size();
  std::printf(
      "stamp {\"workload\": %s, \"seed\": %" PRIu64
      ", \"corpus_fnv1a64\": \"%016" PRIx64
      "\", \"corpus_bytes\": %zu, \"nproc\": %zu, \"hardware_concurrency\": "
      "%u, \"cpu_model\": %s, \"compiler\": %s, \"build_type\": %s}\n",
      JsonString(WorkloadName(args.workload)).c_str(), args.seed,
      corpus.Fingerprint(), corpus_bytes, nproc,
      std::thread::hardware_concurrency(), JsonString(CpuModel()).c_str(),
      JsonString("gcc " __VERSION__).c_str(),
      JsonString(E2EBENCH_BUILD_TYPE).c_str());

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(total_attempted) +
                     ", \"failed\": " + std::to_string(total_failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics) {
    // failed_pct is carried by attempted / failed instead; the p99 is
    // printed but not gated (harness/stats.h, kGatedTail).
    if (m.name == "failed_pct" || m.name == "latency_p99_ms") continue;
    json += (first ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
            Number(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
    first = false;
  }
  std::printf("%s}}\n", json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
