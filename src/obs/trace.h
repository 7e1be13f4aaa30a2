// Phase-level trace spans with request-scoped causal context and a
// bounded ring-buffer sink.
//
// A Span is an RAII scope marker: construction stamps a start time and
// pushes the span onto a thread-local active-span stack; destruction pops
// it and appends one COMPLETE event (name, ts, dur, tid, depth, up to four
// integer args) to the process-wide TraceSink ring buffer. The sink is
// bounded — a fixed capacity set up front; when full, the oldest events
// are overwritten and counted as dropped — so tracing can stay on in a
// serving process without unbounded growth.
//
// CAUSAL CONTEXT. Every thread carries a TraceContext: the id of the
// request it is currently working for (trace_id) plus an optional pending
// inbound flow edge. A RequestScope at a service entry point mints a fresh
// trace_id (or adopts the caller's — batch items nest the per-op calls
// under one id); every span started while the scope is live is stamped
// with that id, so all spans of one request are joinable even across
// threads. Cross-thread handoffs — Executor::Submit task wrappers and the
// batch queue — carry the context explicitly: the submitter calls
// ForkFlow(name) (which emits a Chrome flow START event, "ph":"s", inside
// the submitting span), ships the returned context with the task, and the
// worker installs it with ScopedTraceContext; the first span the task
// opens then emits the matching flow FINISH event ("ph":"f","bp":"e"), so
// Perfetto renders an arrow from the submitting span to the task on its
// worker. FlowStep emits an intermediate "ph":"t" step (the batch
// pipeline marks queue pickup).
//
// TAIL SAMPLING. With TraceSink tail sampling enabled, events that carry
// a trace_id are STAGED per request instead of entering the ring; when the
// request finishes the owner calls ResolveTrace(trace_id, keep): kept
// traces (slow or failed requests — the caller decides, typically via
// Histogram::IsTailValue) move to the ring wholesale, dropped ones are
// discarded and counted. The ring then holds only exemplar-worthy
// requests end to end instead of a uniform suffix of everything.
//
// Export is Chrome trace-event JSON ("ph":"X" complete events plus
// "s"/"t"/"f" flow events), loadable directly in Perfetto /
// chrome://tracing. RAII construction guarantees exported spans are
// balanced: a child's [ts, ts+dur] interval nests inside its parent's on
// the same tid.
//
// Cost discipline: span names and arg keys must be string LITERALS (the
// sink stores the pointers); a disabled span is one relaxed load in the
// constructor and a branch in the destructor — no clock reads, no
// allocation, nothing on the ring. Spans also feed the crash-safe
// FlightRecorder when it is enabled (same single relaxed load: both
// consumers share one recording mask). Building with
// -DXMLREVAL_OBS_DISABLED compiles spans away entirely.

#ifndef XMLREVAL_OBS_TRACE_H_
#define XMLREVAL_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace xmlreval::obs {

/// Runtime switch for span recording into the TraceSink (default off).
bool TraceEnabled();
void SetTraceEnabled(bool enabled);

/// Bitmask of active span consumers; one relaxed load covers both.
inline constexpr uint32_t kSpanTraceBit = 1u;   // TraceSink ring
inline constexpr uint32_t kSpanFlightBit = 2u;  // FlightRecorder ring
uint32_t SpanMask();

namespace internal {
/// Flips one consumer bit in the span mask (pins the trace epoch when
/// turning a bit on). The FlightRecorder uses this; SetTraceEnabled is
/// the public face for the trace bit.
void SetSpanMaskBit(uint32_t bit, bool enabled);
}  // namespace internal

/// Microseconds since the process trace epoch (steady clock).
uint64_t TraceNowMicros();

// ---------------------------------------------------------------- context

/// Causal identity carried across threads with a unit of work.
struct TraceContext {
  /// Request the work belongs to; 0 = no request scope.
  uint64_t trace_id = 0;
  /// Pending inbound flow edge minted by ForkFlow; consumed (as a Chrome
  /// flow-finish event) by the first span the receiving task opens.
  uint64_t flow_id = 0;
  /// Names the flow edge; must match the ForkFlow call (string literal).
  const char* flow_name = nullptr;
};

/// Process-unique nonzero request id; 0 when no span consumer is active
/// (ids are only meaningful while something records them).
uint64_t NewTraceId();

/// The calling thread's current context (no pending flow).
TraceContext CurrentTraceContext();

/// Installs `ctx` on the calling thread for the object's lifetime and
/// restores the previous context on destruction. Workers install the
/// context shipped with a task before running it.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx);
  ~ScopedTraceContext();
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  uint64_t saved_trace_id_;
  uint64_t saved_flow_id_;
  const char* saved_flow_name_;
};

/// Request identity for a service entry point: adopts the thread's
/// current trace id when one is installed (a batch item's per-op calls
/// nest under the item's id), mints a fresh one otherwise. The scope that
/// MINTED the id owns the request end: its destructor resolves tail
/// sampling for the id — declare the scope BEFORE the request's spans so
/// they finish (and stage their events) first. The default verdict is
/// keep; a sampler calls set_keep with its decision before the scope
/// closes (typically: failed request, or latency in the histogram tail).
class RequestScope {
 public:
  RequestScope();
  /// Adopts an id minted ELSEWHERE (batch submission forked the flow
  /// before enqueuing) and owns its end: installs ctx.trace_id on this
  /// thread and resolves tail sampling at destruction. Owns nothing when
  /// ctx.trace_id is 0.
  explicit RequestScope(const TraceContext& ctx);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

  uint64_t trace_id() const { return trace_id_; }
  /// True when this scope minted the id (outermost request boundary).
  bool owns() const { return owns_; }
  /// Tail-sampling verdict applied at destruction (owner only).
  void set_keep(bool keep) { keep_ = keep; }

 private:
  uint64_t trace_id_ = 0;
  uint64_t saved_trace_id_ = 0;
  bool owns_ = false;
  bool keep_ = true;
};

/// Marks the current request keep-worthy from a scope that does NOT own
/// it (a nested entry point saw a failure or a tail-bucket latency). The
/// owning RequestScope on the same thread ORs the hint into its verdict
/// at destruction and clears it.
void HintKeepTrace();

/// Emits a Chrome flow START event ("ph":"s") on the calling thread —
/// inside whatever span is open, so the arrow originates there — and
/// returns the context to ship with the spawned task. `name` labels the
/// edge and must be a string literal. No-op (all-zero context, no event)
/// when tracing is off.
TraceContext ForkFlow(const char* name);

/// Emits a flow STEP event ("ph":"t") for `ctx`'s edge on the calling
/// thread (e.g. queue pickup, between enqueue and the handler span).
void FlowStep(const TraceContext& ctx);

// ------------------------------------------------------------------ sink

class TraceSink {
 public:
  static constexpr size_t kMaxArgs = 4;

  struct Event {
    const char* name = nullptr;  // string literal
    uint64_t ts_us = 0;          // start, relative to the trace epoch
    uint64_t dur_us = 0;
    uint64_t trace_id = 0;  // owning request; exported as args.trace_id
    uint64_t flow_id = 0;   // flow events: the edge id ("id" field)
    uint32_t tid = 0;   // dense per-thread id (first-use order)
    uint32_t depth = 0; // nesting depth on its thread at record time
    char ph = 'X';      // 'X' complete; 's'/'t'/'f' flow start/step/finish
    uint32_t num_args = 0;
    const char* arg_keys[kMaxArgs] = {};  // string literals
    uint64_t arg_values[kMaxArgs] = {};
  };

  static TraceSink& Global();

  /// Appends one event; overwrites the oldest when full. With tail
  /// sampling on, events carrying a trace_id are staged per request until
  /// ResolveTrace decides their fate.
  void Record(const Event& event);

  /// Tail-based sampling switch (default off). Enabling clears staged
  /// state; disabling discards whatever is still staged.
  void SetTailSampling(bool enabled);
  bool tail_sampling() const;

  /// Ends a staged request: keep moves its events into the ring in
  /// arrival order, drop discards them (counted in tail_dropped()).
  /// No-op for unknown ids or when tail sampling is off.
  void ResolveTrace(uint64_t trace_id, bool keep);

  /// Events currently buffered, oldest first (staged events excluded).
  std::vector<Event> Events() const;
  size_t size() const;
  /// Events overwritten in the ring since the last Clear.
  uint64_t dropped() const;
  /// Events discarded by tail sampling (dropped traces + staging caps).
  uint64_t tail_dropped() const;
  /// Events currently staged across all unresolved traces.
  size_t staged() const;

  /// Drops all buffered + staged events and resets the drop counters.
  void Clear();
  /// Resizes the ring (clears it). Default capacity: 65536 events.
  void SetCapacity(size_t capacity);

  /// Chrome trace-event JSON: {"traceEvents":[...]}; events sorted by
  /// (ts, -dur) so parents precede children and timestamps are monotone.
  std::string ExportChromeJson() const;

  /// Dense id of the calling thread (assigned on first use).
  static uint32_t CurrentThreadId();

 private:
  TraceSink();
  void RecordLocked(const Event& event);

  mutable std::mutex mutex_;
  std::vector<Event> ring_;
  size_t capacity_;
  size_t head_ = 0;   // next write slot
  size_t count_ = 0;  // valid events (≤ capacity_)
  uint64_t dropped_ = 0;

  // Tail sampling (all guarded by mutex_). Staging is bounded: at most
  // capacity_ events across all staged traces; overflow drops the event
  // and counts it in tail_dropped_.
  bool tail_sampling_ = false;
  std::unordered_map<uint64_t, std::vector<Event>> staged_;
  size_t staged_events_ = 0;
  uint64_t tail_dropped_ = 0;
};

class Span {
 public:
  /// `name` must be a string literal (stored by pointer).
  explicit Span(const char* name) {
#ifndef XMLREVAL_OBS_DISABLED
    if (uint32_t mask = SpanMask()) Start(name, mask);
#else
    (void)name;
#endif
  }

  ~Span() {
#ifndef XMLREVAL_OBS_DISABLED
    if (mask_ != 0) Finish();
#endif
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when this span records into the TraceSink (trace switch was on
  /// at construction). Lets callers skip arg computation when off.
  bool enabled() const {
#ifndef XMLREVAL_OBS_DISABLED
    return (mask_ & kSpanTraceBit) != 0;
#else
    return false;
#endif
  }

  /// Attaches an integer arg (key must be a string literal; at most
  /// TraceSink::kMaxArgs are kept). No-op on a disabled span.
  void Arg(const char* key, uint64_t value) {
#ifndef XMLREVAL_OBS_DISABLED
    if (enabled() && event_.num_args < TraceSink::kMaxArgs) {
      event_.arg_keys[event_.num_args] = key;
      event_.arg_values[event_.num_args] = value;
      ++event_.num_args;
    }
#else
    (void)key;
    (void)value;
#endif
  }

 private:
  friend size_t SnapshotActiveSpans(struct ActiveSpanInfo* out, size_t max);

#ifndef XMLREVAL_OBS_DISABLED
  void Start(const char* name, uint32_t mask);
  void Finish();

  uint32_t mask_ = 0;
  Span* parent_ = nullptr;  // thread-local active-span stack link
  TraceSink::Event event_;
#endif
};

/// One frame of the calling thread's open-span stack, innermost first.
/// Used by the FlightRecorder's crash dump: async-signal-safe to call on
/// the crashing thread (reads thread-locals and stack-allocated Spans).
struct ActiveSpanInfo {
  const char* name = nullptr;
  uint64_t ts_us = 0;
  uint64_t trace_id = 0;
};
size_t SnapshotActiveSpans(ActiveSpanInfo* out, size_t max);

}  // namespace xmlreval::obs

#endif  // XMLREVAL_OBS_TRACE_H_
