// FlightRecorder: the one lifecycle event stream, with two sinks.
//
// Every instrumented layer reports each lifecycle point once, as one Record()
// call (submit → queue → cold/warm start → E/T/L phases → cache ops →
// persistor/write-back, plus control-plane events: breaker trips, pressure
// hysteresis, injected faults, node crashes). Parent ids link pipeline tasks
// to their pipeline and persistor jobs back to the invocation that issued the
// write, so the causal chain for any invocation can be reassembled after the
// fact. Record() fans each event out to two sinks:
//
//   * the ring — a bounded black box of compact structs (old records evicted,
//     no string formatting until dump time), cheap enough to leave ON for long
//     runs. On a SIM_ASSERT failure or a chaos-invariant breach it is dumped as
//     JSON, preserving the last N events that led up to the failure. It has its
//     own `enabled` switch and capacity;
//   * an attached TraceRecorder (set_trace) — the kind's row in
//     OFC_FLIGHT_EVENT_KINDS says how it renders as a Chrome trace event (span
//     or instant, name, category, pid/tid) and whether it is sampled by
//     invocation id, by parent id, or always drawn. faasload::Environment
//     attaches its trace().
//
// Emit sites guard on active() — true when either sink is on — exactly once
// per lifecycle point (simlint enforces this for src/ outside the obs layer),
// so tier-1 runtimes pay one untaken branch when both sinks are off.
#ifndef OFC_OBS_FLIGHT_RECORDER_H_
#define OFC_OBS_FLIGHT_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/units.h"
#include "src/obs/trace.h"

namespace ofc::obs {

// How a kind renders into the Chrome trace.
enum TraceShape : std::uint8_t {
  kNoTrace,   // Not drawn in the trace.
  kInstant,   // "i" at the record time.
  kSpanTo,    // "X" ending at the record time: ts = time - duration.
  kSpanFrom,  // "X" starting at the record time: ts = time.
};

// The tid a drawn kind lands on. Invocation and parent tids are sampled by
// that id (TraceRecorder::Sampled); worker and zero tids are always drawn.
enum TraceTid : std::uint8_t { kTidInvocation, kTidParent, kTidWorker, kTidZero };

struct TraceRendering {
  TraceShape shape = kNoTrace;
  // Event name; "$s" splices in the record's subject, "$d" its detail.
  const char* name = "";
  const char* category = "";
  int pid = 0;
  TraceTid tid = kTidZero;
  // Arg keys for the record's worker, subject and detail ("" = not an arg).
  const char* worker_arg = "";
  const char* subject_arg = "";
  const char* detail_arg = "";
};

struct FlightKindSpec {
  const char* wire;  // Stable dump name ("submit", "cache_hit", ...).
  bool ring;         // False for trace-only kinds: the ring never holds them.
  TraceRendering trace;
};

// The lifecycle vocabulary, one row per kind: X(Kind, wire name, in ring,
// then the TraceRendering fields). A row that stops after `in ring` is not
// drawn in the trace.
// clang-format off
#define OFC_FLIGHT_EVENT_KINDS(X)                                                                  \
  /* faas/platform lifecycle. */                                                                   \
  X(kSubmit, "submit", true)                                                                       \
  X(kQueue, "queue", true)                                                                         \
  X(kQueueWait, "queue_wait", false,                                                               \
    kSpanTo, "queued", "dispatch", kPidInvocations, kTidInvocation)                                \
  X(kShed, "shed", true,                                                                           \
    kInstant, "shed-$d", "overload", kPidInvocations, kTidInvocation, "", "function")              \
  X(kColdStart, "cold_start", true,                                                                \
    kSpanFrom, "cold-start", "sandbox", kPidInvocations, kTidInvocation, "worker", "function")     \
  X(kWarmStart, "warm_start", true,                                                                \
    kSpanFrom, "warm-start", "sandbox", kPidInvocations, kTidInvocation, "worker", "function")     \
  X(kExtract, "extract", true, kSpanTo, "extract", "phase", kPidInvocations, kTidInvocation)       \
  X(kTransform, "transform", true, kSpanTo, "transform", "phase", kPidInvocations, kTidInvocation) \
  X(kLoad, "load", true, kSpanTo, "load", "phase", kPidInvocations, kTidInvocation)                \
  X(kOomRescue, "oom_rescue", true,                                                                \
    kInstant, "oom-rescue", "oom", kPidInvocations, kTidInvocation)                                \
  X(kOomKill, "oom_kill", true, kInstant, "oom-kill", "oom", kPidInvocations, kTidInvocation)      \
  X(kRetry, "retry", true)                                                                         \
  X(kComplete, "complete", true,                                                                   \
    kSpanTo, "$s", "invocation", kPidInvocations, kTidInvocation, "worker")                        \
  X(kFail, "fail", true,                                                                           \
    kSpanTo, "$s", "invocation", kPidInvocations, kTidInvocation, "", "", "failed")                \
  X(kWorkerCrash, "worker_crash", true)                                                            \
  X(kWorkerRestore, "worker_restore", true)                                                        \
  X(kPipelineStart, "pipeline_start", true)                                                        \
  X(kPipelineEnd, "pipeline_end", true,                                                            \
    kSpanTo, "$s", "pipeline", kPidPipelines, kTidParent, "", "", "status")                        \
  /* core/proxy + cache. */                                                                        \
  X(kCacheHit, "cache_hit", true)                                                                  \
  X(kCacheMiss, "cache_miss", true)                                                                \
  X(kCacheAdmit, "cache_admit", true)                                                              \
  X(kCacheWrite, "cache_write", true)                                                              \
  X(kWriteFallback, "write_fallback", true,                                                        \
    kInstant, "write-fallback", "degradation", kPidStore, kTidZero, "", "key")                     \
  X(kRsdsReadRetry, "rsds_read_retry", false,                                                      \
    kInstant, "rsds-read-retry", "degradation", kPidStore, kTidZero, "", "key")                    \
  X(kExternalReadBoost, "external_read_boost", false,                                              \
    kInstant, "external-read-boost", "webhook", kPidStore, kTidZero, "", "key")                    \
  X(kPersistorDispatch, "persistor_dispatch", true)                                                \
  X(kPersistorDone, "persistor_done", true,                                                        \
    kSpanTo, "persistor", "writeback", kPidStore, kTidZero, "", "key")                             \
  X(kPersistorRetry, "persistor_retry", true)                                                      \
  X(kPersistorConflict, "persistor_conflict", true)                                                \
  X(kWriteback, "writeback", true)                                                                 \
  X(kBreakerOpen, "breaker_open", true, kInstant, "breaker-open", "overload", kPidCache, kTidZero) \
  X(kBreakerHalfOpen, "breaker_half_open", false,                                                  \
    kInstant, "breaker-half-open", "overload", kPidCache, kTidZero)                                \
  X(kBreakerClose, "breaker_close", true,                                                          \
    kInstant, "breaker-close", "overload", kPidCache, kTidZero)                                    \
  /* core/cache_agent. */                                                                          \
  X(kScaleUp, "scale_up", true,                                                                    \
    kSpanFrom, "scale-up", "cache", kPidCache, kTidWorker, "", "", "target_bytes")                 \
  X(kScaleDown, "scale_down", true,                                                                \
    kSpanFrom, "scale-down", "cache", kPidCache, kTidWorker, "", "", "mode")                       \
  X(kMigration, "migration", true,                                                                 \
    kSpanFrom, "migrate-master", "cache", kPidCache, kTidWorker, "", "key")                        \
  X(kEvict, "evict", true) /* Object left the cache; detail = eviction reason. */                  \
  /* fault/ + ramcloud/. */                                                                        \
  X(kFaultInject, "fault_inject", true,                                                            \
    kInstant, "$s:inject", "fault", kPidFaults, kTidZero, "target")                                \
  X(kFaultHeal, "fault_heal", true, kInstant, "$s:heal", "fault", kPidFaults, kTidZero, "target")  \
  X(kNodeCrash, "node_crash", true)                                                                \
  X(kNodeRestart, "node_restart", true)                                                            \
  X(kNodeRecovered, "node_recovered", true)                                                        \
  /* Data integrity (checksum verify / scrub / quarantine). */                                     \
  X(kCorruptionDetected, "corruption_detected", true)                                              \
  X(kCorruptionRepaired, "corruption_repaired", true)                                              \
  X(kNodeQuarantined, "node_quarantined", true)
// clang-format on

#define OFC_FLIGHT_KIND_ENUM(kind, ...) kind,
enum class FlightEventKind : std::uint8_t { OFC_FLIGHT_EVENT_KINDS(OFC_FLIGHT_KIND_ENUM) };
#undef OFC_FLIGHT_KIND_ENUM

#define OFC_FLIGHT_KIND_SPEC(kind, wire, ring, ...) {wire, ring, {__VA_ARGS__}},
inline constexpr FlightKindSpec kFlightKinds[] = {OFC_FLIGHT_EVENT_KINDS(OFC_FLIGHT_KIND_SPEC)};
#undef OFC_FLIGHT_KIND_SPEC

inline const FlightKindSpec& FlightKind(FlightEventKind kind) {
  return kFlightKinds[static_cast<std::size_t>(kind)];
}

// Stable wire name for dumps ("submit", "cache_hit", ...).
inline const char* FlightEventKindName(FlightEventKind kind) { return FlightKind(kind).wire; }

struct FlightEvent {
  std::uint64_t seq = 0;  // Monotonic append index (survives ring eviction).
  SimTime time = 0;
  FlightEventKind kind = FlightEventKind::kSubmit;
  // Invocation this record belongs to; 0 for control-plane events that are not
  // tied to a specific invocation (breaker trips, node crashes, ...).
  std::uint64_t invocation_id = 0;
  // Causal parent: pipeline id for pipeline tasks, invocation id for persistor
  // jobs and write-backs, fault id for fault windows. 0 = no parent.
  std::uint64_t parent_id = 0;
  std::int32_t worker = -1;   // Worker/node index; -1 when not applicable.
  std::string subject;        // Function name / object key / fault kind.
  std::string detail;         // Free-form context (status, reason, sizes).
};

struct FlightRecorderOptions {
  bool enabled = false;
  std::size_t capacity = 4096;  // Ring size; oldest records evicted beyond it.
};

class FlightRecorder {
 public:
  explicit FlightRecorder(FlightRecorderOptions options = {}) : options_(options) {}
  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  // The ring sink's switch; total_recorded() and the dumps count ring records
  // only.
  bool enabled() const { return options_.enabled; }
  void set_enabled(bool on) { options_.enabled = on; }
  // The trace sink; null detaches it.
  void set_trace(TraceRecorder* trace) { trace_ = trace; }
  TraceRecorder* trace() const { return trace_; }
  // The emit guard: true when either sink is on.
  bool active() const { return options_.enabled || (trace_ != nullptr && trace_->enabled()); }
  void set_capacity(std::size_t n);
  const FlightRecorderOptions& options() const { return options_; }

  // Reports one lifecycle point to both sinks: draws it into the attached
  // trace when the kind's row renders and its id is sampled, and appends it to
  // the ring (evicting the oldest record when full) when the ring is enabled
  // and the row is in the ring. `duration` is the span length for span rows;
  // the ring ignores it. Callers guard on active() — Record() re-checks, so an
  // unguarded call is safe, just slower than the branch the guard idiom buys.
  void Record(SimTime time, FlightEventKind kind, std::uint64_t invocation_id,
              std::uint64_t parent_id = 0, std::int32_t worker = -1, std::string subject = "",
              std::string detail = "", SimDuration duration = 0);

  std::size_t size() const { return ring_.size(); }
  std::uint64_t total_recorded() const { return next_seq_; }
  std::uint64_t evicted() const { return next_seq_ - ring_.size(); }
  // The i-th retained record in append order (0 = oldest). Storage is a
  // circular vector, so there is no contiguous view to hand out.
  const FlightEvent& at(std::size_t i) const { return ring_[(start_ + i) % ring_.size()]; }

  // All retained records for one invocation id (matched on invocation_id or
  // parent_id), in append order — the causal chain for post-mortem triage.
  std::vector<const FlightEvent*> ChainFor(std::uint64_t invocation_id) const;

  // Dump: {"total_recorded": N, "evicted": M, "events": [...]} with records in
  // append order. `reason` annotates why the dump was taken (assert message,
  // violated invariant).
  std::string ToJson(const std::string& reason = "") const;
  // Writes ToJson() to `path`; returns false on I/O failure.
  bool WriteJson(const std::string& path, const std::string& reason = "") const;

  void Clear();

 private:
  // Circular buffer: grows by push_back until `capacity` records are retained,
  // then overwrites in place starting at start_ (the oldest record). The old
  // deque paid a node allocation per eviction cycle and never returned memory;
  // the vector's footprint is fixed at capacity × sizeof(FlightEvent) (the
  // grow phase trims any geometric overshoot once, on reaching capacity).
  void DrawTrace(const TraceRendering& row, SimTime time, std::uint64_t invocation_id,
                 std::uint64_t parent_id, std::int32_t worker, const std::string& subject,
                 const std::string& detail, SimDuration duration);

  FlightRecorderOptions options_;
  TraceRecorder* trace_ = nullptr;
  std::vector<FlightEvent> ring_;
  std::size_t start_ = 0;  // Index of the oldest retained record.
  std::uint64_t next_seq_ = 0;
};

}  // namespace ofc::obs

#endif  // OFC_OBS_FLIGHT_RECORDER_H_
