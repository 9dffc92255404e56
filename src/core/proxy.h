// Proxy + rclib (§4, §6.2): OFC's transparent data-plane interposition.
//
// Reads and writes issued by function code are captured here and redirected to
// the RAMCloud cache, with the RSDS kept consistent:
//
//   * Read: cache hit (local or remote master) -> serve from RAM. Miss -> read
//     from the RSDS, then admit the object into the cache off the critical
//     path, when the benefit model said caching helps and the object fits.
//   * Write (cached): a *shadow object* — an empty-payload placeholder with a
//     new version number — is created synchronously in the RSDS while the
//     payload is written (durably, i.e. replicated) into RAMCloud; the write
//     is acknowledged when both complete. A *persistor* helper function then
//     pushes the payload to the RSDS asynchronously; version numbers enforce
//     in-order propagation. This write-back mechanism is constant-cost in the
//     output size and "always beneficial even for small payloads".
//   * Pipeline intermediates are cached but never persisted; the whole set is
//     dropped when the pipeline completes (§6.3).
//   * Final outputs are dropped from the cache as soon as they are written
//     back (§6.3).
//   * External (non-FaaS) clients keep strong consistency via the RSDS
//     webhooks: external reads of a shadow object block until a boosted
//     persistor catches up; external writes invalidate the cached copy first.
#ifndef OFC_CORE_PROXY_H_
#define OFC_CORE_PROXY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/hash.h"
#include "src/faas/platform.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"
#include "src/store/object_store.h"

namespace ofc::core {

struct ProxyOptions {
  Bytes max_cacheable_size = MiB(10);  // §6.3 admission cap.
  // Scheduling cost of the persistor helper function (an empty-function pass
  // through the platform, §6.4's ~8 ms end-to-end).
  SimDuration persistor_dispatch = Millis(8);
  // When false, tenants opted out of transparent consistency (§6.2 last
  // paragraph): no shadow objects, writes propagate lazily on eviction only.
  bool transparent_consistency = true;
  // §6.2 write-back: acknowledge after shadow + durable cache write, persist
  // asynchronously. Disabling it (ablation) writes the full payload to the
  // RSDS synchronously (the cache still serves subsequent reads).
  bool write_back = true;
  // ---- Degradation path (fault tolerance) --------------------------------------
  // When the RSDS reports kUnavailable the proxy retries with a deterministic
  // exponential backoff (base * 2^attempt, no jitter — replays stay
  // byte-identical) bounded by a per-operation deadline. Reads that exhaust the
  // budget fail with kDeadlineExceeded (a read that never had retry budget —
  // deadline 0 or a backoff that already overshoots — surfaces the store's own
  // kUnavailable unchanged); acknowledged writes instead fall back to the
  // durable (replicated) cache copy and converge through persistor retries once
  // the store heals. The degraded push is a compare-and-swap against the store
  // version observed at ack time, so a stale fallback can never clobber a write
  // acknowledged later.
  SimDuration rsds_deadline = Seconds(10);      // Per-read deadline; 0 disables retries.
  int rsds_max_retries = 6;                     // Read-path retry budget.
  SimDuration rsds_retry_backoff = Millis(50);  // Base; doubles per attempt.
  int persistor_max_retries = 20;               // Persistor push retry budget.
  SimDuration persistor_retry_backoff = Millis(250);
  // ---- Cache-path circuit breaker (overload protection) --------------------------
  // After `breaker_failure_threshold` consecutive cache-path failures — cluster
  // errors other than a plain miss or capacity rejection, or (when
  // `breaker_latency_slo` > 0) hits slower than the SLO — the breaker opens:
  // reads and writes bypass the cache straight to the RSDS for
  // `breaker_open_duration`, exactly the no-cache baseline path. The breaker
  // then goes half-open and admits probe operations through the cache;
  // `breaker_half_open_probes` consecutive successes re-close it, any probe
  // failure re-opens. Threshold 0 disables the breaker entirely (default).
  int breaker_failure_threshold = 0;
  SimDuration breaker_latency_slo = 0;  // 0 = latency never counts as failure.
  SimDuration breaker_open_duration = Seconds(5);
  int breaker_half_open_probes = 3;
  // Observability sinks (src/obs/). Null `metrics` -> private registry; null
  // `flight` -> cache/persistor/webhook events are skipped.
  obs::MetricsRegistry* metrics = nullptr;
  obs::FlightRecorder* flight = nullptr;
};

// The proxy's metrics: X(kind, cell, registry family). See "Metric lists"
// in src/obs/metrics.h.
#define OFC_PROXY_METRICS(X)                                                                       \
  X(COUNTER, cache_hits, "ofc.proxy.cache_hits")                                                   \
  X(COUNTER, cache_misses, "ofc.proxy.cache_misses")                                               \
  X(COUNTER, admissions, "ofc.proxy.admissions")                                                   \
  X(COUNTER, admission_failures, "ofc.proxy.admission_failures")                                   \
  X(COUNTER, shadow_writes, "ofc.proxy.shadow_writes")                                             \
  X(COUNTER, cached_writes, "ofc.proxy.cached_writes")                                             \
  X(COUNTER, direct_writes, "ofc.proxy.direct_writes")                                             \
  X(COUNTER, persistor_runs, "ofc.proxy.persistor_runs")                                           \
  X(COUNTER, persistor_conflicts, "ofc.proxy.persistor_conflicts") /* Out-of-order skips. */       \
  X(COUNTER, intermediates_cached, "ofc.proxy.intermediates_cached")                               \
  X(COUNTER, intermediates_dropped, "ofc.proxy.intermediates_dropped")                             \
  X(COUNTER, external_read_boosts, "ofc.proxy.external_read_boosts")                               \
  X(COUNTER, external_write_invalidations, "ofc.proxy.external_write_invalidations")               \
  X(COUNTER, fallback_writes, "ofc.proxy.fallback_writes") /* Acked in an outage. */               \
  X(COUNTER, rsds_retries, "ofc.proxy.rsds_retries") /* After kUnavailable. */                     \
  X(COUNTER, read_deadlines, "ofc.proxy.read_deadlines") /* Retry budget spent. */                 \
  X(COUNTER, persistor_retries, "ofc.proxy.persistor_retries") /* Re-dispatched. */                \
  X(COUNTER, persistor_drops, "ofc.proxy.persistor_drops") /* Lost to faults. */                   \
  X(COUNTER, persistor_abandons, "ofc.proxy.persistor_abandons") /* Stays dirty. */                \
  X(COUNTER, breaker_opens, "ofc.breaker.opens") /* Trips to open. */                              \
  X(COUNTER, breaker_closes, "ofc.breaker.closes") /* Half-open -> closed. */                      \
  X(COUNTER, breaker_probes, "ofc.breaker.probes") /* Admitted half-open. */                       \
  X(COUNTER, breaker_probe_failures, "ofc.breaker.probe_failures") /* Probes that re-opened. */    \
  X(COUNTER, breaker_bypassed_reads, "ofc.breaker.bypassed_reads") /* RSDS-direct while open. */   \
  X(COUNTER, breaker_bypassed_writes, "ofc.breaker.bypassed_writes") /* RSDS-direct while open. */ \
  X(COUNTER, corrupt_acked, "ofc.integrity.corrupt_acked") /* I6 tripwire: stays 0. */             \
  X(COUNTER, reread_from_rsds, "ofc.integrity.reread_from_rsds") /* Healed via RSDS. */            \
  X(GAUGE, breaker_state, "ofc.breaker.state") /* 0 closed / 1 open / 2 half-open. */              \
  X(GAUGE, breaker_open_time_us, "ofc.breaker.open_time_us") /* Cumulative, on exit. */            \
  X(SERIES, persistor_ms, "ofc.proxy.persistor_ms") /* Dispatch to RSDS-converged. */

// Per-function hit/miss breakdowns, registered on the function's first read.
#define OFC_PROXY_FN_METRICS(X)                            \
  X(COUNTER, hits, "ofc.proxy.cache_hits_by_function")     \
  X(COUNTER, misses, "ofc.proxy.cache_misses_by_function")

// Snapshot view over the proxy's registry counters.
struct ProxyStats {
  OFC_METRIC_FIELDS(OFC_PROXY_METRICS)

  double HitRatio() const {
    const double total = static_cast<double>(cache_hits + cache_misses);
    return total <= 0 ? 0.0 : static_cast<double>(cache_hits) / total;
  }
};

class Proxy : public faas::DataService {
 public:
  Proxy(sim::EventLoop* loop, rc::Cluster* cluster, store::ObjectStore* rsds,
        ProxyOptions options);

  // Installs the read/write webhooks on the RSDS (§6.2).
  void InstallWebhooks();

  // ---- faas::DataService --------------------------------------------------------

  void Read(const faas::InvocationContext& ctx, const std::string& key,
            std::function<void(Result<Bytes>)> done) override;
  void Write(const faas::InvocationContext& ctx, const std::string& key, Bytes size,
             const workloads::MediaDescriptor& media,
             std::function<void(Status)> done) override;
  void OnPipelineComplete(std::uint64_t pipeline_id) override;

  // ---- CacheAgent integration ----------------------------------------------------

  // Pushes a dirty cached object's payload to the RSDS (persistor boost). The
  // callback fires once the RSDS holds the payload (object stays cached; the
  // caller decides whether to drop it).
  void Writeback(const std::string& key, std::function<void(Status)> done);

  // ---- Fault-injection hooks (src/fault/) ----------------------------------------

  // Persistor dispatches that fire before `until` are lost (the helper function
  // crashed mid-flight); the proxy's bounded retry re-launches them, so
  // acknowledged writes still converge after the window closes. Windows nest:
  // an overlapping window that ends earlier must not shorten a longer one
  // still in force (mirrors the injector's depth counters).
  void InjectPersistorDropUntil(SimTime until) {
    if (until > persistor_drop_until_) {
      persistor_drop_until_ = until;
    }
  }

  // Cache-path degradation: cluster reads/writes issued before `until` fail
  // with kUnavailable without touching the cluster, as if the local RAMCloud
  // ensemble had gone sick. The circuit breaker observes these failures and
  // trips; data keeps flowing via the RSDS. Windows nest like persistor drops.
  void InjectCacheFaultUntil(SimTime until) {
    if (until > cache_fault_until_) {
      cache_fault_until_ = until;
    }
  }

  // ---- Overload protection -------------------------------------------------------

  enum class BreakerState { kClosed, kOpen, kHalfOpen };
  BreakerState breaker_state() const { return breaker_; }

  // Assembled on demand from the metrics registry.
  ProxyStats stats() const;
  obs::MetricsRegistry& metrics() { return *metrics_; }

 private:
  // Registry cells behind ProxyStats; bumped through cached pointers.
  struct Metrics {
    OFC_METRIC_CELLS(OFC_PROXY_METRICS)
  };
  struct FnMetrics {
    OFC_METRIC_CELLS(OFC_PROXY_FN_METRICS)
  };

  // One pending write-back. `version` 0 means the write degraded during an
  // outage and never got a shadow; `fallback_base` then carries the store
  // version observed at ack time, so the eventual push is a compare-and-swap
  // (PutIfVersion) instead of a blind Put that could clobber a write
  // acknowledged after the store healed. `epoch` is the key's write_epoch_ at
  // ack time: a persistor whose epoch went stale must not touch the cached
  // copy (a newer acknowledged write owns it now).
  struct PersistorJob {
    std::string key;
    store::ObjectVersion version = 0;
    Bytes size = 0;
    bool drop_after = false;
    store::ObjectVersion fallback_base = 0;  // Meaningful when version == 0.
    std::uint64_t epoch = 0;
    // Payload fingerprint stamped when the write was acknowledged; the RSDS
    // verifies it at landing so a payload damaged in the cache after ack is
    // rejected (kDataLoss) instead of silently persisted.
    Checksum checksum = 0;
    // Invocation whose write spawned this job; links the persistor chain back
    // to its causal parent in the flight recorder (0 = cache-agent writeback).
    std::uint64_t invocation_id = 0;
  };

  // Deterministic exponential backoff: base * 2^attempt, capped at 30 s.
  SimDuration Backoff(SimDuration base, int attempt) const;
  // RSDS Get with bounded kUnavailable retries; `deadline` is absolute.
  void GetWithRetry(const std::string& key, SimTime deadline, int attempt,
                    store::ObjectStore::MetaCallback done);
  void SchedulePersistor(PersistorJob job, int attempt = 0);
  // Persistor body: drop-window check, then the payload push.
  void RunPersistor(PersistorJob job, SimTime scheduled, int attempt);
  void RetryPersistor(PersistorJob job, int attempt);
  // True while `job` still represents the newest acknowledged write for its
  // key — only then may its persistor mark the cached copy clean or drop it.
  bool EpochCurrent(const PersistorJob& job) const;
  void HandleExternalRead(const std::string& key, std::function<void()> resume);
  void HandleExternalWrite(const std::string& key, std::function<void()> resume);

  // ---- Circuit breaker (see ProxyOptions) -----------------------------------------
  bool BreakerEnabled() const { return options_.breaker_failure_threshold > 0; }
  bool CacheFaulted() const { return loop_->now() < cache_fault_until_; }
  // True when cache-path operations must bypass the cluster entirely. Drives
  // the open -> half-open transition lazily off the simulated clock and counts
  // probes admitted while half-open.
  bool BreakerBypasses();
  // Reports one cache-path outcome to the breaker state machine.
  void BreakerReport(bool success);
  void BreakerTrip();
  void BreakerClose();
  // A capacity rejection is a healthy cache saying "full", not a sick cache
  // path; only other errors feed the breaker.
  static bool WriteHealthy(const Status& status) {
    return status.ok() || status.code() == StatusCode::kResourceExhausted;
  }
  // Cluster entry points with the injected cache-fault window applied: inside
  // the window every operation fails with kUnavailable without touching the
  // cluster (so a sick cache never absorbs or serves data).
  void CacheRead(int worker, const std::string& key, rc::Cluster::ReadCallback done);
  void CacheWrite(int worker, const std::string& key, Bytes size,
                  store::ObjectVersion version, rc::ObjectClass object_class, bool dirty,
                  rc::Cluster::Callback done);

  sim::EventLoop* loop_;
  rc::Cluster* cluster_;
  store::ObjectStore* rsds_;
  ProxyOptions options_;
  obs::RegistryRef metrics_;
  obs::FlightRecorder* flight_ = nullptr;
  bool FlightOn() const { return flight_ != nullptr && flight_->active(); }
  SimTime persistor_drop_until_ = 0;  // Fault injection: dispatches before this are lost.
  SimTime cache_fault_until_ = 0;     // Fault injection: cluster ops before this fail.
  // Circuit-breaker state (all transitions are clock/counter-driven, so
  // same-seed replays take identical paths).
  BreakerState breaker_ = BreakerState::kClosed;
  int breaker_failures_ = 0;   // Consecutive failures while closed.
  int breaker_successes_ = 0;  // Consecutive probe successes while half-open.
  SimTime breaker_open_until_ = 0;
  SimTime breaker_opened_at_ = 0;
  Metrics m_;
  // Keyed by the function name, with the O(1) path on ctx.fn_index (revalidated:
  // contexts may be hand-built by tests or come from a foreign platform).
  obs::LabelledCells<FnMetrics> fn_metrics_{metrics_.get()};
  // Intermediate objects written per in-flight pipeline (§6.3 cleanup). Looked
  // up by id, never iterated; salted hashing keeps that honest under test.
  std::unordered_map<std::uint64_t, std::vector<std::string>, DetHash<std::uint64_t>>
      pipeline_intermediates_;
  // Monotonic id handed to each acknowledged write-back; the per-key entry
  // remembers the newest (entries are never erased, so ids never repeat and a
  // stale persistor can never alias a fresh write). Looked up by key, never
  // iterated.
  std::uint64_t next_write_epoch_ = 1;
  std::unordered_map<std::string, std::uint64_t, DetHash<std::string>> write_epoch_;
};

}  // namespace ofc::core

#endif  // OFC_CORE_PROXY_H_
