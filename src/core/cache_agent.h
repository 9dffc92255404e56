// CacheAgent (§6.3, §6.4): manages each worker's share of the cache.
//
// The agent hoards the memory booked-but-unused by the worker's sandboxes
// (including idle, kept-alive ones — §2.2.1's two waste sources): the
// per-worker cache capacity target is
//
//     min( sum over sandboxes of (booked - cgroup limit),
//          worker_memory - sum of cgroup limits )  -  slack_pool
//
// re-applied on every sandbox creation/resize/destruction (per-invocation
// resizes run asynchronously, off the critical path). The slack pool guards
// against capacity violations from in-flight asynchronous scale-ups: it starts
// at 100 MB and is re-estimated every 120 s from a sliding window of 60 s
// memory-churn samples.
//
// Shrinking follows the paper's reclamation order:
//   1. discard output objects already persisted to the RSDS;
//   2. trigger write-back of dirty output objects (discarded on completion);
//   3. evict input objects least recently used first — but first try to keep
//      hot inputs cached by migrating their master copy to a backup node
//      (§6.4's no-transfer promotion).
//
// Independently, a periodic sweep (every 300 s) evicts cold objects: those
// with n_access < 5 or idle > 30 min (§6.3). Objects younger than one sweep
// period are never swept.
#ifndef OFC_CORE_CACHE_AGENT_H_
#define OFC_CORE_CACHE_AGENT_H_

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/units.h"
#include "src/faas/platform.h"
#include "src/obs/flight_recorder.h"
#include "src/obs/metrics.h"
#include "src/ramcloud/cluster.h"
#include "src/sim/event_loop.h"

namespace ofc::core {

struct CacheAgentOptions {
  Bytes worker_memory = GiB(8);
  Bytes initial_slack = MiB(100);
  Bytes min_slack = MiB(64);
  Bytes max_slack = GiB(1);
  SimDuration churn_sample_period = Seconds(60);
  SimDuration slack_adjust_period = Seconds(120);
  SimDuration churn_window = Seconds(300);
  SimDuration sweep_period = Seconds(300);
  std::uint32_t sweep_min_access = 5;     // Evict when n_access < 5 ...
  SimDuration sweep_max_idle = Minutes(30);  // ... or idle > 30 min.
  SimDuration eviction_op_cost = Micros(120);  // Per-object eviction overhead.
  // Observability sinks (src/obs/). Null `metrics` -> private registry; null
  // `flight` -> scale/migration/eviction events are skipped.
  obs::MetricsRegistry* metrics = nullptr;
  obs::FlightRecorder* flight = nullptr;
};

// The agent's metrics: X(kind, cell, registry family[, view type or labels]).
// The cumulative scaling times are gauges in micros, Add()ed, so the view
// reconstructs SimDuration exactly. See "Metric lists" in src/obs/metrics.h.
#define OFC_CACHE_AGENT_METRICS(X)                                                                \
  X(COUNTER, scale_ups, "ofc.cache_agent.scale_ups")                                              \
  X(COUNTER, scale_downs_plain, "ofc.cache_agent.scale_downs_plain") /* No eviction/migration. */ \
  X(COUNTER, scale_downs_migration, "ofc.cache_agent.scale_downs_migration") /* Migrated. */      \
  X(COUNTER, scale_downs_eviction, "ofc.cache_agent.scale_downs_eviction") /* Evicted. */         \
  X(COUNTER, objects_migrated, "ofc.cache_agent.objects_migrated")                                \
  X(COUNTER, objects_evicted, "ofc.cache_agent.objects_evicted")                                  \
  X(COUNTER, objects_swept, "ofc.cache_agent.objects_swept")                                      \
  X(COUNTER, writebacks_triggered, "ofc.cache_agent.writebacks_triggered")                        \
  X(GAUGE, scale_up_time, "ofc.cache_agent.scale_up_time_us", SimDuration)                        \
  X(GAUGE, scale_down_time, "ofc.cache_agent.scale_down_time_us", SimDuration)                    \
  X(SERIES, migration_ms, "ofc.cache_agent.migration_ms")                                         \
  X(COUNTER_PER, evictions, "ofc.policy.evictions", kEvictionReasonNames)                         \
  X(COUNTER_PER, bytes_evicted, "ofc.policy.bytes_evicted", kEvictionReasonNames)

// Snapshot view over the agent's registry cells.
struct CacheScalingStats {
  OFC_METRIC_FIELDS(OFC_CACHE_AGENT_METRICS)
};

class CacheAgent {
 public:
  // Write-back trigger: asks the Proxy's persistor machinery to push a dirty
  // object to the RSDS; the completion callback reports the outcome.
  using WritebackFn =
      std::function<void(const std::string& key, std::function<void(Status)> done)>;

  CacheAgent(sim::EventLoop* loop, rc::Cluster* cluster, CacheAgentOptions options);

  // Arms the periodic sweep / slack-estimation timers and sets the initial
  // capacity of every node to the full hoardable amount.
  void Start();

  void set_writeback(WritebackFn writeback) { writeback_ = std::move(writeback); }

  // Sandbox memory change (from the platform hooks). Adjusts the hoard and
  // re-applies the cache capacity target opportunistically.
  void OnSandboxMemoryChange(const faas::SandboxMemoryEvent& event);

  // Monitor rescue support (§5.3.1): synchronously releases `bytes` of cache
  // capacity on `worker` so a struggling sandbox can grow. Returns false when
  // the cache cannot free enough.
  bool ReleaseForSandbox(int worker, Bytes bytes);

  // Reapplies the capacity target for one worker (or all).
  void ApplyTarget(int worker);
  void ApplyAllTargets();

  // One §6.3 sweep pass over every node; normally timer-driven, exposed for
  // tests and benches.
  void SweepOnce();

  Bytes slack(int worker) const { return slack_[static_cast<std::size_t>(worker)]; }
  // Sum of (booked - limit) across the worker's live sandboxes.
  Bytes hoard(int worker) const { return hoard_[static_cast<std::size_t>(worker)]; }
  Bytes CapacityTarget(int worker) const;
  // Assembled on demand from the metrics registry.
  CacheScalingStats stats() const;
  obs::MetricsRegistry& metrics() { return *metrics_; }
  // Why an object left the cache; indexes the per-reason cells and names the
  // label of each cell and of the flight recorder's `evict` record.
  enum EvictionReason {
    kPersistedDiscard,  // §6.4 phase 1: persisted output discarded under shrink.
    kCapacity,          // §6.4 phase 3: input evicted to meet the capacity target.
    kSweep,             // §6.3 periodic sweep: cold object purged.
    kNumEvictionReasons,
  };
  static constexpr const char* kEvictionReasonNames[] = {"persisted_discard", "capacity",
                                                         "sweep"};

 private:
  // Registry cells behind CacheScalingStats; bumped through cached pointers.
  struct Metrics {
    OFC_METRIC_CELLS(OFC_CACHE_AGENT_METRICS)
  };
  void AddScaleDownTime(SimDuration d) { m_.scale_down_time->Add(static_cast<double>(d)); }

  // Accounts one object that left the cache (metrics and flight record).
  void RecordEviction(const rc::CachedObject& obj, EvictionReason reason, int worker,
                      SimTime now);

  // Frees at least `needed` bytes of mastered objects on `worker` following the
  // reclamation order. Returns the bytes actually freed synchronously.
  Bytes FreeBytes(int worker, Bytes needed, bool* migrated, bool* evicted);

  // Fires the write-back of a dirty object and drops it from the cache once the
  // RSDS holds it. A key whose write-back is already in flight is skipped.
  // `count_swept`: sweep-triggered, so the drop counts into objects_swept.
  void LaunchWriteback(const std::string& key, bool count_swept);

  void SweepTick();
  void ChurnSampleTick();
  void SlackAdjustTick();

  sim::EventLoop* loop_;
  rc::Cluster* cluster_;
  CacheAgentOptions options_;
  WritebackFn writeback_;
  std::vector<Bytes> hoard_;   // Booked-but-unused memory, mirrored from hooks.
  std::vector<Bytes> limits_;  // Sum of cgroup limits (physical usage bound).
  std::vector<Bytes> slack_;
  std::vector<Bytes> churn_accum_;
  std::vector<SlidingTimeWindow> churn_windows_;
  // Keys whose write-back is in flight (ordered: it is mutated along
  // deterministic paths only, never iterated).
  std::set<std::string> writebacks_pending_;
  obs::RegistryRef metrics_;
  obs::FlightRecorder* flight_ = nullptr;
  bool FlightOn() const { return flight_ != nullptr && flight_->active(); }
  Metrics m_;
  bool started_ = false;
};

}  // namespace ofc::core

#endif  // OFC_CORE_CACHE_AGENT_H_
