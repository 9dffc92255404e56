#include "src/core/cache_agent.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/sim_assert.h"

namespace ofc::core {

CacheAgent::CacheAgent(sim::EventLoop* loop, rc::Cluster* cluster, CacheAgentOptions options)
    : loop_(loop),
      cluster_(cluster),
      options_(options),
      metrics_(options.metrics),
      flight_(options.flight) {
  const std::size_t n = static_cast<std::size_t>(cluster_->num_nodes());
  hoard_.assign(n, 0);
  limits_.assign(n, 0);
  slack_.assign(n, options_.initial_slack);
  churn_accum_.assign(n, 0);
  churn_windows_.assign(n, SlidingTimeWindow(options_.churn_window));
  m_.Bind(*metrics_);
}

CacheScalingStats CacheAgent::stats() const {
  CacheScalingStats stats;
  m_.CopyTo(stats);
  return stats;
}

Bytes CacheAgent::CapacityTarget(int worker) const {
  const std::size_t w = static_cast<std::size_t>(worker);
  // The hoardable amount, bounded by the physically free memory on the node.
  const Bytes physical = options_.worker_memory - limits_[w];
  return std::max<Bytes>(0, std::min(hoard_[w], physical) - slack_[w]);
}

void CacheAgent::Start() {
  if (started_) {
    return;
  }
  started_ = true;
  ApplyAllTargets();
  loop_->ScheduleAfter(options_.sweep_period, [this] { SweepTick(); });
  loop_->ScheduleAfter(options_.churn_sample_period, [this] { ChurnSampleTick(); });
  loop_->ScheduleAfter(options_.slack_adjust_period, [this] { SlackAdjustTick(); });
}

void CacheAgent::SweepTick() {
  SweepOnce();
  loop_->ScheduleAfter(options_.sweep_period, [this] { SweepTick(); });
}

void CacheAgent::ChurnSampleTick() {
  // §6.4: the local memory churn is measured every 60 s.
  for (std::size_t w = 0; w < churn_accum_.size(); ++w) {
    churn_windows_[w].Add(loop_->now(), static_cast<double>(churn_accum_[w]));
    churn_accum_[w] = 0;
  }
  loop_->ScheduleAfter(options_.churn_sample_period, [this] { ChurnSampleTick(); });
}

void CacheAgent::SlackAdjustTick() {
  // §6.4: the slack pool is re-estimated every 120 s from the churn window.
  for (std::size_t w = 0; w < slack_.size(); ++w) {
    const double mean_churn = churn_windows_[w].MeanAt(loop_->now());
    const Bytes estimate = static_cast<Bytes>(mean_churn);
    slack_[w] = std::clamp(std::max(estimate, options_.initial_slack / 2), options_.min_slack,
                           options_.max_slack);
    ApplyTarget(static_cast<int>(w));
  }
  loop_->ScheduleAfter(options_.slack_adjust_period, [this] { SlackAdjustTick(); });
}

void CacheAgent::SweepOnce() {
  const SimTime now = loop_->now();
  for (int node = 0; node < cluster_->num_nodes(); ++node) {
    for (const rc::CachedObject& obj : cluster_->ObjectsOn(node)) {
      // Only consider objects that have been resident for at least one sweep
      // period; otherwise every freshly admitted object would be purged.
      if (now - obj.created_at < options_.sweep_period) {
        continue;
      }
      const bool cold = obj.access_count < options_.sweep_min_access ||
                        now - obj.last_access > options_.sweep_max_idle;
      if (!cold) {
        continue;
      }
      if (obj.dirty) {
        LaunchWriteback(obj.key, /*count_swept=*/true);
        continue;
      }
      (void)cluster_->Remove(obj.key);
      ++*m_.objects_swept;
      RecordEviction(obj, kSweep, node, now);
    }
  }
}

void CacheAgent::OnSandboxMemoryChange(const faas::SandboxMemoryEvent& event) {
  const std::size_t w = static_cast<std::size_t>(event.worker);
  hoard_[w] += event.new_hoard() - event.old_hoard();
  limits_[w] += event.new_limit - event.old_limit;
  // Hoard/limit accounting mirrors sandbox lifecycle events; going negative
  // means a create/resize/destroy event was double-counted or dropped.
  SIM_ASSERT(hoard_[w] >= 0) << "; hoard underflow on worker " << event.worker;
  SIM_ASSERT(limits_[w] >= 0) << "; cgroup-limit underflow on worker " << event.worker;
  SIM_ASSERT(limits_[w] <= options_.worker_memory)
      << "; cgroup limits " << limits_[w] << " exceed worker memory "
      << options_.worker_memory << " on worker " << event.worker;
  churn_accum_[w] += std::abs(event.new_limit - event.old_limit);
  ApplyTarget(event.worker);
}

void CacheAgent::ApplyAllTargets() {
  for (int w = 0; w < cluster_->num_nodes(); ++w) {
    ApplyTarget(w);
  }
}

void CacheAgent::ApplyTarget(int worker) {
  const Bytes target = CapacityTarget(worker);
  const Bytes current = cluster_->Capacity(worker);
  if (target == current) {
    return;
  }
  SimDuration duration = 0;
  if (target > current) {
    // Scale up: capacity grows, nothing to reclaim.
    if (cluster_->SetCapacity(worker, target, &duration).ok()) {
      ++*m_.scale_ups;
      m_.scale_up_time->Add(static_cast<double>(duration));
      if (FlightOn()) {
        flight_->Record(loop_->now(), obs::FlightEventKind::kScaleUp, 0, 0, worker, "",
                        std::to_string(target) + "B", duration);
      }
    }
    return;
  }
  // Scale down.
  const Bytes used = cluster_->Used(worker);
  bool migrated = false;
  bool evicted = false;
  if (used > target) {
    const Bytes freed = FreeBytes(worker, used - target, &migrated, &evicted);
    if (cluster_->Used(worker) > target) {
      // Could not free enough synchronously (e.g. everything dirty, write-backs
      // in flight): shrink to what is feasible now and retry shortly.
      (void)freed;
      const Bytes feasible = std::max(target, cluster_->Used(worker));
      SimDuration partial = 0;
      if (cluster_->SetCapacity(worker, feasible, &partial).ok()) {
        AddScaleDownTime(partial);
      }
      loop_->ScheduleAfter(Millis(50), [this, worker] { ApplyTarget(worker); });
      return;
    }
  }
  if (cluster_->SetCapacity(worker, target, &duration).ok()) {
    AddScaleDownTime(duration);
    if (migrated) {
      ++*m_.scale_downs_migration;
    } else if (evicted) {
      ++*m_.scale_downs_eviction;
    } else {
      ++*m_.scale_downs_plain;
    }
    if (FlightOn()) {
      flight_->Record(loop_->now(), obs::FlightEventKind::kScaleDown, 0, 0, worker, "",
                      migrated ? "migration" : (evicted ? "eviction" : "plain"), duration);
    }
  }
}

void CacheAgent::RecordEviction(const rc::CachedObject& obj, EvictionReason reason,
                                int worker, SimTime now) {
  ++*m_.evictions[reason];
  m_.bytes_evicted[reason]->Add(static_cast<std::uint64_t>(std::max<Bytes>(0, obj.size)));
  if (FlightOn()) {
    flight_->Record(now, obs::FlightEventKind::kEvict, 0, 0, worker, obj.key,
                    kEvictionReasonNames[reason]);
  }
}

Bytes CacheAgent::FreeBytes(int worker, Bytes needed, bool* migrated, bool* evicted) {
  const SimTime now = loop_->now();
  Bytes freed = 0;
  // One bulk snapshot of the worker's mastered objects feeds all three phases.
  // The phases run synchronously (no event-loop yield), so the only state the
  // snapshot can miss is our own phase-1 removals — and those are persisted
  // clean outputs, which phases 2 and 3 skip by class/dirty tests anyway.
  const std::vector<rc::CachedObject> objects = cluster_->ObjectsOn(worker);

  // Phase 1: discard persisted output objects (final outputs first, §6.4).
  for (const rc::CachedObject& obj : objects) {
    if (freed >= needed) {
      return freed;
    }
    const bool output = obj.object_class != rc::ObjectClass::kInput;
    if (output && obj.persisted && !obj.dirty) {
      freed += obj.size;
      (void)cluster_->Remove(obj.key);
      ++*m_.objects_evicted;
      *evicted = true;
      AddScaleDownTime(options_.eviction_op_cost);
      RecordEviction(obj, kPersistedDiscard, worker, now);
    }
  }

  // Phase 2: trigger write-back of dirty outputs; they free memory when the
  // persistor completes (asynchronous, so not counted in `freed`).
  for (const rc::CachedObject& obj : objects) {
    if (!obj.dirty || obj.object_class == rc::ObjectClass::kInput) {
      continue;
    }
    LaunchWriteback(obj.key, /*count_swept=*/false);
  }

  // Phase 3: input objects, least recently used first. Prefer migrating the
  // master copy to a backup node (keeps the object cached, no data transfer);
  // evict when no backup can host it.
  std::vector<rc::CachedObject> inputs;
  for (const rc::CachedObject& obj : objects) {
    if (obj.master == worker && obj.object_class == rc::ObjectClass::kInput) {
      inputs.push_back(obj);
    }
  }
  // std::sort is not stable: objects with equal last_access may come out in
  // any order, but the same input order always sorts the same way, so
  // same-seed replays take identical decisions.
  std::sort(inputs.begin(), inputs.end(),
            [](const rc::CachedObject& a, const rc::CachedObject& b) {
              return a.last_access < b.last_access;
            });
  for (const rc::CachedObject& obj : inputs) {
    if (freed >= needed) {
      break;
    }
    const auto migration = cluster_->MigrateMaster(obj.key);
    if (migration.ok()) {
      freed += obj.size;
      ++*m_.objects_migrated;
      *migrated = true;
      AddScaleDownTime(migration->duration);
      m_.migration_ms->Observe(ToMillis(migration->duration));
      if (FlightOn()) {
        flight_->Record(loop_->now(), obs::FlightEventKind::kMigration, 0, 0, worker,
                        obj.key, "to_" + std::to_string(migration->new_master),
                        migration->duration);
      }
      continue;
    }
    freed += obj.size;
    (void)cluster_->Remove(obj.key);
    ++*m_.objects_evicted;
    *evicted = true;
    AddScaleDownTime(options_.eviction_op_cost);
    RecordEviction(obj, kCapacity, worker, now);
  }
  return freed;
}

void CacheAgent::LaunchWriteback(const std::string& key, bool count_swept) {
  if (!writeback_ || !writebacks_pending_.insert(key).second) {
    return;
  }
  ++*m_.writebacks_triggered;
  writeback_(key, [this, key, count_swept](Status status) {
    writebacks_pending_.erase(key);
    if (!status.ok()) {
      return;
    }
    const auto obj = cluster_->Inspect(key);
    (void)cluster_->Remove(key);
    if (count_swept) {
      ++*m_.objects_swept;
    }
    if (obj.ok()) {
      RecordEviction(*obj, count_swept ? kSweep : kCapacity, obj->master, loop_->now());
    }
  });
}

bool CacheAgent::ReleaseForSandbox(int worker, Bytes bytes) {
  const std::size_t w = static_cast<std::size_t>(worker);
  // The monitor needs `bytes` more for sandboxes: permanently move the target
  // down by raising the mirrored reservation (the platform will report the
  // actual sandbox change right after; reconciliation happens in
  // OnSandboxMemoryChange, so here we only make room).
  const Bytes target = std::max<Bytes>(0, CapacityTarget(worker) - bytes);
  const Bytes used = cluster_->Used(worker);
  bool migrated = false;
  bool evicted = false;
  if (used > target) {
    FreeBytes(worker, used - target, &migrated, &evicted);
    if (cluster_->Used(worker) > target) {
      return false;
    }
  }
  SimDuration duration = 0;
  if (!cluster_->SetCapacity(worker, target, &duration).ok()) {
    return false;
  }
  AddScaleDownTime(duration);
  if (migrated) {
    ++*m_.scale_downs_migration;
  } else if (evicted) {
    ++*m_.scale_downs_eviction;
  } else {
    ++*m_.scale_downs_plain;
  }
  (void)w;
  return true;
}

}  // namespace ofc::core
