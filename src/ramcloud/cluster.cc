#include "src/ramcloud/cluster.h"

#include <algorithm>
#include <numeric>

#include "src/common/logging.h"

namespace ofc::rc {

Cluster::Cluster(sim::EventLoop* loop, int num_nodes, ClusterOptions options, Rng rng)
    : loop_(loop),
      options_(options),
      rng_(rng),
      metrics_(options.metrics),
      flight_(options.flight) {
  assert(num_nodes > 0);
  nodes_.resize(static_cast<std::size_t>(num_nodes));
  for (NodeStats& node : nodes_) {
    node.memory_capacity = options_.default_capacity;
  }
  logs_.assign(static_cast<std::size_t>(num_nodes), SegmentedLog(options_.log));

  m_.Bind(*metrics_);
}

ClusterStats Cluster::stats() const {
  ClusterStats stats;
  m_.CopyTo(stats);
  return stats;
}

void Cluster::NoteCorruption(const std::string& key, int node, const char* where) {
  ++*m_.checksum_failures;
  if (FlightOn()) {
    flight_->Record(loop_->now(), obs::FlightEventKind::kCorruptionDetected, 0, 0, node,
                    key, where);
  }
}

void Cluster::NoteRepair(const std::string& key, int node, const char* source) {
  ++*m_.integrity_repairs;
  if (FlightOn()) {
    flight_->Record(loop_->now(), obs::FlightEventKind::kCorruptionRepaired, 0, 0, node,
                    key, source);
  }
}

int Cluster::CheckNode(int node) const {
  SIM_ASSERT(node >= 0 && node < num_nodes()) << "; node=" << node;
  return node;
}

Bytes Cluster::FreeMemory(int node) const {
  const NodeStats& stats = nodes_[CheckNode(node)];
  if (!stats.alive) {
    return 0;
  }
  return std::max<Bytes>(0, stats.memory_capacity - logs_[node].footprint());
}

Cluster::Placement Cluster::AppendToFirst(const std::vector<int>& candidates, Bytes size,
                                          SimDuration* cleaning_cost) {
  for (int node : candidates) {
    if (!nodes_[node].alive) {
      continue;
    }
    auto entry = logs_[node].Append(size, nodes_[node].memory_capacity, cleaning_cost);
    if (entry.ok()) {
      SyncUsed(node);
      return Placement{node, *entry};
    }
  }
  return Placement{};
}

std::vector<int> Cluster::WriteOrder(int prefer) const {
  std::vector<int> candidates;
  for (int n = 0; n < num_nodes(); ++n) {
    if (n != prefer && nodes_[n].alive) {
      candidates.push_back(n);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](int a, int b) { return FreeMemory(a) > FreeMemory(b); });
  if (prefer >= 0 && prefer < num_nodes() && nodes_[prefer].alive) {
    candidates.insert(candidates.begin(), prefer);
  }
  return candidates;
}

std::vector<int> Cluster::PromotionOrder(const CachedObject& obj, Checksum expected) const {
  std::vector<std::size_t> order(obj.backups.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const bool healthy_a = obj.backup_checksums[a] == expected;
    const bool healthy_b = obj.backup_checksums[b] == expected;
    if (healthy_a != healthy_b) {
      return healthy_a;
    }
    return FreeMemory(obj.backups[a]) > FreeMemory(obj.backups[b]);
  });
  std::vector<int> nodes;
  for (std::size_t i : order) {
    nodes.push_back(obj.backups[i]);
  }
  return nodes;
}

std::size_t Cluster::SlotOf(const CachedObject& obj, int node) {
  return static_cast<std::size_t>(
      std::distance(obj.backups.begin(), std::find(obj.backups.begin(), obj.backups.end(), node)));
}

bool Cluster::HasHealthyBackup(const CachedObject& obj, Checksum expected) const {
  for (std::size_t i = 0; i < obj.backups.size(); ++i) {
    if (nodes_[obj.backups[i]].alive && obj.backup_checksums[i] == expected) {
      return true;
    }
  }
  return false;
}

void Cluster::AddBackup(CachedObject& obj, int node, Checksum copy) {
  obj.backups.push_back(node);
  obj.backup_checksums.push_back(copy);
  nodes_[node].disk_used += obj.size;
}

void Cluster::EraseBackup(CachedObject& obj, std::size_t slot) {
  nodes_[obj.backups[slot]].disk_used -= obj.size;
  obj.backups.erase(obj.backups.begin() + static_cast<std::ptrdiff_t>(slot));
  obj.backup_checksums.erase(obj.backup_checksums.begin() + static_cast<std::ptrdiff_t>(slot));
}

int Cluster::AddFreshBackup(CachedObject& obj, Checksum copy) {
  for (int candidate : PickBackups(obj.master, num_nodes())) {
    if (SlotOf(obj, candidate) == obj.backups.size()) {
      AddBackup(obj, candidate, copy);
      return candidate;
    }
  }
  return -1;  // Not enough distinct alive nodes.
}

int Cluster::MoveBackupOff(CachedObject& obj, int node, Checksum copy) {
  const std::size_t slot = SlotOf(obj, node);
  if (slot == obj.backups.size()) {
    return -1;
  }
  EraseBackup(obj, slot);
  return AddFreshBackup(obj, copy);
}

void Cluster::DropObject(ObjectMap::iterator it) {
  const CachedObject& obj = it->second;
  (void)logs_[obj.master].Free(obj.log_entry);
  SyncUsed(obj.master);
  for (int b : obj.backups) {
    nodes_[b].disk_used -= obj.size;
    SIM_ASSERT(nodes_[b].disk_used >= 0) << "; backup disk accounting underflow on node " << b;
  }
  objects_.erase(it);
}

std::vector<int> Cluster::PickBackups(int master, int count) const {
  std::vector<int> candidates;
  for (int n = 0; n < num_nodes(); ++n) {
    if (n != master && nodes_[n].alive) {
      candidates.push_back(n);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [&](int a, int b) { return nodes_[a].disk_used < nodes_[b].disk_used; });
  if (static_cast<int>(candidates.size()) > count) {
    candidates.resize(static_cast<std::size_t>(count));
  }
  return candidates;
}

Status Cluster::ApplyWrite(int client_node, const std::string& key, Bytes size,
                           std::uint64_t version, ObjectClass object_class, bool dirty,
                           Checksum fingerprint, SimDuration* cost) {
  if (size <= 0 || size > options_.max_object_size) {
    ++*m_.write_rejects;
    return InvalidArgumentError("object size outside cacheable range");
  }

  // An update replaces the old entry; prefer keeping the existing master.
  int prefer = client_node;
  auto it = objects_.find(key);
  if (it != objects_.end()) {
    prefer = it->second.master;
    DropObject(it);
  }

  SimDuration cleaning_cost = 0;
  const Placement placement = AppendToFirst(WriteOrder(prefer), size, &cleaning_cost);
  if (placement.node < 0) {
    ++*m_.write_rejects;
    return ResourceExhaustedError("no node has cache capacity");
  }
  const int master = placement.node;

  CachedObject obj;
  obj.key = key;
  obj.size = size;
  obj.version = version;
  obj.object_class = object_class;
  obj.dirty = dirty;
  obj.persisted = !dirty;
  obj.created_at = loop_->now();
  obj.last_access = loop_->now();
  obj.master = master;
  obj.log_entry = placement.entry;
  // Stamp the stored checksum: the caller's fingerprint (proxy edge) when one
  // was carried through, else derived here. Every replica starts healthy.
  if (fingerprint == 0) {
    fingerprint = PayloadFingerprint(key, size);
  }
  obj.checksum = StampChecksum(fingerprint, version);
  for (int b : PickBackups(master, options_.replication_factor)) {
    AddBackup(obj, b, obj.checksum);
  }
  objects_.emplace(key, obj);
  ++*m_.writes;

  // Master write + parallel replication to backup durable buffers, plus any
  // cleaner pass the append triggered.
  const SimDuration access =
      (client_node == master ? options_.local_access : options_.remote_access)
          .Cost(size, &rng_);
  const SimDuration replicate =
      obj.backups.empty() ? 0 : options_.remote_access.Cost(size, &rng_);
  *cost += access + replicate + cleaning_cost;
  return OkStatus();
}

void Cluster::Write(int client_node, const std::string& key, Bytes size,
                    std::uint64_t version, ObjectClass object_class, bool dirty,
                    Callback done) {
  Write(client_node, key, size, version, object_class, dirty, /*fingerprint=*/0,
        std::move(done));
}

void Cluster::Write(int client_node, const std::string& key, Bytes size,
                    std::uint64_t version, ObjectClass object_class, bool dirty,
                    Checksum fingerprint, Callback done) {
  SimDuration cost = 0;
  const Status status = ApplyWrite(client_node, key, size, version, object_class, dirty,
                                   fingerprint, &cost);
  loop_->ScheduleAfter(cost, [done = std::move(done), status] { done(status); });
}

void Cluster::Read(int client_node, const std::string& key, ReadCallback done) {
  auto it = objects_.find(key);
  ++*m_.reads;
  if (it == objects_.end()) {
    ++*m_.read_misses;
    loop_->ScheduleAfter(options_.local_access.Cost(0, &rng_),
                         [done = std::move(done), key] {
                           done(NotFoundError("cache miss: " + key));
                         });
    return;
  }
  CachedObject& obj = it->second;
  obj.access_count += 1;
  obj.last_access = loop_->now();
  const bool local = obj.master == client_node;
  if (local) {
    ++*m_.read_hits_local;
  } else {
    ++*m_.read_hits_remote;
  }
  SimDuration cost =
      (local ? options_.local_access : options_.remote_access).Cost(obj.size, &rng_);

  // Integrity gate: verify the master copy before serving. A mismatch
  // self-heals from the first healthy backup replica (extra disk load at the
  // backup); with every copy corrupt the object is dropped and the read fails
  // kDataLoss so the caller falls through to the RSDS — never ack corruption.
  const Checksum expected = ExpectedChecksum(obj.key, obj.size, obj.version);
  if (obj.checksum != expected) {
    NoteCorruption(key, obj.master, "read_master");
    if (!HasHealthyBackup(obj, expected)) {
      ++*m_.read_data_loss;
      // Drop the object everywhere: a re-fetch from the RSDS re-admits a good
      // copy, which is the repair path when no replica survives.
      DropObject(it);
      loop_->ScheduleAfter(cost, [done = std::move(done), key] {
        done(DataLossError("all copies corrupt: " + key));
      });
      return;
    }
    obj.checksum = expected;
    cost += options_.disk_read.Cost(obj.size, &rng_);
    NoteRepair(key, obj.master, "replica");
  }
  CachedObject snapshot = obj;
  loop_->ScheduleAfter(cost, [done = std::move(done), snapshot = std::move(snapshot)] {
    done(snapshot);
  });
}

Result<int> Cluster::MasterOf(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError("no master: " + key);
  }
  return it->second.master;
}

Result<CachedObject> Cluster::Inspect(const std::string& key) const {
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError("inspect: " + key);
  }
  return it->second;
}

std::vector<std::string> Cluster::KeysOn(int node) const {
  std::vector<std::string> keys;
  for (const auto& [key, obj] : objects_) {
    if (obj.master == node) {
      keys.push_back(key);
    }
  }
  return keys;
}

std::vector<CachedObject> Cluster::ObjectsOn(int node) const {
  std::vector<CachedObject> snapshot;
  for (const auto& [key, obj] : objects_) {
    if (obj.master == node) {
      snapshot.push_back(obj);
    }
  }
  return snapshot;
}

Status Cluster::Remove(const std::string& key) {
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError("remove: " + key);
  }
  DropObject(it);
  ++*m_.evictions;
  return OkStatus();
}

Status Cluster::MarkPersisted(const std::string& key) {
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError("mark persisted: " + key);
  }
  it->second.dirty = false;
  it->second.persisted = true;
  return OkStatus();
}

Status Cluster::SetCapacity(int node, Bytes capacity, SimDuration* out_duration) {
  NodeStats& stats = nodes_[CheckNode(node)];
  if (capacity < 0) {
    return InvalidArgumentError("negative capacity");
  }
  SimDuration duration = options_.control_op_cost;
  if (capacity < logs_[node].footprint()) {
    // Fragmented: a cleaner pass may compact the log under the new bound.
    const CleanResult cleaned = logs_[node].Clean(capacity);
    duration += cleaned.duration;
    if (capacity < logs_[node].footprint()) {
      return FailedPreconditionError("capacity below log footprint; evict or migrate first");
    }
  }
  stats.memory_capacity = capacity;
  if (out_duration != nullptr) {
    *out_duration = duration;
  }
  return OkStatus();
}

Result<MigrationResult> Cluster::MigrateMaster(const std::string& key) {
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return NotFoundError("migrate: " + key);
  }
  CachedObject& obj = it->second;
  // Elect a backup that can absorb the object into its log, most-free first.
  std::vector<int> order = obj.backups;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return FreeMemory(a) > FreeMemory(b); });
  SimDuration cleaning_cost = 0;
  const Placement to = AppendToFirst(order, obj.size, &cleaning_cost);
  if (to.node < 0) {
    return ResourceExhaustedError("no backup can host the master copy: " + key);
  }
  const int new_master = to.node;
  const int old_master = obj.master;
  // The new master already holds an on-disk replica: it loads the object from
  // local disk. The old master demotes to backup, keeping an on-disk copy —
  // replication factor is preserved with zero inter-node transfer (§6.4).
  (void)logs_[old_master].Free(obj.log_entry);
  SyncUsed(old_master);
  nodes_[new_master].disk_used -= obj.size;
  nodes_[old_master].disk_used += obj.size;
  // Checksums ride the role swap: the new master adopts the checksum its disk
  // replica stored, verified on load — a rotted replica is repaired from the
  // (still alive, still healthy) old master's copy before promotion. The old
  // master's copy becomes the backup copy in that slot.
  const std::size_t slot_idx = SlotOf(obj, new_master);
  SIM_ASSERT(slot_idx < obj.backups.size()) << "; migrate target is not a backup";
  Checksum promoted = obj.backup_checksums[slot_idx];
  const Checksum expected = ExpectedChecksum(obj.key, obj.size, obj.version);
  if (promoted != expected) {
    NoteCorruption(key, new_master, "migrate_load");
    if (obj.checksum == expected) {
      promoted = expected;  // Re-fetched from the old master over the network.
      cleaning_cost += options_.remote_access.Cost(obj.size, &rng_);
      NoteRepair(key, new_master, "replica");
    }
  }
  obj.backup_checksums[slot_idx] = obj.checksum;
  obj.checksum = promoted;
  std::replace(obj.backups.begin(), obj.backups.end(), new_master, old_master);
  obj.master = new_master;
  obj.log_entry = to.entry;
  ++*m_.migrations;

  MigrationResult result;
  result.old_master = old_master;
  result.new_master = new_master;
  // Almost pure local-disk load: the promotion RPC itself is tens of
  // microseconds (§7.2.1: 0.18 ms at 8 MB .. 13.5 ms at 1 GB).
  result.duration = options_.disk_read.Cost(obj.size, &rng_) + Micros(30) + cleaning_cost;
  return result;
}

void Cluster::TakeOffline(int node) {
  nodes_[node].alive = false;
  logs_[node] = SegmentedLog(options_.log);
  nodes_[node].memory_used = 0;
}

void Cluster::Promote(CachedObject& obj, Placement to, Checksum checksum, Recovery* recovery) {
  EraseBackup(obj, SlotOf(obj, to.node));
  obj.master = to.node;
  obj.checksum = checksum;
  obj.log_entry = to.entry;
  recovery->per_node_load[static_cast<std::size_t>(to.node)] +=
      options_.disk_read.Cost(obj.size, &rng_);
  ++recovery->result.objects_recovered;
  // Restore the replication factor: the promotion consumed one on-disk copy,
  // so the coordinator re-replicates the new master's copy to fresh backups.
  while (static_cast<int>(obj.backups.size()) < options_.replication_factor &&
         AddFreshBackup(obj, obj.checksum) >= 0) {
  }
}

RecoveryResult Cluster::FinishRecovery(Recovery& recovery) {
  for (const std::string& key : recovery.lost) {
    DropObject(objects_.find(key));
  }
  RecoveryResult& result = recovery.result;
  result.objects_lost = recovery.lost.size();
  // Makespan of the parallel partitioned reload.
  for (SimDuration d : recovery.per_node_load) {
    result.duration = std::max(result.duration, d);
  }
  m_.objects_recovered->Add(result.objects_recovered);
  m_.objects_lost->Add(result.objects_lost);
  m_.recovery_ms->Observe(ToMillis(result.duration));
  return result;
}

RecoveryResult Cluster::CrashNode(int node) {
  if (!nodes_[CheckNode(node)].alive) {
    return RecoveryResult{};  // Already down: nothing left to lose or recover.
  }
  ++*m_.node_crashes;
  if (FlightOn()) {
    flight_->Record(loop_->now(), obs::FlightEventKind::kNodeCrash, 0, 0, node);
  }
  TakeOffline(node);  // The crashed node's DRAM contents are gone.

  Recovery recovery(nodes_.size());
  for (auto& [key, obj] : objects_) {
    if (obj.master == node) {
      // Promote a surviving backup (partitioned recovery: spread by free mem).
      // Recovery re-replication verifies the copy it loads: healthy replicas
      // are preferred, and a corrupt promotion repairs from any surviving
      // healthy copy before new replicas are cut from it.
      const Checksum expected = ExpectedChecksum(obj.key, obj.size, obj.version);
      const Placement to = AppendToFirst(PromotionOrder(obj, expected), obj.size, nullptr);
      if (to.node < 0) {
        recovery.lost.push_back(key);
        continue;
      }
      Checksum promoted = obj.backup_checksums[SlotOf(obj, to.node)];
      if (promoted != expected) {
        NoteCorruption(key, to.node, "recovery_load");
        // Only corrupt copies could host; repair from any healthy survivor
        // (a copy that lost the capacity race still has good bits on disk).
        if (HasHealthyBackup(obj, expected)) {
          promoted = expected;
          NoteRepair(key, to.node, "replica");
        }
      }
      Promote(obj, to, promoted, &recovery);
    }
    // Re-replicate a backup copy that lived on the crashed node. The fresh
    // copy is cut from the master's (verified-at-promotion) copy.
    MoveBackupOff(obj, node, obj.checksum);
  }
  const RecoveryResult result = FinishRecovery(recovery);
  if (FlightOn()) {
    flight_->Record(loop_->now(), obs::FlightEventKind::kNodeRecovered, 0, 0, node, "",
                    std::to_string(result.objects_recovered) + "_recovered_" +
                        std::to_string(result.objects_lost) + "_lost");
  }
  return result;
}

void Cluster::RestartNode(int node) {
  NodeStats& stats = nodes_[CheckNode(node)];
  if (stats.alive) {
    return;
  }
  stats.alive = true;
  ++*m_.node_restarts;
  if (FlightOn()) {
    flight_->Record(loop_->now(), obs::FlightEventKind::kNodeRestart, 0, 0, node);
  }
  // Objects written while the node was down picked backups among the survivors;
  // with fewer than rf alive peers they stayed under-replicated. The restarted
  // node's disk is empty but writable, so the coordinator re-replicates onto it.
  for (auto& [key, obj] : objects_) {
    if (obj.master != node && SlotOf(obj, node) == obj.backups.size() &&
        static_cast<int>(obj.backups.size()) < options_.replication_factor) {
      AddBackup(obj, node, obj.checksum);  // Fresh copy from the master.
    }
  }
}

int Cluster::CorruptReplica(int node, int flips) {
  CheckNode(node);
  int corrupted = 0;
  // Key order: replays flip the same copies. Only healthy copies are damaged,
  // so repeated events escalate instead of accidentally un-flipping (XOR).
  for (auto& [key, obj] : objects_) {
    if (corrupted >= flips) {
      break;
    }
    const std::size_t slot = SlotOf(obj, node);
    if (slot < obj.backups.size() &&
        obj.backup_checksums[slot] == ExpectedChecksum(key, obj.size, obj.version)) {
      obj.backup_checksums[slot] = CorruptChecksum(obj.backup_checksums[slot]);
      ++corrupted;
    }
  }
  return corrupted;
}

int Cluster::CorruptSegment(int node, int flips) {
  CheckNode(node);
  int corrupted = 0;
  for (auto& [key, obj] : objects_) {
    if (corrupted >= flips) {
      break;
    }
    if (obj.master == node &&
        obj.checksum == ExpectedChecksum(key, obj.size, obj.version)) {
      obj.checksum = CorruptChecksum(obj.checksum);
      ++corrupted;
    }
  }
  return corrupted;
}

Cluster::ScrubResult Cluster::ScrubObject(const std::string& key) {
  ScrubResult result;
  auto it = objects_.find(key);
  if (it == objects_.end()) {
    return result;  // Raced an eviction, drop, or crash: nothing to scrub.
  }
  CachedObject& obj = it->second;
  const Checksum expected = ExpectedChecksum(key, obj.size, obj.version);
  // Repair source for the flight record: a surviving healthy copy when one
  // exists (replica-to-replica copy), else the authoritative RSDS payload.
  bool any_healthy = obj.checksum == expected;
  for (const Checksum c : obj.backup_checksums) {
    any_healthy = any_healthy || c == expected;
  }
  const char* source = any_healthy ? "replica" : "rsds";
  if (obj.checksum != expected) {
    NoteCorruption(key, obj.master, "scrub_master");
    obj.checksum = expected;
    NoteRepair(key, obj.master, source);
    ++result.corrupt_copies;
    result.corrupt_nodes.push_back(obj.master);
  }
  for (std::size_t i = 0; i < obj.backups.size(); ++i) {
    if (obj.backup_checksums[i] != expected) {
      NoteCorruption(key, obj.backups[i], "scrub_replica");
      obj.backup_checksums[i] = expected;
      NoteRepair(key, obj.backups[i], source);
      ++result.corrupt_copies;
      result.corrupt_nodes.push_back(obj.backups[i]);
    }
  }
  return result;
}

std::vector<std::string> Cluster::KeysAfter(const std::string& after,
                                            std::size_t limit) const {
  std::vector<std::string> keys;
  for (auto it = objects_.upper_bound(after);
       it != objects_.end() && keys.size() < limit; ++it) {
    keys.push_back(it->first);
  }
  return keys;
}

RecoveryResult Cluster::QuarantineNode(int node) {
  if (!nodes_[CheckNode(node)].alive || AliveNodes() <= 1) {
    return RecoveryResult{};  // Already down, or nowhere to drain to.
  }
  ++*m_.nodes_quarantined;
  if (FlightOn()) {
    flight_->Record(loop_->now(), obs::FlightEventKind::kNodeQuarantined, 0, 0, node);
  }
  // Placement and backup selection exclude the node from here on, and its log
  // is emptied so a later RestartNode brings it back clean. Unlike a crash,
  // every copy is verified against the RSDS on the way out, so each new
  // master and each new backup starts healthy.
  TakeOffline(node);

  Recovery recovery(nodes_.size());
  for (auto& [key, obj] : objects_) {
    const Checksum expected = ExpectedChecksum(key, obj.size, obj.version);
    if (obj.master == node) {
      // Re-master onto a backup (its disk already holds a copy).
      const Placement to = AppendToFirst(PromotionOrder(obj, expected), obj.size, nullptr);
      if (to.node < 0) {
        recovery.lost.push_back(key);
        continue;
      }
      if (obj.backup_checksums[SlotOf(obj, to.node)] != expected) {
        NoteCorruption(key, to.node, "quarantine_drain");
        NoteRepair(key, to.node, "rsds");
      }
      Promote(obj, to, expected, &recovery);
    }
    // Evacuate a backup copy off the quarantined node; a rotted copy is
    // repaired on the way out.
    const std::size_t slot = SlotOf(obj, node);
    const bool was_corrupt = slot < obj.backups.size() && obj.backup_checksums[slot] != expected;
    const int fresh = MoveBackupOff(obj, node, expected);
    if (was_corrupt) {
      NoteCorruption(key, node, "quarantine_drain");
      if (fresh >= 0) {
        NoteRepair(key, fresh, "rsds");
      }
    }
  }
  return FinishRecovery(recovery);
}

int Cluster::AliveNodes() const {
  int alive = 0;
  for (const NodeStats& node : nodes_) {
    if (node.alive) {
      ++alive;
    }
  }
  return alive;
}

Bytes Cluster::TotalUsed() const {
  Bytes total = 0;
  for (const NodeStats& node : nodes_) {
    total += node.memory_used;
  }
  return total;
}

Bytes Cluster::TotalCapacity() const {
  Bytes total = 0;
  for (const NodeStats& node : nodes_) {
    if (node.alive) {
      total += node.memory_capacity;
    }
  }
  return total;
}

}  // namespace ofc::rc
