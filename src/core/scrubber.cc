#include "src/core/scrubber.h"

#include <algorithm>
#include <vector>

namespace ofc::core {

Scrubber::Scrubber(sim::EventLoop* loop, rc::Cluster* cluster, store::ObjectStore* rsds,
                   ScrubberOptions options)
    : loop_(loop), cluster_(cluster), rsds_(rsds), options_(options), metrics_(options.metrics) {
  m_.Bind(*metrics_);
  task_ = std::make_unique<sim::PeriodicTask>(loop_, options_.interval,
                                              [this](SimTime) { Tick(); });
}

void Scrubber::Start() { task_->Start(); }

void Scrubber::Stop() { task_->Stop(); }

ScrubberStats Scrubber::stats() const {
  ScrubberStats stats;
  m_.CopyTo(stats);
  return stats;
}

void Scrubber::Tick() {
  ScrubClusterSlice();
  if (rsds_ != nullptr) {
    ScrubStoreSlice();
  }
}

void Scrubber::ScrubClusterSlice() {
  const std::size_t budget = options_.objects_per_cycle <= 0
                                 ? 0
                                 : static_cast<std::size_t>(options_.objects_per_cycle);
  const std::vector<std::string> keys = cluster_->KeysAfter(cluster_cursor_, budget);
  for (const std::string& key : keys) {
    ++*m_.objects_scanned;
    NoteCorruptCopies(cluster_->ScrubObject(key));
    cluster_cursor_ = key;
  }
  if (keys.size() < budget || budget == 0) {
    // Reached the end of the keyspace: one full pass done, wrap around.
    ++*m_.cycles;
    cluster_cursor_.clear();
  }
}

void Scrubber::ScrubStoreSlice() {
  // The store exposes no cursor API; slice its sorted key listing the same
  // way. O(N) per tick, fine at simulation scale.
  const std::vector<std::string> keys = rsds_->Keys();
  auto it = std::upper_bound(keys.begin(), keys.end(), store_cursor_);
  int scanned = 0;
  for (; it != keys.end() && scanned < options_.objects_per_cycle; ++it, ++scanned) {
    ++*m_.objects_scanned;
    const int repaired = rsds_->ScrubKey(*it);
    m_.corruptions_found->Add(static_cast<std::uint64_t>(repaired));
    m_.repairs->Add(static_cast<std::uint64_t>(repaired));
    store_cursor_ = *it;
  }
  if (it == keys.end()) {
    store_cursor_.clear();
  }
}

void Scrubber::NoteCorruptCopies(const rc::Cluster::ScrubResult& result) {
  m_.corruptions_found->Add(static_cast<std::uint64_t>(result.corrupt_copies));
  m_.repairs->Add(static_cast<std::uint64_t>(result.corrupt_copies));
  if (options_.quarantine_threshold <= 0) {
    return;
  }
  for (const int node : result.corrupt_nodes) {
    ++node_corruption_[node];
  }
  for (const int node : result.corrupt_nodes) {
    if (node_corruption_[node] < options_.quarantine_threshold) {
      continue;
    }
    if (cluster_->AliveNodes() <= 1) {
      // Never drain the last node: a corrupt-prone cache still beats no cache,
      // and every copy it holds keeps getting repaired each pass.
      continue;
    }
    (void)cluster_->QuarantineNode(node);
    ++*m_.quarantines;
    node_corruption_[node] = 0;  // Fresh ledger if the node ever rejoins.
  }
}

}  // namespace ofc::core
