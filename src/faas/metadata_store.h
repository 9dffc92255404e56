// MetadataStore: a CouchDB-like document database, as OpenWhisk uses for
// function metadata. Documents are revisioned: writes must present the current
// revision (0 to create) and conflict otherwise — CouchDB's MVCC contract.
//
// OFC stores each function's ML models here (§5.1): "we store all the function
// models in OWK's database (CouchDB), so when a function is invoked and OWK
// fetches its metadata, it also gets its model".
#ifndef OFC_FAAS_METADATA_STORE_H_
#define OFC_FAAS_METADATA_STORE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>

#include "src/common/hash.h"
#include "src/common/rng.h"
#include "src/common/status.h"
#include "src/sim/event_loop.h"
#include "src/sim/latency.h"

namespace ofc::faas {

struct Document {
  std::string id;
  std::uint64_t revision = 0;
  std::string body;
};

class MetadataStore {
 public:
  using PutCallback = std::function<void(Result<std::uint64_t>)>;  // New revision.
  using GetCallback = std::function<void(Result<Document>)>;
  using Callback = std::function<void(Status)>;

  // Default latency: a same-rack CouchDB round trip.
  MetadataStore(sim::EventLoop* loop, Rng rng,
                sim::LatencyModel latency = sim::LatencyModel{Millis(2), 200e6, 0.05});

  // Creates (expected_revision == 0) or updates a document. A stale revision
  // fails with kAborted (CouchDB's 409 conflict).
  void Put(const std::string& id, std::string body, std::uint64_t expected_revision,
           PutCallback done);

  void Get(const std::string& id, GetCallback done);

  void Delete(const std::string& id, std::uint64_t expected_revision, Callback done);

  // ---- Synchronous management/test plane (zero simulated cost) ----

  Result<Document> Stat(const std::string& id) const;
  bool Exists(const std::string& id) const { return documents_.contains(id); }
  // Installs a document directly (bootstrap / test fixtures).
  void Seed(const std::string& id, std::string body);

 private:
  sim::EventLoop* loop_;
  Rng rng_;
  sim::LatencyModel latency_;
  // Looked up by id, never iterated; salted hashing keeps that honest under
  // test (tests/determinism_test.cpp perturbs the salt).
  std::unordered_map<std::string, Document, DetHash<std::string>> documents_;
};

}  // namespace ofc::faas

#endif  // OFC_FAAS_METADATA_STORE_H_
