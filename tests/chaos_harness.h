// Chaos harness: runs a Poisson invocation workload against the full OFC stack
// (platform + proxy + cache + RSDS) while a fault::FaultInjector replays a
// FaultPlan, then audits the end state against six invariants:
//
//   I1 — no acknowledged write is lost: every successful invocation's output
//        object is present, fully persisted, and has the acknowledged size;
//   I2 — cache and store converge once persistors drain: no dirty cached
//        object remains, and no shadow survives except for writes the platform
//        reported as failed (an unacknowledged write may leave a placeholder);
//   I3 — every invocation completes exactly once (crash re-dispatch must
//        neither drop nor duplicate completions);
//   I4 — recovery re-establishes the replication factor: every cached object
//        has an alive master and min(rf, alive-1) distinct alive backups;
//   I5 — overload resolves explicitly: every submission is either completed or
//        shed with kResourceExhausted (never parked forever), and no request
//        waits in the queue past its configured deadline;
//   I6 — no corrupt payload is ever acked: the proxy's corrupt-acked tripwire
//        stays at zero, and (when the scrubber runs) every surviving cache
//        copy and store object verifies against its expected checksum after
//        the drain — injected corruption was detected and repaired.
//
// The stack is a faasload::Environment, the assembly ofc-sim runs: it wires the
// fault injector, the scrubber and the telemetry scrape loop, and its Finish()
// returns the run's artifacts. Everything is deterministic: (options, plan)
// fully determine the run, so ChaosReport::run must be byte-identical across
// replays.
#ifndef OFC_TESTS_CHAOS_HARNESS_H_
#define OFC_TESTS_CHAOS_HARNESS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/rng.h"
#include "src/faas/platform.h"
#include "src/faasload/environment.h"
#include "src/fault/fault_plan.h"
#include "src/obs/slo.h"
#include "src/workloads/functions.h"
#include "src/workloads/media.h"

namespace ofc::chaos {

// The harness's stack: seed 1, 3 workers (also the RAMCloud cluster size) of
// 8 GiB, and a breaker that, once armed, stays open 10 s and closes after 2
// probes. Overload settings (queue bound and deadline, concurrency cap,
// breaker threshold) default off.
inline faasload::EnvironmentOptions ChaosEnvironment() {
  faasload::EnvironmentOptions env;
  env.seed = 1;
  env.platform.num_workers = 3;
  env.platform.worker_memory = GiB(8);
  env.ofc.proxy.breaker_open_duration = Seconds(10);
  env.ofc.proxy.breaker_half_open_probes = 2;
  return env;
}

struct ChaosScenarioOptions {
  // The OFC stack under test; env.seed also seeds the workload.
  faasload::EnvironmentOptions env = ChaosEnvironment();
  int num_objects = 6;        // Seeded input objects.
  int num_invocations = 30;   // Poisson arrivals over the fault horizon.
  double mean_interval_s = 5.0;
  std::string function = "wand_sepia";
  Bytes input_bytes = KiB(256);
  SimTime fault_horizon = Minutes(5);  // Faults and arrivals land before this.
  SimDuration drain = Minutes(10);     // Post-quiesce persistor drain budget.
  fault::FaultPlan plan;

  // Arrival burst: `burst_count` extra invocations land back-to-back starting
  // at `burst_at` (1 ms apart), on top of the Poisson arrivals.
  int burst_count = 0;
  SimTime burst_at = Seconds(60);

  // Background scrubber sweeping cluster + store copies; interval 0 = no
  // scrubber. It runs through the drain window, so injected corruption must be
  // repaired by the time the I6 end-state sweep runs.
  core::ScrubberOptions scrub{.interval = 0};

  // ---- Observability knobs (all default off = legacy behaviour) --------------
  // Black-box ring recording every causal lifecycle event of the run.
  bool flight_recorder = false;
  std::size_t flight_capacity = 4096;
  // When any invariant violates, dump the flight ring here (the violation
  // summary becomes the dump reason) — post-mortem triage for chaos failures.
  std::string dump_on_violation;
  // Windowed telemetry scrapes; on when `timeline` is set or SLOs are declared.
  bool timeline = false;
  SimDuration scrape_interval = Seconds(10);
  std::vector<obs::SloSpec> slos;
};

struct ChaosReport {
  int scheduled = 0;
  int completed = 0;
  int succeeded = 0;
  int failed = 0;   // Includes shed requests (they complete as failures).
  int shed = 0;     // Rejected by overload protection with kResourceExhausted.
  // Mean extract+load latency (ms) over successful invocations — the data-path
  // cost a breaker-bypass run is compared against the no-cache baseline on.
  double mean_el_ms = 0.0;
  std::vector<std::string> violations;
  // Everything observable about the run; replays must match byte-for-byte.
  faasload::RunArtifacts run;
  std::uint64_t slo_alerts_fired = 0;
  double worst_burn = 0.0;
  // Timeline bracketing for acceptance audits: start of the first and end of
  // the last retained window whose shed / breaker-open counter delta was
  // nonzero (all 0 when scraping was off or the counter never moved). A
  // correct timeline localizes the fault: these windows must bracket the
  // injected fault/overload interval, not the whole run.
  SimTime shed_first_window_start = 0;
  SimTime shed_last_window_end = 0;
  SimTime breaker_first_window_start = 0;
  SimTime breaker_last_window_end = 0;
  // Selected fault-path counters (summed over labels), snapshotted before the
  // environment is torn down so tests can assert on them.
  std::map<std::string, std::uint64_t> counters;

  bool ok() const { return violations.empty(); }
  std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  std::string ViolationSummary() const {
    std::ostringstream out;
    for (const std::string& v : violations) {
      out << v << "\n";
    }
    return out.str();
  }
};

// I6's end-state sweep: one violation per surviving cache copy (master or
// backup) or store object whose checksum does not verify.
inline std::vector<std::string> CorruptCopies(faasload::Environment& env) {
  std::vector<std::string> corrupt;
  rc::Cluster* cluster = env.cluster();
  for (int node = 0; node < cluster->num_nodes(); ++node) {
    for (const std::string& key : cluster->KeysOn(node)) {
      const auto obj = cluster->Inspect(key);
      if (!obj.ok()) {
        continue;
      }
      const Checksum expected = ExpectedChecksum(key, obj->size, obj->version);
      if (obj->checksum != expected) {
        corrupt.push_back("I6: cached object " + key + " master copy still corrupt after drain");
      }
      for (std::size_t b = 0; b < obj->backup_checksums.size(); ++b) {
        if (obj->backup_checksums[b] != expected) {
          corrupt.push_back("I6: cached object " + key + " backup copy on node " +
                            std::to_string(obj->backups[b]) + " still corrupt after drain");
        }
      }
    }
  }
  for (const std::string& key : env.rsds().Keys()) {
    const auto meta = env.rsds().Stat(key);
    if (meta.ok() && meta->HasPayload() &&
        meta->checksum != ExpectedChecksum(key, meta->size, meta->rsds_version)) {
      corrupt.push_back("I6: store object " + key + " still corrupt after drain");
    }
  }
  return corrupt;
}

// Runs one chaos scenario to quiescence and audits the six invariants.
inline ChaosReport RunChaosScenario(const ChaosScenarioOptions& options) {
  ChaosReport report;
  auto violate = [&report](const std::string& what) {
    report.violations.push_back(what);
  };

  faasload::Environment env(faasload::Mode::kOfc, options.env);
  if (options.flight_recorder) {
    env.flight().set_capacity(options.flight_capacity);
    env.flight().set_enabled(true);
  }
  // Post-mortem hook shared by every exit path (setup failures included):
  // preserve the causal chain that led up to the breach.
  auto finalize = [&]() -> ChaosReport& {
    if (!report.ok() && !options.dump_on_violation.empty() && options.flight_recorder) {
      (void)env.flight().WriteJson(options.dump_on_violation, report.ViolationSummary());
    }
    return report;
  };

  if (options.timeline || !options.slos.empty()) {
    env.StartTelemetry(options.scrape_interval, options.slos);
  }

  // ---- Workload setup --------------------------------------------------------
  faas::FunctionConfig config;
  config.spec = *workloads::FindFunction(options.function);
  config.booked_memory = GiB(2);
  if (!env.platform().RegisterFunction(config).ok()) {
    violate("setup: RegisterFunction failed");
    return finalize();
  }
  Rng pretrain_rng(options.env.seed + 17);
  env.ofc()->trainer().Pretrain(config.spec, 1000, pretrain_rng);

  Rng rng(options.env.seed * 7919 + 1);
  workloads::MediaGenerator generator(rng.Fork());
  std::vector<faas::InputObject> inputs;
  for (int i = 0; i < options.num_objects; ++i) {
    const auto media =
        generator.GenerateWithByteSize(workloads::InputKind::kImage, options.input_bytes);
    const std::string key = "in/" + std::to_string(i);
    env.rsds().Seed(key, media.byte_size, faas::MediaToTags(media));
    inputs.push_back(faas::InputObject{key, media});
  }

  // ---- Fault plan ------------------------------------------------------------
  if (Status plan_status = env.faults().Schedule(options.plan); !plan_status.ok()) {
    violate("setup: fault plan rejected: " + plan_status.message());
    return finalize();
  }
  SimTime quiesce_at = options.fault_horizon;
  for (const fault::FaultEvent& event : options.plan.events) {
    quiesce_at = std::max(quiesce_at, event.at + event.duration);
  }

  // ---- Background scrubber ---------------------------------------------------
  if (options.scrub.interval > 0 && !env.StartScrubber(options.scrub).ok()) {
    violate("setup: scrubber did not start");
    return finalize();
  }

  // ---- Poisson arrivals + optional burst -------------------------------------
  const int total_invocations = options.num_invocations + options.burst_count;
  std::vector<faas::InvocationRecord> records(
      static_cast<std::size_t>(total_invocations));
  std::vector<int> completions(static_cast<std::size_t>(total_invocations), 0);
  const auto submit_at = [&](SimTime at, std::size_t slot,
                             const faas::InputObject& input) {
    env.loop().ScheduleAt(at, [&env, &records, &completions, &report, input,
                               slot, function = options.function] {
      ++report.scheduled;
      env.platform().Invoke(function, {input}, {0.5},
                            [&records, &completions, &report,
                             slot](const faas::InvocationRecord& r) {
                              records[slot] = r;
                              if (++completions[slot] == 1) {
                                ++report.completed;
                                if (r.failed) {
                                  ++report.failed;
                                } else {
                                  ++report.succeeded;
                                }
                              }
                            });
    });
  };
  SimTime arrival = 0;
  for (int i = 0; i < options.num_invocations; ++i) {
    const double gap_us = rng.Exponential(options.mean_interval_s * 1e6);
    arrival += static_cast<SimDuration>(gap_us);
    submit_at(arrival, static_cast<std::size_t>(i), inputs[rng.Index(inputs.size())]);
  }
  quiesce_at = std::max(quiesce_at, arrival);
  for (int i = 0; i < options.burst_count; ++i) {
    const SimTime at = options.burst_at + i * Millis(1);
    submit_at(at, static_cast<std::size_t>(options.num_invocations + i),
              inputs[rng.Index(inputs.size())]);
    quiesce_at = std::max(quiesce_at, at);
  }

  // ---- Drive to quiescence ---------------------------------------------------
  const SimTime work_deadline = quiesce_at + options.drain;
  while (report.completed < total_invocations &&
         env.loop().now() < work_deadline && env.loop().Step()) {
  }
  // All faults have healed by quiesce_at; give persistor retries a full drain
  // window beyond whatever point the workload finished at.
  env.loop().RunUntil(std::max(env.loop().now(), quiesce_at) + options.drain);
  report.run = env.Finish();

  // ---- I3: exactly-once completion -------------------------------------------
  if (report.completed != total_invocations) {
    violate("I3: " + std::to_string(total_invocations - report.completed) +
            " invocations never completed");
  }
  for (std::size_t i = 0; i < completions.size(); ++i) {
    if (completions[i] > 1) {
      violate("I3: invocation slot " + std::to_string(i) + " completed " +
              std::to_string(completions[i]) + " times");
    }
  }

  // ---- I1: no acknowledged write lost ----------------------------------------
  std::set<std::string> failed_keys;
  for (const faas::InvocationRecord& record : records) {
    if (record.id == 0) {
      continue;  // Never completed (already an I3 violation).
    }
    if (record.failed) {
      if (!record.output_key.empty()) {
        failed_keys.insert(record.output_key);
      }
      continue;
    }
    const auto meta = env.rsds().Stat(record.output_key);
    if (!meta.ok()) {
      violate("I1: acknowledged output " + record.output_key + " missing from RSDS");
      continue;
    }
    if (meta->IsShadow()) {
      violate("I1: acknowledged output " + record.output_key +
              " still a shadow after drain");
    } else if (meta->size != record.output_bytes) {
      violate("I1: output " + record.output_key + " has size " +
              std::to_string(meta->size) + ", acknowledged " +
              std::to_string(record.output_bytes));
    }
  }

  // ---- I2: cache/store convergence -------------------------------------------
  rc::Cluster* cluster = env.cluster();
  for (int node = 0; node < cluster->num_nodes(); ++node) {
    for (const std::string& key : cluster->KeysOn(node)) {
      const auto obj = cluster->Inspect(key);
      if (obj.ok() && obj->dirty) {
        violate("I2: cached object " + key + " still dirty after drain");
      }
    }
  }
  for (const std::string& key : env.rsds().Keys()) {
    const auto meta = env.rsds().Stat(key);
    if (meta.ok() && meta->IsShadow() && !failed_keys.contains(key)) {
      violate("I2: shadow " + key + " survived drain without a failed write");
    }
  }

  // ---- I4: replication factor re-established ---------------------------------
  const int alive = cluster->AliveNodes();
  const int want_backups =
      std::min(cluster->options().replication_factor, std::max(alive - 1, 0));
  for (int node = 0; node < cluster->num_nodes(); ++node) {
    for (const std::string& key : cluster->KeysOn(node)) {
      const auto obj = cluster->Inspect(key);
      if (!obj.ok()) {
        continue;
      }
      if (!cluster->Alive(obj->master)) {
        violate("I4: object " + key + " mastered on dead node " +
                std::to_string(obj->master));
      }
      std::set<int> backups(obj->backups.begin(), obj->backups.end());
      if (backups.size() != obj->backups.size() || backups.contains(obj->master)) {
        violate("I4: object " + key + " has duplicate or self-referential backups");
      }
      for (int backup : obj->backups) {
        if (!cluster->Alive(backup)) {
          violate("I4: object " + key + " has backup on dead node " +
                  std::to_string(backup));
        }
      }
      if (static_cast<int>(obj->backups.size()) < want_backups) {
        violate("I4: object " + key + " under-replicated: " +
                std::to_string(obj->backups.size()) + " < " +
                std::to_string(want_backups));
      }
    }
  }

  // ---- I5: overload resolves explicitly --------------------------------------
  for (std::size_t i = 0; i < records.size(); ++i) {
    const faas::InvocationRecord& record = records[i];
    if (record.id == 0) {
      continue;  // Never completed (already an I3 violation).
    }
    if (record.shed) {
      ++report.shed;
      if (!record.failed || record.final_status != StatusCode::kResourceExhausted) {
        violate("I5: shed invocation slot " + std::to_string(i) +
                " lacks the kResourceExhausted disposition");
      }
    } else if (record.failed && record.final_status == StatusCode::kOk) {
      violate("I5: failed invocation slot " + std::to_string(i) +
              " reports final status kOk");
    } else if (!record.failed && record.final_status != StatusCode::kOk) {
      violate("I5: successful invocation slot " + std::to_string(i) +
              " reports a non-kOk final status");
    }
  }
  if (const SimDuration deadline = options.env.platform.queue_deadline; deadline > 0) {
    if (const obs::Series* wait =
            env.metrics().FindSeries("ofc.platform.queue_wait_ms");
        wait != nullptr && wait->count() > 0 && wait->running().max() > ToMillis(deadline)) {
      violate("I5: a request waited " + std::to_string(wait->running().max()) +
              " ms in the queue, past the " + std::to_string(ToMillis(deadline)) +
              " ms deadline");
    }
  }

  // ---- I6: no corrupt payload ever acked -------------------------------------
  if (env.metrics().CounterTotal("ofc.integrity.corrupt_acked") > 0) {
    violate("I6: " +
            std::to_string(env.metrics().CounterTotal("ofc.integrity.corrupt_acked")) +
            " corrupt payloads were acked to functions");
  }
  if (options.scrub.interval > 0) {
    // End-state convergence sweep: with the scrubber running through the drain,
    // every injected corruption must have been found and repaired by now.
    for (const std::string& corrupt : CorruptCopies(env)) {
      violate(corrupt);
    }
  }

  // Mean extract+load over successes (breaker-bypass vs no-cache comparisons).
  double el_sum_ms = 0.0;
  int el_count = 0;
  for (const faas::InvocationRecord& record : records) {
    if (record.id != 0 && !record.failed) {
      el_sum_ms += ToMillis(record.extract_time + record.load_time);
      ++el_count;
    }
  }
  report.mean_el_ms = el_count > 0 ? el_sum_ms / el_count : 0.0;

  for (const char* name :
       {"ofc.fault.injected", "ofc.fault.healed", "ofc.proxy.fallback_writes",
        "ofc.proxy.rsds_retries", "ofc.proxy.read_deadlines", "ofc.proxy.persistor_drops",
        "ofc.proxy.persistor_retries", "ofc.proxy.persistor_abandons",
        "ofc.platform.worker_crashes", "ofc.platform.worker_restores",
        "ofc.platform.crash_retries", "ofc.ramcloud.node_crashes",
        "ofc.ramcloud.node_restarts", "ofc.ramcloud.objects_recovered",
        "ofc.ramcloud.objects_lost", "ofc.store.unavailable_errors",
        "ofc.store.webhook_bypasses", "ofc.overload.shed", "ofc.breaker.opens",
        "ofc.breaker.closes", "ofc.breaker.bypassed_reads", "ofc.breaker.bypassed_writes",
        "ofc.fault.objects_corrupted",
        "ofc.integrity.checksum_failures", "ofc.integrity.repairs",
        "ofc.integrity.read_data_loss", "ofc.integrity.corrupt_acked",
        "ofc.integrity.reread_from_rsds", "ofc.integrity.store_checksum_failures",
        "ofc.integrity.store_repairs", "ofc.ramcloud.nodes_quarantined",
        "ofc.scrub.cycles", "ofc.scrub.objects_scanned", "ofc.scrub.corruptions_found",
        "ofc.scrub.repairs", "ofc.scrub.quarantines"}) {
    report.counters[name] = env.metrics().CounterTotal(name);
  }
  if (const obs::TimelineRecorder* timeline = env.timeline(); timeline != nullptr) {
    auto bracket = [timeline](const std::string& family, SimTime* first_start,
                               SimTime* last_end) {
      for (const obs::TimelineWindow& window : timeline->windows()) {
        for (const obs::TimelineCounter& cell : window.counters) {
          if (cell.name == family && cell.delta > 0) {
            if (*last_end == 0) {
              *first_start = window.start;
            }
            *last_end = window.end;
            break;
          }
        }
      }
    };
    bracket("ofc.overload.shed", &report.shed_first_window_start,
            &report.shed_last_window_end);
    bracket("ofc.breaker.opens", &report.breaker_first_window_start,
            &report.breaker_last_window_end);
  }
  if (const obs::SloMonitor* slo = env.slo(); slo != nullptr) {
    report.slo_alerts_fired = slo->alerts_fired();
    report.worst_burn = slo->worst_burn();
  }
  return finalize();
}

}  // namespace ofc::chaos

#endif  // OFC_TESTS_CHAOS_HARNESS_H_
