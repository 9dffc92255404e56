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
// Everything is deterministic: (seed, options, plan) fully determine the run,
// so ChaosReport::Fingerprint() must be byte-identical across replays.
#ifndef OFC_TESTS_CHAOS_HARNESS_H_
#define OFC_TESTS_CHAOS_HARNESS_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/checksum.h"
#include "src/common/rng.h"
#include "src/core/scrubber.h"
#include "src/faas/direct_data_service.h"
#include "src/faas/platform.h"
#include "src/faasload/environment.h"
#include "src/fault/fault_injector.h"
#include "src/fault/fault_plan.h"
#include "src/obs/slo.h"
#include "src/obs/timeline.h"
#include "src/sim/periodic.h"
#include "src/workloads/functions.h"
#include "src/workloads/media.h"

namespace ofc::chaos {

struct ChaosScenarioOptions {
  std::uint64_t seed = 1;
  int num_workers = 3;        // Also the RAMCloud cluster size in kOfc.
  int num_objects = 6;        // Seeded input objects.
  int num_invocations = 30;   // Poisson arrivals over the fault horizon.
  double mean_interval_s = 5.0;
  std::string function = "wand_sepia";
  Bytes input_bytes = KiB(256);
  SimTime fault_horizon = Minutes(5);  // Faults and arrivals land before this.
  SimDuration drain = Minutes(10);     // Post-quiesce persistor drain budget.
  fault::FaultPlan plan;

  // ---- Overload scenario knobs (all default off = legacy behaviour) ----------
  std::size_t queue_limit = 0;           // Platform wait-queue depth bound.
  SimDuration queue_deadline = 0;        // Shed-if-queued-longer-than deadline.
  int max_concurrency_per_function = 0;  // Per-function running-invocation cap.
  int breaker_threshold = 0;             // Proxy cache breaker (0 = disabled).
  SimDuration breaker_open = Seconds(10);
  int breaker_probes = 2;
  SimDuration breaker_latency_slo = 0;
  // Baseline mode for breaker-bypass comparisons: the OFC stack runs but no
  // object is cacheable, so every read/write goes straight to the RSDS.
  bool disable_cache = false;
  // Arrival burst: `burst_count` extra invocations land back-to-back starting
  // at `burst_at` (1 ms apart), on top of the Poisson arrivals.
  int burst_count = 0;
  SimTime burst_at = Seconds(60);

  // ---- Integrity knobs (all default off = legacy behaviour) ------------------
  // Background scrubber sweeping cluster + store copies; 0 = no scrubber. It
  // runs through the drain window, so injected corruption must be repaired by
  // the time the I6 end-state sweep runs.
  SimDuration scrub_interval = 0;
  int scrub_objects_per_cycle = 64;
  int scrub_quarantine_threshold = 8;  // Corrupt copies per node before drain.

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
  std::string metrics_json;
  std::string timeline_json;  // Empty unless timeline/SLO scraping was on.
  std::string health_json;    // Empty unless scraping was on.
  std::string flight_json;    // Empty unless the flight recorder was on.
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
  SimTime final_time = 0;
  std::uint64_t events_scheduled = 0;

  bool ok() const { return violations.empty(); }
  std::uint64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  // Everything observable about the run; replays must match byte-for-byte.
  std::string Fingerprint() const {
    std::ostringstream out;
    out << scheduled << "/" << completed << "/" << succeeded << "/" << failed
        << "/" << shed << "@" << final_time << "#" << events_scheduled << "\n"
        << metrics_json << "\n"
        << timeline_json << "\n"
        << health_json << "\n"
        << flight_json;
    return out.str();
  }
  std::string ViolationSummary() const {
    std::ostringstream out;
    for (const std::string& v : violations) {
      out << v << "\n";
    }
    return out.str();
  }
};

// Runs one chaos scenario to quiescence and audits the six invariants.
inline ChaosReport RunChaosScenario(const ChaosScenarioOptions& options) {
  ChaosReport report;
  auto violate = [&report](const std::string& what) {
    report.violations.push_back(what);
  };

  faasload::EnvironmentOptions env_options;
  env_options.platform.num_workers = options.num_workers;
  env_options.platform.worker_memory = GiB(8);
  env_options.platform.max_queue_depth = options.queue_limit;
  env_options.platform.queue_deadline = options.queue_deadline;
  env_options.platform.max_concurrency_per_function = options.max_concurrency_per_function;
  env_options.ofc.proxy.breaker_failure_threshold = options.breaker_threshold;
  env_options.ofc.proxy.breaker_open_duration = options.breaker_open;
  env_options.ofc.proxy.breaker_half_open_probes = options.breaker_probes;
  env_options.ofc.proxy.breaker_latency_slo = options.breaker_latency_slo;
  if (options.disable_cache) {
    env_options.ofc.proxy.max_cacheable_size = 0;  // Everything bypasses cache.
  }
  env_options.seed = options.seed;
  faasload::Environment env(faasload::Mode::kOfc, env_options);
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

  // ---- Telemetry scrape loop -------------------------------------------------
  const bool scraping = options.timeline || !options.slos.empty();
  std::unique_ptr<obs::SloMonitor> slo;
  std::unique_ptr<obs::TimelineRecorder> timeline;
  std::unique_ptr<sim::PeriodicTask> scraper;
  if (scraping) {
    slo = std::make_unique<obs::SloMonitor>(&env.metrics(), /*trace=*/nullptr, options.slos);
    timeline = std::make_unique<obs::TimelineRecorder>(&env.metrics());
    scraper = std::make_unique<sim::PeriodicTask>(
        &env.loop(), options.scrape_interval, [&slo, &timeline](SimTime now) {
          slo->Evaluate(now);
          timeline->Scrape(now);
        });
    scraper->Start();
  }

  // ---- Workload setup --------------------------------------------------------
  faas::FunctionConfig config;
  config.spec = *workloads::FindFunction(options.function);
  config.booked_memory = GiB(2);
  if (!env.platform().RegisterFunction(config).ok()) {
    violate("setup: RegisterFunction failed");
    return finalize();
  }
  Rng pretrain_rng(options.seed + 17);
  env.ofc()->trainer().Pretrain(config.spec, 1000, pretrain_rng);

  Rng rng(options.seed * 7919 + 1);
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
  fault::FaultInjector injector(
      &env.loop(),
      fault::FaultInjectorTargets{&env.platform(), env.cluster(), &env.rsds(),
                                  &env.ofc()->proxy()},
      fault::FaultInjectorOptions{&env.metrics(), &env.flight()});
  if (Status plan_status = injector.Schedule(options.plan); !plan_status.ok()) {
    violate("setup: fault plan rejected: " + plan_status.message());
    return finalize();
  }
  SimTime quiesce_at = options.fault_horizon;
  for (const fault::FaultEvent& event : options.plan.events) {
    quiesce_at = std::max(quiesce_at, event.at + event.duration);
  }

  // ---- Background scrubber ---------------------------------------------------
  std::unique_ptr<core::Scrubber> scrubber;
  if (options.scrub_interval > 0) {
    core::ScrubberOptions scrub_options;
    scrub_options.interval = options.scrub_interval;
    scrub_options.objects_per_cycle = options.scrub_objects_per_cycle;
    scrub_options.quarantine_threshold = options.scrub_quarantine_threshold;
    scrub_options.metrics = &env.metrics();
    scrubber = std::make_unique<core::Scrubber>(&env.loop(), env.cluster(), &env.rsds(),
                                                scrub_options);
    scrubber->Start();
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
  if (scraper != nullptr) {
    scraper->Stop();
    // Final partial window covering the tail of the drain.
    slo->Evaluate(env.loop().now());
    timeline->Scrape(env.loop().now());
  }
  if (scrubber != nullptr) {
    scrubber->Stop();
  }

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
  if (options.queue_deadline > 0) {
    if (const obs::Series* wait =
            env.metrics().FindSeries("ofc.platform.queue_wait_ms");
        wait != nullptr && wait->count() > 0 &&
        wait->running().max() > ToMillis(options.queue_deadline)) {
      violate("I5: a request waited " + std::to_string(wait->running().max()) +
              " ms in the queue, past the " +
              std::to_string(ToMillis(options.queue_deadline)) + " ms deadline");
    }
  }

  // ---- I6: no corrupt payload ever acked -------------------------------------
  if (env.metrics().CounterTotal("ofc.integrity.corrupt_acked") > 0) {
    violate("I6: " +
            std::to_string(env.metrics().CounterTotal("ofc.integrity.corrupt_acked")) +
            " corrupt payloads were acked to functions");
  }
  if (options.scrub_interval > 0) {
    // End-state convergence sweep: with the scrubber running through the drain,
    // every injected corruption must have been found and repaired by now.
    for (int node = 0; node < cluster->num_nodes(); ++node) {
      for (const std::string& key : cluster->KeysOn(node)) {
        const auto obj = cluster->Inspect(key);
        if (!obj.ok()) {
          continue;
        }
        const Checksum expected = ExpectedChecksum(key, obj->size, obj->version);
        if (obj->checksum != expected) {
          violate("I6: cached object " + key + " master copy still corrupt after drain");
        }
        for (std::size_t b = 0; b < obj->backup_checksums.size(); ++b) {
          if (obj->backup_checksums[b] != expected) {
            violate("I6: cached object " + key + " backup copy on node " +
                    std::to_string(obj->backups[b]) + " still corrupt after drain");
          }
        }
      }
    }
    for (const std::string& key : env.rsds().Keys()) {
      const auto meta = env.rsds().Stat(key);
      if (meta.ok() &&
          meta->checksum != ExpectedChecksum(key, meta->size, meta->rsds_version)) {
        violate("I6: store object " + key + " still corrupt after drain");
      }
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

  report.metrics_json = env.metrics().SnapshotJson(env.loop().now());
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
  if (timeline != nullptr) {
    report.timeline_json = timeline->ToJson();
    auto bracket = [&timeline](const std::string& family, SimTime* first_start,
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
  if (slo != nullptr) {
    report.health_json = slo->HealthJson(env.loop().now());
    report.slo_alerts_fired = slo->alerts_fired();
    report.worst_burn = slo->worst_burn();
  }
  if (options.flight_recorder) {
    report.flight_json = env.flight().ToJson("end_of_run");
  }
  report.final_time = env.loop().now();
  report.events_scheduled = env.loop().total_scheduled();
  return finalize();
}

}  // namespace ofc::chaos

#endif  // OFC_TESTS_CHAOS_HARNESS_H_
