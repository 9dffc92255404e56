// MetricsRegistry: the unified metrics layer every component reports through.
//
// Components obtain named cells (counters, gauges, distribution series) from a
// shared registry at construction and bump them on the hot path with a plain
// pointer dereference — no locking (the simulator is single-threaded) and no
// string lookups after the first access.
//
// Every metric is declared once, as one row of an X-macro metric list in the
// component's header (see "Metric lists" below). The list generates the
// component's `*Stats` view fields (ProxyStats, CacheScalingStats,
// PlatformStats, ...), its cached cell pointers, their registration and the
// view's copy lines, so the views tests and benches read can never drift from
// the registry that Table 2 and the exports read. Labelled families (per
// reason, per function, per fault kind, per SLO) are list rows too; only
// derived view fields (PlatformStats::shed_requests) stay hand-written.
// Outside src/obs/ nothing calls the registry's Get* accessors directly.
//
// Naming scheme: `ofc.<component>.<name>` (e.g. `ofc.proxy.cache_hits`), with
// an optional label for per-function / per-worker breakdowns (rendered as
// `name{label}` in the CSV export).
//
// Exporters: SnapshotJson() (machine-readable, one object per metric family)
// and SnapshotCsv() (one row per cell). Distribution series reuse
// RunningStat/Samples from src/common/stats.h and report count/mean/min/max
// plus p50/p95/p99.
#ifndef OFC_OBS_METRICS_H_
#define OFC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/common/stats.h"
#include "src/common/units.h"

namespace ofc::obs {

// Monotonically increasing event count.
class Counter {
 public:
  Counter& operator++() {
    ++value_;
    return *this;
  }
  void Add(std::uint64_t n) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

// Point-in-time value (cache capacity, cumulative simulated time, ...).
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double d) { value_ += d; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

// Distribution of observations (latencies, sizes): Welford summary plus stored
// samples for exact percentiles. Sample storage is capped so long traced runs
// stay bounded; the RunningStat summary covers every observation regardless.
class Series {
 public:
  void Observe(double v) {
    running_.Add(v);
    if (samples_.count() < kMaxStoredSamples) {
      samples_.Add(v);
    }
  }
  std::size_t count() const { return running_.count(); }
  double sum() const { return running_.sum(); }
  const RunningStat& running() const { return running_; }
  const Samples& samples() const { return samples_; }

 private:
  static constexpr std::size_t kMaxStoredSamples = 1 << 16;
  RunningStat running_;
  Samples samples_;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create; the returned pointer is stable for the registry's lifetime.
  // A family's kind is fixed by its first accessor (counter/gauge/series); the
  // label distinguishes cells within a family ("" = the unlabeled cell).
  Counter* GetCounter(const std::string& name, const std::string& label = "");
  Gauge* GetGauge(const std::string& name, const std::string& label = "");
  Series* GetSeries(const std::string& name, const std::string& label = "");

  // ---- Read-side queries (benches, tests, views) -------------------------------

  // Value of one cell; 0 when the cell does not exist.
  std::uint64_t CounterValue(const std::string& name, const std::string& label = "") const;
  double GaugeValue(const std::string& name, const std::string& label = "") const;
  const Series* FindSeries(const std::string& name, const std::string& label = "") const;
  // Sum across all labels of a counter family.
  std::uint64_t CounterTotal(const std::string& name) const;

  // ---- Visitation (timeline scrapes) ---------------------------------------------
  //
  // Invokes the callback once per cell, in deterministic (family name, label)
  // order — the registry's own map order — so scrape output is reproducible.
  void VisitCounters(
      const std::function<void(const std::string& name, const std::string& label,
                               const Counter& cell)>& fn) const;
  void VisitGauges(const std::function<void(const std::string& name, const std::string& label,
                                            const Gauge& cell)>& fn) const;
  void VisitSeries(const std::function<void(const std::string& name, const std::string& label,
                                            const Series& cell)>& fn) const;

  // ---- Exporters ---------------------------------------------------------------

  // {"sim_time_us": N, "metrics": [{"name": ..., "type": ..., "cells": [...]}]}
  std::string SnapshotJson(SimTime now = 0) const;
  // Header row, then one row per cell:
  //   name,type,label,value,count,mean,min,max,p50,p95,p99
  std::string SnapshotCsv(SimTime now = 0) const;

 private:
  enum class Kind { kCounter, kGauge, kSeries };
  struct Family {
    Kind kind = Kind::kCounter;
    // std::map: deterministic export order and stable cell addresses.
    std::map<std::string, Counter> counters;
    std::map<std::string, Gauge> gauges;
    std::map<std::string, Series> series;
  };

  Family& GetFamily(const std::string& name, Kind kind);

  std::map<std::string, Family> families_;
};

// The registry a component reports through: the injected one, or — when the
// component's `*Options::metrics` is left null — a private registry it owns,
// so every component binds its cells unconditionally.
class RegistryRef {
 public:
  explicit RegistryRef(MetricsRegistry* injected)
      : owned_(injected == nullptr ? std::make_unique<MetricsRegistry>() : nullptr),
        registry_(injected != nullptr ? injected : owned_.get()) {}

  MetricsRegistry& operator*() const { return *registry_; }
  MetricsRegistry* operator->() const { return registry_; }
  MetricsRegistry* get() const { return registry_; }

 private:
  std::unique_ptr<MetricsRegistry> owned_;
  MetricsRegistry* registry_;
};

// The cells of one per-label metric list (see "Metric lists" below), bound
// for a label on its first use and cached, so a hot path pays one lookup and
// registers nothing after the first call. At() is the O(1) path for a dense
// index the caller assigns (the platform's fn_index): each slot remembers the
// label it was bound for and revalidates it, so an index from a hand-built or
// foreign context falls back to the label lookup instead of bumping another
// label's cells. Index 0 means "no index".
template <typename Cells>
class LabelledCells {
 public:
  explicit LabelledCells(MetricsRegistry* registry) : registry_(registry) {}

  Cells& For(const std::string& label) { return Find(label)->second; }

  Cells& At(std::uint32_t index, const std::string& label) {
    if (index < slots_.size() && slots_[index].cells != nullptr &&
        *slots_[index].label == label) {
      return *slots_[index].cells;
    }
    auto it = Find(label);
    if (index != 0 && index < kMaxIndex) {
      if (index >= slots_.size()) {
        slots_.resize(index + 1);
      }
      slots_[index] = Slot{&it->first, &it->second};
    }
    return it->second;
  }

 private:
  // Bounds slot growth against absurd indices.
  static constexpr std::uint32_t kMaxIndex = 1u << 16;
  struct Slot {
    const std::string* label = nullptr;  // Key of the map node below.
    Cells* cells = nullptr;
  };

  typename std::map<std::string, Cells>::iterator Find(const std::string& label) {
    auto [it, inserted] = by_label_.try_emplace(label);
    if (inserted) {
      it->second.Bind(*registry_, label);
    }
    return it;
  }

  MetricsRegistry* registry_;
  std::map<std::string, Cells> by_label_;  // Node-based: slot pointers stay valid.
  std::vector<Slot> slots_;
};

}  // namespace ofc::obs

// ---- Metric lists ---------------------------------------------------------------
//
// A component declares each metric exactly once, as one row of an X-macro
// list in its header whose name ends in `_METRICS` (rows are
// backslash-continued lines; /* */ comments may sit between them):
//
//   #define OFC_WIDGET_METRICS(X)
//     X(COUNTER, requests, "ofc.widget.requests")
//     X(COUNTER, bytes_read, "ofc.widget.bytes_read", Bytes)
//     X(GAUGE, busy_time, "ofc.widget.busy_time_us", SimDuration)
//     X(GAUGE, depth, "ofc.widget.depth")
//     X(SERIES, latency_ms, "ofc.widget.latency_ms")
//     X(COUNTER_PER, drops, "ofc.widget.drops", kDropReasons)
//
// Columns: the cell kind, the cell pointer's (and view field's) name, the
// registry family name, and a last column that depends on the kind:
//   COUNTER      one counter; its view field has the given type
//                (std::uint64_t when omitted).
//   GAUGE        one gauge; it has a view field only when a type is given.
//   SERIES       one distribution series; never in the view.
//   COUNTER_PER  one counter per label of the named array of C strings
//                (`obs::Counter* field[N]`, indexed like the array), all
//                registered by Bind(); never in the view.
// The name must be a string literal: simlint's metric-name-audit reads each
// row as the registration of its family (and flags any Get* call outside
// src/obs/). The list then generates the rest:
//
//   struct WidgetStats {
//     OFC_METRIC_FIELDS(OFC_WIDGET_METRICS)  // One zeroed field per view row.
//   };
//   struct Metrics {  // The component's cell pointers.
//     OFC_METRIC_CELLS(OFC_WIDGET_METRICS)
//   };
//
// OFC_METRIC_CELLS declares the rows' cell pointers plus
//   Bind(registry, label = "")  get-or-creates every row's cells under `label`;
//   CopyTo(view)                copies every view row's cell into the view.
// Hot paths bump `++*m_.field` through the cached pointer.
//
// Labels known only at run time (per function, per fault kind, per SLO) get a
// list of their own whose cells are bound once per label: directly
// (`cells.Bind(registry, slo_name)`) or on first use through
// obs::LabelledCells.
#define OFC_METRIC_FIELDS(LIST) LIST(OFC_METRIC_FIELD_)
#define OFC_METRIC_CELLS(LIST)                                                       \
  LIST(OFC_METRIC_CELL_)                                                             \
  void Bind(::ofc::obs::MetricsRegistry& registry, const std::string& label = "") { \
    LIST(OFC_METRIC_BIND_)                                                           \
  }                                                                                  \
  template <typename View>                                                           \
  void CopyTo(View& view) const {                                                    \
    LIST(OFC_METRIC_COPY_)                                                           \
  }

// Row expanders (implementation details of the two macros above), dispatched
// on the kind column.
#define OFC_METRIC_FIELD_(kind, field, name, ...) \
  OFC_METRIC_FIELD_##kind(field __VA_OPT__(, ) __VA_ARGS__)
#define OFC_METRIC_CELL_(kind, field, name, ...) \
  OFC_METRIC_CELL_##kind(field __VA_OPT__(, ) __VA_ARGS__)
#define OFC_METRIC_BIND_(kind, field, name, ...) \
  OFC_METRIC_BIND_##kind(field, name __VA_OPT__(, ) __VA_ARGS__)
#define OFC_METRIC_COPY_(kind, field, name, ...) \
  OFC_METRIC_COPY_##kind(field __VA_OPT__(, ) __VA_ARGS__)

#define OFC_METRIC_FIELD_COUNTER(field, ...) \
  OFC_METRIC_FIRST_(__VA_ARGS__ __VA_OPT__(, ) std::uint64_t) field = 0;
#define OFC_METRIC_FIELD_GAUGE(field, ...) __VA_OPT__(__VA_ARGS__ field = 0;)
#define OFC_METRIC_FIELD_SERIES(field, ...)
#define OFC_METRIC_FIELD_COUNTER_PER(field, ...)
#define OFC_METRIC_FIRST_(first, ...) first

#define OFC_METRIC_CELL_COUNTER(field, ...) ::ofc::obs::Counter* field = nullptr;
#define OFC_METRIC_CELL_GAUGE(field, ...) ::ofc::obs::Gauge* field = nullptr;
#define OFC_METRIC_CELL_SERIES(field, ...) ::ofc::obs::Series* field = nullptr;
#define OFC_METRIC_CELL_COUNTER_PER(field, labels) \
  ::ofc::obs::Counter* field[std::size(labels)] = {};

#define OFC_METRIC_BIND_COUNTER(field, name, ...) field = registry.GetCounter(name, label);
#define OFC_METRIC_BIND_GAUGE(field, name, ...) field = registry.GetGauge(name, label);
#define OFC_METRIC_BIND_SERIES(field, name, ...) field = registry.GetSeries(name, label);
#define OFC_METRIC_BIND_COUNTER_PER(field, name, labels) \
  for (std::size_t i = 0; i < std::size(labels); ++i) {  \
    field[i] = registry.GetCounter(name, labels[i]);     \
  }

#define OFC_METRIC_COPY_COUNTER(field, ...) OFC_METRIC_COPY_CELL_(field)
#define OFC_METRIC_COPY_GAUGE(field, ...) __VA_OPT__(OFC_METRIC_COPY_CELL_(field))
#define OFC_METRIC_COPY_SERIES(field, ...)
#define OFC_METRIC_COPY_COUNTER_PER(field, ...)
#define OFC_METRIC_COPY_CELL_(field) \
  view.field = static_cast<decltype(view.field)>(field->value());

#endif  // OFC_OBS_METRICS_H_
