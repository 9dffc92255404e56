// Pass-through decorators of the two seams the platform exposes
// (faas::DataService and faas::PlatformHooks), plus the in-memory span
// recorder they report to.
//
// Untraced, a decorator forwards every call unchanged; the only extra work is
// a status check on data-plane callbacks, which counts failed operations.
// Traced, each forwarded call is a span (layer name, host start/end, parent
// span, request id) and each data-plane callback records its simulated
// issue-to-callback time. Neither mode changes what the wrapped component
// sees, so simulated behaviour is identical with tracing on or off.
#ifndef OFC_PERFBENCH_SEAMS_H_
#define OFC_PERFBENCH_SEAMS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/faas/platform.h"
#include "src/sim/event_loop.h"

namespace ofc::perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// Span names: one per traced boundary. A span's layer is its name up to the
// last '.'.
enum class SpanName : std::uint8_t {
  kLoop,            // sim: one EventLoop::RunUntil call of the run phase.
  kInvoke,          // faas: Platform::Invoke / InvokePipeline.
  kDataCallback,    // faas: platform continuation run from a data callback.
  kPredictor,       // core.predictor: SizeInvocation.
  kRouting,         // core.routing: PickSandbox / PickWorkerForNewSandbox.
  kCacheAgent,      // core.cache_agent: OnSandboxMemoryChange / TryRaiseMemory.
  kTrainer,         // core.trainer: OnInvocationComplete.
  kProxyRead,       // core.proxy: Read (OFC data plane).
  kProxyWrite,      // core.proxy: Write.
  kProxyPipeline,   // core.proxy: OnPipelineComplete.
  kDirectRead,      // store.direct: Read (baseline data plane, straight to RSDS).
  kDirectWrite,     // store.direct: Write.
  kCount,
};

inline const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kLoop: return "sim.loop";
    case SpanName::kInvoke: return "faas.invoke";
    case SpanName::kDataCallback: return "faas.data_callback";
    case SpanName::kPredictor: return "core.predictor.size";
    case SpanName::kRouting: return "core.routing.pick";
    case SpanName::kCacheAgent: return "core.cache_agent.memory";
    case SpanName::kTrainer: return "core.trainer.complete";
    case SpanName::kProxyRead: return "core.proxy.read";
    case SpanName::kProxyWrite: return "core.proxy.write";
    case SpanName::kProxyPipeline: return "core.proxy.pipeline_complete";
    case SpanName::kDirectRead: return "store.direct.read";
    case SpanName::kDirectWrite: return "store.direct.write";
    case SpanName::kCount: break;
  }
  return "?";
}

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t request = 0;  // Invocation or pipeline id; 0 when unknown.
  std::int32_t parent = -1;   // Index into the span vector; -1 for roots.
  SpanName name = SpanName::kLoop;
};

// Single-threaded span recorder. Spans nest strictly (every seam call is
// synchronous), so the open span is the parent of the next one.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) {
      spans_.reserve(1 << 20);
    }
  }
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  // Opens a span; `request` 0 inherits the parent's request id.
  std::int32_t Begin(SpanName name, std::uint64_t request) {
    Span span;
    span.name = name;
    span.parent = open_;
    span.request = request != 0 || open_ < 0
                       ? request
                       : spans_[static_cast<std::size_t>(open_)].request;
    spans_.push_back(span);
    open_ = static_cast<std::int32_t>(spans_.size() - 1);
    spans_.back().start_ns = NowNs();
    return open_;
  }
  void End(std::int32_t index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.end_ns = NowNs();
    open_ = span.parent;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanName name, std::uint64_t request)
      : tracer_(tracer->enabled() ? tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) {
      tracer_->End(index_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::int32_t index_;
};

// Data-plane operation counts; the failure counts feed data_op_ok_ratio, the
// simulated latencies (traced runs only) the data.* latency metrics.
struct DataOpStats {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t read_failures = 0;
  std::uint64_t write_failures = 0;
  std::vector<double> read_sim_ms;
  std::vector<double> write_sim_ms;
};

inline std::uint64_t RequestOf(const faas::InvocationContext& ctx) {
  return ctx.pipeline_id != 0 ? ctx.pipeline_id : ctx.invocation_id;
}

class TracedDataService : public faas::DataService {
 public:
  // `ofc` selects the span names: the OFC proxy or the baseline direct store.
  TracedDataService(faas::DataService* inner, bool ofc, sim::EventLoop* loop, Tracer* tracer)
      : inner_(inner),
        loop_(loop),
        tracer_(tracer),
        read_span_(ofc ? SpanName::kProxyRead : SpanName::kDirectRead),
        write_span_(ofc ? SpanName::kProxyWrite : SpanName::kDirectWrite) {}

  const DataOpStats& stats() const { return stats_; }

  void Read(const faas::InvocationContext& ctx, const std::string& key,
            std::function<void(Result<Bytes>)> done) override {
    ++stats_.reads;
    ScopedSpan span(tracer_, read_span_, RequestOf(ctx));
    if (!tracer_->enabled()) {
      inner_->Read(ctx, key, [this, done = std::move(done)](Result<Bytes> size) {
        stats_.read_failures += size.ok() ? 0 : 1;
        done(std::move(size));
      });
      return;
    }
    const SimTime issued = loop_->now();
    const std::uint64_t request = RequestOf(ctx);
    inner_->Read(ctx, key, [this, issued, request, done = std::move(done)](Result<Bytes> size) {
      stats_.read_failures += size.ok() ? 0 : 1;
      stats_.read_sim_ms.push_back(ToMillis(loop_->now() - issued));
      ScopedSpan callback(tracer_, SpanName::kDataCallback, request);
      done(std::move(size));
    });
  }

  void Write(const faas::InvocationContext& ctx, const std::string& key, Bytes size,
             const workloads::MediaDescriptor& media,
             std::function<void(Status)> done) override {
    ++stats_.writes;
    ScopedSpan span(tracer_, write_span_, RequestOf(ctx));
    if (!tracer_->enabled()) {
      inner_->Write(ctx, key, size, media, [this, done = std::move(done)](Status status) {
        stats_.write_failures += status.ok() ? 0 : 1;
        done(std::move(status));
      });
      return;
    }
    const SimTime issued = loop_->now();
    const std::uint64_t request = RequestOf(ctx);
    inner_->Write(ctx, key, size, media,
                  [this, issued, request, done = std::move(done)](Status status) {
                    stats_.write_failures += status.ok() ? 0 : 1;
                    stats_.write_sim_ms.push_back(ToMillis(loop_->now() - issued));
                    ScopedSpan callback(tracer_, SpanName::kDataCallback, request);
                    done(std::move(status));
                  });
  }

  void OnPipelineComplete(std::uint64_t pipeline_id) override {
    ScopedSpan span(tracer_, SpanName::kProxyPipeline, pipeline_id);
    inner_->OnPipelineComplete(pipeline_id);
  }

 private:
  static double ToMillis(SimDuration d) { return static_cast<double>(d) / 1000.0; }

  faas::DataService* inner_;
  sim::EventLoop* loop_;
  Tracer* tracer_;
  SpanName read_span_;
  SpanName write_span_;
  DataOpStats stats_;
};

class TracedHooks : public faas::PlatformHooks {
 public:
  // `on_trainer_done` (traced runs only) samples state after each completion
  // report, e.g. the function's training-set size.
  TracedHooks(faas::PlatformHooks* inner, Tracer* tracer,
              std::function<void(const faas::FunctionConfig&)> on_trainer_done)
      : inner_(inner), tracer_(tracer), on_trainer_done_(std::move(on_trainer_done)) {}

  Sizing SizeInvocation(const faas::FunctionConfig& fn,
                        const std::vector<faas::InputObject>& inputs,
                        const std::vector<double>& args) override {
    ScopedSpan span(tracer_, SpanName::kPredictor, 0);
    return inner_->SizeInvocation(fn, inputs, args);
  }
  std::size_t PickSandbox(const std::vector<faas::SandboxInfo>& candidates, Bytes wanted_limit,
                          const std::vector<faas::InputObject>& inputs) override {
    ScopedSpan span(tracer_, SpanName::kRouting, 0);
    return inner_->PickSandbox(candidates, wanted_limit, inputs);
  }
  int PickWorkerForNewSandbox(const faas::FunctionConfig& fn,
                              const std::vector<faas::InputObject>& inputs,
                              const std::vector<int>& candidates) override {
    ScopedSpan span(tracer_, SpanName::kRouting, 0);
    return inner_->PickWorkerForNewSandbox(fn, inputs, candidates);
  }
  void OnSandboxMemoryChange(const faas::SandboxMemoryEvent& event) override {
    ScopedSpan span(tracer_, SpanName::kCacheAgent, 0);
    inner_->OnSandboxMemoryChange(event);
  }
  bool TryRaiseMemory(int worker, Bytes current_limit, Bytes needed,
                      SimDuration expected_compute) override {
    ScopedSpan span(tracer_, SpanName::kCacheAgent, 0);
    return inner_->TryRaiseMemory(worker, current_limit, needed, expected_compute);
  }
  void OnInvocationComplete(const faas::FunctionConfig& fn,
                            const std::vector<faas::InputObject>& inputs,
                            const std::vector<double>& args,
                            const faas::InvocationRecord& record) override {
    {
      ScopedSpan span(tracer_, SpanName::kTrainer, record.id);
      inner_->OnInvocationComplete(fn, inputs, args, record);
    }
    if (tracer_->enabled() && on_trainer_done_) {
      on_trainer_done_(fn);
    }
  }

 private:
  faas::PlatformHooks* inner_;
  Tracer* tracer_;
  std::function<void(const faas::FunctionConfig&)> on_trainer_done_;
};

}  // namespace ofc::perfbench

#endif  // OFC_PERFBENCH_SEAMS_H_
