#include "src/obs/flight_recorder.h"

#include <utility>

#include "src/obs/export_util.h"

namespace ofc::obs {

namespace {

// Expands "$s"/"$d" in a row's name pattern to the record's subject/detail.
std::string TraceName(const char* pattern, const std::string& subject, const std::string& detail) {
  std::string name;
  for (const char* p = pattern; *p != '\0'; ++p) {
    if (p[0] == '$' && (p[1] == 's' || p[1] == 'd')) {
      name += p[1] == 's' ? subject : detail;
      ++p;
    } else {
      name += *p;
    }
  }
  return name;
}

}  // namespace

void FlightRecorder::set_capacity(std::size_t n) {
  options_.capacity = n == 0 ? 1 : n;
  if (ring_.size() <= options_.capacity && start_ == 0) {
    return;  // Still growing in append order; nothing to rearrange.
  }
  // Linearize the newest `capacity` records into a fresh buffer.
  const std::size_t keep = ring_.size() < options_.capacity ? ring_.size() : options_.capacity;
  std::vector<FlightEvent> linear;
  linear.reserve(keep);
  for (std::size_t i = ring_.size() - keep; i < ring_.size(); ++i) {
    linear.push_back(std::move(ring_[(start_ + i) % ring_.size()]));
  }
  ring_ = std::move(linear);
  start_ = 0;
}

void FlightRecorder::Record(SimTime time, FlightEventKind kind, std::uint64_t invocation_id,
                            std::uint64_t parent_id, std::int32_t worker, std::string subject,
                            std::string detail, SimDuration duration) {
  const FlightKindSpec& spec = FlightKind(kind);
  if (trace_ != nullptr && spec.trace.shape != kNoTrace) {
    DrawTrace(spec.trace, time, invocation_id, parent_id, worker, subject, detail, duration);
  }
  if (!options_.enabled || !spec.ring) {
    return;
  }
  FlightEvent* ev;
  if (ring_.size() < options_.capacity) {
    if (ring_.size() == ring_.capacity()) {
      // Grow geometrically but never past the ring bound, so the buffer ends
      // at exactly `capacity` slots with no overshoot to trim.
      std::size_t want = ring_.capacity() == 0 ? 16 : ring_.capacity() * 2;
      ring_.reserve(want < options_.capacity ? want : options_.capacity);
    }
    ev = &ring_.emplace_back();
  } else {
    ev = &ring_[start_];  // Overwrite the oldest record in place.
    start_ = (start_ + 1) % ring_.size();
  }
  ev->seq = next_seq_++;
  ev->time = time;
  ev->kind = kind;
  ev->invocation_id = invocation_id;
  ev->parent_id = parent_id;
  ev->worker = worker;
  ev->subject = std::move(subject);
  ev->detail = std::move(detail);
}

void FlightRecorder::DrawTrace(const TraceRendering& row, SimTime time,
                               std::uint64_t invocation_id, std::uint64_t parent_id,
                               std::int32_t worker, const std::string& subject,
                               const std::string& detail, SimDuration duration) {
  std::uint64_t tid = 0;  // kTidZero.
  if (row.tid == kTidInvocation) {
    tid = invocation_id;
  } else if (row.tid == kTidParent) {
    tid = parent_id;
  } else if (row.tid == kTidWorker) {
    tid = static_cast<std::uint64_t>(worker);
  }
  const bool by_id = row.tid == kTidInvocation || row.tid == kTidParent;
  if (!(by_id ? trace_->Sampled(tid) : trace_->enabled())) {
    return;
  }
  TraceRecorder::Args args;
  if (row.worker_arg[0] != '\0') {
    args.emplace_back(row.worker_arg, std::to_string(worker));
  }
  if (row.subject_arg[0] != '\0') {
    args.emplace_back(row.subject_arg, subject);
  }
  if (row.detail_arg[0] != '\0') {
    args.emplace_back(row.detail_arg, detail);
  }
  const std::string name = TraceName(row.name, subject, detail);
  if (row.shape == kInstant) {
    trace_->Instant(name, row.category, time, row.pid, tid, std::move(args));
  } else {
    const SimTime start = row.shape == kSpanTo ? time - duration : time;
    trace_->Span(name, row.category, start, duration, row.pid, tid, std::move(args));
  }
}

std::vector<const FlightEvent*> FlightRecorder::ChainFor(std::uint64_t invocation_id) const {
  std::vector<const FlightEvent*> chain;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const FlightEvent& ev = at(i);
    if (ev.invocation_id == invocation_id ||
        (ev.parent_id == invocation_id && ev.parent_id != 0)) {
      chain.push_back(&ev);
    }
  }
  return chain;
}

std::string FlightRecorder::ToJson(const std::string& reason) const {
  std::string out = "{";
  if (!reason.empty()) {
    out += "\"reason\": \"" + JsonEscape(reason) + "\", ";
  }
  out += "\"total_recorded\": " + std::to_string(next_seq_);
  out += ", \"evicted\": " + std::to_string(evicted());
  out += ", \"events\": [";
  bool first = true;
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    const FlightEvent& ev = at(i);
    if (!first) {
      out += ",";
    }
    first = false;
    out += "\n{\"seq\": " + std::to_string(ev.seq);
    out += ", \"t_us\": " + std::to_string(ev.time);
    out += ", \"kind\": \"";
    out += FlightEventKindName(ev.kind);
    out += "\"";
    if (ev.invocation_id != 0) {
      out += ", \"inv\": " + std::to_string(ev.invocation_id);
    }
    if (ev.parent_id != 0) {
      out += ", \"parent\": " + std::to_string(ev.parent_id);
    }
    if (ev.worker >= 0) {
      out += ", \"worker\": " + std::to_string(ev.worker);
    }
    if (!ev.subject.empty()) {
      out += ", \"subject\": \"" + JsonEscape(ev.subject) + "\"";
    }
    if (!ev.detail.empty()) {
      out += ", \"detail\": \"" + JsonEscape(ev.detail) + "\"";
    }
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

bool FlightRecorder::WriteJson(const std::string& path, const std::string& reason) const {
  return WriteTextFile(path, ToJson(reason));
}

void FlightRecorder::Clear() {
  ring_.clear();  // Keeps the buffer: a cleared recorder is about to refill.
  start_ = 0;
  next_seq_ = 0;
}

}  // namespace ofc::obs
