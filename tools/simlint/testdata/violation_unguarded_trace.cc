// Fixture: unguarded-trace rule (lexed, never compiled). Under a src/ label,
// emits on trace/flight receivers need the lifecycle stream's guard
// (FlightOn() / active()) within the preceding lines.
#include <string>

struct Recorder {
  bool on = false;
  std::string last;
  bool IsOn() const { return on; }
  void Instant(const std::string& name) { last = name; }
  void Span(const std::string& name) { last = name; }
  void Record(const std::string& name) { last = name; }
};

struct Component {
  void Unguarded() {
    trace_->Instant("bad");  // line 17: unguarded-trace
    log_.Record("fine");     // non-recorder receiver: no finding
    int x = 0;
    x += 1;
    x += 2;
    x += 3;
    x += 4;
    x += 5;
    x += 6;
    x += 7;
    x += 8;
    (void)x;
    flight_->Record("bad");  // line 29: unguarded-trace
  }

  void Guarded() {
    if (flight_->enabled()) {
      flight_->Record("bad");  // line 34: ring-only guard skips the trace sink
    }
    if (flight_ != nullptr && flight_->active()) {
      flight_->Record("ok");  // guarded: the stream's active() one line up
    }
    if (FlightOn()) {
      flight_->Record("ok");  // guarded: FlightOn() one line up
    }
  }

  bool FlightOn() const { return flight_ != nullptr && flight_->active(); }

  Recorder* trace_ = nullptr;
  Recorder* flight_ = nullptr;
  Recorder log_;
};
