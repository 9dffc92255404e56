// Fixture: metric-name-audit (file-local half) — component code registers
// metrics only through metric-list rows, and each row's family name must be a
// string literal matching `ofc.<component>.<name>` with lower_snake segments.
// Lint under a src/ label outside src/obs/ (component code only).
struct Registry {
  int* GetCounter(const char* name, const char* label = nullptr);
  int* GetGauge(const char* name);
  int* GetSeries(const char* name);
};

void Register(Registry& reg) {
  reg.GetCounter("ofc.proxy.cache_hits");  // line 12: Get* outside src/obs/
  reg.GetGauge("ofc.proxy.depth");         // line 13: Get* outside src/obs/
  reg.GetSeries("ofc.proxy.read_ms");      // line 14: Get* outside src/obs/
}

#define OFC_FIXTURE_METRICS(X)                                             \
  X(COUNTER, hits, "ofc.fixture.hits") /* clean */                          \
  X(GAUGE, depth, "ofc.fixture.depth") /* clean */                          \
  X(SERIES, wait_ms, "ofc.fixture.wait_ms") /* clean */                     \
  X(COUNTER_PER, drops, "ofc.fixture.drops", kReasons) /* clean */          \
  X(COUNTER, misses, "fixture.misses") /* line 22: missing ofc. prefix */   \
  X(GAUGE, level, "ofc.Fixture.level") /* line 23: not lower_snake */       \
  X(SERIES, lat_ms, "ofc.fixture") /* line 24: two segments, not three */   \
  X(COUNTER, spills, kSpillName) /* line 25: non-literal name */            \
  X(spills, "ofc.fixture.spills") /* line 26: no kind column */
