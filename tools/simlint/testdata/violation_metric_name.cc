// Fixture: metric-name-audit (file-local half) — family names in Get* calls and
// counter-list rows must be string literals matching `ofc.<component>.<name>`
// with lower_snake segments. Lint under a src/ label (component code only).
struct Registry {
  int* GetCounter(const char* name, const char* label = nullptr);
  int* GetGauge(const char* name);
  int* GetSeries(const char* name);
};

void Register(Registry& reg, const char* dynamic) {
  reg.GetCounter("ofc.proxy.cache_hits");  // clean
  reg.GetCounter("proxy.cache_hits");      // line 12: missing ofc. prefix
  reg.GetGauge("ofc.Proxy.cacheHits");     // line 13: not lower_snake
  reg.GetSeries("ofc.proxy");              // line 14: two segments, not three
  reg.GetCounter(dynamic);                 // line 15: non-literal name
}

#define OFC_FIXTURE_COUNTERS(X)                                  \
  X(hits, "ofc.fixture.hits") /* clean */                        \
  X(misses, "fixture.misses") /* line 20: missing ofc. prefix */ \
  X(spills, kSpillName)       /* line 21: non-literal name */
