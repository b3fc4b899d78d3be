// Fixture: docs-lockstep rule family, checked against the fixture
// catalog in tests/analyze_fixtures/lint/docs/OBSERVABILITY.md.
#include <string>

struct Tracer {
  void counter(const char*, const char*);
  void gauge(const char*, const char*);
  void histogram(const char*, const char*);
};

inline std::string dynamic_name() { return "nic.computed"; }
inline std::string host_probe(int, const char* name) { return name; }

inline void register_probes(Tracer* tracer) {
  tracer->gauge("nic.documented_probe", "bytes");        // documented: clean
  tracer->counter("nic.not_documented", "packets");      // line 16: docs-probe-undocumented
  tracer->histogram("nic.partial_hist_us", "us");        // line 17: derived .p50/.p99/.count undocumented
  tracer->histogram("nic.full_hist_us", "us");           // fully documented: clean
  tracer->gauge(dynamic_name().c_str(), "bytes");        // line 19: docs-probe-dynamic
  // hicc-lint: allow(docs-probe-undocumented) -- fixture demo
  tracer->counter("nic.waived_probe", "packets");
  // hicc-lint: allow(docs-probe-dynamic) -- names cataloged elsewhere
  tracer->gauge(dynamic_name().c_str(), "bytes");
  // host_probe(h, "name") registers the documented family host<h>.name.
  tracer->counter(host_probe(3, "nic.documented_per_host").c_str(),
                  "packets");                            // documented family: clean
  tracer->gauge(host_probe(3, "nic.not_per_host").c_str(),
                "bytes");                                // line 28: docs-probe-undocumented (host<h>. form)
  tracer->gauge(host_probe(3, dynamic_name().c_str()).c_str(),
                "bytes");                                // line 30: docs-probe-dynamic (computed inner name)
}
