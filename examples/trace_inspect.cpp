// Inspects a Chrome/Perfetto trace produced by the observability layer
// (obs::WriteChromeTraceFile over a ServiceOptions::trace recorder, or
// bench_service_throughput --trace): prints per-lane utilization, the per-job
// queued / waiting-budget / executing / publishing breakdown, and the
// longest node executions (critical-path suspects).
//
//   trace_inspect <trace.json> [--check]
//
// With --check, exits nonzero unless the trace contains at least one
// span in each phase a service run must emit (job, budget, plan, node,
// publish) — the CI bench-smoke validation that a traced run actually
// reconstructs end to end.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/trace.h"

int main(int argc, char** argv) {
  const char* path = nullptr;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (path == nullptr) {
      path = argv[i];
    } else {
      std::fprintf(stderr, "usage: %s <trace.json> [--check]\n", argv[0]);
      return 2;
    }
  }
  if (path == nullptr) {
    std::fprintf(stderr, "usage: %s <trace.json> [--check]\n", argv[0]);
    return 2;
  }

  std::vector<sc::obs::TraceEvent> events;
  std::string error;
  if (!sc::obs::LoadChromeTraceFile(path, &events, &error)) {
    std::fprintf(stderr, "trace_inspect: cannot load %s: %s\n", path,
                 error.c_str());
    return 1;
  }

  const sc::obs::TraceAnalysis analysis = sc::obs::AnalyzeTrace(events);
  std::fputs(sc::obs::FormatTraceAnalysis(analysis).c_str(), stdout);

  if (check) {
    // A complete service trace has at least one span per phase.
    const char* required[] = {"job", "budget", "plan", "node", "publish"};
    bool ok = true;
    for (const char* category : required) {
      const auto it = analysis.category_counts.find(category);
      if (it == analysis.category_counts.end() || it->second <= 0) {
        std::fprintf(stderr,
                     "trace_inspect: check FAILED: no \"%s\" events\n",
                     category);
        ok = false;
      }
    }
    if (!ok) return 1;
    std::printf("check OK: all required phases present\n");
  }
  return 0;
}
