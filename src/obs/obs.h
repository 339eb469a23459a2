// Aggregate observability context threaded through the pipeline.
//
// One Observability instance spans a study run: the measurer folds worker
// shards into `metrics`, per-domain traces into `traces`, and the shared cut
// cache logs publishes into `cut_log`. Phases are not recorded here: the
// Study's PhaseProfiler feeds the report's profile[], and BuildReport
// appends one row per analyzer, timed by its own pool tasks.
// Everything is optional — components take a nullable Observability* and
// skip all instrumentation work when it is absent, so the uninstrumented
// hot path costs one pointer test.
#pragma once

#include "obs/metrics.h"
#include "obs/trace.h"

namespace govdns::obs {

struct ObservabilityConfig {
  TraceConfig trace;
};

class Observability {
 public:
  explicit Observability(ObservabilityConfig config = ObservabilityConfig())
      : traces_(config.trace) {}

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  TraceRing& traces() { return traces_; }
  const TraceRing& traces() const { return traces_; }
  CutTraceLog& cut_log() { return cut_log_; }
  const CutTraceLog& cut_log() const { return cut_log_; }

 private:
  MetricsRegistry metrics_;
  TraceRing traces_;
  CutTraceLog cut_log_;
};

}  // namespace govdns::obs
