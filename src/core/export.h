// Machine-readable export of study results.
//
// ExportReportJson turns a StudyReport into one JSON document carrying the
// figure/table series the paper reports; downstream tooling (plots,
// dashboards, regression tracking) consumes this instead of scraping the
// text tables. Two series are text-only, rendered by PrintReport and absent
// from the JSON: Fig. 4's per-country domain counts and Table I's
// per-level rows. ExportMetricsJson/Csv and ExportTraceJson serialize the
// observability layer (DESIGN.md §6d): metrics snapshots, sampled query
// traces, and the shared-cut publish log.
#pragma once

#include <string>

#include "core/report.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace govdns::core {

// The complete report as a single JSON object. Stable key layout:
//   selection{}, pdns_per_year[], funnel{}, replication{}, diversity[],
//   d1ns_churn[], private_share[], providers{first_year,last_year}[],
//   delegations{by_country[]}, hijack{}, consistency{}, resilience{},
//   profile[].
// profile[] rows carry {name, items, logical_ms} only — wall time is
// diagnostic and never enters this document, keeping it byte-stable for a
// given seed.
std::string ExportReportJson(const StudyReport& report);

// A metrics snapshot as {counters[], gauges[], histograms[]}, each row
// tagged with its determinism class. With include_diagnostic = false the
// document contains only kStable series and is byte-identical across
// worker counts for the same seed.
std::string ExportMetricsJson(const obs::MetricsSnapshot& snapshot);

// The same snapshot flattened to CSV rows:
//   kind,name,determinism,count,sum,min,max
// (counters/gauges use count=value and leave sum/min/max empty).
std::string ExportMetricsCsv(const obs::MetricsSnapshot& snapshot);

// Sampled domain traces plus the shared-cut publish log as one JSON
// document: {config{}, folded_domains, domains[], cut_log[]}. Events carry
// logical timestamps only, so the document is byte-identical across worker
// counts for the same seed.
std::string ExportTraceJson(const obs::TraceRing& traces,
                            const obs::CutTraceLog& cut_log);

// One analysis table as CSV (matching the report's tables): selector is
// one of "pdns_per_year", "d1ns_churn", "private_share", "diversity",
// "delegations_by_country", "hijack_by_country", "consistency_by_country".
// A known selector always yields at least its header row, even for an
// empty report; unknown selectors return an empty string.
std::string ExportCsv(const StudyReport& report, const std::string& table);

}  // namespace govdns::core
