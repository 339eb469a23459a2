#include "core/export.h"

#include <sstream>

#include "util/json.h"

namespace govdns::core {

namespace {

const char* DeterminismName(obs::Determinism det) {
  return det == obs::Determinism::kStable ? "stable" : "diagnostic";
}

void WriteProviderTable(util::JsonWriter& json, const ProviderYearTable& t) {
  json.BeginObject();
  json.Kv("year", t.year);
  json.Kv("total_domains", t.total_domains);
  json.Kv("total_groups", t.total_groups);
  json.Key("rows").BeginArray();
  for (const auto& row : t.rows) {
    if (row.domains == 0) continue;
    json.BeginObject();
    json.Kv("provider", row.group_key);
    json.Kv("domains", row.domains);
    json.Kv("d1p", row.d1p);
    json.Kv("groups", row.groups);
    json.Kv("countries", row.countries);
    json.Kv("major", row.major);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

void WriteQuarantine(util::JsonWriter& json, const QuarantineReport& quar) {
  json.BeginObject();
  json.Kv("total_domains", quar.total_domains);
  json.Kv("quarantined", quar.quarantined);
  json.Kv("hang", quar.hang);
  json.Kv("blackhole", quar.blackhole);
  json.Kv("budget_exceeded", quar.budget_exceeded);
  json.Kv("watchdog_cancelled", quar.watchdog_cancelled);
  json.Kv("vantage_lost", quar.vantage_lost);
  json.Kv("coverage", quar.coverage);
  json.Key("by_country").BeginArray();
  for (const QuarantineReport::CountryRow& row : quar.by_country) {
    json.BeginObject();
    json.Kv("code", row.code);
    json.Kv("domains", row.domains);
    json.Kv("quarantined", row.quarantined);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
}

}  // namespace

std::string ExportReportJson(const StudyReport& report) {
  util::JsonWriter json;
  json.BeginObject();

  json.Key("selection").BeginObject();
  json.Kv("countries", report.selection.total);
  json.Kv("broken_links", report.selection.broken_links);
  json.Kv("squatted_links", report.selection.squatted_links);
  json.Kv("msq_fallbacks", report.selection.msq_fallbacks);
  json.Kv("registered_domain_fallbacks",
          report.selection.registered_domain_fallbacks);
  json.EndObject();

  json.Key("pdns_per_year").BeginArray();
  for (const auto& row : report.pdns_per_year) {
    json.BeginObject();
    json.Kv("year", row.year);
    json.Kv("domains", row.domains);
    json.Kv("countries", row.countries);
    json.Kv("nameservers", row.nameservers);
    json.EndObject();
  }
  json.EndArray();

  json.Key("funnel").BeginObject();
  json.Kv("queried", report.funnel.queried);
  json.Kv("parent_responded", report.funnel.parent_responded);
  json.Kv("parent_has_records", report.funnel.parent_has_records);
  json.Kv("child_authoritative", report.funnel.child_authoritative);
  json.EndObject();

  json.Key("replication").BeginObject();
  json.Kv("domains_considered", report.replication.domains_considered);
  json.Kv("pct_at_least_two", report.replication.pct_at_least_two);
  json.Kv("d1ns_count", report.replication.d1ns_count);
  json.Kv("d1ns_stale_pct", report.replication.d1ns_stale_pct);
  json.Key("ns_count_cdf").BeginArray();
  for (const auto& [count, cdf] : report.replication.ns_count_cdf) {
    json.BeginObject();
    json.Kv("ns", count);
    json.Kv("cdf", cdf);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  json.Key("diversity").BeginArray();
  for (const auto& row : report.diversity) {
    json.BeginObject();
    json.Kv("label", row.label);
    json.Kv("domains", row.domains);
    json.Kv("pct_multi_ip", row.pct_multi_ip);
    json.Kv("pct_multi_24", row.pct_multi_24);
    json.Kv("pct_multi_asn", row.pct_multi_asn);
    json.EndObject();
  }
  json.EndArray();

  json.Key("d1ns_churn").BeginArray();
  for (const auto& row : report.d1ns_churn) {
    json.BeginObject();
    json.Kv("year", row.year);
    json.Kv("d1ns", row.d1ns_total);
    json.Kv("pct_overlap_2011", row.pct_overlap_2011);
    json.Kv("pct_new_vs_prev", row.pct_new_vs_prev);
    json.Kv("pct_2011_cohort_gone", row.pct_2011_cohort_gone);
    json.EndObject();
  }
  json.EndArray();

  json.Key("private_share").BeginArray();
  for (const auto& row : report.private_share) {
    json.BeginObject();
    json.Kv("year", row.year);
    json.Kv("pct_d1ns_private", row.pct_d1ns_private);
    json.Kv("pct_all_private", row.pct_all_private);
    json.EndObject();
  }
  json.EndArray();

  json.Key("providers").BeginObject();
  json.Key("first_year");
  WriteProviderTable(json, report.providers_first_year);
  json.Key("last_year");
  WriteProviderTable(json, report.providers_last_year);
  json.EndObject();

  json.Key("delegations").BeginObject();
  json.Kv("domains_considered", report.delegations.domains_considered);
  json.Kv("partially_defective", report.delegations.partially_defective);
  json.Kv("fully_defective", report.delegations.fully_defective);
  json.Key("by_country").BeginArray();
  for (const auto& row : report.delegations.by_country) {
    json.BeginObject();
    json.Kv("country", row.code);
    json.Kv("domains", row.domains);
    json.Kv("partial", row.partial);
    json.Kv("full", row.full);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  json.Key("hijack").BeginObject();
  json.Kv("candidate_ns_domains", report.hijack.candidate_ns_domains);
  json.Kv("available_ns_domains", report.hijack.available_ns_domains);
  json.Kv("affected_domains", report.hijack.affected_domains);
  json.Kv("affected_countries", report.hijack.affected_countries);
  json.Kv("multi_country_ns_domains", report.hijack.multi_country_ns_domains);
  json.Kv("dangling_available_ns", report.hijack.dangling_available_ns);
  json.Kv("dangling_domains", report.hijack.dangling_domains);
  json.Kv("dangling_countries", report.hijack.dangling_countries);
  json.Key("prices_usd").BeginArray();
  for (double p : report.hijack.prices_usd) json.Double(p);
  json.EndArray();
  json.EndObject();

  json.Key("consistency").BeginObject();
  json.Kv("comparable", report.consistency.comparable);
  json.Kv("pct_equal", report.consistency.pct_equal);
  json.Kv("pct_disagree_with_partial_defect",
          report.consistency.pct_disagree_with_partial_defect);
  json.Key("classes").BeginObject();
  for (const auto& [klass, count] : report.consistency.counts) {
    switch (klass) {
      case ConsistencyClass::kEqual:
        json.Kv("equal", count);
        break;
      case ConsistencyClass::kChildSuperset:
        json.Kv("child_superset", count);
        break;
      case ConsistencyClass::kParentSuperset:
        json.Kv("parent_superset", count);
        break;
      case ConsistencyClass::kOverlapNeither:
        json.Kv("overlap_neither", count);
        break;
      case ConsistencyClass::kDisjointSharedIp:
        json.Kv("disjoint_shared_ip", count);
        break;
      case ConsistencyClass::kDisjoint:
        json.Kv("disjoint", count);
        break;
      case ConsistencyClass::kNotComparable:
        break;
    }
  }
  json.EndObject();
  json.EndObject();

  const ResilienceReport& res = report.resilience;
  json.Key("resilience").BeginObject();
  json.Kv("domains", res.domains);
  json.Kv("degraded_domains", res.degraded_domains);
  json.Kv("queries", int64_t(res.totals.queries));
  json.Kv("retries", int64_t(res.totals.retries));
  json.Kv("timeouts", int64_t(res.totals.timeouts));
  json.Kv("breaker_skips", int64_t(res.totals.breaker_skips));
  json.Kv("negative_cache_hits", int64_t(res.totals.negative_cache_hits));
  json.Kv("budget_denied", int64_t(res.totals.budget_denied));
  json.Kv("deadline_denied", int64_t(res.totals.deadline_denied));
  json.Kv("max_queries_one_domain", int64_t(res.max_queries_one_domain));
  json.Kv("avg_queries_per_domain", res.avg_queries_per_domain);
  json.Kv("total_logical_ms", int64_t(res.total_logical_ms));
  json.Kv("max_logical_ms_one_domain",
          int64_t(res.max_logical_ms_one_domain));
  json.EndObject();

  json.Key("quarantine");
  WriteQuarantine(json, report.quarantine);

  json.Key("profile").BeginArray();
  for (const obs::PhaseRecord& r : report.profile) {
    json.BeginObject();
    json.Kv("name", r.name);
    json.Kv("items", r.items);
    json.Kv("logical_ms", int64_t(r.logical_ms));
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  return json.TakeString();
}

std::string ExportQuarantineJson(const QuarantineReport& quarantine) {
  util::JsonWriter json;
  WriteQuarantine(json, quarantine);
  return json.TakeString();
}

std::string ExportMetricsJson(const obs::MetricsSnapshot& snapshot) {
  util::JsonWriter json;
  json.BeginObject();

  json.Key("counters").BeginArray();
  for (const auto& c : snapshot.counters) {
    json.BeginObject();
    json.Kv("name", c.name);
    json.Key("value").Uint(c.value);
    json.Kv("determinism", DeterminismName(c.determinism));
    json.EndObject();
  }
  json.EndArray();

  json.Key("gauges").BeginArray();
  for (const auto& g : snapshot.gauges) {
    json.BeginObject();
    json.Kv("name", g.name);
    json.Kv("value", g.value);
    json.Kv("determinism", DeterminismName(g.determinism));
    json.EndObject();
  }
  json.EndArray();

  json.Key("histograms").BeginArray();
  for (const auto& h : snapshot.histograms) {
    json.BeginObject();
    json.Kv("name", h.name);
    json.Kv("determinism", DeterminismName(h.determinism));
    json.Key("count").Uint(h.data.count);
    json.Key("sum").Uint(h.data.sum);
    json.Key("min").Uint(h.data.count > 0 ? h.data.min : 0);
    json.Key("max").Uint(h.data.max);
    // Trailing empty buckets are elided; index i counts values with
    // bit_width i (bucket 0 = zeros).
    int last = obs::HistogramData::kBuckets;
    while (last > 0 && h.data.buckets[last - 1] == 0) --last;
    json.Key("buckets").BeginArray();
    for (int i = 0; i < last; ++i) json.Uint(h.data.buckets[i]);
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  return json.TakeString();
}

std::string ExportMetricsCsv(const obs::MetricsSnapshot& snapshot) {
  std::ostringstream os;
  os << "kind,name,determinism,count,sum,min,max\n";
  for (const auto& c : snapshot.counters) {
    os << "counter," << c.name << ',' << DeterminismName(c.determinism) << ','
       << c.value << ",,,\n";
  }
  for (const auto& g : snapshot.gauges) {
    os << "gauge," << g.name << ',' << DeterminismName(g.determinism) << ','
       << g.value << ",,,\n";
  }
  for (const auto& h : snapshot.histograms) {
    os << "histogram," << h.name << ',' << DeterminismName(h.determinism)
       << ',' << h.data.count << ',' << h.data.sum << ','
       << (h.data.count > 0 ? h.data.min : 0) << ',' << h.data.max << '\n';
  }
  return os.str();
}

std::string ExportTraceJson(const obs::TraceRing& traces,
                            const obs::CutTraceLog& cut_log) {
  util::JsonWriter json;
  json.BeginObject();

  json.Key("config").BeginObject();
  json.Key("sample_period").Uint(traces.config().sample_period);
  json.Key("max_domains").Uint(traces.config().max_domains);
  json.Key("max_events_per_domain").Uint(traces.config().max_events_per_domain);
  json.EndObject();

  json.Key("folded_domains").Uint(traces.folded_total());

  json.Key("domains").BeginArray();
  for (const obs::DomainTrace* trace : traces.Entries()) {
    json.BeginObject();
    json.Kv("domain", trace->domain());
    json.Key("dropped").Uint(trace->dropped());
    json.Key("events").BeginArray();
    for (const obs::TraceEvent& e : trace->events()) {
      json.BeginObject();
      json.Kv("kind", obs::TraceEventKindName(e.kind));
      json.Key("at_ms").Uint(e.at_ms);
      if (e.server != 0) json.Key("server").Uint(e.server);
      if (e.aux != 0) json.Kv("aux", int(e.aux));
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();

  json.Key("cut_log").BeginArray();
  for (const obs::CutTraceLog::Entry& entry : cut_log.Snapshot()) {
    json.BeginObject();
    json.Kv("zone", entry.zone);
    json.Kv("reachable", entry.reachable);
    json.Key("ns").Uint(entry.ns_count);
    json.Key("addrs").Uint(entry.addr_count);
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  return json.TakeString();
}

std::string ExportCsv(const StudyReport& report, const std::string& table) {
  std::ostringstream os;
  if (table == "pdns_per_year") {
    os << "year,domains,countries,nameservers\n";
    for (const auto& row : report.pdns_per_year) {
      os << row.year << ',' << row.domains << ',' << row.countries << ','
         << row.nameservers << '\n';
    }
  } else if (table == "d1ns_churn") {
    os << "year,d1ns,pct_overlap_2011,pct_new_vs_prev,pct_2011_cohort_gone\n";
    for (const auto& row : report.d1ns_churn) {
      os << row.year << ',' << row.d1ns_total << ',' << row.pct_overlap_2011
         << ',' << row.pct_new_vs_prev << ',' << row.pct_2011_cohort_gone
         << '\n';
    }
  } else if (table == "private_share") {
    os << "year,pct_d1ns_private,pct_all_private\n";
    for (const auto& row : report.private_share) {
      os << row.year << ',' << row.pct_d1ns_private << ','
         << row.pct_all_private << '\n';
    }
  } else if (table == "diversity") {
    os << "label,domains,pct_multi_ip,pct_multi_24,pct_multi_asn\n";
    for (const auto& row : report.diversity) {
      os << row.label << ',' << row.domains << ',' << row.pct_multi_ip << ','
         << row.pct_multi_24 << ',' << row.pct_multi_asn << '\n';
    }
  } else if (table == "delegations_by_country") {
    os << "country,domains,partial,full\n";
    for (const auto& row : report.delegations.by_country) {
      os << row.code << ',' << row.domains << ',' << row.partial << ','
         << row.full << '\n';
    }
  } else if (table == "hijack_by_country") {
    os << "country,affected_domains,available_ns_domains\n";
    for (const auto& row : report.hijack.by_country) {
      os << row.code << ',' << row.affected_domains << ','
         << row.available_ns_domains << '\n';
    }
  } else if (table == "consistency_by_country") {
    os << "country,comparable,disagree\n";
    for (const auto& row : report.consistency.by_country) {
      os << row.code << ',' << row.comparable << ',' << row.disagree << '\n';
    }
  }
  return os.str();
}

}  // namespace govdns::core
