#include "core/report.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <iterator>

#include "util/json.h"
#include "util/pool.h"
#include "util/stats.h"
#include "util/strings.h"
#include "util/table.h"

namespace govdns::core {

ResilienceReport BuildResilienceReport(const ActiveDataset& dataset) {
  ResilienceReport report;
  report.domains = static_cast<int64_t>(dataset.results.size());
  for (const MeasurementResult& r : dataset.results) {
    if (r.degraded) ++report.degraded_domains;
    report.totals += r.query_stats;
    report.max_queries_one_domain =
        std::max(report.max_queries_one_domain, r.query_stats.queries);
    report.total_logical_ms += r.logical_ms;
    report.max_logical_ms_one_domain =
        std::max(report.max_logical_ms_one_domain, r.logical_ms);
  }
  if (report.domains > 0) {
    report.avg_queries_per_domain =
        double(report.totals.queries) / double(report.domains);
  }
  return report;
}

std::string ResilienceReport::ToJson() const {
  util::JsonWriter w;
  w.BeginObject()
      .Kv("domains", domains)
      .Kv("degraded_domains", degraded_domains)
      .Kv("queries", int64_t(totals.queries))
      .Kv("retries", int64_t(totals.retries))
      .Kv("timeouts", int64_t(totals.timeouts))
      .Kv("unreachable", int64_t(totals.unreachable))
      .Kv("refused", int64_t(totals.refused))
      .Kv("malformed", int64_t(totals.malformed))
      .Kv("wrong_id", int64_t(totals.wrong_id))
      .Kv("truncated", int64_t(totals.truncated))
      .Kv("backoff_ms", int64_t(totals.backoff_ms))
      .Kv("breaker_skips", int64_t(totals.breaker_skips))
      .Kv("negative_cache_hits", int64_t(totals.negative_cache_hits))
      .Kv("budget_denied", int64_t(totals.budget_denied))
      .Kv("deadline_denied", int64_t(totals.deadline_denied))
      .Kv("max_queries_one_domain", int64_t(max_queries_one_domain))
      .Kv("avg_queries_per_domain", avg_queries_per_domain)
      .Kv("total_logical_ms", int64_t(total_logical_ms))
      .Kv("max_logical_ms_one_domain", int64_t(max_logical_ms_one_domain))
      .EndObject();
  return w.TakeString();
}

QuarantineReport BuildQuarantineReport(const ActiveDataset& dataset) {
  QuarantineReport report;
  report.total_domains = static_cast<int64_t>(dataset.results.size());
  // Per-country tallies, indexed like dataset.metas (+1 slot for unknown).
  std::vector<QuarantineReport::CountryRow> rows(dataset.metas.size() + 1);
  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const int c = dataset.country[i];
    const size_t slot = (c >= 0 && static_cast<size_t>(c) < dataset.metas.size())
                            ? static_cast<size_t>(c)
                            : dataset.metas.size();
    ++rows[slot].domains;
    const QuarantineReason reason = dataset.results[i].quarantine_reason;
    if (reason == QuarantineReason::kNone) continue;
    ++report.quarantined;
    ++rows[slot].quarantined;
    switch (reason) {
      case QuarantineReason::kNone:
        break;
      case QuarantineReason::kHang:
        ++report.hang;
        break;
      case QuarantineReason::kBlackhole:
        ++report.blackhole;
        break;
      case QuarantineReason::kBudgetExceeded:
        ++report.budget_exceeded;
        break;
      case QuarantineReason::kWatchdogCancelled:
        ++report.watchdog_cancelled;
        break;
      case QuarantineReason::kVantageLost:
        ++report.vantage_lost;
        break;
    }
  }
  for (size_t slot = 0; slot < rows.size(); ++slot) {
    if (rows[slot].quarantined == 0) continue;
    rows[slot].code = slot < dataset.metas.size() ? dataset.metas[slot].code
                                                  : std::string("??");
    report.by_country.push_back(std::move(rows[slot]));
  }
  if (report.total_domains > 0) {
    report.coverage = double(report.total_domains - report.quarantined) /
                      double(report.total_domains);
  }
  return report;
}

std::vector<CountryDomains> DomainsPerCountry(
    const MinedDataset& dataset, const std::vector<CountryMeta>& countries) {
  const int y = dataset.config.last_year - dataset.config.first_year;
  std::vector<int64_t> counts(countries.size(), 0);
  for (size_t d = 0; d < dataset.domains.size(); ++d) {
    const int country = dataset.domains[d].country;
    if (country < 0 || static_cast<size_t>(country) >= countries.size()) {
      continue;
    }
    if (dataset.HasData(d, y)) ++counts[country];
  }
  std::vector<std::pair<int64_t, size_t>> ranked;  // (domains, country)
  for (size_t c = 0; c < counts.size(); ++c) {
    if (counts[c] > 0) ranked.emplace_back(counts[c], c);
  }
  std::sort(ranked.rbegin(), ranked.rend());
  std::vector<CountryDomains> rows;
  rows.reserve(ranked.size());
  for (const auto& [n, c] : ranked) rows.push_back({countries[c].name, n});
  return rows;
}

StudyReport BuildReport(Study& study,
                        const std::vector<std::string>& diversity_countries) {
  GOVDNS_CHECK(study.has_mined() && study.has_active());
  const MinedDataset& mined = study.mined();
  const ActiveDataset& active = study.active();
  const StudyInputs& inputs = study.inputs();
  StudyReport report;
  report.selection = study.selection_stats();

  // The analyzer rows of profile[], in their fixed order. Analyzers run over
  // in-memory datasets, with no transport, so logical time is structurally
  // zero; `items` is the dataset each analyzer consumes, and wall_ms
  // (diagnostic) is filled in after the tasks join.
  const int64_t active_n = static_cast<int64_t>(active.results.size());
  const int64_t mined_n = static_cast<int64_t>(mined.domains.size());
  std::vector<obs::PhaseRecord> rows = {
      {"analyze.replication", active_n},  {"analyze.diversity", active_n},
      {"analyze.d1ns_churn", mined_n},    {"analyze.private_share", mined_n},
      {"analyze.providers", mined_n},     {"analyze.delegations", active_n},
      {"analyze.hijack", active_n},       {"analyze.consistency", active_n},
      {"analyze.resilience", active_n},   {"analyze.quarantine", active_n},
  };

  static const ProviderMatcher kMatcher(DefaultProviderRules());
  const ProviderAnalyzer providers(&kMatcher, inputs.countries);

  // The analyzers are independent passes over the same finished datasets,
  // so each runs as one task on the pool. A task writes only its own
  // members of `report` and reads only immutable inputs (asn_db, psl and
  // registrar each have one reader), so no two tasks share anything
  // mutable. Listed longest first, the order they are handed out in; the
  // provider tables are split by year, the longest analyzer halved. `row`
  // names the profile row the task's wall time adds to.
  struct Task {
    const char* row;  // nullptr: no row
    std::function<void()> run;
    double wall_ms = 0.0;
  };
  std::vector<Task> tasks = {
      {"analyze.diversity",
       [&] {
         report.diversity =
             AnalyzeDiversity(active, *inputs.asn_db, diversity_countries,
                              &report.diversity_by_level);
       }},
      {"analyze.providers",
       [&] {
         report.providers_last_year =
             providers.Analyze(mined, mined.config.last_year);
       }},
      {"analyze.hijack",
       [&] {
         report.hijack =
             AnalyzeHijackRisk(active, *inputs.psl, *inputs.registrar);
       }},
      {"analyze.private_share",
       [&] { report.private_share = PrivateShare(mined, study.seeds()); }},
      {"analyze.consistency",
       [&] { report.consistency = AnalyzeConsistency(active); }},
      {"analyze.providers",
       [&] {
         report.providers_first_year =
             providers.Analyze(mined, mined.config.first_year);
       }},
      {"analyze.replication",
       [&] { report.replication = AnalyzeReplication(active); }},
      {nullptr,
       [&] {
         report.pdns_per_year = CountPerYear(mined);
         report.domains_per_country =
             DomainsPerCountry(mined, inputs.countries);
         report.funnel = active.ComputeFunnel();
       }},
      {"analyze.d1ns_churn", [&] { report.d1ns_churn = D1nsChurn(mined); }},
      {"analyze.delegations",
       [&] { report.delegations = AnalyzeDelegations(active); }},
      {"analyze.resilience",
       [&] { report.resilience = BuildResilienceReport(active); }},
      {"analyze.quarantine",
       [&] { report.quarantine = BuildQuarantineReport(active); }},
  };
  std::atomic<size_t> next{0};
  util::RunOnPool(util::PoolWorkers(0, tasks.size()), [&](int) {
    for (;;) {
      const size_t t = next.fetch_add(1, std::memory_order_relaxed);
      if (t >= tasks.size()) break;
      const auto start = std::chrono::steady_clock::now();
      tasks[t].run();
      tasks[t].wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();
    }
  });

  // After the join, in the fixed row order: which task finished first never
  // reaches the report.
  for (const Task& task : tasks) {
    if (task.row == nullptr) continue;
    const auto row =
        std::find_if(rows.begin(), rows.end(), [&](const obs::PhaseRecord& r) {
          return r.name == task.row;
        });
    GOVDNS_CHECK(row != rows.end());
    row->wall_ms += task.wall_ms;
  }
  report.profile = study.profiler().records();
  report.profile.insert(report.profile.end(),
                        std::make_move_iterator(rows.begin()),
                        std::make_move_iterator(rows.end()));
  return report;
}

// The print helpers rank countries with std::stable_sort: ties keep the
// country-list order, so the rendered bytes (and the committed
// bench_output.txt) do not depend on the standard library's sort.
namespace {

using util::Percent;
using util::TextTable;
using util::WithCommas;

// num / den as a percentage, "-" without a denominator.
std::string Share(int64_t num, int64_t den) {
  return den > 0 ? Percent(double(num) / double(den)) : "-";
}

std::string Usd(double price) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", price);
  return buf;
}

const char* ConsistencyClassName(ConsistencyClass c) {
  switch (c) {
    case ConsistencyClass::kEqual: return "P = C";
    case ConsistencyClass::kChildSuperset: return "P subset of C";
    case ConsistencyClass::kParentSuperset: return "C subset of P";
    case ConsistencyClass::kOverlapNeither: return "overlap, neither";
    case ConsistencyClass::kDisjointSharedIp: return "disjoint, shared IPs";
    case ConsistencyClass::kDisjoint: return "disjoint";
    case ConsistencyClass::kNotComparable: return "not comparable";
  }
  return "?";
}

// Figs. 2-4.
void PrintPassiveDns(const StudyReport& report, std::ostream& os) {
  TextTable fig2({"Year", "Domains", "Countries"});
  TextTable fig3({"Year", "Nameserver hostnames"});
  for (const YearlyCounts& row : report.pdns_per_year) {
    fig2.AddRow({std::to_string(row.year), WithCommas(row.domains),
                 std::to_string(row.countries)});
    fig3.AddRow({std::to_string(row.year), WithCommas(row.nameservers)});
  }
  os << "\nFig. 2 — domains and countries with NS data in PDNS\n"
     << "(paper: 113.5k -> 192.6k domains, dip 2019->2020)\n";
  fig2.Print(os);
  os << "\nFig. 3 — distinct nameserver hostnames in PDNS per year\n";
  fig3.Print(os);

  const std::vector<CountryDomains>& ranked = report.domains_per_country;
  const int year = report.pdns_per_year.back().year;
  TextTable fig4({"Rank", "Country", "Domains (" + std::to_string(year) + ")"});
  for (size_t i = 0; i < ranked.size() && i < 20; ++i) {
    fig4.AddRow({std::to_string(i + 1), ranked[i].name,
                 WithCommas(ranked[i].domains)});
  }
  os << "\nFig. 4 — domains per country in PDNS, " << year << " (top 20 of "
     << ranked.size() << ")\n";
  fig4.Print(os);
  // The distribution's spread (the figure is a log-scale scatter).
  if (!ranked.empty()) {
    os << "countries with data: " << ranked.size()
       << "; min=" << ranked.back().domains
       << " median=" << ranked[ranked.size() / 2].domains
       << " max=" << ranked.front().domains << "\n";
  }
}

// Figs. 6-9 and Table I.
void PrintReplication(const StudyReport& report, std::ostream& os) {
  TextTable fig6({"Year", "d_1NS", "overlap w/ 2011", "new vs prev year",
                  "2011 cohort gone"});
  for (const D1nsChurnRow& row : report.d1ns_churn) {
    fig6.AddRow({std::to_string(row.year), WithCommas(row.d1ns_total),
                 Percent(row.pct_overlap_2011), Percent(row.pct_new_vs_prev),
                 Percent(row.pct_2011_cohort_gone)});
  }
  os << "\nFig. 6 — d_1NS churn (paper: overlap falls to 21% by 2020;"
        " 14-23% new per year)\n";
  fig6.Print(os);

  TextTable fig7({"Year", "d_1NS private", "all domains private"});
  for (const PrivateShareRow& row : report.private_share) {
    fig7.AddRow({std::to_string(row.year), Percent(row.pct_d1ns_private),
                 Percent(row.pct_all_private)});
  }
  os << "\nFig. 7 — private ADNS deployment share per year\n"
     << "(paper: d_1NS > 71% every year; all domains < 34%)\n";
  fig7.Print(os);

  const ReplicationSummary& rep = report.replication;
  os << "\nFig. 8 — stale d_1NS (no authoritative response)\n"
     << "overall: " << Percent(rep.d1ns_stale_pct) << " of " << rep.d1ns_count
     << " d_1NS   (paper: 60.1%)\n";
  auto stale = rep.by_country;
  std::stable_sort(stale.begin(), stale.end(),
                   [](const auto& a, const auto& b) {
                     return a.d1ns_stale > b.d1ns_stale;
                   });
  TextTable fig8({"Country", "d_1NS", "stale", "stale %"});
  int shown = 0;
  for (const ReplicationSummary::CountryRow& row : stale) {
    if (row.d1ns < 3) continue;  // skip tiny denominators
    fig8.AddRow({row.code, std::to_string(row.d1ns),
                 std::to_string(row.d1ns_stale),
                 Share(row.d1ns_stale, row.d1ns)});
    if (++shown >= 15) break;
  }
  fig8.Print(os);

  TextTable fig9({"#ADNS", "CDF"});
  for (const auto& [count, cdf] : rep.ns_count_cdf) {
    fig9.AddRow({std::to_string(count), Percent(cdf, 2)});
  }
  os << "\nFig. 9 — CDF of the number of ADNS per domain\n"
     << "domains considered: " << WithCommas(rep.domains_considered)
     << ";  >=2 nameservers: " << Percent(rep.pct_at_least_two)
     << " (paper: 98.4%)\n";
  fig9.Print(os);

  TextTable table1({"", "Domains", "|IP|>1", "|/24|>1", "|ASN|>1"});
  for (const DiversityRow& row : report.diversity) {
    table1.AddRow({row.label, WithCommas(row.domains),
                   Percent(row.pct_multi_ip), Percent(row.pct_multi_24),
                   Percent(row.pct_multi_asn)});
  }
  os << "\nTable I — NS address diversity of multi-NS domains\n"
     << "(paper Total: 89.8% / 71.5% / 32.9%)\n";
  table1.Print(os);
  TextTable levels({"DNS level", "Domains", "|/24|>1"});
  for (const LevelDiversityRow& row : report.diversity_by_level) {
    levels.AddRow({std::to_string(row.level), WithCommas(row.domains),
                   Percent(row.pct_multi_24)});
  }
  os << "\nBy hierarchy level (paper: 87.1% at level 2, <80% below)\n";
  levels.Print(os);
}

// Tables II and III.
void PrintProviders(const StudyReport& report, std::ostream& os) {
  const ProviderYearTable& a = report.providers_first_year;
  const ProviderYearTable& b = report.providers_last_year;
  const std::string ya = std::to_string(a.year).substr(2);
  const std::string yb = std::to_string(b.year).substr(2);
  TextTable table2({"Provider", "Domains'" + ya, "d_1P'" + ya, "Groups'" + ya,
                    "Domains'" + yb, "d_1P'" + yb, "Groups'" + yb});
  for (size_t i = 0; i < b.rows.size() && i < a.rows.size(); ++i) {
    if (!b.rows[i].major) continue;
    const ProviderYearRow& ra = a.rows[i];
    const ProviderYearRow& rb = b.rows[i];
    table2.AddRow(
        {rb.display,
         WithCommas(ra.domains) + " (" + Share(ra.domains, a.total_domains) +
             ")",
         WithCommas(ra.d1p),
         std::to_string(ra.groups) + "/" + std::to_string(a.total_groups),
         WithCommas(rb.domains) + " (" + Share(rb.domains, b.total_domains) +
             ")",
         WithCommas(rb.d1p),
         std::to_string(rb.groups) + "/" + std::to_string(b.total_groups)});
  }
  os << "\nTable II — major-provider usage, " << a.year << " vs " << b.year
     << "\n(paper: Amazon 5 -> 5,193; Cloudflare 12 -> 4,136; "
        "Azure 0 -> 1,574)\n";
  table2.Print(os);

  for (const ProviderYearTable* t : {&a, &b}) {
    TextTable table3({"Provider", "Domains", "Groups", "Countries"});
    for (const ProviderYearRow& row :
         ProviderAnalyzer::TopByCountries(*t, 11)) {
      if (row.countries == 0) continue;
      table3.AddRow(
          {row.group_key,
           WithCommas(row.domains) + " (" +
               Share(row.domains, t->total_domains) + ")",
           std::to_string(row.groups) + "/" + std::to_string(t->total_groups),
           std::to_string(row.countries)});
    }
    os << "\nTable III (" << t->year
       << ") — top providers by countries served\n";
    table3.Print(os);
    os << "max countries on any single provider: "
       << ProviderAnalyzer::MaxCountriesAnyProvider(*t) << "\n";
  }
  os << "(paper: 52 countries in 2011 -> 85 in 2020, +60%)\n";
}

// Figs. 10-12.
void PrintDefects(const StudyReport& report, std::ostream& os) {
  const DelegationSummary& del = report.delegations;
  const int64_t n = del.domains_considered;
  os << "\nFig. 10 — defective delegations\n"
     << "domains considered: " << WithCommas(n) << "\n"
     << "partially defective: " << Share(del.partially_defective, n)
     << " (paper: 25.4%)\n"
     << "fully defective:     " << Share(del.fully_defective, n) << "\n"
     << "any defect:          "
     << Share(del.partially_defective + del.fully_defective, n)
     << " (paper: 29.5%)\n";
  auto defective = del.by_country;
  std::stable_sort(defective.begin(), defective.end(),
                   [](const auto& a, const auto& b) {
                     return a.partial + a.full > b.partial + b.full;
                   });
  TextTable fig10(
      {"Country", "Domains", "Partial", "Full", "Partial %", "Full %"});
  for (size_t i = 0; i < defective.size() && i < 20; ++i) {
    const DelegationSummary::CountryRow& row = defective[i];
    fig10.AddRow({row.code, WithCommas(row.domains), WithCommas(row.partial),
                  WithCommas(row.full), Share(row.partial, row.domains),
                  Share(row.full, row.domains)});
  }
  os << "\ntop-20 countries by defective delegations (Fig. 10a/b)\n";
  fig10.Print(os);

  const HijackSummary& hijack = report.hijack;
  os << "\nFig. 11 — available nameserver domains in defective delegations\n"
     << "available d_ns: " << hijack.available_ns_domains << " (paper: 805)\n"
     << "affected government domains: " << hijack.affected_domains
     << " (paper: 1,121)\n"
     << "affected countries: " << hijack.affected_countries
     << " (paper: 49)\n"
     << "d_ns shared across countries: " << hijack.multi_country_ns_domains
     << " (paper: 2)\n";
  auto affected = hijack.by_country;
  std::stable_sort(affected.begin(), affected.end(),
                   [](const auto& a, const auto& b) {
                     return a.affected_domains > b.affected_domains;
                   });
  TextTable fig11({"Country", "Affected domains", "Available d_ns"});
  for (size_t i = 0; i < affected.size() && i < 20; ++i) {
    fig11.AddRow({affected[i].code, WithCommas(affected[i].affected_domains),
                  WithCommas(affected[i].available_ns_domains)});
  }
  fig11.Print(os);

  os << "\nFig. 12 — registration cost of available d_ns\n";
  if (hijack.prices_usd.empty()) {
    os << "no available d_ns found (world too small?)\n";
    return;
  }
  auto prices = hijack.prices_usd;
  std::sort(prices.begin(), prices.end());
  os << "n=" << prices.size() << "  min=" << Usd(prices.front())
     << "  median=" << Usd(util::Median(prices))
     << "  max=" << Usd(prices.back())
     << " USD (paper: 0.01 / 11.99 / 20,000)\n";
  TextTable fig12({"Percentile", "Price (USD)"});
  for (double p : {0.05, 0.25, 0.50, 0.75, 0.90, 0.95, 0.99}) {
    fig12.AddRow({Percent(p, 0), Usd(util::Percentile(prices, p))});
  }
  fig12.Print(os);
}

// Figs. 13-14 and §IV-D.
void PrintConsistency(const StudyReport& report, std::ostream& os) {
  const ConsistencySummary& con = report.consistency;
  os << "\nFig. 13 — parent/child zone consistency\n"
     << "comparable domains: " << WithCommas(con.comparable)
     << ";  P = C: " << Percent(con.pct_equal) << " (paper: 76.8%)\n";
  TextTable fig13({"Class", "Domains", "Share"});
  for (const auto& [klass, count] : con.counts) {
    fig13.AddRow({ConsistencyClassName(klass), WithCommas(count),
                  Share(count, con.comparable)});
  }
  fig13.Print(os);
  TextTable levels({"DNS level", "Comparable", "P = C"});
  for (const auto& [level, pair] : con.by_level) {
    levels.AddRow({std::to_string(level), WithCommas(pair.second),
                   Share(pair.first, pair.second)});
  }
  os << "\nconsistency by hierarchy level (paper: 93.5% at level 2)\n";
  levels.Print(os);
  os << "\nP != C domains with a partial defect: "
     << Percent(con.pct_disagree_with_partial_defect) << " (paper: 40.9%)\n";

  const HijackSummary& hijack = report.hijack;
  os << "\n§IV-D dangling-but-responsive: " << hijack.dangling_available_ns
     << " available d_ns, " << hijack.dangling_domains << " domains, "
     << hijack.dangling_countries
     << " countries (paper: 13 / 26 / 7)\n";
  if (!hijack.dangling_prices_usd.empty()) {
    os << "min price: "
       << Usd(*std::min_element(hijack.dangling_prices_usd.begin(),
                                hijack.dangling_prices_usd.end()))
       << " USD (paper: 300)\n";
  }

  std::vector<double> rates;
  for (const ConsistencySummary::CountryRow& row : con.by_country) {
    if (row.comparable >= 5) {
      rates.push_back(double(row.disagree) / double(row.comparable));
    }
  }
  os << "\nFig. 14 — disagreement rate per d_gov (countries with >=5 "
        "comparable domains: "
     << rates.size() << ")\n";
  if (rates.empty()) return;
  TextTable fig14({"Percentile", "Disagreement rate"});
  for (double p : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    fig14.AddRow({Percent(p, 0), Percent(util::Percentile(rates, p))});
  }
  fig14.Print(os);
  auto ranked = con.by_country;
  auto rate = [](const ConsistencySummary::CountryRow& row) {
    return row.comparable ? double(row.disagree) / row.comparable : 0.0;
  };
  std::stable_sort(ranked.begin(), ranked.end(),
                   [&](const auto& a, const auto& b) {
                     return rate(a) > rate(b);
                   });
  TextTable top({"Country", "Comparable", "Disagree", "Rate"});
  int shown = 0;
  for (const ConsistencySummary::CountryRow& row : ranked) {
    if (row.comparable < 5) continue;
    top.AddRow({row.code, WithCommas(row.comparable),
                WithCommas(row.disagree), Share(row.disagree, row.comparable)});
    if (++shown >= 15) break;
  }
  os << "\nhighest-disagreement countries\n";
  top.Print(os);
}

}  // namespace

void PrintReport(const StudyReport& report, std::ostream& os) {
  os << "== government DNS study report ==\n\n";
  os << "selection: " << report.selection.total << " countries, "
     << report.selection.broken_links << " dead portal links, "
     << report.selection.squatted_links << " squatted, "
     << report.selection.registered_domain_fallbacks
     << " registered-domain fallbacks\n";

  const auto& first = report.pdns_per_year.front();
  const auto& last = report.pdns_per_year.back();
  os << "passive DNS: " << WithCommas(first.domains) << " domains ("
     << first.year << ") -> " << WithCommas(last.domains) << " (" << last.year
     << ")\n";
  os << "active: " << WithCommas(report.funnel.queried) << " queried, "
     << WithCommas(report.funnel.parent_responded) << " parent responses, "
     << WithCommas(report.funnel.parent_has_records) << " with records\n";

  os << "\n-- passive DNS --\n";
  PrintPassiveDns(report, os);
  os << "\n-- replication --\n";
  PrintReplication(report, os);
  os << "\n-- providers --\n";
  PrintProviders(report, os);
  os << "\n-- defective delegations --\n";
  PrintDefects(report, os);
  os << "\n-- parent/child consistency --\n";
  PrintConsistency(report, os);

  const ResilienceReport& res = report.resilience;
  char avg[32];
  std::snprintf(avg, sizeof(avg), "%.1f", res.avg_queries_per_domain);
  os << "\n-- measurement resilience --\n";
  os << WithCommas(int64_t(res.totals.queries)) << " queries over "
     << WithCommas(res.domains) << " domains (avg " << avg << ", max "
     << WithCommas(int64_t(res.max_queries_one_domain)) << "); "
     << WithCommas(int64_t(res.totals.retries)) << " retries, "
     << WithCommas(int64_t(res.totals.timeouts)) << " timeouts, "
     << WithCommas(int64_t(res.totals.refused)) << " refused, "
     << WithCommas(int64_t(res.totals.malformed + res.totals.wrong_id +
                           res.totals.truncated))
     << " malformed/spoofed/truncated\n";
  os << "breaker skips: " << WithCommas(int64_t(res.totals.breaker_skips))
     << ", negative-cache hits: "
     << WithCommas(int64_t(res.totals.negative_cache_hits))
     << ", degraded domains: " << WithCommas(res.degraded_domains) << "\n";
  os << "logical time: " << WithCommas(int64_t(res.total_logical_ms))
     << " ms summed over domains (max "
     << WithCommas(int64_t(res.max_logical_ms_one_domain))
     << " ms for one domain)\n";

  const QuarantineReport& q = report.quarantine;
  if (q.quarantined > 0) {
    // Coverage annotations: only rendered for degraded runs, so a healthy
    // report reads exactly as it did before the degradation model existed.
    os << "\n-- degraded coverage --\n";
    os << "quarantined: " << WithCommas(q.quarantined) << " of "
       << WithCommas(q.total_domains) << " domains (coverage "
       << Percent(q.coverage) << "): " << WithCommas(q.hang) << " hang, "
       << WithCommas(q.blackhole) << " blackhole, "
       << WithCommas(q.budget_exceeded) << " budget-exceeded, "
       << WithCommas(q.watchdog_cancelled) << " watchdog-cancelled";
    if (q.vantage_lost > 0) {
      os << ", " << WithCommas(q.vantage_lost) << " vantage-lost";
    }
    os << "\n";
    for (const QuarantineReport::CountryRow& row : q.by_country) {
      os << "  " << row.code << ": " << WithCommas(row.quarantined) << " of "
         << WithCommas(row.domains) << " quarantined\n";
    }
  }

  if (!report.profile.empty()) {
    // Logical/item columns only: wall_ms is diagnostic and would make this
    // rendering differ between two same-seed runs.
    os << "\n-- phase profile --\n";
    for (const obs::PhaseRecord& r : report.profile) {
      os << r.name << ": " << WithCommas(r.items) << " items";
      if (r.logical_ms > 0) {
        os << ", " << WithCommas(int64_t(r.logical_ms)) << " logical ms";
      }
      os << "\n";
    }
  }
}

}  // namespace govdns::core
