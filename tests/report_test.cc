#include <gtest/gtest.h>

#include <regex>
#include <sstream>

#include "core/export.h"
#include "core/report.h"
#include "worldgen/adapter.h"

namespace govdns::core {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    worldgen::WorldConfig config;
    config.scale = 0.015;
    world_ = worldgen::BuildWorld(config).release();
    bound_ = new worldgen::BoundStudy(worldgen::MakeStudy(*world_));
    bound_->study->Run();
  }
  static void TearDownTestSuite() {
    delete bound_;
    delete world_;
  }
  static worldgen::World* world_;
  static worldgen::BoundStudy* bound_;
};

worldgen::World* ReportTest::world_ = nullptr;
worldgen::BoundStudy* ReportTest::bound_ = nullptr;

TEST_F(ReportTest, BuildReportAggregatesAllSections) {
  StudyReport report = BuildReport(*bound_->study, {"cn", "br"});
  EXPECT_EQ(report.selection.total, 193);
  ASSERT_EQ(report.pdns_per_year.size(), 10u);
  EXPECT_GT(report.pdns_per_year.back().domains,
            report.pdns_per_year.front().domains);
  EXPECT_GT(report.funnel.queried, 0);
  EXPECT_GT(report.replication.domains_considered, 0);
  ASSERT_EQ(report.diversity.size(), 3u);  // Total + 2 countries
  EXPECT_EQ(report.diversity[0].label, "Total");
  EXPECT_EQ(report.providers_first_year.year, 2011);
  EXPECT_EQ(report.providers_last_year.year, 2020);
  EXPECT_GT(report.delegations.domains_considered, 0);
  EXPECT_GT(report.consistency.comparable, 0);
}

TEST_F(ReportTest, ReportIsInternallyConsistent) {
  StudyReport report = BuildReport(*bound_->study, {});
  // The funnel narrows monotonically.
  EXPECT_GE(report.funnel.queried, report.funnel.parent_responded);
  EXPECT_GE(report.funnel.parent_responded, report.funnel.parent_has_records);
  EXPECT_GE(report.funnel.parent_has_records,
            report.funnel.child_authoritative);
  // Replication and delegation analyses agree on the denominator.
  EXPECT_EQ(report.replication.domains_considered,
            report.delegations.domains_considered);
  // Defects never exceed the domains considered.
  EXPECT_LE(report.delegations.partially_defective +
                report.delegations.fully_defective,
            report.delegations.domains_considered);
  // Comparable consistency domains are a subset of responsive domains.
  EXPECT_LE(report.consistency.comparable,
            report.funnel.parent_has_records);
}

// BuildReport runs its analyzers concurrently; each member must still be
// exactly what its analyzer returns when called on its own, the analyzer
// rows of profile[] must keep their names, items and order, and two builds
// must export the same bytes.
TEST_F(ReportTest, ConcurrentReportMatchesEachAnalyzer) {
  Study& study = *bound_->study;
  const MinedDataset& mined = study.mined();
  const ActiveDataset& active = study.active();
  const StudyInputs& inputs = study.inputs();
  const std::vector<std::string> countries = {"cn", "br"};
  const StudyReport report = BuildReport(study, countries);

  EXPECT_EQ(report.selection, study.selection_stats());
  EXPECT_EQ(report.pdns_per_year, CountPerYear(mined));
  EXPECT_EQ(report.domains_per_country,
            DomainsPerCountry(mined, inputs.countries));
  EXPECT_EQ(report.funnel, active.ComputeFunnel());
  EXPECT_EQ(report.replication, AnalyzeReplication(active));
  std::vector<LevelDiversityRow> by_level;
  EXPECT_EQ(report.diversity,
            AnalyzeDiversity(active, *inputs.asn_db, countries, &by_level));
  EXPECT_EQ(report.diversity_by_level, by_level);
  EXPECT_EQ(report.d1ns_churn, D1nsChurn(mined));
  EXPECT_EQ(report.private_share, PrivateShare(mined, study.seeds()));
  const ProviderMatcher matcher(DefaultProviderRules());
  const ProviderAnalyzer providers(&matcher, inputs.countries);
  EXPECT_EQ(report.providers_first_year,
            providers.Analyze(mined, mined.config.first_year));
  EXPECT_EQ(report.providers_last_year,
            providers.Analyze(mined, mined.config.last_year));
  EXPECT_EQ(report.delegations, AnalyzeDelegations(active));
  EXPECT_EQ(report.hijack,
            AnalyzeHijackRisk(active, *inputs.psl, *inputs.registrar));
  EXPECT_EQ(report.consistency, AnalyzeConsistency(active));
  EXPECT_EQ(report.resilience, BuildResilienceReport(active));
  EXPECT_EQ(report.quarantine, BuildQuarantineReport(active));

  // profile[]: the study's phases, then one row per analyzer in this order.
  const std::vector<obs::PhaseRecord> phases = study.profiler().records();
  const int64_t active_n = static_cast<int64_t>(active.results.size());
  const int64_t mined_n = static_cast<int64_t>(mined.domains.size());
  const std::vector<std::pair<std::string, int64_t>> analyzer_rows = {
      {"analyze.replication", active_n},  {"analyze.diversity", active_n},
      {"analyze.d1ns_churn", mined_n},    {"analyze.private_share", mined_n},
      {"analyze.providers", mined_n},     {"analyze.delegations", active_n},
      {"analyze.hijack", active_n},       {"analyze.consistency", active_n},
      {"analyze.resilience", active_n},   {"analyze.quarantine", active_n},
  };
  ASSERT_EQ(report.profile.size(), phases.size() + analyzer_rows.size());
  for (size_t i = 0; i < phases.size(); ++i) {
    EXPECT_EQ(report.profile[i].name, phases[i].name);
    EXPECT_EQ(report.profile[i].items, phases[i].items);
    EXPECT_EQ(report.profile[i].logical_ms, phases[i].logical_ms);
  }
  for (size_t i = 0; i < analyzer_rows.size(); ++i) {
    const obs::PhaseRecord& row = report.profile[phases.size() + i];
    EXPECT_EQ(row.name, analyzer_rows[i].first);
    EXPECT_EQ(row.items, analyzer_rows[i].second) << row.name;
    EXPECT_EQ(row.logical_ms, 0u) << row.name;
    EXPECT_GE(row.wall_ms, 0.0) << row.name;
  }

  const StudyReport again = BuildReport(study, countries);
  EXPECT_EQ(ExportReportJson(again), ExportReportJson(report));
  std::ostringstream text, text_again;
  PrintReport(report, text);
  PrintReport(again, text_again);
  EXPECT_EQ(text_again.str(), text.str());
}

// The heading of every paper artifact PrintReport renders.
const char* const kArtifactHeadings[] = {
    "Fig. 2 —",   "Fig. 3 —",  "Fig. 4 —",  "Fig. 6 —",
    "Fig. 7 —",   "Fig. 8 —",  "Fig. 9 —",  "Table I —",
    "By hierarchy level",      "Table II —",
    "Table III (2011) —",      "Table III (2020) —",
    "Fig. 10 —",  "Fig. 11 —", "Fig. 12 —", "Fig. 13 —",
    "§IV-D dangling-but-responsive",        "Fig. 14 —",
};

TEST_F(ReportTest, PrintReportMentionsEverySection) {
  StudyReport report = BuildReport(*bound_->study, {"cn"});
  std::ostringstream os;
  PrintReport(report, os);
  std::string text = os.str();
  for (const char* needle :
       {"selection:", "passive DNS:", "replication", "providers",
        "defective delegations", "parent/child consistency"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  for (const char* needle : kArtifactHeadings) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST_F(ReportTest, DiversityLevelRowsPartitionTheTotalRow) {
  StudyReport report = BuildReport(*bound_->study, {"cn"});
  ASSERT_FALSE(report.diversity_by_level.empty());
  int64_t domains = 0;
  int previous_level = 0;
  for (const LevelDiversityRow& row : report.diversity_by_level) {
    EXPECT_GT(row.level, previous_level);  // ascending, one row per level
    EXPECT_GT(row.domains, 0);
    EXPECT_GE(row.pct_multi_24, 0.0);
    EXPECT_LE(row.pct_multi_24, 1.0);
    previous_level = row.level;
    domains += row.domains;
  }
  EXPECT_EQ(domains, report.diversity[0].domains);
}

TEST_F(ReportTest, DomainsPerCountrySumToTheLastYear) {
  StudyReport report = BuildReport(*bound_->study, {});
  const YearlyCounts& last = report.pdns_per_year.back();
  ASSERT_EQ(static_cast<int64_t>(report.domains_per_country.size()),
            last.countries);
  int64_t domains = 0;
  for (size_t i = 0; i < report.domains_per_country.size(); ++i) {
    const CountryDomains& row = report.domains_per_country[i];
    EXPECT_GT(row.domains, 0);
    EXPECT_FALSE(row.name.empty());
    if (i > 0) {
      EXPECT_LE(row.domains, report.domains_per_country[i - 1].domains);
    }
    domains += row.domains;
  }
  EXPECT_EQ(domains, last.domains);
}

// Study::Run is the layer-by-layer sequence perfbench/study_main.cc drives
// (RunSelection, RunMining, RunActiveMeasurement, then BuildReport over
// Table I's countries), byte for byte, on a benign and on a hostile world.
TEST(StudyRunTest, RunMatchesTheLayerByLayerSequence) {
  PipelineOptions options;
  options.mining.workers = 2;
  options.measurement.workers = 2;
  for (const bool hostile : {false, true}) {
    worldgen::WorldConfig config;
    config.scale = 0.01;
    if (hostile) config.chaos = simnet::ChaosProfile::Hostile();

    auto world = worldgen::BuildWorld(config);
    worldgen::BoundStudy layered = worldgen::MakeStudy(*world);
    layered.study->RunSelection();
    layered.study->RunMining(options.mining);
    layered.study->RunActiveMeasurement(options.measurement);
    const std::string expected = ExportReportJson(BuildReport(
        *layered.study, layered.study->inputs().diversity_countries));

    auto fresh = worldgen::BuildWorld(config);
    worldgen::BoundStudy whole = worldgen::MakeStudy(*fresh);
    EXPECT_EQ(ExportReportJson(whole.study->Run(options)), expected)
        << (hostile ? "hostile" : "benign");
  }
}

// A scale-0 world has 192 domains, one per country with data, no d_1NS and
// no available d_ns, so the empty paths of Figs. 8, 11, 12 and 14 and of
// Table III run.
TEST(ReportEmptyWorldTest, PrintReportRendersEverySectionWithoutNanOrInf) {
  worldgen::WorldConfig config;
  config.scale = 0.0;
  auto world = worldgen::BuildWorld(config);
  worldgen::BoundStudy bound = worldgen::MakeStudy(*world);
  const StudyReport report = bound.study->Run();
  EXPECT_EQ(report.replication.d1ns_count, 0);
  EXPECT_EQ(report.hijack.available_ns_domains, 0);
  std::ostringstream os;
  PrintReport(report, os);
  const std::string text = os.str();
  for (const char* needle : kArtifactHeadings) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
  EXPECT_FALSE(std::regex_search(text, std::regex(R"(\b(nan|inf)\b)")))
      << text;
}

}  // namespace
}  // namespace govdns::core
