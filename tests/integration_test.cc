// End-to-end integration: generate a world, run the whole measurement
// pipeline against it through the network only, and check that the
// analyses recover the planted ground truth within sampling tolerances.
#include <gtest/gtest.h>

#include "core/analysis.h"
#include "core/providers.h"
#include "core/report.h"
#include "worldgen/adapter.h"

namespace govdns {
namespace {

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    worldgen::WorldConfig config;
    config.scale = 0.04;
    world_ = worldgen::BuildWorld(config).release();
    bound_ = new worldgen::BoundStudy(worldgen::MakeStudy(*world_));
    bound_->study->Run();
  }
  static void TearDownTestSuite() {
    delete bound_;
    delete world_;
  }

  static core::Study& study() { return *bound_->study; }
  static worldgen::World* world_;
  static worldgen::BoundStudy* bound_;
};

worldgen::World* IntegrationTest::world_ = nullptr;
worldgen::BoundStudy* IntegrationTest::bound_ = nullptr;

TEST_F(IntegrationTest, MiningRecoversPlantedDomains) {
  // Every mined 2020 domain exists in ground truth, and the 2020 count is
  // close to the number of planted domains visible that year.
  const auto& dataset = study().mined();
  int64_t truth_2020 = 0;
  for (const auto& d : world_->domains()) {
    if (d.Alive(util::DayFromYmd(2020, 7, 1))) ++truth_2020;
  }
  auto counts = core::CountPerYear(dataset);
  double measured = static_cast<double>(counts.back().domains);
  EXPECT_GT(measured, truth_2020 * 0.9);
  EXPECT_LT(measured, truth_2020 * 1.25);

  int spot = 0;
  for (const auto& domain : dataset.domains) {
    // Flash/disposable names are PDNS noise by design, not planted domains.
    if (domain.disposable) continue;
    if (++spot > 300) break;
    EXPECT_NE(world_->FindDomain(domain.name), nullptr)
        << domain.name.ToString();
  }
}

TEST_F(IntegrationTest, QueryListMatchesGroundTruthFlags) {
  auto list = core::PdnsMiner::ActiveQueryList(study().mined());
  std::set<dns::Name> queried(list.begin(), list.end());
  int64_t truth_in_list = 0;
  for (const auto& d : world_->domains()) {
    if (d.in_query_list) ++truth_in_list;
  }
  EXPECT_NEAR(static_cast<double>(queried.size()),
              static_cast<double>(truth_in_list), truth_in_list * 0.05);
  // No disposable domain slipped through.
  for (const auto& name : list) {
    const auto* truth = world_->FindDomain(name);
    ASSERT_NE(truth, nullptr);
    EXPECT_FALSE(truth->disposable_excluded) << name.ToString();
  }
}

TEST_F(IntegrationTest, FatesAreMeasuredCorrectly) {
  const auto& dataset = study().active();
  int64_t agree = 0, total = 0;
  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const auto& r = dataset.results[i];
    const auto* truth = world_->FindDomain(r.domain);
    ASSERT_NE(truth, nullptr);
    ++total;
    bool ok = true;
    switch (truth->fate) {
      case worldgen::DomainFate::kActive:
        ok = r.parent_has_records && r.child_any_authoritative;
        break;
      case worldgen::DomainFate::kStaleDelegation:
        ok = r.parent_has_records && !r.child_any_authoritative;
        // Parked references answer through the parking service; they are
        // planned as active though, so no overlap here.
        break;
      case worldgen::DomainFate::kRemoved:
        ok = r.parent_responded && !r.parent_has_records;
        break;
      case worldgen::DomainFate::kDeadParent:
        ok = !r.parent_responded;
        break;
    }
    agree += ok;
  }
  // Transient loss and shared-NS edge cases cause a little disagreement.
  EXPECT_GT(static_cast<double>(agree) / total, 0.97)
      << agree << "/" << total;
}

TEST_F(IntegrationTest, ReplicationMatchesPaperShape) {
  auto summary = core::AnalyzeReplication(study().active());
  EXPECT_GT(summary.pct_at_least_two, 0.95);   // paper: 98.4%
  EXPECT_GT(summary.d1ns_stale_pct, 0.40);     // paper: 60.1%
  EXPECT_LT(summary.d1ns_stale_pct, 0.80);
}

TEST_F(IntegrationTest, DelegationDefectsMatchPaperShape) {
  auto summary = core::AnalyzeDelegations(study().active());
  double n = static_cast<double>(summary.domains_considered);
  double partial = summary.partially_defective / n;
  double full = summary.fully_defective / n;
  EXPECT_GT(partial, 0.15);  // paper: 25.4%
  EXPECT_LT(partial, 0.35);
  EXPECT_GT(full, 0.02);     // paper: ~4%
  EXPECT_LT(full, 0.10);
  EXPECT_GT(partial, full);  // partial dominates, as in the paper
}

TEST_F(IntegrationTest, ConsistencyMatchesPaperShape) {
  auto summary = core::AnalyzeConsistency(study().active());
  EXPECT_GT(summary.pct_equal, 0.68);  // paper: 76.8%
  EXPECT_LT(summary.pct_equal, 0.88);
  // Second-level domains are much more consistent than deeper ones.
  auto it2 = summary.by_level.find(2);
  if (it2 != summary.by_level.end() && it2->second.second >= 20) {
    double level2 = double(it2->second.first) / it2->second.second;
    EXPECT_GT(level2, summary.pct_equal);
  }
  EXPECT_GT(summary.pct_disagree_with_partial_defect, 0.25);  // paper: 40.9%
}

TEST_F(IntegrationTest, MeasuredConsistencyClassesMatchPlans) {
  // For active domains with no extra lame-ness, the measured class should
  // match the planted plan most of the time.
  const auto& dataset = study().active();
  int64_t agree = 0, total = 0;
  for (size_t i = 0; i < dataset.results.size(); ++i) {
    const auto& r = dataset.results[i];
    const auto* truth = world_->FindDomain(r.domain);
    if (truth == nullptr || truth->fate != worldgen::DomainFate::kActive) {
      continue;
    }
    if (truth->partial_lame || truth->typo_parent_ns ||
        truth->relative_name_truncation || truth->parked_ns_ref) {
      continue;
    }
    auto klass = core::ClassifyConsistency(r);
    if (klass == core::ConsistencyClass::kNotComparable) continue;
    ++total;
    using CP = worldgen::ConsistencyPlan;
    using CC = core::ConsistencyClass;
    CC expected = CC::kEqual;
    switch (truth->consistency) {
      case CP::kEqual: expected = CC::kEqual; break;
      case CP::kChildSuperset: expected = CC::kChildSuperset; break;
      case CP::kParentSuperset: expected = CC::kParentSuperset; break;
      case CP::kOverlapNeither: expected = CC::kOverlapNeither; break;
      case CP::kDisjointSharedIp: expected = CC::kDisjointSharedIp; break;
      case CP::kDisjoint: expected = CC::kDisjoint; break;
    }
    agree += klass == expected;
  }
  ASSERT_GT(total, 500);
  // Central-hosted domains mask the parent view (same servers), so perfect
  // agreement is impossible; the bulk must still match.
  EXPECT_GT(static_cast<double>(agree) / total, 0.80);
}

TEST_F(IntegrationTest, HijackPoolMatchesGroundTruth) {
  auto summary = core::AnalyzeHijackRisk(study().active(), world_->psl(),
                                         world_->registrar_client());
  // Every planted dangling-available domain should surface, give or take
  // measurement noise; nothing wildly more.
  int64_t planted = 0;
  for (const auto& d : world_->domains()) {
    planted += d.in_query_list && d.dangling_available_ns;
  }
  EXPECT_GT(summary.affected_domains, planted / 2);
  EXPECT_GT(summary.available_ns_domains, 0);
  // §IV-D parked cases.
  int64_t parked_refs = 0;
  for (const auto& d : world_->domains()) parked_refs += d.parked_ns_ref;
  if (parked_refs > 0) {
    EXPECT_GT(summary.dangling_available_ns, 0);
    EXPECT_GE(summary.dangling_domains, summary.dangling_available_ns);
  }
  for (double price : summary.dangling_prices_usd) {
    EXPECT_GE(price, 300.0);
  }
}

TEST_F(IntegrationTest, ProviderTrendsMatchCalibration) {
  core::ProviderMatcher matcher(core::DefaultProviderRules());
  core::ProviderAnalyzer analyzer(&matcher, worldgen::MakeCountryMetas());
  auto t2011 = analyzer.Analyze(study().mined(), 2011);
  auto t2020 = analyzer.Analyze(study().mined(), 2020);
  auto row = [](const core::ProviderYearTable& t, const char* key) {
    for (const auto& r : t.rows) {
      if (r.group_key == key) return r.domains;
    }
    return int64_t{0};
  };
  // The centralization story: hyperscalers explode between 2011 and 2020.
  EXPECT_GT(row(t2020, "cloudflare.com"), 20 * std::max<int64_t>(
      row(t2011, "cloudflare.com"), 1));
  EXPECT_GT(row(t2020, "AWS DNS"), 50);
  EXPECT_EQ(row(t2011, "Azure DNS"), 0);
  EXPECT_GT(row(t2020, "Azure DNS"), 10);
  // And the paper's headline: max countries grows strongly.
  EXPECT_GT(core::ProviderAnalyzer::MaxCountriesAnyProvider(t2020),
            core::ProviderAnalyzer::MaxCountriesAnyProvider(t2011));
}

TEST_F(IntegrationTest, DeterministicEndToEnd) {
  // A second, independent run over an identical world must produce the
  // same headline numbers.
  worldgen::WorldConfig config;
  config.scale = 0.04;
  auto world2 = worldgen::BuildWorld(config);
  auto bound2 = worldgen::MakeStudy(*world2);
  bound2.study->Run();
  auto a = core::AnalyzeDelegations(study().active());
  auto b = core::AnalyzeDelegations(bound2.study->active());
  EXPECT_EQ(a.domains_considered, b.domains_considered);
  EXPECT_EQ(a.partially_defective, b.partially_defective);
  EXPECT_EQ(a.fully_defective, b.fully_defective);
}

}  // namespace
}  // namespace govdns
