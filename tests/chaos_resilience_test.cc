// Chaos resilience: the retry/backoff/health armor must keep adversarial
// network weather from corrupting the study's headline statistics, the
// per-domain query budget must hold under any weather, and the whole chaos
// model must stay deterministic end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/analysis.h"
#include "core/measure.h"
#include "core/report.h"
#include "core/study.h"
#include "worldgen/adapter.h"

namespace govdns {
namespace {

class ChaosResilienceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    worldgen::WorldConfig config;
    config.scale = 0.02;
    world_ = worldgen::BuildWorld(config).release();
    bound_ = new worldgen::BoundStudy(worldgen::MakeStudy(*world_));
    bound_->study->RunSelection();
    bound_->study->RunMining();
  }
  static void TearDownTestSuite() {
    delete bound_;
    delete world_;
  }

  static std::vector<dns::Name> QueryList(size_t limit) {
    auto list = core::PdnsMiner::ActiveQueryList(bound_->study->mined());
    if (list.size() > limit) list.resize(limit);
    return list;
  }

  // One full measurement pass under the given retry policy and loss level,
  // on a fresh measurer so cut-cache state never leaks between passes.
  static core::ActiveDataset MeasurePass(const core::RetryPolicy& policy,
                                         double loss,
                                         const std::vector<dns::Name>& list,
                                         core::MeasurerOptions mopts = {}) {
    world_->network().set_extra_loss_rate(loss);
    core::ResolverOptions ropts;
    ropts.retry = policy;
    mopts.collect_soa = false;
    core::ActiveMeasurer measurer(&world_->network(),
                                  world_->root_server_ips(), ropts, mopts);
    auto results = measurer.MeasureAll(list);
    world_->network().set_extra_loss_rate(0.0);
    return core::ActiveDataset::Build(std::move(results), bound_->study->seeds(),
                                      worldgen::MakeCountryMetas());
  }

  static worldgen::World* world_;
  static worldgen::BoundStudy* bound_;
};

worldgen::World* ChaosResilienceTest::world_ = nullptr;
worldgen::BoundStudy* ChaosResilienceTest::bound_ = nullptr;

TEST_F(ChaosResilienceTest, RetryArmorLowersStaleFalsePositivesAt20PctLoss) {
  // The acceptance criterion: at 20% injected loss the armored client's
  // stale-d_1NS false-positive rate (excess over its own zero-loss
  // baseline) is strictly lower than the naive single-shot client's.
  const auto list = QueryList(700);
  const auto armored = core::RetryPolicy();
  const auto naive = core::RetryPolicy::Disabled();

  double armored_base =
      core::AnalyzeReplication(MeasurePass(armored, 0.0, list)).d1ns_stale_pct;
  double armored_lossy =
      core::AnalyzeReplication(MeasurePass(armored, 0.2, list)).d1ns_stale_pct;
  double naive_base =
      core::AnalyzeReplication(MeasurePass(naive, 0.0, list)).d1ns_stale_pct;
  double naive_lossy =
      core::AnalyzeReplication(MeasurePass(naive, 0.2, list)).d1ns_stale_pct;

  double armored_fp = armored_lossy - armored_base;
  double naive_fp = naive_lossy - naive_base;
  EXPECT_LT(armored_fp, naive_fp)
      << "armored " << armored_base << " -> " << armored_lossy << ", naive "
      << naive_base << " -> " << naive_lossy;
  // And the naive client genuinely suffers under loss, so the comparison
  // above is not vacuous.
  EXPECT_GT(naive_fp, 0.0);
}

TEST_F(ChaosResilienceTest, BudgetHoldsForEveryDomainAt30PctLoss) {
  // Property: however bad the weather, no domain may cost more than the
  // per-domain budget, and measurement must terminate for all of them.
  core::MeasurerOptions mopts;
  mopts.max_queries_per_domain = 100;
  auto list = core::PdnsMiner::ActiveQueryList(bound_->study->mined());
  auto dataset = MeasurePass(core::RetryPolicy(), 0.3, list, mopts);
  ASSERT_EQ(dataset.results.size(), list.size());
  for (const auto& r : dataset.results) {
    ASSERT_LE(r.query_stats.queries, 100u) << r.domain.ToString();
    if (r.degraded) {
      // A degraded verdict must really have hit the wall, not quit early.
      EXPECT_GE(r.query_stats.queries + r.query_stats.budget_denied, 100u)
          << r.domain.ToString();
    }
  }
  auto report = core::BuildResilienceReport(dataset);
  EXPECT_EQ(report.domains, int64_t(list.size()));
  EXPECT_LE(report.max_queries_one_domain, 100u);
  EXPECT_GT(report.totals.retries, 0u);
}

TEST_F(ChaosResilienceTest, ResilienceReportAggregatesPerDomainStats) {
  const auto list = QueryList(150);
  auto dataset = MeasurePass(core::RetryPolicy(), 0.1, list);
  auto report = core::BuildResilienceReport(dataset);
  core::ResolverCounters sum;
  uint64_t max_one = 0;
  int64_t degraded = 0;
  for (const auto& r : dataset.results) {
    sum += r.query_stats;
    max_one = std::max(max_one, r.query_stats.queries);
    degraded += r.degraded;
  }
  EXPECT_EQ(report.totals, sum);
  EXPECT_EQ(report.max_queries_one_domain, max_one);
  EXPECT_EQ(report.degraded_domains, degraded);
  EXPECT_GT(report.totals.queries, 0u);
}

TEST(ChaosDeterminismTest, SameSeedHostileWorldsGiveIdenticalReports) {
  // Two independent end-to-end runs of a hostile world with the same seed
  // must produce byte-identical resilience reports: every chaos draw is a
  // pure function of (seed, endpoint, exchange ordinal).
  auto run = [] {
    worldgen::WorldConfig config;
    config.scale = 0.01;
    config.chaos = simnet::ChaosProfile::Hostile();
    auto world = worldgen::BuildWorld(config);
    auto bound = worldgen::MakeStudy(*world);
    return bound.study->Run().resilience.ToJson();
  };
  std::string a = run();
  std::string b = run();
  EXPECT_EQ(a, b);
  // The hostile profile must actually have bitten — a report with zero
  // adversity would make the determinism check vacuous.
  EXPECT_NE(a.find("\"retries\""), std::string::npos);
}

TEST(ChaosDeterminismTest, HostileWorldMeasurementSeesChaosModes) {
  worldgen::WorldConfig config;
  config.scale = 0.01;
  config.chaos = simnet::ChaosProfile::Hostile();
  auto world = worldgen::BuildWorld(config);
  auto bound = worldgen::MakeStudy(*world);
  const core::ResilienceReport report = bound.study->Run().resilience;
  const auto& net = world->network().stats();
  // Worldgen attached the realized afflictions: the run encountered
  // delivered-but-damaged and timeout-shaped chaos, not just clean loss.
  EXPECT_GT(net.corrupted + net.truncated + net.wrong_id, 0u);
  EXPECT_GT(net.flap_dropped + net.burst_dropped + net.rate_limited, 0u);
  EXPECT_GT(report.totals.retries, 0u);
  EXPECT_GT(report.totals.queries, 0u);
}

}  // namespace
}  // namespace govdns
