// The sharded PDNS miner must be a pure optimization: for a fixed world
// seed, the MinedDataset — domain rows, per-year NS id sets, the interned
// NS-name table (order included), and the mining stats — must be
// byte-identical whether one worker or many mined the seed list, and the
// active query list derived from the dataset must not move.
#include <gtest/gtest.h>

#include <vector>

#include "core/mining.h"
#include "core/study.h"
#include "tests/mined_datasets.h"
#include "worldgen/adapter.h"

namespace govdns {
namespace {

struct WorldFixture {
  std::unique_ptr<worldgen::World> world;
  worldgen::BoundStudy bound;

  static WorldFixture Make() {
    WorldFixture f;
    worldgen::WorldConfig config;
    config.scale = 0.02;
    f.world = worldgen::BuildWorld(config);
    f.bound = worldgen::MakeStudy(*f.world);
    f.bound.study->RunSelection();
    return f;
  }

  core::MinedDataset Mine(int workers) {
    core::MinerOptions options;
    options.workers = workers;
    core::PdnsMiner miner(bound.study->inputs().mining, options);
    return miner.Mine(*bound.study->inputs().pdns, bound.study->seeds());
  }
};

TEST(ParallelMineTest, WorkerCountsAreByteIdentical) {
  WorldFixture f = WorldFixture::Make();
  const core::MinedDataset serial = f.Mine(1);

  // The world must give the equivalence teeth: many seeds, many domains, a
  // real intern table, and both stable and unstable entries.
  EXPECT_GT(f.bound.study->seeds().size(), 10u);
  EXPECT_GT(serial.domains.size(), 100u);
  EXPECT_GT(serial.ns_count(), 50u);
  EXPECT_GT(serial.stats.entries_scanned, serial.stats.domains);

  for (int workers : {2, 7}) {
    const core::MinedDataset pooled = f.Mine(workers);
    // Field-by-field first for readable failures...
    EXPECT_EQ(testing::NsNames(pooled), testing::NsNames(serial))
        << "workers=" << workers;
    EXPECT_EQ(pooled.stats, serial.stats) << "workers=" << workers;
    ASSERT_EQ(pooled.domains.size(), serial.domains.size())
        << "workers=" << workers;
    // ...then the whole dataset, config included.
    EXPECT_TRUE(pooled == serial) << "workers=" << workers;
    EXPECT_EQ(core::PdnsMiner::ActiveQueryList(pooled),
              core::PdnsMiner::ActiveQueryList(serial))
        << "workers=" << workers;
  }
}

TEST(ParallelMineTest, DefaultWorkerCountMatchesSerial) {
  WorldFixture f = WorldFixture::Make();
  // workers = 0 (hardware concurrency) must behave like any explicit count.
  EXPECT_TRUE(f.Mine(0) == f.Mine(1));
}

TEST(ParallelMineTest, RepeatedParallelRunsAreDeterministic) {
  // Same seed list, same worker count, two runs: thread scheduling differs,
  // the bytes must not.
  WorldFixture f = WorldFixture::Make();
  EXPECT_TRUE(f.Mine(7) == f.Mine(7));
}

TEST(ParallelMineTest, StudyRunMiningUsesThePoolAndProfilesSubPhases) {
  worldgen::WorldConfig config;
  config.scale = 0.02;
  auto world = worldgen::BuildWorld(config);
  auto bound = worldgen::MakeStudy(*world);
  bound.study->RunSelection();
  core::MinerOptions options;
  options.workers = 3;
  const core::MinedDataset& mined = bound.study->RunMining(options);

  WorldFixture f = WorldFixture::Make();
  EXPECT_TRUE(mined == f.Mine(1));

  // The study's profiler carries the miner's sub-phases alongside "mining".
  bool saw_mining = false, saw_freeze = false, saw_shard = false,
       saw_fold = false, saw_intern = false, saw_merge = false,
       saw_renumber = false, saw_sort = false, saw_concat = false;
  for (const obs::PhaseRecord& r : bound.study->profiler().records()) {
    saw_mining |= r.name == "mining";
    saw_freeze |= r.name == "mining.freeze";
    saw_shard |= r.name == "mining.shard";
    saw_fold |= r.name == "mining.fold";
    saw_intern |= r.name == "mining.fold.intern";
    saw_merge |= r.name == "mining.fold.intern.merge";
    saw_renumber |= r.name == "mining.fold.renumber";
    saw_sort |= r.name == "mining.fold.sort";
    saw_concat |= r.name == "mining.fold.concat";
  }
  EXPECT_TRUE(saw_mining);
  EXPECT_TRUE(saw_freeze);
  EXPECT_TRUE(saw_shard);
  EXPECT_TRUE(saw_fold);
  EXPECT_TRUE(saw_intern);
  EXPECT_TRUE(saw_merge);
  EXPECT_TRUE(saw_renumber);
  EXPECT_TRUE(saw_sort);
  EXPECT_TRUE(saw_concat);
}

}  // namespace
}  // namespace govdns
