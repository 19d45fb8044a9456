#include <gtest/gtest.h>

#include "cluster/simulator.h"

namespace scishuffle::cluster {
namespace {

ClusterSpec unitSpec(int nodes, int mapSlots, int reduceSlots) {
  ClusterSpec spec;
  spec.nodes = nodes;
  spec.map_slots = mapSlots;
  spec.reduce_slots = reduceSlots;
  spec.disk_mb_per_s = 100;  // 1e8 B/s
  spec.net_mb_per_s = 100;
  return spec;
}

SimJob::MapTask mapTask(double cpu, std::vector<u64> segments) {
  SimJob::MapTask t;
  t.cpu_s = cpu;
  t.segment_bytes = std::move(segments);
  return t;
}

TEST(SimulatorTest, SingleTaskHandComputable) {
  // 1 node, 1 slot: cpu 2s + write 1e8 B at 1e8 B/s = 1s -> map done at 3s.
  // Shuffle same-node: disk read 1s + disk write 1s -> lands at 5s.
  // Reduce: no merge, cpu 1s, output 1e8 B write 1s -> total 7s.
  SimJob job;
  job.maps.push_back(mapTask(2.0, {100'000'000}));
  job.reduces.push_back({1.0, 0, 100'000'000});
  const auto outcome = EventSimulator(unitSpec(1, 1, 1)).run(job);
  EXPECT_NEAR(outcome.map_phase_done_s, 3.0, 1e-9);
  EXPECT_NEAR(outcome.shuffle_done_s, 5.0, 1e-9);
  EXPECT_NEAR(outcome.total_s, 7.0, 1e-9);
}

TEST(SimulatorTest, WavesFormWhenTasksExceedSlots) {
  // 4 identical CPU-only tasks on 2 slots: two waves.
  SimJob job;
  for (int i = 0; i < 4; ++i) job.maps.push_back(mapTask(1.0, {0}));
  job.reduces.push_back({0.0, 0, 0});
  const auto outcome = EventSimulator(unitSpec(1, 2, 1)).run(job);
  EXPECT_NEAR(outcome.map_phase_done_s, 2.0, 1e-9);
}

TEST(SimulatorTest, MoreSlotsNeverSlower) {
  SimJob job;
  for (int i = 0; i < 13; ++i) {
    job.maps.push_back(mapTask(0.5 + 0.1 * i, {1'000'000, 2'000'000}));
  }
  job.reduces.push_back({1.0, 500'000, 1'000'000});
  job.reduces.push_back({2.0, 0, 2'000'000});
  double prev = 1e100;
  for (const int slots : {1, 2, 4, 8}) {
    const auto outcome = EventSimulator(unitSpec(2, slots, 2)).run(job);
    EXPECT_LE(outcome.total_s, prev + 1e-9) << slots << " slots";
    prev = outcome.total_s;
  }
}

TEST(SimulatorTest, CrossNodeTrafficUsesNics) {
  // Mapper on node 0 (slot 0), reducer 1 on node 1: the transfer must pay
  // NIC time; a same-node transfer must not.
  SimJob job;
  job.maps.push_back(mapTask(0.0, {0, 100'000'000}));  // everything to reducer 1
  job.reduces.push_back({0.0, 0, 0});
  job.reduces.push_back({0.0, 0, 0});
  const auto cross = EventSimulator(unitSpec(2, 1, 2)).run(job);

  SimJob local = job;
  local.maps[0].segment_bytes = {100'000'000, 0};  // reducer 0 is on node 0
  const auto same = EventSimulator(unitSpec(2, 1, 2)).run(local);
  EXPECT_GT(cross.total_s, same.total_s);
  // Cross-node pays exactly 2 NIC legs (src + dst) of 1s each.
  EXPECT_NEAR(cross.total_s - same.total_s, 2.0, 1e-9);
}

TEST(SimulatorTest, ShuffleOverlapsMapPhase) {
  // Two map waves; the first wave's segments should be in flight while the
  // second wave computes, so the job beats running the phases back to back.
  SimJob job;
  for (int i = 0; i < 8; ++i) job.maps.push_back(mapTask(2.0, {50'000'000}));
  job.reduces.push_back({0.0, 0, 0});
  const ClusterSpec spec = unitSpec(4, 4, 1);
  const auto outcome = EventSimulator(spec).run(job);

  // Serial lower bound on the same numbers: all map cpu+writes, then all
  // shuffle, then reduce.
  const double serial = 2.0 * 2.0 /* waves */ + 8 * 0.5 / 4 /* writes */ + 8 * 1.0 /* shuffle */;
  EXPECT_LT(outcome.total_s, serial);
}

TEST(SimulatorTest, MergeBytesCostTwoDiskPasses) {
  SimJob job;
  job.maps.push_back(mapTask(0.0, {0}));
  job.reduces.push_back({0.0, 100'000'000, 0});  // 2s of merge I/O
  const auto with = EventSimulator(unitSpec(1, 1, 1)).run(job);
  job.reduces[0].merge_bytes = 0;
  const auto without = EventSimulator(unitSpec(1, 1, 1)).run(job);
  EXPECT_NEAR(with.total_s - without.total_s, 2.0, 1e-9);
}

TEST(SimulatorTest, LocalitySchedulingReducesRemoteReads) {
  // 8 input blocks, every replica on node 0, 2 slots per node on 4 nodes.
  // Locality-aware scheduling should route everything to node 0's slots.
  ClusterSpec spec = unitSpec(4, 8, 1);
  SimJob job;
  for (int b = 0; b < 8; ++b) {
    SimJob::MapTask t;
    t.input_bytes = 100'000'000;  // 1s local read; remote is 3 resource legs
    t.preferred_nodes = {0};
    t.cpu_s = 0.1;
    t.segment_bytes = {0};
    job.maps.push_back(std::move(t));
  }
  job.reduces.push_back({0.0, 0, 0});

  job.honor_locality = true;
  const auto local = EventSimulator(spec).run(job);
  job.honor_locality = false;
  const auto remote = EventSimulator(spec).run(job);

  EXPECT_GT(local.local_input_bytes, remote.local_input_bytes);
  EXPECT_LT(local.remote_input_bytes, remote.remote_input_bytes);
  // All traffic accounted either way.
  EXPECT_EQ(local.local_input_bytes + local.remote_input_bytes, 8u * 100'000'000u);
  EXPECT_EQ(remote.local_input_bytes + remote.remote_input_bytes, 8u * 100'000'000u);
}

TEST(SimulatorTest, SimJobFromResultScales) {
  hadoop::JobResult result;
  result.map_tasks.push_back({2'000'000, {100, 200}});
  result.reduce_tasks.push_back({1'000'000, 300, 50, 75});
  ClusterSpec spec;
  spec.cpu_scale = 2.0;
  const SimJob job = simJobFromResult(result, spec, 10.0);
  ASSERT_EQ(job.maps.size(), 1u);
  EXPECT_NEAR(job.maps[0].cpu_s, 2.0 * 10.0 * 2.0, 1e-9);
  EXPECT_EQ(job.maps[0].segment_bytes, (std::vector<u64>{1000, 2000}));
  EXPECT_NEAR(job.reduces[0].cpu_s, 1.0 * 10.0 * 2.0, 1e-9);
  EXPECT_EQ(job.reduces[0].merge_bytes, 500u);
  EXPECT_EQ(job.reduces[0].output_bytes, 750u);
}

TEST(SimulatorTest, ProjectionIsLinearInScale) {
  // paperScale() projects a laptop run onto the paper's dataset: every time
  // the simulator reports must grow by exactly the scale factor.
  hadoop::JobResult result;
  for (int m = 0; m < 13; ++m) {
    result.map_tasks.push_back({1'000'000u + 100'000u * static_cast<u64>(m),
                                {4'000'000, 9'000'000, 1'000'000}});
  }
  for (int r = 0; r < 3; ++r) result.reduce_tasks.push_back({2'000'000, 0, 3'000'000, 500'000});
  const ClusterSpec spec = unitSpec(2, 4, 2);
  const auto x1 = EventSimulator(spec).run(simJobFromResult(result, spec, 1.0));
  const auto x10 = EventSimulator(spec).run(simJobFromResult(result, spec, 10.0));

  auto expectTenfold = [](double one, double ten) { EXPECT_NEAR(ten, 10.0 * one, 1e-6 * ten); };
  expectTenfold(x1.map_phase_done_s, x10.map_phase_done_s);
  expectTenfold(x1.shuffle_done_s, x10.shuffle_done_s);
  expectTenfold(x1.total_s, x10.total_s);
  ASSERT_EQ(x1.map_finish_s.size(), x10.map_finish_s.size());
  for (std::size_t m = 0; m < x1.map_finish_s.size(); ++m) {
    expectTenfold(x1.map_finish_s[m], x10.map_finish_s[m]);
  }
  ASSERT_EQ(x1.reduce_finish_s.size(), x10.reduce_finish_s.size());
  for (std::size_t r = 0; r < x1.reduce_finish_s.size(); ++r) {
    expectTenfold(x1.reduce_finish_s[r], x10.reduce_finish_s[r]);
  }
  EXPECT_GT(x1.total_s, 0.0);
}

TEST(SimulatorTest, EmptyJob) {
  const auto outcome = EventSimulator(unitSpec(2, 2, 2)).run(SimJob{});
  EXPECT_EQ(outcome.total_s, 0.0);
}

}  // namespace
}  // namespace scishuffle::cluster
