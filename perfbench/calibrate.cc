// perfbench_calibrate — times a fixed reference workload, to measure how
// fast the host runs at this moment.
//
//   perfbench_calibrate
//
// A shared host's speed drifts by tens of percent for minutes at a time, in
// CPU time as well as wall time. run.py runs this program before and after
// every study and scales the study's times by how long this fixed work took
// (see run.normalize), so a slow period of the host does not read as a slow
// program. The work uses nothing from the library, so no change to the
// program under test can move it. Like the study's busiest phases it runs
// on 4 threads and mixes string hashing, hash-table probes, allocation,
// sorting and byte-buffer encode/decode over a working set of some MiB per
// thread.
//
// One warm-up repetition, then kReps timed ones, about a second in all. A
// repetition's cost is the CPU time its 4 threads used, added up: CPU time
// leaves out the time a thread waited for a core, which depends on what
// else runs, and keeps how fast the core ran while it had one.
//
// Prints one JSON line: {"cpu_s": C, "wall_s": W, "checksum": K}, C and W
// the mean CPU and wall time of a timed repetition. The mean, not the
// median: like a study's time, it takes in every moment of its window. K is
// the same on every run and lets the caller check the work was done.
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace {

constexpr int kThreads = 4;
constexpr int kReps = 15;
constexpr size_t kKeys = 1 << 15;

double ThreadCpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// One thread's share of one repetition; deterministic in `seed`.
uint64_t Work(uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (size_t i = 0; i < kKeys; ++i) {
    std::string key;
    const size_t labels = 2 + rng() % 3;
    for (size_t l = 0; l < labels; ++l) {
      const size_t len = 3 + rng() % 10;
      for (size_t c = 0; c < len; ++c) {
        key.push_back(static_cast<char>('a' + rng() % 26));
      }
      key.push_back('.');
    }
    key += "gov";
    keys.push_back(std::move(key));
  }
  std::unordered_map<std::string, uint32_t> index;
  for (size_t i = 0; i < keys.size(); ++i) {
    index.emplace(keys[i], static_cast<uint32_t>(i));
  }
  std::vector<size_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::shuffle(order.begin(), order.end(), rng);
  uint64_t sum = 0;
  for (size_t i : order) sum += index.find(keys[i])->second;

  std::vector<std::string> sorted = keys;
  std::sort(sorted.begin(), sorted.end());
  std::vector<uint8_t> wire;
  for (const std::string& key : sorted) {
    wire.push_back(static_cast<uint8_t>(key.size()));
    wire.insert(wire.end(), key.begin(), key.end());
  }
  std::vector<std::string> decoded;
  for (size_t at = 0; at < wire.size(); at += 1 + wire[at]) {
    decoded.emplace_back(reinterpret_cast<const char*>(&wire[at + 1]),
                         wire[at]);
  }
  return sum + decoded.size() + decoded.front().size() + decoded.back().size();
}

struct Rep {
  double cpu_s = 0;
  double wall_s = 0;
  uint64_t checksum = 0;
};

Rep RunRep(int rep) {
  std::vector<uint64_t> sums(kThreads, 0);
  std::vector<double> cpu(kThreads, 0);
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&sums, &cpu, t, rep] {
        const double c0 = ThreadCpuNow();
        sums[t] = Work(1000 * rep + t);
        cpu[t] = ThreadCpuNow() - c0;
      });
    }
  }
  Rep out;
  out.wall_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
  for (int t = 0; t < kThreads; ++t) {
    out.cpu_s += cpu[t];
    out.checksum = out.checksum * 31 + sums[t];
  }
  return out;
}

}  // namespace

int main() {
  uint64_t checksum = RunRep(0).checksum;  // warm-up: untimed
  double cpu = 0, wall = 0;
  for (int rep = 1; rep <= kReps; ++rep) {
    const Rep r = RunRep(rep);
    cpu += r.cpu_s;
    wall += r.wall_s;
    checksum = checksum * 31 + r.checksum;
  }
  std::printf("{\"cpu_s\": %.9f, \"wall_s\": %.9f, \"checksum\": %llu}\n",
              cpu / kReps, wall / kReps,
              static_cast<unsigned long long>(checksum));
  return 0;
}
