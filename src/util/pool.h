// Fork-join over a short-lived set of threads: the one pool the study's
// parallel phases share (the miner's passes, the measurement pool and the
// report's analyzers). Each call starts its threads, runs the body once on
// each and joins them all before returning, so nothing outlives the phase
// and the caller's data needs no synchronization beyond the join.
#pragma once

#include <cstddef>
#include <functional>

namespace govdns::util {

// The thread count for `items` units of work: `requested` when positive,
// else std::thread::hardware_concurrency(); at least 1, and at most `items`
// when there is any work.
int PoolWorkers(int requested, size_t items);

// Runs `body(worker_index)` once on each of `workers` threads and joins
// them; with workers <= 1 it runs body(0) inline on the calling thread.
void RunOnPool(int workers, const std::function<void(int)>& body);

}  // namespace govdns::util
