#include "util/pool.h"

#include <thread>
#include <vector>

namespace govdns::util {

int PoolWorkers(int requested, size_t items) {
  int workers = requested > 0
                    ? requested
                    : static_cast<int>(std::thread::hardware_concurrency());
  if (workers < 1) workers = 1;
  if (items > 0 && static_cast<size_t>(workers) > items) {
    workers = static_cast<int>(items);
  }
  return workers;
}

void RunOnPool(int workers, const std::function<void(int)>& body) {
  if (workers <= 1) {
    body(0);
    return;
  }
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) pool.emplace_back([&body, w] { body(w); });
  for (std::thread& t : pool) t.join();
}

}  // namespace govdns::util
