#include "sim/lru_cache.h"

#include <algorithm>
#include <cassert>

#include "cost/cost_model.h"

namespace sc::sim {

LruCache::LruCache(std::int64_t capacity_bytes)
    : capacity_(std::max<std::int64_t>(capacity_bytes, 0)) {}

bool LruCache::Lookup(std::int64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  order_.erase(it->second.it);
  order_.push_front(key);
  it->second.it = order_.begin();
  return true;
}

bool LruCache::Contains(std::int64_t key) const {
  return entries_.count(key) > 0;
}

void LruCache::Insert(std::int64_t key, std::int64_t size) {
  if (size > capacity_ || size < 0) return;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    // Refresh: update size and recency.
    used_ -= it->second.size;
    order_.erase(it->second.it);
    entries_.erase(it);
  }
  Evict(size);
  order_.push_front(key);
  entries_.emplace(key, Entry{size, order_.begin()});
  used_ += size;
}

void LruCache::Evict(std::int64_t needed) {
  while (used_ + needed > capacity_ && !order_.empty()) {
    const std::int64_t victim = order_.back();
    order_.pop_back();
    auto it = entries_.find(victim);
    assert(it != entries_.end());
    used_ -= it->second.size;
    entries_.erase(it);
  }
}

RunResult SimulateLruBaseline(const graph::Graph& g, std::int64_t cache_bytes,
                              const SimOptions& options) {
  const cost::CostModel model(options.device);
  const graph::Order order = graph::KahnTopologicalOrder(g);
  LruCache cache(cache_bytes);

  RunResult result;
  result.per_node.resize(g.num_nodes());
  double now = 0.0;
  for (graph::NodeId v : order.sequence) {
    NodeTiming& timing = result.per_node[v];
    timing.start = now;
    double read_seconds = 0.0;
    for (graph::NodeId p : g.parents(v)) {
      const std::int64_t bytes = g.node(p).size_bytes;
      if (cache.Lookup(p)) {
        read_seconds += model.MemReadSeconds(bytes);
      } else {
        read_seconds += model.DiskReadSeconds(graph::DiskBytes(g.node(p)),
                                              g.node(p).file_count) /
                        options.io_scale;
        cache.Insert(p, bytes);
      }
    }
    read_seconds +=
        model.DiskReadSeconds(g.node(v).base_input_bytes,
                              g.node(v).file_count) /
        options.io_scale;
    now += read_seconds;
    timing.read_seconds = read_seconds;

    const double compute_seconds =
        g.node(v).compute_seconds / options.compute_scale;
    now += compute_seconds;
    timing.compute_seconds = compute_seconds;

    // Writes always block (the cache does not short-circuit persistence),
    // but the fresh result lands in the cache for downstream readers.
    const double write_seconds =
        model.DiskWriteSeconds(graph::DiskBytes(g.node(v)),
                               g.node(v).file_count) /
        options.io_scale;
    now += write_seconds;
    timing.write_seconds = write_seconds;
    cache.Insert(v, g.node(v).size_bytes);

    timing.end = now;
    result.total_read_seconds += read_seconds;
    result.total_compute_seconds += compute_seconds;
    result.total_write_seconds += write_seconds;
  }
  result.makespan = now;
  result.total_query_seconds = result.total_read_seconds +
                               result.total_compute_seconds +
                               result.total_write_seconds;
  return result;
}

}  // namespace sc::sim
