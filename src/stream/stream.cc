#include "stream/stream.h"

#include <algorithm>

#include "obs/trace.h"
#include "util/env.h"

namespace stepping::stream {

StreamConfig stream_config_from_env() {
  StreamConfig cfg;
  const std::string mode = env_or("STEPPING_STREAM", "off");
  cfg.enabled = mode == "exact";
  cfg.capacity = static_cast<int>(env_or_int("STEPPING_STREAM_STREAMS", 64));
  if (cfg.capacity < 1) cfg.capacity = 1;
  return cfg;
}

StreamStateCache::StreamStateCache(int capacity)
    : shard_capacity_(std::max(1, capacity / kShards)) {}

std::shared_ptr<StreamState> StreamStateCache::acquire(std::uint64_t stream_id,
                                                       bool* hit) {
  Shard& s = shard_of(stream_id);
  std::shared_ptr<StreamState> state;
  bool was_hit = false;
  int evicted = 0;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    auto it = s.index.find(stream_id);
    if (it != s.index.end()) {
      s.lru.splice(s.lru.begin(), s.lru, it->second);  // touch
      it->second = s.lru.begin();
      state = s.lru.begin()->second;
      was_hit = true;
    } else {
      state = std::make_shared<StreamState>();
      s.lru.emplace_front(stream_id, state);
      s.index[stream_id] = s.lru.begin();
      while (static_cast<int>(s.lru.size()) > shard_capacity_) {
        s.index.erase(s.lru.back().first);
        s.lru.pop_back();  // in-flight frames keep their shared_ptr alive
        ++evicted;
      }
    }
  }
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (was_hit) {
      ++hits_;
    } else {
      ++misses_;
    }
    evictions_ += evicted;
  }
  if (hit) *hit = was_hit;
  return state;
}

void StreamStateCache::clear() {
  for (Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    s.lru.clear();
    s.index.clear();
  }
}

std::int64_t StreamStateCache::size() const {
  std::int64_t total = 0;
  for (const Shard& s : shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    total += static_cast<std::int64_t>(s.lru.size());
  }
  return total;
}

std::int64_t StreamStateCache::hits() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return hits_;
}

std::int64_t StreamStateCache::misses() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return misses_;
}

std::int64_t StreamStateCache::evictions() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return evictions_;
}

StreamResult stream_delta_forward(Network& net, StreamState& st,
                                  const Tensor& x, int level,
                                  const StreamConfig& cfg,
                                  const std::vector<std::uint64_t>& signature) {
  const LadderRow row{&st, &x};
  return std::move(stream_delta_batch(net, {&row, 1}, level, cfg, signature)[0]);
}

std::vector<StreamResult> stream_delta_batch(
    Network& net, std::span<const LadderRow> frames, int level,
    const StreamConfig& cfg, const std::vector<std::uint64_t>& signature) {
  obs::TraceScope span("stream.delta", "stream");
  std::vector<StreamResult> res =
      advance_rows(net, frames, level, cfg.tile, signature);
  std::int64_t macs = 0;
  for (const StreamResult& r : res) macs += r.macs;
  span.arg("level", level);
  span.arg("frames", static_cast<std::int64_t>(res.size()));
  span.arg("macs", macs);
  return res;
}

}  // namespace stepping::stream
