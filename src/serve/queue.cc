#include "serve/queue.h"

#include <limits>

namespace stepping::serve {

LevelRunQueue::LevelRunQueue(std::size_t capacity, int max_level)
    : buckets_(static_cast<std::size_t>(max_level < 1 ? 1 : max_level)),
      capacity_(capacity) {}

LevelRunQueue::Key LevelRunQueue::key_of(const Job& job) {
  const double sort_deadline = job.deadline_abs_ms > 0.0
                                   ? job.deadline_abs_ms
                                   : std::numeric_limits<double>::infinity();
  return {sort_deadline, job.seq};
}

bool LevelRunQueue::push(Job&& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_ || size_ >= capacity_) return false;
    buckets_[0].emplace(key_of(job), std::move(job));
    ++size_;
  }
  cv_.notify_one();
  return true;
}

void LevelRunQueue::push_survivor(Job&& job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto level = static_cast<std::size_t>(job.level);
    // A survivor at the ladder top never re-enters (the worker finalizes
    // it); the bucket index is therefore always in range.
    buckets_[level < buckets_.size() ? level : buckets_.size() - 1].emplace(
        key_of(job), std::move(job));
    ++size_;
    --inflight_;
  }
  // notify_all: the re-entry may both hand work to one waiter and complete
  // the termination condition another waiter blocks on.
  cv_.notify_all();
}

bool LevelRunQueue::pop_batch(int max_batch, double now_ms,
                              double urgent_slack_ms, std::vector<Job>& out) {
  out.clear();
  const std::size_t mb = static_cast<std::size_t>(max_batch < 1 ? 1 : max_batch);
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return size_ > 0 || (closed_ && inflight_ == 0); });
  if (size_ == 0) return false;  // closed, drained, and nothing in flight

  // Bucket selection (cf. class comment): fullest first, ties by earliest
  // head key then by higher level; urgency override for heads whose slack
  // has dropped below the caller's threshold.
  std::size_t chosen = buckets_.size();
  std::size_t chosen_fill = 0;
  Key chosen_head{};
  Key urgent_head{};
  std::size_t urgent_bucket = buckets_.size();
  for (std::size_t l = buckets_.size(); l-- > 0;) {
    const auto& bucket = buckets_[l];
    if (bucket.empty()) continue;
    const Key head = bucket.begin()->first;
    if (urgent_bucket == buckets_.size() || head < urgent_head) {
      urgent_head = head;
      urgent_bucket = l;
    }
    const std::size_t fill = bucket.size() < mb ? bucket.size() : mb;
    // The loop walks levels high -> low, so on equal (fill, head) the
    // HIGHER level sticks.
    if (chosen == buckets_.size() || fill > chosen_fill ||
        (fill == chosen_fill && head < chosen_head)) {
      chosen = l;
      chosen_fill = fill;
      chosen_head = head;
    }
  }
  if (urgent_bucket != buckets_.size() && urgent_head.first < 1e300 &&
      urgent_head.first - now_ms < urgent_slack_ms) {
    chosen = urgent_bucket;
  }

  auto& bucket = buckets_[chosen];
  while (!bucket.empty() && out.size() < mb) {
    auto it = bucket.begin();
    out.push_back(std::move(it->second));
    bucket.erase(it);
    --size_;
    ++inflight_;
  }
  return true;
}

void LevelRunQueue::retire(std::size_t n) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_ -= n < inflight_ ? n : inflight_;
  }
  cv_.notify_all();
}

void LevelRunQueue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  cv_.notify_all();
}

std::size_t LevelRunQueue::depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_;
}

}  // namespace stepping::serve
