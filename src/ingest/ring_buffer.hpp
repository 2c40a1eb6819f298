// Bounded multi-producer / single-consumer ring buffer.
//
// One instance backs each ingestion shard's batch queue: producers are the
// threads calling IngestEngine::submit*, the consumer is the shard worker.
// A mutex + two condition variables keep the structure simple and
// ThreadSanitizer-clean; the ring storage is preallocated so steady-state
// operation does not allocate.  Backpressure policy (drop / block / spill)
// is decided by the engine on top of try_push / push_wait.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

namespace pmove::ingest {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : ring_(std::max<std::size_t>(1, capacity)) {}

  [[nodiscard]] std::size_t capacity() const { return ring_.size(); }

  /// Non-blocking push; false when full or closed.  Takes an rvalue
  /// reference on purpose: a failed push leaves `item` intact so the caller
  /// can retry, block, or spill it.
  bool try_push(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || size_ == ring_.size()) return false;
      push_locked(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking push: waits for space.  timeout_ns < 0 waits forever.
  /// Returns false on timeout or close, with `item` left intact.
  bool push_wait(T&& item, std::int64_t timeout_ns = -1) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      auto ready = [this] { return closed_ || size_ < ring_.size(); };
      if (timeout_ns < 0) {
        not_full_.wait(lock, ready);
      } else if (!not_full_.wait_for(
                     lock, std::chrono::nanoseconds(timeout_ns), ready)) {
        return false;
      }
      if (closed_ || size_ == ring_.size()) return false;
      push_locked(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Consumer side: waits up to `timeout_ns` (forever when negative) for at
  /// least one item or close, then drains everything queued.  May return
  /// empty on timeout or close — pair with is_closed() to tell them apart.
  std::vector<T> pop_all(std::int64_t timeout_ns = -1) {
    std::vector<T> out;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      auto ready = [this] { return closed_ || size_ > 0; };
      if (timeout_ns < 0) {
        not_empty_.wait(lock, ready);
      } else {
        not_empty_.wait_for(lock, std::chrono::nanoseconds(timeout_ns),
                            ready);
      }
      out.reserve(size_);
      while (size_ > 0) {
        out.push_back(std::move(ring_[head_]));
        head_ = (head_ + 1) % ring_.size();
        --size_;
      }
    }
    not_full_.notify_all();
    return out;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return size_;
  }

  [[nodiscard]] bool is_closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

  /// Wakes every waiter; subsequent pushes fail and pop_all drains then
  /// returns empty.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  /// Accepts pushes again after close() (an engine reopened in place).
  void reopen() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = false;
  }

 private:
  void push_locked(T item) {
    ring_[(head_ + size_) % ring_.size()] = std::move(item);
    ++size_;
  }

  mutable std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<T> ring_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  bool closed_ = false;
};

}  // namespace pmove::ingest
