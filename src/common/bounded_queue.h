// BoundedQueue<T> — a bounded, blocking MPMC work queue.
//
// The executor's task queue and backpressure primitive: producers block in
// Push when the queue is full, so a caller submitting a huge batch can
// never balloon memory past `capacity` in-flight items; consumers block in
// Pop when it is empty.
// Close() wakes everyone: pending items still drain, then Pop returns
// nullopt and further Pushes are refused.
//
// Plain two-condition-variable design over a ring deque. The queue moves
// std::functions around, never user payloads on the validation hot path, so
// a lock-free ring buys nothing here measurable against a fixpoint or even
// a document parse.

#ifndef XMLREVAL_COMMON_BOUNDED_QUEUE_H_
#define XMLREVAL_COMMON_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace xmlreval::common {

template <typename T>
class BoundedQueue {
 public:
  /// `capacity` must be >= 1.
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while full. Returns false (dropping `item`) once closed.
  bool Push(T item) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock,
                   [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty. Returns nullopt once closed AND drained.
  std::optional<T> Pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return item;
  }

  /// Refuses further Pushes and unblocks all waiters. Idempotent.
  void Close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  size_t size() const {
    std::lock_guard lock(mutex_);
    return items_.size();
  }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace xmlreval::common

#endif  // XMLREVAL_COMMON_BOUNDED_QUEUE_H_
