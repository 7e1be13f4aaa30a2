// Executor — a fixed-size FIFO thread pool.
//
// The batch pipeline's scheduling substrate: a fixed set of workers that
// block on one BoundedQueue<Task>. Submit blocks while the queue is full
// (backpressure, not unbounded buffering) and returns false only after
// Shutdown. Shutdown closes the queue, lets the workers drain every task
// accepted before the close, then joins them.

#ifndef XMLREVAL_COMMON_EXECUTOR_H_
#define XMLREVAL_COMMON_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"

namespace xmlreval::common {

class Executor {
 public:
  using Task = std::function<void()>;

  struct Options {
    /// Worker count; 0 = std::thread::hardware_concurrency (min 1).
    size_t threads = 0;
    /// Queue capacity (backpressure threshold for Submit).
    size_t queue_capacity = 256;
    /// Called with +1 when a task is queued and -1 when a worker picks it
    /// up; lets the owner mirror the queue depth into a metrics gauge
    /// without the executor depending on the obs layer. Must be
    /// thread-safe.
    std::function<void(int64_t)> depth_hook;
    /// Applied to every task at Submit time, ON THE SUBMITTING thread:
    /// the task actually enqueued is task_wrapper(task). Lets the owner
    /// capture submission-side context (e.g. the obs TraceContext) and
    /// reinstall it around execution on whichever worker runs the task,
    /// without the executor depending on the obs layer. Must be
    /// thread-safe; null means tasks are enqueued as submitted.
    std::function<Task(Task)> task_wrapper;
  };

  explicit Executor(const Options& options);
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  ~Executor();

  /// Enqueues a task. Blocks while the queue is full; returns false once
  /// Shutdown has begun (the task is dropped).
  bool Submit(Task task);

  /// Stops accepting tasks, drains everything already accepted, joins the
  /// workers. Idempotent.
  void Shutdown();

 private:
  void WorkerLoop();

  const std::function<void(int64_t)> depth_hook_;
  const std::function<Task(Task)> task_wrapper_;
  BoundedQueue<Task> queue_;
  std::vector<std::thread> workers_;
  std::once_flag shutdown_once_;
};

}  // namespace xmlreval::common

#endif  // XMLREVAL_COMMON_EXECUTOR_H_
