#include "common/executor.h"

#include <optional>
#include <utility>

namespace xmlreval::common {

namespace {

size_t ResolveThreads(size_t requested) {
  if (requested > 0) return requested;
  size_t hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

}  // namespace

Executor::Executor(const Options& options)
    : depth_hook_(options.depth_hook),
      task_wrapper_(options.task_wrapper),
      queue_(options.queue_capacity) {
  size_t threads = ResolveThreads(options.threads);
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

Executor::~Executor() { Shutdown(); }

bool Executor::Submit(Task task) {
  // Wrap on the submitting thread, so the wrapper can capture this
  // thread's context before the task crosses to a worker.
  if (task_wrapper_) task = task_wrapper_(std::move(task));
  if (!queue_.Push(std::move(task))) return false;
  if (depth_hook_) depth_hook_(+1);
  return true;
}

void Executor::WorkerLoop() {
  // Pop returns nullopt only once the queue is closed AND drained, so
  // every task accepted before Shutdown runs.
  while (std::optional<Task> task = queue_.Pop()) {
    if (depth_hook_) depth_hook_(-1);
    (*task)();
  }
}

void Executor::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    queue_.Close();
    for (std::thread& worker : workers_) worker.join();
  });
}

}  // namespace xmlreval::common
