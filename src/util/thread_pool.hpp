// Work-stealing thread pool for the parallel tuning engine.
//
// The paper dismisses searching the admissible matrix-sequence space as
// "quite computationally demanding" (Section VII-B); this pool is how we
// buy that compute back. Design:
//
//   - one lock-protected deque per worker; owners pop LIFO from the
//     front (locality for the recursive composer), thieves steal FIFO
//     from the back;
//   - fork-join via TaskGroup: wait() *helps* — it executes queued
//     tasks while its own are outstanding, so nested parallelism
//     (parallel children spawning parallel candidate scoring) cannot
//     deadlock and never idles the caller; a caller parked in wait()
//     is woken by every push, not only by its own group draining;
//   - a group may be destroyed as soon as wait() returns: workers
//     finish a task's bookkeeping under the group mutex, and wait()
//     takes that mutex before it returns;
//   - a pool of width 1 spawns no threads and runs every task inline on
//     the submitting thread, making the serial path byte-for-byte the
//     code the parallel path runs per task. Tuning results are
//     therefore bit-identical at any width (callers reduce results in
//     deterministic index order).
//
// Tasks must be CPU-bound and must not block on anything other than
// their own TaskGroup; the pool makes no fairness guarantees.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace optibar {

class ThreadPool {
 public:
  /// `width` is the total execution width *including* the calling
  /// thread: width w spawns w-1 workers. 0 means one per hardware
  /// thread.
  explicit ThreadPool(std::size_t width = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Execution width including the calling thread (>= 1).
  std::size_t width() const { return queues_.size() + 1; }

  /// A fork-join scope. All tasks run() through a group finish before
  /// wait() returns; the first task exception is rethrown there.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    /// Blocks (helping) until all tasks finished; errors are dropped —
    /// call wait() explicitly to observe them.
    ~TaskGroup();

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Schedule a task. On a width-1 pool the task runs inline; its
    /// exception (if any) still surfaces at wait().
    void run(std::function<void()> task);

    /// Help execute pool tasks until every task of this group is done,
    /// then rethrow the group's first exception, if any.
    void wait();

   private:
    friend class ThreadPool;
    void record_error(std::exception_ptr error);
    void finish_one();

    ThreadPool& pool_;
    std::atomic<std::size_t> pending_{0};
    std::mutex mutex_;
    std::condition_variable cv_;
    std::exception_ptr error_;
  };

  /// Run body(0..n-1) across the pool; the caller participates. Order
  /// of execution is unspecified; bodies write to index-owned slots.
  /// Rethrows the first body exception after all bodies stopped.
  void parallel_for(std::size_t n,
                    const std::function<void(std::size_t)>& body);

 private:
  struct Task {
    std::function<void()> fn;
    TaskGroup* group = nullptr;
  };
  struct Queue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  void worker_loop(std::size_t index);
  void push(Task task);
  bool try_pop(Task& out);
  void execute(Task& task);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::size_t> next_queue_{0};
  std::atomic<bool> stop_{false};
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  /// Groups whose caller is parked in wait(); push() wakes them. Lock
  /// order: parked_mutex_, then a group's mutex_.
  std::mutex parked_mutex_;
  std::vector<TaskGroup*> parked_;
};

}  // namespace optibar
