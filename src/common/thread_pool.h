// ThreadPool: a small chunked fork-join executor for the hot loops.
//
// The platform's per-epoch check loop and the pool maintenance passes are
// data-parallel over disjoint slices of state (one pooled order, one
// candidate pair, one worker candidate). This pool runs such loops across a
// fixed set of worker threads with dynamic chunk claiming: callers hand
// ParallelFor a half-open index range and a body; threads grab contiguous
// chunks off a shared atomic cursor until the range is drained. The caller
// thread participates, so a 1-thread pool degenerates to a plain serial loop
// with no synchronization.
//
// Determinism contract: the pool schedules *where* work runs, never *what*
// the result is. Callers that need thread-count-independent results must
// (a) write each item's result to its own slot (ParallelMap does this) and
// (b) fold the slots in index order on the calling thread afterwards — the
// "ordered reduction" used throughout src/pool/ and src/sim/. Under that
// pattern the output is a pure function of the input range, bitwise
// identical for any thread count.
//
// Nested ParallelFor calls — from inside a worker, or from a body running
// on the driving thread — run inline (serially); the pool never deadlocks
// on re-entry. One thread drives the pool at a time.
//
// Completion is chunk-claim based: a job is done when its index range is
// drained and every thread that *entered* the job has left it. Workers that
// wake too late to claim a chunk never join the job at all — they observe
// `job_active_ == false` under the mutex and go back to sleep without
// touching the (by then possibly destroyed) body. Small fan-outs therefore
// pay only the wake-up latency of the threads that actually participate,
// not a full-pool acknowledgement barrier per job.
#ifndef WATTER_COMMON_THREAD_POOL_H_
#define WATTER_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace watter {

/// Fixed-size fork-join thread pool with chunked dynamic scheduling.
class ThreadPool {
 public:
  /// Creates a pool running loops on `num_threads` threads total (the
  /// caller counts as one, so `num_threads - 1` workers are spawned).
  /// `num_threads <= 0` resolves to the hardware concurrency.
  explicit ThreadPool(int num_threads = 1);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Threads participating in loops (always >= 1).
  int num_threads() const { return num_threads_; }

  /// Runs `body(begin, end)` over contiguous chunks covering [0, n), each
  /// chunk at most `grain` long, across the pool. Blocks until every index
  /// is processed. The body must not touch shared mutable state unless that
  /// state is sharded by index. The first exception thrown by any chunk is
  /// rethrown here after the loop drains.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& body);

  /// Ordered-reduction helper: out[i] = fn(i) for i in [0, n). Each item
  /// writes only its own slot, so `out` is deterministic regardless of
  /// thread count; fold it in index order for a deterministic reduction.
  template <typename T, typename Fn>
  void ParallelMap(size_t n, size_t grain, std::vector<T>* out, Fn&& fn) {
    out->resize(n);
    ParallelFor(n, grain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) (*out)[i] = fn(i);
    });
  }

  /// The machine's hardware concurrency (>= 1).
  static int DefaultThreads();

 private:
  void WorkerLoop();
  /// Claims and runs chunks of the current job until the range drains.
  void RunChunks();

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;   // Signals a new job (or shutdown).
  std::condition_variable done_cv_;   // Signals the last participant leaving.
  bool stop_ = false;
  uint64_t job_id_ = 0;               // Bumped per ParallelFor; wakes workers.
  int participants_ = 0;              // Threads currently inside the job.
  // True while the driving thread has a job in flight; a ParallelFor called
  // from inside a body on that thread then runs inline, and late-waking
  // workers use it to tell a live job from one that already completed. The
  // pool supports one driving thread at a time (the simulation main loop).
  bool job_active_ = false;

  // Current job (valid while a ParallelFor is in flight).
  const std::function<void(size_t, size_t)>* body_ = nullptr;
  size_t n_ = 0;
  size_t grain_ = 1;
  std::atomic<size_t> next_{0};
  std::exception_ptr first_error_;
};

}  // namespace watter

#endif  // WATTER_COMMON_THREAD_POOL_H_
