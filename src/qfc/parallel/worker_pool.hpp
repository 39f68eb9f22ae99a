#pragma once

/// \file worker_pool.hpp
/// Persistent worker pool shared by every threaded subsystem: the Blocked
/// linalg kernels use it for their parallel rotation rounds and GEMM row
/// chunks, detect for its per-channel generation fan-out and the sharded
/// merge-sweep analysis kernels, qfc::sweep for its scenario fan-out. The
/// pool also owns the one thread policy for nested layers (see run()). A
/// pool is created once and reused across thousands of small fork/join
/// rounds, so dispatch must be cheap: one mutex/condvar handshake per
/// round, tasks claimed via an atomic counter.
///
/// Determinism contract: the pool itself guarantees nothing about ordering —
/// callers must split work into tasks that write disjoint data and read only
/// data no other task of the same round writes (or merge per-task partial
/// results in a fixed task order after the join). Under that discipline the
/// task-to-thread assignment cannot change any floating-point operation
/// order, so results are bitwise identical for every pool size. See
/// src/qfc/parallel/README.md for the contract and the pool-ownership map.
///
/// Instrumentation (qfc/obs/obs.hpp): when obs is enabled the pool records a
/// "pool.run" span per round on the caller, a "pool.work" span per worker
/// participation, per-thread busy nanoseconds under
/// `parallel.worker_busy_ns.<index>` (index 0 = the calling thread), a
/// `parallel.queue_depth` gauge, and `parallel.rounds`/`parallel.tasks`
/// counters. A nested round (see run()) records none of it. All of it sits
/// behind one relaxed atomic branch when disabled and touches no task data,
/// so the determinism contract is unaffected.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace qfc::parallel {

class WorkerPool {
 public:
  /// `threads` counts the calling thread too: a pool of size 1 runs
  /// everything inline and spawns nothing.
  explicit WorkerPool(unsigned threads);
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Total threads that execute tasks (workers + the caller).
  unsigned size() const noexcept { return static_cast<unsigned>(workers_.size()) + 1; }

  /// Run fn(task_index) for every task_index in [0, num_tasks); the calling
  /// thread participates. Blocks until all tasks finished. The first
  /// exception thrown by any task is rethrown here after the round drains.
  /// Concurrent run() calls from different threads serialize on an internal
  /// mutex (correct, just not parallel).
  ///
  /// Nesting rule: a thread running a task of a threaded round (more than
  /// one task on a pool of size > 1) runs every run() it makes, on this or
  /// any other pool, inline in index order, recording no span, counter or
  /// busy time. The outermost threaded round owns the cores; a 1-task round
  /// or a size-1 pool leaves nested rounds free to fan out.
  void run(std::size_t num_tasks, const std::function<void(std::size_t)>& fn);

 private:
  void worker_loop(unsigned worker_index);
  void claim_tasks();

  std::vector<std::thread> workers_;
  std::mutex run_mutex_;
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  std::uint64_t generation_ = 0;
  std::size_t num_tasks_ = 0;
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::atomic<std::size_t> next_task_{0};
  std::size_t busy_workers_ = 0;
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;
  bool stop_ = false;
};

/// Deterministic chunked parallel-for: splits [0, n) into contiguous chunks
/// of at most `chunk_size` and runs fn(chunk_index, begin, end) for each on
/// the pool. Chunk boundaries depend only on (n, chunk_size) — never on the
/// pool size — so a caller whose chunks write disjoint data (or that merges
/// per-chunk partial results in chunk order) is bitwise invariant across
/// worker counts for free.
void parallel_for_chunks(WorkerPool& pool, std::size_t n, std::size_t chunk_size,
                         const std::function<void(std::size_t chunk, std::size_t begin,
                                                  std::size_t end)>& fn);

/// A process-wide pool built lazily at first use and rebuilt after a
/// re-size; the one instance sits behind shared_pool(). The thread request
/// starts from the environment variable `env_var` (a positive integer; else
/// 0 = auto, one thread per hardware thread). Callers hold the pool returned
/// by get() for the duration of a kernel, so a concurrent set_threads()
/// cannot destroy a pool mid-round; the old pool dies with its last user.
class CachedPool {
 public:
  explicit CachedPool(const char* env_var);

  std::shared_ptr<WorkerPool> get();
  /// New thread request (0 = auto); the pool is rebuilt at the next get().
  void set_threads(unsigned n);
  /// The resolved thread count.
  unsigned threads();
  /// The raw request, 0 meaning auto (for save/restore).
  unsigned request();

 private:
  std::mutex mutex_;
  std::shared_ptr<WorkerPool> pool_;
  unsigned request_ = 0;
};

/// The one process-wide pool: the linalg Blocked kernels and the detect
/// generation and analysis rounds all run on it. Its request starts from
/// the QFC_THREADS environment variable (0 = auto). Changing the count
/// never changes results, only wall-clock.
std::shared_ptr<WorkerPool> shared_pool();
/// New thread request for shared_pool() (0 = auto).
void set_threads(unsigned n);
/// The resolved thread count of shared_pool().
unsigned threads();
/// The raw request, 0 meaning auto (for save/restore).
unsigned thread_request();

}  // namespace qfc::parallel
