#pragma once

// Test helper for the thread-count parity tests: every pool round (linalg
// kernels, detect generation, analysis sweeps, streaming accumulators) runs
// on the one process-wide pool sized by parallel::set_threads. The guard
// restores that request on scope exit, so tests cannot leak configuration
// into each other or clobber an operator's QFC_THREADS.

#include "qfc/parallel/worker_pool.hpp"

namespace qfc::test {

struct ThreadsGuard {
  unsigned request = parallel::thread_request();
  ~ThreadsGuard() { parallel::set_threads(request); }
};

/// fn() with the shared pool at `threads` threads; the previous request is
/// restored afterwards.
template <class Fn>
auto at_threads(unsigned threads, Fn&& fn) {
  ThreadsGuard guard;
  parallel::set_threads(threads);
  return fn();
}

}  // namespace qfc::test
