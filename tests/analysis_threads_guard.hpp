#pragma once

// Test helper for the detect thread-count parity tests: every detect pool
// round (generation, analysis sweeps, streaming accumulators) is sized by
// the one process-wide request, detect::set_analysis_threads. The guard
// restores that request on scope exit, so tests cannot leak configuration
// into each other or clobber an operator's QFC_ENGINE_ANALYSIS_THREADS.

#include "qfc/detect/event_engine.hpp"

namespace qfc::test {

struct AnalysisThreadsGuard {
  unsigned request = detect::analysis_thread_request();
  ~AnalysisThreadsGuard() { detect::set_analysis_threads(request); }
};

/// fn() with the detect pool at `threads` threads; the previous request is
/// restored afterwards.
template <class Fn>
auto at_analysis_threads(unsigned threads, Fn&& fn) {
  AnalysisThreadsGuard guard;
  detect::set_analysis_threads(threads);
  return fn();
}

}  // namespace qfc::test
