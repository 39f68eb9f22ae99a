// Tests for the shared qfc::parallel module: WorkerPool task execution,
// exception propagation, round reuse, the nesting rule (rounds nested in a
// threaded round run inline), and the deterministic parallel_for_chunks
// boundaries the threaded subsystems (linalg Blocked kernels, detect, sweep)
// lean on. ctest runs this binary under a TIMEOUT: a broken nesting rule
// deadlocks instead of failing.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <latch>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/obs/obs.hpp"
#include "qfc/parallel/worker_pool.hpp"

namespace {

using qfc::parallel::CachedPool;
using qfc::parallel::parallel_for_chunks;
using qfc::parallel::WorkerPool;

TEST(WorkerPool, SizeCountsTheCaller) {
  EXPECT_EQ(WorkerPool(1).size(), 1u);
  EXPECT_EQ(WorkerPool(4).size(), 4u);
  // 0 is treated like 1: nothing spawned, everything runs inline.
  EXPECT_EQ(WorkerPool(0).size(), 1u);
}

TEST(WorkerPool, RunsEveryTaskExactlyOnce) {
  for (const unsigned threads : {1u, 3u, 8u}) {
    WorkerPool pool(threads);
    const std::size_t n = 257;  // not a multiple of any worker count
    std::vector<int> hits(n, 0);
    pool.run(n, [&](std::size_t i) { ++hits[i]; });  // disjoint slots per task
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(hits[i], 1) << "task " << i << " with " << threads << " threads";
  }
}

TEST(WorkerPool, ZeroTasksIsANoOp) {
  WorkerPool pool(3);
  pool.run(0, [](std::size_t) { FAIL() << "no task should run"; });
}

TEST(WorkerPool, ReusableAcrossManyRounds) {
  // The pool is built for thousands of small fork/join rounds (Jacobi
  // sweeps); hammer the handshake path.
  WorkerPool pool(4);
  std::atomic<std::size_t> total{0};
  const std::size_t rounds = 500, tasks = 7;
  for (std::size_t r = 0; r < rounds; ++r)
    pool.run(tasks, [&](std::size_t) { total.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(total.load(), rounds * tasks);
}

TEST(WorkerPool, FirstExceptionPropagatesAndPoolSurvives) {
  WorkerPool pool(4);
  EXPECT_THROW(pool.run(16,
                        [](std::size_t i) {
                          if (i % 2 == 1) throw std::runtime_error("task failed");
                        }),
               std::runtime_error);
  // The round drained and the pool is still usable.
  std::atomic<int> ok{0};
  pool.run(8, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ParallelForChunks, CoversTheRangeWithFixedBoundaries) {
  // Boundaries must depend only on (n, chunk_size), never on the pool size
  // — that independence is what the determinism contract builds on.
  for (const unsigned threads : {1u, 4u}) {
    WorkerPool pool(threads);
    std::mutex m;
    std::vector<std::array<std::size_t, 3>> seen;
    parallel_for_chunks(pool, 10, 3,
                        [&](std::size_t chunk, std::size_t begin, std::size_t end) {
                          std::lock_guard<std::mutex> lock(m);
                          seen.push_back({chunk, begin, end});
                        });
    std::sort(seen.begin(), seen.end());
    ASSERT_EQ(seen.size(), 4u) << threads << " threads";
    EXPECT_EQ(seen[0], (std::array<std::size_t, 3>{0, 0, 3}));
    EXPECT_EQ(seen[1], (std::array<std::size_t, 3>{1, 3, 6}));
    EXPECT_EQ(seen[2], (std::array<std::size_t, 3>{2, 6, 9}));
    EXPECT_EQ(seen[3], (std::array<std::size_t, 3>{3, 9, 10}));
  }
}

TEST(ParallelForChunks, DisjointChunkSumMatchesSerial) {
  WorkerPool pool(4);
  const std::size_t n = 100000;
  std::vector<double> out(n, 0.0);
  parallel_for_chunks(pool, n, 4096,
                      [&](std::size_t, std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i)
                          out[i] = static_cast<double>(i) * 0.5;
                      });
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 0.5 * static_cast<double>(n) * static_cast<double>(n - 1) / 2.0);
}

TEST(ParallelForChunks, ValidatesArguments) {
  WorkerPool pool(2);
  EXPECT_THROW(parallel_for_chunks(pool, 10, 0, [](std::size_t, std::size_t, std::size_t) {}),
               std::invalid_argument);
  // n == 0 is a no-op, not an error.
  parallel_for_chunks(pool, 0, 8, [](std::size_t, std::size_t, std::size_t) {
    FAIL() << "no chunk should run";
  });
}

// ------------------------------------------------------------ nesting rule

/// Per outer task: the thread it ran on and the (thread, index) of every
/// nested task it issued, in execution order.
struct NestedLog {
  std::thread::id outer;
  std::vector<std::pair<std::thread::id, std::size_t>> inner;
};

void expect_inline_in_order(const std::vector<NestedLog>& logs, std::size_t inner_tasks) {
  for (std::size_t o = 0; o < logs.size(); ++o) {
    ASSERT_EQ(logs[o].inner.size(), inner_tasks) << "outer task " << o;
    for (std::size_t i = 0; i < inner_tasks; ++i) {
      EXPECT_EQ(logs[o].inner[i].first, logs[o].outer) << "outer " << o << " inner " << i;
      EXPECT_EQ(logs[o].inner[i].second, i) << "outer " << o;
    }
  }
}

TEST(WorkerPoolNesting, NestedRoundOnTheSamePoolRunsInlineInIndexOrder) {
  WorkerPool pool(4);
  std::vector<NestedLog> logs(6);
  pool.run(logs.size(), [&](std::size_t o) {
    logs[o].outer = std::this_thread::get_id();
    pool.run(5, [&](std::size_t i) {
      logs[o].inner.emplace_back(std::this_thread::get_id(), i);
    });
  });
  expect_inline_in_order(logs, 5);
}

TEST(WorkerPoolNesting, NestedRoundOnAnotherPoolRunsInline) {
  WorkerPool outer(3), inner(3);
  std::vector<NestedLog> logs(3);
  outer.run(logs.size(), [&](std::size_t o) {
    logs[o].outer = std::this_thread::get_id();
    parallel_for_chunks(inner, 4, 1, [&](std::size_t i, std::size_t, std::size_t) {
      logs[o].inner.emplace_back(std::this_thread::get_id(), i);
    });
  });
  expect_inline_in_order(logs, 4);
}

TEST(WorkerPoolNesting, NestedExceptionReachesTheOuterCaller) {
  WorkerPool pool(3);
  EXPECT_THROW(pool.run(3,
                        [&](std::size_t) {
                          pool.run(2, [](std::size_t i) {
                            if (i == 1) throw std::runtime_error("nested task failed");
                          });
                        }),
               std::runtime_error);
  std::atomic<int> ok{0};
  pool.run(4, [&](std::size_t) { ++ok; });
  EXPECT_EQ(ok.load(), 4);
}

/// A two-task round on a fresh 2-thread pool whose tasks each wait for the
/// other: it completes only if the round really fans out.
void run_round_needing_two_threads() {
  WorkerPool inner(2);
  std::latch both_running(2);
  inner.run(2, [&](std::size_t) { both_running.arrive_and_wait(); });
}

TEST(WorkerPoolNesting, OneTaskRoundLeavesNestedRoundsFreeToFanOut) {
  WorkerPool pool(4);
  pool.run(1, [](std::size_t) { run_round_needing_two_threads(); });
}

TEST(WorkerPoolNesting, SizeOnePoolLeavesNestedRoundsFreeToFanOut) {
  WorkerPool pool(1);
  pool.run(3, [](std::size_t) { run_round_needing_two_threads(); });
}

std::size_t count_occurrences(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (std::size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + needle.size()))
    ++n;
  return n;
}

TEST(WorkerPoolNesting, NestedRoundRecordsNoObsEvents) {
  namespace obs = qfc::obs;
  const std::uint32_t saved_mode = obs::detail::g_mode.load(std::memory_order_relaxed);
  obs::disable();
  obs::reset();
  obs::enable();
  {
    WorkerPool pool(2), other(2);
    pool.run(2, [&](std::size_t) {
      pool.run(3, [](std::size_t) {});
      other.run(4, [](std::size_t) {});
    });
  }
  const std::uint64_t rounds = obs::counter("parallel.rounds").value();
  const std::uint64_t tasks = obs::counter("parallel.tasks").value();
  const std::string trace = obs::trace_json();
  obs::reset();
  obs::detail::g_mode.store(saved_mode, std::memory_order_relaxed);

  EXPECT_EQ(rounds, 1u);
  EXPECT_EQ(tasks, 2u);
  EXPECT_EQ(count_occurrences(trace, "\"pool.run\""), 1u) << trace;
}

// ------------------------------------------------------------ CachedPool

TEST(CachedPool, EnvSeedsTheRequestAndSetThreadsRebuilds) {
  ::setenv("QFC_TEST_CACHED_POOL_THREADS", "3", 1);
  CachedPool cached("QFC_TEST_CACHED_POOL_THREADS");
  EXPECT_EQ(cached.request(), 3u);
  EXPECT_EQ(cached.threads(), 3u);
  const auto first = cached.get();
  EXPECT_EQ(first->size(), 3u);
  EXPECT_EQ(cached.get(), first);  // cached until re-sized

  cached.set_threads(2);
  EXPECT_EQ(cached.request(), 2u);
  const auto second = cached.get();
  EXPECT_NE(second, first);
  EXPECT_EQ(second->size(), 2u);
  EXPECT_EQ(first->size(), 3u);  // a held pool outlives the re-size

  cached.set_threads(0);  // auto: one thread per hardware thread
  EXPECT_EQ(cached.request(), 0u);
  EXPECT_GE(cached.threads(), 1u);
}

TEST(CachedPool, NonPositiveOrMissingEnvMeansAuto) {
  ::setenv("QFC_TEST_CACHED_POOL_BAD", "-2", 1);
  EXPECT_EQ(CachedPool("QFC_TEST_CACHED_POOL_BAD").request(), 0u);
  ::unsetenv("QFC_TEST_CACHED_POOL_UNSET");
  EXPECT_EQ(CachedPool("QFC_TEST_CACHED_POOL_UNSET").request(), 0u);
}

}  // namespace
