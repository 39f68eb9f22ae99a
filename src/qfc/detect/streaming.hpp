#pragma once

/// \file streaming.hpp
/// Windowed, bounded-memory generation and online analysis for the event
/// engine: EventStreamer produces the exact click streams of
/// EventEngine::run in fixed time windows, and the Streaming*Accumulator
/// classes fold each window into car_diagonal / car_matrix / correlate_all
/// / Allan-deviation results, discarding consumed events as they resolve,
/// so resident memory stays flat no matter how long the run. The two
/// diagonal accumulators (CAR, correlator) keep one rolling idler column per
/// channel and sweep channel c against channel c only; the CAR-matrix
/// accumulator, the one cross-channel result, keeps a merged idler view.
///
/// Determinism and parity contract: batch is one window of the single
/// implementation, for generation and for analysis. EventStreamer::next and
/// EventEngine::run drive the same per-channel generator (engine_plan.hpp),
/// which only pauses each stage's own RNG sub-stream (channel_rng.hpp) at a
/// window boundary. The batch analyzers car_matrix, car_diagonal and
/// correlate_all are each the matching accumulator's analysis pushed one
/// window at frontier +∞ (streaming.cpp), and every resolve runs the one
/// analysis sweep (analysis_sweep.hpp). Consequently a streamed run is
/// **bitwise identical** to EventEngine::run + the batch analyzers at every
/// window size, and at every thread count.
///
/// Window boundary handling: the delay and jitter distributions have
/// unbounded support, so a photon born inside window k can click inside
/// window k+1 (and, with probability ~e^-64 at the default slack of 32
/// Laplace scales / 16 jitter sigmas, even earlier than a window already
/// emitted). The generator runs ahead of the finalize watermark by a
/// per-channel slack, carries pending arrivals / clicks across windows,
/// and counts the astronomically rare stragglers that still land behind an
/// emitted boundary in boundary_violations() (they are folded into the
/// current window, keeping every column sorted, instead of being dropped).
/// StreamConfig::slack_override_s exists so tests can force that path.

#include <cstdint>
#include <memory>
#include <vector>

#include "qfc/detect/allan.hpp"
#include "qfc/detect/event_engine.hpp"

namespace qfc::detect {

/// Streaming-specific knobs; generation physics and seeds come from the
/// same EngineConfig / ChannelPairSpec as the batch engine.
struct StreamConfig {
  /// Window length in seconds. The run is split into
  /// ceil(duration_s / window_s) fixed windows; window k covers
  /// [k * window_s, min((k+1) * window_s, duration_s)).
  double window_s = 1.0;
  /// When > 0, replaces the automatic per-channel look-ahead slack (32
  /// Laplace delay scales for pair emission, 16 sigmas for detector
  /// jitter) with this many seconds — only useful to force boundary
  /// violations in tests. <= 0 selects the automatic slack.
  double slack_override_s = 0;
};

/// One emitted window: the clicks of both detector banks restricted to
/// [t_begin_s, t_end_s), in the same EventTable layout as a batch run.
/// Concatenating the per-channel columns of every window reproduces the
/// batch EngineResult exactly.
struct StreamWindow {
  std::size_t index = 0;
  double t_begin_s = 0;
  double t_end_s = 0;
  bool last = false;
  EngineResult events;
};

/// Windowed generator with the exact output of EventEngine::run. Usage:
///
///   EventStreamer s(cfg, {.window_s = 10.0}, specs);
///   StreamWindow w;
///   while (s.next(w)) accumulator.push(w);
///   auto result = accumulator.finish();
class EventStreamer {
 public:
  /// Validates exactly like EventEngine::run (same exceptions for bad
  /// specs) plus StreamConfig::window_s > 0.
  EventStreamer(const EngineConfig& cfg, const StreamConfig& stream,
                std::vector<ChannelPairSpec> channels);
  ~EventStreamer();
  EventStreamer(EventStreamer&&) noexcept;
  EventStreamer& operator=(EventStreamer&&) noexcept;

  /// Produce the next window into `out`. Returns false (leaving `out`
  /// untouched) once every window has been emitted.
  bool next(StreamWindow& out);

  bool done() const;
  std::size_t num_windows() const;   ///< ceil(duration / window)

  /// Clicks or arrivals that materialized behind an already-finalized
  /// window boundary (see file comment). Always 0 at the default slack in
  /// any realistic run; nonzero means window contents are no longer
  /// bitwise comparable to batch.
  std::uint64_t boundary_violations() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Online per-channel CAR: push every window, then finish() returns exactly
/// what `car_diagonal(signal, idler, ...)` would return for the whole run
/// (one CarResult per channel pair, each equal to the car_matrix diagonal
/// cell) — bitwise, at every window size and every thread count. Every
/// window must carry as many idler as signal channels. Like the batch
/// helpers, every accumulator shards its resolves on parallel::shared_pool()
/// (see parallel::set_threads), held from construction.
class StreamingCarAccumulator {
 public:
  StreamingCarAccumulator(double window_s, double side_window_spacing_s,
                          int num_side_windows = 10);
  ~StreamingCarAccumulator();
  StreamingCarAccumulator(StreamingCarAccumulator&&) noexcept;
  StreamingCarAccumulator& operator=(StreamingCarAccumulator&&) noexcept;

  void push(const StreamWindow& w);
  std::vector<CarResult> finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Online car_matrix: push every window, then finish() returns exactly what
/// `car_matrix(signal, idler, ...)` would return for the whole run — every
/// signal x idler cell, bitwise, at every window size and every thread
/// count. The paper's cross-channel "frequency matrix".
class StreamingCarMatrixAccumulator {
 public:
  StreamingCarMatrixAccumulator(double window_s, double side_window_spacing_s,
                                int num_side_windows = 10);
  ~StreamingCarMatrixAccumulator();
  StreamingCarMatrixAccumulator(StreamingCarMatrixAccumulator&&) noexcept;
  StreamingCarMatrixAccumulator& operator=(StreamingCarMatrixAccumulator&&) noexcept;

  void push(const StreamWindow& w);
  CarMatrix finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// Online correlate_all (diagonal signal-k x idler-k Δt histograms).
class StreamingCorrelatorAccumulator {
 public:
  StreamingCorrelatorAccumulator(double bin_width_s, double range_s);
  ~StreamingCorrelatorAccumulator();
  StreamingCorrelatorAccumulator(StreamingCorrelatorAccumulator&&) noexcept;
  StreamingCorrelatorAccumulator& operator=(
      StreamingCorrelatorAccumulator&&) noexcept;

  void push(const StreamWindow& w);
  std::vector<CoincidenceHistogram> finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct StreamingAllanResult {
  std::vector<double> counts;  ///< per-interval coincidence counts
  double mean_counts = 0;
  std::vector<AllanPoint> allan;  ///< Allan deviation of counts / mean
};

/// Online Allan-deviation pipeline for one (signal, idler) channel pair:
/// buffers only the clicks of the current `sample_interval_s` interval,
/// counts coincidences (|Δt| <= window/2 via count_coincidences) per
/// interval as windows flush past it, and finish() returns the interval
/// counts, their mean, and the Allan curve of the fractional counts.
/// Intervals are [i*dt, (i+1)*dt); a trailing partial interval is dropped.
class StreamingAllanAccumulator {
 public:
  StreamingAllanAccumulator(double coincidence_window_s,
                            double sample_interval_s,
                            std::size_t signal_channel = 0,
                            std::size_t idler_channel = 0);
  ~StreamingAllanAccumulator();
  StreamingAllanAccumulator(StreamingAllanAccumulator&&) noexcept;
  StreamingAllanAccumulator& operator=(StreamingAllanAccumulator&&) noexcept;

  void push(const StreamWindow& w);
  StreamingAllanResult finish();

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qfc::detect
