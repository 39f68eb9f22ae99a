// Tests for the windowed streaming engine and its online accumulators:
// bitwise streaming-vs-batch parity across emission modes, window sizes
// and thread counts; boundary-violation accounting; and the
// streaming-backed core façades.

#include <cmath>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/core/comb_source.hpp"
#include "qfc/core/stability.hpp"
#include "qfc/detect/event_engine.hpp"
#include "qfc/detect/streaming.hpp"

#include "threads_guard.hpp"

namespace {

using namespace qfc;
using test::at_threads;
using detect::ChannelPairSpec;
using detect::EngineConfig;
using detect::EngineResult;
using detect::EventEngine;
using detect::EventStreamer;
using detect::EventTable;
using detect::StreamConfig;
using detect::StreamWindow;

constexpr double kDuration = 0.5;

ChannelPairSpec base_spec(int k) {
  ChannelPairSpec s;
  s.pair_rate_hz = 20000.0 + 1500.0 * k;
  s.linewidth_hz = 110e6;
  s.transmission_signal = 0.8;
  s.transmission_idler = 0.75;
  s.background_rate_signal_hz = 1200.0;
  s.background_rate_idler_hz = 900.0;
  s.detector_signal.efficiency = 0.25;
  s.detector_signal.dark_rate_hz = 5e3;
  s.detector_signal.jitter_sigma_s = 120e-12;
  s.detector_signal.dead_time_s = 1e-6;
  s.detector_idler = s.detector_signal;
  s.detector_idler.efficiency = 0.2;
  return s;
}

std::vector<ChannelPairSpec> specs_for(detect::EmissionMode mode) {
  std::vector<ChannelPairSpec> specs;
  for (int k = 0; k < 3; ++k) {
    ChannelPairSpec s = base_spec(k);
    switch (mode) {
      case detect::EmissionMode::Cw:
        break;
      case detect::EmissionMode::Pulsed:
        s.emission = detect::EmissionMode::Pulsed;
        s.pair_rate_hz = 0;
        s.pulsed.repetition_rate_hz = 1e6;
        s.pulsed.mean_pairs_per_pulse = 0.02 + 0.005 * k;
        s.pulsed.pulse_sigma_s = 30e-12;
        s.pulsed.bin_separation_s = 400e-12;
        s.pulsed.late_fraction = 0.5;
        break;
      case detect::EmissionMode::PiecewiseRates:
        s.emission = detect::EmissionMode::PiecewiseRates;
        s.pair_rate_hz = 0;
        s.segments = {{0.2, 15000.0 + 1000.0 * k, 2000.0, 1000.0, 500.0, 250.0},
                      {0.2, 5000.0, 0.0, 0.0, 0.0, 0.0},
                      {0.2, 25000.0, 1000.0, 2000.0, 250.0, 500.0}};
        break;
    }
    // Channel 2 is deliberately empty: no pairs, no backgrounds, no darks.
    if (k == 2) {
      s.pair_rate_hz = 0;
      s.background_rate_signal_hz = 0;
      s.background_rate_idler_hz = 0;
      s.detector_signal.dark_rate_hz = 0;
      s.detector_idler.dark_rate_hz = 0;
      s.pulsed.mean_pairs_per_pulse = 0;
      for (auto& seg : s.segments) {
        seg.pair_rate_hz = 0;
        seg.background_rate_signal_hz = 0;
        seg.background_rate_idler_hz = 0;
        seg.dark_rate_signal_hz = 0;
        seg.dark_rate_idler_hz = 0;
      }
    }
    specs.push_back(s);
  }
  return specs;
}

EngineConfig engine_config() {
  EngineConfig ec;
  ec.duration_s = kDuration;
  ec.seed = 20170327;
  return ec;
}

/// Drain a streamer, concatenating the per-window columns per channel.
EngineResult drain(EventStreamer& s) {
  std::vector<std::vector<double>> sig, idl;
  StreamWindow w;
  while (s.next(w)) {
    const std::size_t n = w.events.signal.num_channels();
    if (sig.empty()) {
      sig.resize(n);
      idl.resize(n);
    }
    EXPECT_EQ(n, sig.size()) << "channel count changed mid-stream";
    for (std::size_t c = 0; c < n; ++c) {
      const auto col_s = w.events.signal.channel_clicks(c);
      const auto col_i = w.events.idler.channel_clicks(c);
      sig[c].insert(sig[c].end(), col_s.begin(), col_s.end());
      idl[c].insert(idl[c].end(), col_i.begin(), col_i.end());
    }
  }
  EngineResult r;
  r.signal = EventTable::from_columns(std::move(sig));
  r.idler = EventTable::from_columns(std::move(idl));
  return r;
}

void expect_car_equal(const detect::CarResult& a, const detect::CarResult& b,
                      const std::string& what) {
  EXPECT_EQ(a.coincidences, b.coincidences) << what;
  EXPECT_EQ(a.accidentals, b.accidentals) << what;
  EXPECT_EQ(a.car, b.car) << what;
  EXPECT_EQ(a.car_err, b.car_err) << what;
}

/// Window sizes exercised by the parity sweep: several windows, a window
/// not dividing the duration, a sub-millisecond window (thousands of
/// boundaries, far below any analysis reach of interest), and the
/// single-window degenerate case (window > duration). The CI sanitizer
/// legs add one more via QFC_STREAM_TEST_WINDOW_S.
std::vector<double> parity_windows() {
  std::vector<double> w{kDuration / 8.0, 0.137, 7e-4, 2.0 * kDuration};
  if (const char* env = std::getenv("QFC_STREAM_TEST_WINDOW_S")) {
    const double v = std::atof(env);
    if (v > 0) w.push_back(v);
  }
  return w;
}

constexpr double kCarWindow = 8e-9;
constexpr double kCarSpacing = 100e-9;
constexpr double kCorrBin = 1e-9;
constexpr double kCorrRange = 40e-9;

class StreamingParity
    : public ::testing::TestWithParam<detect::EmissionMode> {};

TEST_P(StreamingParity, BitwiseMatchesBatchAcrossWindowSizesAndThreads) {
  const auto specs = specs_for(GetParam());
  const EngineConfig ec = engine_config();
  // The batch reference runs single-threaded: every streamed run below is
  // compared against it at 1, 2 and 4 threads.
  test::ThreadsGuard guard;
  parallel::set_threads(1);
  const EngineResult batch = EventEngine(ec).run(specs);
  const auto batch_car =
      detect::car_matrix(batch.signal, batch.idler, kCarWindow, kCarSpacing, 10);
  const auto batch_diag =
      detect::car_diagonal(batch.signal, batch.idler, kCarWindow, kCarSpacing, 10);
  ASSERT_EQ(batch_diag.size(), specs.size());
  const auto batch_hists =
      detect::correlate_all(batch.signal, batch.idler, kCorrBin, kCorrRange);

  for (double window_s : parity_windows()) {
    SCOPED_TRACE("window_s = " + std::to_string(window_s));
    StreamConfig sc;
    sc.window_s = window_s;
    for (unsigned threads : {1u, 2u, 4u}) {
      SCOPED_TRACE("threads = " + std::to_string(threads));
      parallel::set_threads(threads);
      EventStreamer streamer(ec, sc, specs);
      detect::StreamingCarAccumulator car(kCarWindow, kCarSpacing, 10);
      detect::StreamingCarMatrixAccumulator matrix(kCarWindow, kCarSpacing, 10);
      detect::StreamingCorrelatorAccumulator corr(kCorrBin, kCorrRange);
      std::vector<std::vector<double>> sig(specs.size()), idl(specs.size());
      StreamWindow w;
      while (streamer.next(w)) {
        car.push(w);
        matrix.push(w);
        corr.push(w);
        for (std::size_t c = 0; c < specs.size(); ++c) {
          const auto col_s = w.events.signal.channel_clicks(c);
          const auto col_i = w.events.idler.channel_clicks(c);
          sig[c].insert(sig[c].end(), col_s.begin(), col_s.end());
          idl[c].insert(idl[c].end(), col_i.begin(), col_i.end());
        }
      }
      EXPECT_EQ(streamer.boundary_violations(), 0u);
      EXPECT_EQ(EventTable::from_columns(std::move(sig)), batch.signal);
      EXPECT_EQ(EventTable::from_columns(std::move(idl)), batch.idler);
      const auto cars = car.finish();
      ASSERT_EQ(cars.size(), specs.size());
      for (std::size_t c = 0; c < cars.size(); ++c) {
        const std::string ch = "channel " + std::to_string(c);
        expect_car_equal(cars[c], batch_diag[c], ch + " vs car_diagonal");
        expect_car_equal(cars[c], batch_car.at(c, c), ch + " vs car_matrix");
      }
      const detect::CarMatrix cells = matrix.finish();
      ASSERT_EQ(cells.num_signal, batch_car.num_signal);
      ASSERT_EQ(cells.num_idler, batch_car.num_idler);
      ASSERT_EQ(cells.cells.size(), batch_car.cells.size());
      for (std::size_t i = 0; i < cells.cells.size(); ++i)
        expect_car_equal(cells.cells[i], batch_car.cells[i],
                         "matrix cell " + std::to_string(i) + " vs car_matrix");
      const auto hists = corr.finish();
      ASSERT_EQ(hists.size(), batch_hists.size());
      for (std::size_t c = 0; c < hists.size(); ++c)
        EXPECT_EQ(hists[c].counts, batch_hists[c].counts) << "channel " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEmissionModes, StreamingParity,
                         ::testing::Values(detect::EmissionMode::Cw,
                                           detect::EmissionMode::Pulsed,
                                           detect::EmissionMode::PiecewiseRates));

TEST(EventStreamer, BitwiseInvariantAcrossGenerationThreadCounts) {
  const auto specs = specs_for(detect::EmissionMode::Cw);
  StreamConfig sc;
  sc.window_s = 0.05;
  const auto stream = [&] {
    EventStreamer s(engine_config(), sc, specs);
    return drain(s);
  };
  const EngineResult r1 = at_threads(1, stream);
  const EngineResult r3 = at_threads(3, stream);
  EXPECT_EQ(r1.signal, r3.signal);
  EXPECT_EQ(r1.idler, r3.idler);
}

TEST(EventStreamer, WindowMetadataAndScheduling) {
  const auto specs = specs_for(detect::EmissionMode::Cw);
  StreamConfig sc;
  sc.window_s = 0.2;
  EventStreamer s(engine_config(), sc, specs);
  EXPECT_EQ(s.num_windows(), 3u);  // 0.5 / 0.2
  StreamWindow w;
  std::size_t k = 0;
  while (s.next(w)) {
    EXPECT_EQ(w.index, k);
    EXPECT_DOUBLE_EQ(w.t_begin_s, 0.2 * static_cast<double>(k));
    EXPECT_EQ(w.last, k + 1 == s.num_windows());
    EXPECT_EQ(w.t_end_s, w.last ? kDuration : 0.2 * static_cast<double>(k + 1));
    for (std::size_t c = 0; c < specs.size(); ++c) {
      for (double t : w.events.signal.channel_clicks(c)) {
        EXPECT_GE(t, w.t_begin_s);
        EXPECT_LT(t, w.t_end_s);
      }
    }
    ++k;
  }
  EXPECT_EQ(k, 3u);
  EXPECT_TRUE(s.done());
  EXPECT_FALSE(s.next(w));
}

TEST(EventStreamer, RejectsBadConfigsLikeBatch) {
  const auto specs = specs_for(detect::EmissionMode::Cw);
  EngineConfig ec = engine_config();
  StreamConfig sc;
  sc.window_s = 0;
  EXPECT_THROW(EventStreamer(ec, sc, specs), std::invalid_argument);
  sc.window_s = 0.1;
  ec.duration_s = -1;
  EXPECT_THROW(EventStreamer(ec, sc, specs), std::invalid_argument);
  ec = engine_config();
  auto bad = specs;
  bad[0].pair_rate_hz = -5;
  EXPECT_THROW(EventStreamer(ec, sc, bad), std::invalid_argument);
}

TEST(EventStreamer, TinySlackForcesCountedBoundaryViolations) {
  // A pathological configuration — huge detector jitter, narrow linewidth,
  // and the look-ahead slack overridden to 1 ps — guarantees clicks and
  // arrivals materialize behind already-emitted boundaries. The streamer
  // must count them and still complete with valid (sorted) windows; the
  // CAR accumulator must repair the junction of every channel's rolling
  // columns and still report one result per channel, and the CAR-matrix
  // accumulator must re-sort its merged idler view and report every cell.
  std::vector<ChannelPairSpec> specs(2);
  specs[0].pair_rate_hz = 50000;
  specs[0].linewidth_hz = 1e3;  // Laplace delay scale ~160 us
  specs[0].detector_signal.efficiency = 0.9;
  specs[0].detector_signal.dark_rate_hz = 100;
  specs[0].detector_signal.jitter_sigma_s = 5e-3;
  specs[0].detector_signal.dead_time_s = 0;
  specs[0].detector_idler = specs[0].detector_signal;
  specs[1] = specs[0];
  specs[1].pair_rate_hz = 30000;

  StreamConfig sc;
  sc.window_s = 0.05;
  sc.slack_override_s = 1e-12;
  EventStreamer s(engine_config(), sc, specs);
  detect::StreamingCarAccumulator car(kCarWindow, kCarSpacing, 10);
  // Side windows 1 ms apart keep ~5 ms of merged idler view between
  // windows, so stragglers land behind its tail and force the re-sort.
  detect::StreamingCarMatrixAccumulator matrix(kCarWindow, 1e-3, 10);
  StreamWindow w;
  std::size_t total = 0;
  while (s.next(w)) {
    total += w.events.signal.size() + w.events.idler.size();
    car.push(w);  // must tolerate out-of-order windows (repair paths)
    matrix.push(w);
  }
  EXPECT_GT(total, 0u);
  EXPECT_GT(s.boundary_violations(), 0u);
  const auto cars = car.finish();
  ASSERT_EQ(cars.size(), specs.size());
  const detect::CarMatrix cells = matrix.finish();
  ASSERT_EQ(cells.cells.size(), specs.size() * specs.size());
  for (const detect::CarResult& r : cells.cells) {
    EXPECT_GT(r.accidentals, 0.0);
    EXPECT_TRUE(std::isfinite(r.car));
  }
  for (const detect::CarResult& r : cars) {
    EXPECT_GE(r.coincidences, 0.0);
    EXPECT_GT(r.accidentals, 0.0);
    EXPECT_TRUE(std::isfinite(r.car));
    EXPECT_TRUE(std::isfinite(r.car_err));
  }
}

TEST(StreamingAllanAccumulator, MatchesDirectIntervalCounting) {
  const auto specs = specs_for(detect::EmissionMode::Cw);
  const EngineConfig ec = engine_config();
  const EngineResult batch = EventEngine(ec).run(specs);

  const double dt = 0.05;
  const double window = 40e-9;
  StreamConfig sc;
  sc.window_s = 0.02;  // windows do not align with the intervals
  EventStreamer s(ec, sc, specs);
  detect::StreamingAllanAccumulator acc(window, dt, 0, 0);
  StreamWindow w;
  while (s.next(w)) acc.push(w);
  const auto res = acc.finish();

  const auto sig = batch.signal.channel_clicks(0);
  const auto idl = batch.idler.channel_clicks(0);
  const auto n = static_cast<std::size_t>(kDuration / dt);
  ASSERT_EQ(res.counts.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t0 = static_cast<double>(i) * dt;
    const double t1 = static_cast<double>(i + 1) * dt;
    const std::vector<double> a(
        std::lower_bound(sig.begin(), sig.end(), t0),
        std::lower_bound(sig.begin(), sig.end(), t1));
    const std::vector<double> b(
        std::lower_bound(idl.begin(), idl.end(), t0),
        std::lower_bound(idl.begin(), idl.end(), t1));
    EXPECT_EQ(res.counts[i],
              static_cast<double>(detect::count_coincidences(a, b, window)))
        << "interval " << i;
  }
  EXPECT_GT(res.mean_counts, 0.0);
  EXPECT_FALSE(res.allan.empty());
}

TEST(StreamingAccumulators, RejectMisuse) {
  detect::StreamingCarAccumulator car(kCarWindow, kCarSpacing, 10);
  (void)car.finish();
  detect::StreamingCarAccumulator car2(kCarWindow, kCarSpacing, 10);
  (void)car2.finish();
  EXPECT_THROW((void)car2.finish(), std::logic_error);
  EXPECT_THROW(detect::StreamingCarAccumulator(0, kCarSpacing, 10),
               std::invalid_argument);
  EXPECT_THROW(detect::StreamingCarAccumulator(kCarWindow, kCarWindow / 2, 10),
               std::invalid_argument);
  EXPECT_THROW(detect::StreamingCorrelatorAccumulator(0, 1e-9),
               std::invalid_argument);
  EXPECT_THROW(detect::StreamingAllanAccumulator(0, 1), std::invalid_argument);

  // The CAR-matrix accumulator checks its grid like car_matrix and guards
  // its lifecycle like the others.
  EXPECT_THROW(detect::StreamingCarMatrixAccumulator(0, kCarSpacing, 10),
               std::invalid_argument);
  EXPECT_THROW(detect::StreamingCarMatrixAccumulator(kCarWindow, kCarWindow / 2, 10),
               std::invalid_argument);
  EXPECT_THROW(detect::StreamingCarMatrixAccumulator(kCarWindow, kCarSpacing, 0),
               std::invalid_argument);
  StreamWindow two_channels;
  two_channels.events.signal = EventTable::from_columns({{}, {}});
  two_channels.events.idler = two_channels.events.signal;
  detect::StreamingCarMatrixAccumulator matrix(kCarWindow, kCarSpacing, 10);
  matrix.push(two_channels);
  EXPECT_EQ(matrix.finish().cells.size(), 4u);
  EXPECT_THROW(matrix.push(two_channels), std::logic_error);
  EXPECT_THROW((void)matrix.finish(), std::logic_error);

  // The diagonal accumulators pair signal channel c with idler channel c,
  // so a window must carry as many idler as signal channels.
  StreamWindow mismatched;
  mismatched.events.signal = EventTable::from_columns({{}, {}});
  mismatched.events.idler = EventTable::from_columns({{}});
  detect::StreamingCarAccumulator car3(kCarWindow, kCarSpacing, 10);
  EXPECT_THROW(car3.push(mismatched), std::invalid_argument);
  detect::StreamingCorrelatorAccumulator corr(kCorrBin, kCorrRange);
  EXPECT_THROW(corr.push(mismatched), std::invalid_argument);

  // Every per-channel accumulator fixes the channel counts at its first
  // window and rejects a later window that changes them.
  StreamWindow one_channel;
  one_channel.events.signal = EventTable::from_columns({{}});
  one_channel.events.idler = one_channel.events.signal;
  detect::StreamingCarAccumulator car4(kCarWindow, kCarSpacing, 10);
  car4.push(two_channels);
  EXPECT_THROW(car4.push(one_channel), std::invalid_argument);
  detect::StreamingCorrelatorAccumulator corr2(kCorrBin, kCorrRange);
  corr2.push(two_channels);
  EXPECT_THROW(corr2.push(one_channel), std::invalid_argument);
  detect::StreamingCarMatrixAccumulator matrix2(kCarWindow, kCarSpacing, 10);
  matrix2.push(two_channels);
  EXPECT_THROW(matrix2.push(one_channel), std::invalid_argument);
  StreamWindow idler_changed = two_channels;
  idler_changed.events.idler = one_channel.events.idler;
  detect::StreamingCarMatrixAccumulator matrix3(kCarWindow, kCarSpacing, 10);
  matrix3.push(two_channels);
  EXPECT_THROW(matrix3.push(idler_changed), std::invalid_argument);
}

}  // namespace
