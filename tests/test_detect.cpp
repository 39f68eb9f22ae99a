// Tests for the detection chain (S6): detector, coincidence counting,
// CAR, fitters, event streams.

#include <cmath>

#include <gtest/gtest.h>

#include "qfc/detect/coincidence.hpp"
#include "qfc/detect/detector.hpp"
#include "qfc/detect/event_stream.hpp"
#include "qfc/detect/fit.hpp"
#include "qfc/photonics/constants.hpp"

namespace {

using namespace qfc;
using detect::DetectorParams;
using detect::SinglePhotonDetector;
using rng::Xoshiro256;

TEST(Detector, EfficiencyThinsStream) {
  DetectorParams p;
  p.efficiency = 0.25;
  p.dark_rate_hz = 0;
  p.jitter_sigma_s = 0;
  p.dead_time_s = 0;
  SinglePhotonDetector det(p);
  Xoshiro256 g(1);

  std::vector<double> photons;
  for (int i = 0; i < 100000; ++i) photons.push_back(i * 1e-5);
  const auto clicks = det.detect(photons, 1.0, g);
  EXPECT_NEAR(static_cast<double>(clicks.size()), 25000, 600);
}

TEST(Detector, DarkCountsAtExpectedRate) {
  DetectorParams p;
  p.efficiency = 1.0;
  p.dark_rate_hz = 5000;
  p.jitter_sigma_s = 0;
  p.dead_time_s = 0;
  SinglePhotonDetector det(p);
  Xoshiro256 g(2);
  const auto clicks = det.detect({}, 10.0, g);
  EXPECT_NEAR(static_cast<double>(clicks.size()), 50000, 1000);
}

TEST(Detector, DeadTimeEnforcesMinimumSpacing) {
  DetectorParams p;
  p.efficiency = 1.0;
  p.dark_rate_hz = 0;
  p.jitter_sigma_s = 0;
  // 0.95 µs (not exactly 10 photon periods, to stay clear of floating-
  // point ties): photons 100 ns apart -> exactly every 10th survives.
  p.dead_time_s = 0.95e-6;
  SinglePhotonDetector det(p);
  Xoshiro256 g(3);
  std::vector<double> photons;
  for (int i = 0; i < 1000; ++i) photons.push_back(i * 100e-9);
  const auto clicks = det.detect(photons, 1.0, g);
  for (std::size_t i = 1; i < clicks.size(); ++i)
    EXPECT_GE(clicks[i] - clicks[i - 1], p.dead_time_s - 1e-15);
  EXPECT_NEAR(static_cast<double>(clicks.size()), 100, 1);
}

TEST(Detector, JitterSpreadsArrivals) {
  DetectorParams p;
  p.efficiency = 1.0;
  p.dark_rate_hz = 0;
  p.jitter_sigma_s = 100e-12;
  p.dead_time_s = 0;
  SinglePhotonDetector det(p);
  Xoshiro256 g(4);
  std::vector<double> photons(20000, 0.5);
  const auto clicks = det.detect(photons, 1.0, g);
  double s2 = 0;
  for (double t : clicks) s2 += (t - 0.5) * (t - 0.5);
  EXPECT_NEAR(std::sqrt(s2 / static_cast<double>(clicks.size())), 100e-12, 5e-12);
}

TEST(Detector, ValidationRejectsBadParams) {
  DetectorParams p;
  p.efficiency = 1.5;
  EXPECT_THROW(SinglePhotonDetector{p}, std::invalid_argument);
  p.efficiency = 0.5;
  p.dark_rate_hz = -1;
  EXPECT_THROW(SinglePhotonDetector{p}, std::invalid_argument);
}

TEST(Coincidence, FindsCorrelatedPairs) {
  // a and b identical -> every click coincides at Δt = 0.
  std::vector<double> a, b;
  for (int i = 0; i < 1000; ++i) a.push_back(i * 1e-3);
  b = a;
  const auto n = detect::count_coincidences(a, b, 1e-9);
  EXPECT_EQ(n, 1000u);
  // Offset window far from zero finds nothing.
  EXPECT_EQ(detect::count_coincidences(a, b, 1e-9, 1e-6), 0u);
}

TEST(Coincidence, RequiresSortedInput) {
  std::vector<double> unsorted{2.0, 1.0};
  std::vector<double> ok{1.0, 2.0};
  EXPECT_THROW(detect::count_coincidences(unsorted, ok, 1e-9), std::invalid_argument);
}

TEST(Coincidence, HistogramPeaksAtOffset) {
  std::vector<double> a, b;
  const double offset = 3e-9;
  for (int i = 0; i < 5000; ++i) {
    a.push_back(i * 1e-4);
    b.push_back(i * 1e-4 - offset);  // b early: Δt = a − b = +3 ns
  }
  const auto h = detect::correlate(a, b, 1e-9, 10e-9);
  std::size_t peak = 0;
  for (std::size_t i = 1; i < h.counts.size(); ++i)
    if (h.counts[i] > h.counts[peak]) peak = i;
  EXPECT_NEAR(h.bin_time(peak), offset, 1e-9);
  EXPECT_EQ(h.total(), 5000u);
}

TEST(Coincidence, CorrelateEmptyStreams) {
  const auto h = detect::correlate({}, {}, 1e-9, 10e-9);
  EXPECT_EQ(h.total(), 0u);
  EXPECT_EQ(h.counts.size(), 21u);
  EXPECT_EQ(detect::correlate({1.0}, {}, 1e-9, 10e-9).total(), 0u);
  EXPECT_EQ(detect::correlate({}, {1.0}, 1e-9, 10e-9).total(), 0u);
}

TEST(Coincidence, CorrelateRejectsNonPositiveBinWidthOrRange) {
  EXPECT_THROW(detect::correlate({}, {}, 0.0, 1e-9), std::invalid_argument);
  EXPECT_THROW(detect::correlate({}, {}, -1e-9, 1e-9), std::invalid_argument);
  EXPECT_THROW(detect::correlate({}, {}, 1e-9, 0.0), std::invalid_argument);
  EXPECT_THROW(detect::correlate({}, {}, 1e-9, -1e-9), std::invalid_argument);
}

TEST(Coincidence, CorrelateBinBoundaryTies) {
  // Power-of-two times so the Δt/bin ratios are exact: bin width 1 s,
  // range 3 s. Δt of exactly half a bin rounds away from zero (llround).
  const std::vector<double> a{16.0};
  const std::vector<double> b{12.9, 15.5, 15.75, 16.5};
  const auto h = detect::correlate(a, b, 1.0, 3.0);
  EXPECT_EQ(h.counts[h.center_bin()], 1u);      // Δt = +0.25 -> center
  EXPECT_EQ(h.counts[h.center_bin() + 1], 1u);  // Δt = +0.5 -> bin +1
  EXPECT_EQ(h.counts[h.center_bin() - 1], 1u);  // Δt = -0.5 -> bin -1
  EXPECT_EQ(h.total(), 3u);                     // Δt = +3.1 beyond range: dropped
}

TEST(Coincidence, CarOnSyntheticStreams) {
  // Known-rate correlated + background stream: CAR should be near the
  // analytic value R_c/(S_a S_b τ).
  Xoshiro256 g(5);
  detect::PairStreamParams p;
  p.pair_rate_hz = 2000;
  p.linewidth_hz = 100e6;
  p.duration_s = 30.0;
  const auto streams = detect::generate_pair_arrivals(p, g);
  // Add uncorrelated background to both arms.
  auto bg_a = detect::generate_poisson_arrivals(3000, p.duration_s, g);
  auto bg_b = detect::generate_poisson_arrivals(3000, p.duration_s, g);
  auto a = streams.a;
  a.insert(a.end(), bg_a.begin(), bg_a.end());
  std::sort(a.begin(), a.end());
  auto b = streams.b;
  b.insert(b.end(), bg_b.begin(), bg_b.end());
  std::sort(b.begin(), b.end());

  const auto car = detect::measure_car(a, b, 20e-9, 200e-9, 10);
  const double singles = 5000;
  const double expected_acc = singles * singles * 20e-9 * p.duration_s;
  const double expected_car = (p.pair_rate_hz * p.duration_s) / expected_acc;
  EXPECT_GT(car.car, 0.5 * expected_car);
  EXPECT_LT(car.car, 2.0 * expected_car);
  EXPECT_GT(car.car, 10.0);  // sanity: clearly correlated
}

TEST(Coincidence, CarNearOneForUncorrelatedStreams) {
  Xoshiro256 g(6);
  const auto a = detect::generate_poisson_arrivals(20000, 20.0, g);
  const auto b = detect::generate_poisson_arrivals(20000, 20.0, g);
  const auto car = detect::measure_car(a, b, 10e-9, 100e-9, 10);
  EXPECT_NEAR(car.car, 1.0, 0.25);
}

TEST(EventStream, PairCorrelationWidthMatchesLinewidth) {
  Xoshiro256 g(7);
  detect::PairStreamParams p;
  p.pair_rate_hz = 50000;
  p.linewidth_hz = 100e6;
  p.duration_s = 10.0;
  const auto streams = detect::generate_pair_arrivals(p, g);
  const auto h = detect::correlate(streams.a, streams.b, 0.25e-9, 20e-9);

  std::vector<double> t, y;
  for (std::size_t i = 0; i < h.counts.size(); ++i) {
    t.push_back(h.bin_time(i));
    y.push_back(static_cast<double>(h.counts[i]));
  }
  const auto fit = detect::fit_two_sided_exponential(t, y);
  // Decay time = 1/(2π δν).
  const double expected_tau = 1.0 / (2 * photonics::pi * p.linewidth_hz);
  EXPECT_NEAR(fit.tau_s, expected_tau, 0.15 * expected_tau);
  const double lw = detect::linewidth_from_decay_time(fit.tau_s);
  EXPECT_NEAR(lw, 100e6, 15e6);
}

TEST(EventStream, TransmissionThinsArms) {
  Xoshiro256 g(8);
  detect::PairStreamParams p;
  p.pair_rate_hz = 10000;
  p.linewidth_hz = 100e6;
  p.duration_s = 5.0;
  p.transmission_a = 0.5;
  p.transmission_b = 0.1;
  const auto s = detect::generate_pair_arrivals(p, g);
  EXPECT_NEAR(static_cast<double>(s.a.size()), 25000, 700);
  EXPECT_NEAR(static_cast<double>(s.b.size()), 5000, 350);
}

TEST(Fit, ExponentialRecoversKnownTau) {
  std::vector<double> t, y;
  const double tau = 2.0e-9;
  for (int i = -40; i <= 40; ++i) {
    const double x = i * 0.25e-9;
    t.push_back(x);
    y.push_back(1000.0 * std::exp(-std::abs(x) / tau));
  }
  const auto f = detect::fit_two_sided_exponential(t, y);
  EXPECT_NEAR(f.tau_s, tau, 1e-12);
  EXPECT_NEAR(f.amplitude, 1000.0, 1e-6);
  EXPECT_GT(f.r_squared, 0.999);
}

TEST(Fit, ExponentialRejectsGarbage) {
  EXPECT_THROW(detect::fit_two_sided_exponential({1e-9}, {5.0}), std::invalid_argument);
  // Growing "decay".
  std::vector<double> t{0, 1e-9, 2e-9, 3e-9}, y{1, 10, 100, 1000};
  EXPECT_THROW(detect::fit_two_sided_exponential(t, y), std::invalid_argument);
}

TEST(Fit, JitterDeconvolution) {
  // τ_meas² = τ² + 2σ² rearranged.
  const double tau_true = 1.5e-9;
  const double sigma = 0.4e-9;
  const double tau_meas = std::sqrt(tau_true * tau_true + 2 * sigma * sigma);
  EXPECT_NEAR(detect::deconvolve_jitter(tau_meas, sigma), tau_true, 1e-15);
  // Over-correction clamps to the measured value.
  EXPECT_DOUBLE_EQ(detect::deconvolve_jitter(0.1e-9, 1e-9), 0.1e-9);
}

TEST(Fit, SinusoidRecoversVisibilityAndPhase) {
  std::vector<double> x, y;
  const double v = 0.83, c0 = 500, ph = 0.6;
  for (int i = 0; i < 24; ++i) {
    const double xi = 2 * photonics::pi * i / 24.0;
    x.push_back(xi);
    y.push_back(c0 * (1 + v * std::cos(xi + ph)));
  }
  const auto f = detect::fit_sinusoid(x, y);
  EXPECT_NEAR(f.offset, c0, 1e-9);
  EXPECT_NEAR(f.visibility, v, 1e-9);
  EXPECT_NEAR(f.phase_rad, ph, 1e-9);
}

TEST(Fit, VisibilityFromExtrema) {
  EXPECT_NEAR(detect::visibility_from_extrema(183, 17), 0.83, 1e-12);
  EXPECT_DOUBLE_EQ(detect::visibility_from_extrema(0, 0), 0.0);
  EXPECT_THROW(detect::visibility_from_extrema(1, 2), std::invalid_argument);
}

TEST(Fit, LinewidthConversionRoundTrip) {
  const double lw = 110e6;
  const double tau = 1.0 / (2 * photonics::pi * lw);
  EXPECT_NEAR(detect::linewidth_from_decay_time(tau), lw, 1e-3);
  EXPECT_THROW(detect::linewidth_from_decay_time(0.0), std::invalid_argument);
}

}  // namespace
