// Distribution validation of the thinned-class pair samplers: the engine
// draws only the pairs that leave at least one detected photon (both arms,
// signal only, idler only) with the detector efficiency folded into the
// per-arm transmission. Realizations differ from a per-pair, per-photon
// Bernoulli simulation, so it is validated by distribution: at several
// seeds, per-arm singles, true coincidences and CAR of every emission mode
// are compared with their analytic means and with a test-local copy of the
// per-pair Bernoulli sampler (the reference below). A QkdNetwork check
// compares per-user sifted rate and QBER with analytic_channel_performance.
// Every bound is 4 standard errors of the compared mean.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/core/comb_source.hpp"
#include "qfc/core/qkd.hpp"
#include "qfc/core/qkd_network.hpp"
#include "qfc/detect/coincidence.hpp"
#include "qfc/detect/detector.hpp"
#include "qfc/detect/event_engine.hpp"
#include "qfc/detect/event_stream.hpp"
#include "qfc/photonics/constants.hpp"
#include "qfc/rng/distributions.hpp"

namespace {

using namespace qfc;
using detect::ChannelPairSpec;
using detect::EmissionMode;
using detect::PairStreams;
using detect::RateSegment;

constexpr double kSigmas = 4.0;
constexpr int kSeeds = 6;
constexpr double kDuration = 0.5;
constexpr double kWindow = 8e-9;
constexpr int kSideWindows = 10;

// ------------------------------------------------------------- reference

/// Per-pair Bernoulli sampler: every emitted pair draws a Laplace delay and
/// one transmission Bernoulli per arm, whether or not its photons survive.
/// This is the sampler the thinned-class kernels replace; it is kept here,
/// not in the library, as the distribution reference.
void reference_emit_pair(double t0, double scale, const ChannelPairSpec& spec,
                         PairStreams& s, rng::Xoshiro256& g) {
  const double delta = rng::sample_double_exponential(g, 1.0 / scale);
  const double ta = t0 + delta / 2.0;
  const double tb = t0 - delta / 2.0;
  if (ta >= 0 && ta < kDuration && rng::sample_bernoulli(g, spec.transmission_signal))
    s.a.push_back(ta);
  if (tb >= 0 && tb < kDuration && rng::sample_bernoulli(g, spec.transmission_idler))
    s.b.push_back(tb);
}

PairStreams reference_pairs(const ChannelPairSpec& spec, rng::Xoshiro256& g) {
  const double scale = 1.0 / (2.0 * photonics::pi * spec.linewidth_hz);
  PairStreams s;
  switch (spec.emission) {
    case EmissionMode::Cw:
      for (double t = rng::sample_exponential(g, spec.pair_rate_hz); t < kDuration;
           t += rng::sample_exponential(g, spec.pair_rate_hz))
        reference_emit_pair(t, scale, spec, s, g);
      break;
    case EmissionMode::Pulsed: {
      const double period = 1.0 / spec.pulsed.repetition_rate_hz;
      for (double slot = 0; slot * period < kDuration; slot += 1) {
        const std::uint64_t n = rng::sample_poisson(g, spec.pulsed.mean_pairs_per_pulse);
        for (std::uint64_t i = 0; i < n; ++i) {
          double t0 = slot * period;
          if (rng::sample_bernoulli(g, spec.pulsed.late_fraction))
            t0 += spec.pulsed.bin_separation_s;
          t0 += rng::sample_normal(g, 0.0, spec.pulsed.pulse_sigma_s);
          reference_emit_pair(t0, scale, spec, s, g);
        }
      }
      break;
    }
    case EmissionMode::PiecewiseRates: {
      double start = 0;
      for (const RateSegment& seg : spec.segments) {
        const double end = std::min(start + seg.duration_s, kDuration);
        for (double t = start + rng::sample_exponential(g, seg.pair_rate_hz); t < end;
             t += rng::sample_exponential(g, seg.pair_rate_hz))
          reference_emit_pair(t, scale, spec, s, g);
        start += seg.duration_s;
      }
      break;
    }
  }
  return s;
}

/// One arm of the reference chain: pair photons plus background photons,
/// then the per-photon detector (efficiency Bernoulli, jitter, darks).
std::vector<double> reference_arm(const ChannelPairSpec& spec, std::vector<double> photons,
                                  double bg_rate_hz, double RateSegment::*pw_bg,
                                  double RateSegment::*pw_dark,
                                  const detect::DetectorParams& det, rng::Xoshiro256& g) {
  const auto bg = detect::generate_poisson_arrivals(bg_rate_hz, kDuration, g);
  photons.insert(photons.end(), bg.begin(), bg.end());
  std::vector<double> schedule_darks;
  if (spec.emission == EmissionMode::PiecewiseRates) {
    const auto pw = detect::generate_piecewise_poisson_arrivals(spec.segments, pw_bg,
                                                                kDuration, g);
    photons.insert(photons.end(), pw.begin(), pw.end());
    schedule_darks =
        detect::generate_piecewise_poisson_arrivals(spec.segments, pw_dark, kDuration, g);
  }
  return detect::SinglePhotonDetector(det).detect(photons, schedule_darks, kDuration, g);
}

// ------------------------------------------------------------ statistics

struct Clicks {
  std::vector<double> a, b;
};

Clicks run_engine(const ChannelPairSpec& spec, std::uint64_t seed) {
  const detect::EngineResult r = detect::EventEngine({kDuration, seed}).run({spec});
  return {r.signal.channel_clicks(0), r.idler.channel_clicks(0)};
}

Clicks run_reference(const ChannelPairSpec& spec, std::uint64_t seed) {
  rng::Xoshiro256 g(seed);
  const PairStreams pairs = reference_pairs(spec, g);
  Clicks c;
  c.a = reference_arm(spec, pairs.a, spec.background_rate_signal_hz,
                      &RateSegment::background_rate_signal_hz,
                      &RateSegment::dark_rate_signal_hz, spec.detector_signal, g);
  c.b = reference_arm(spec, pairs.b, spec.background_rate_idler_hz,
                      &RateSegment::background_rate_idler_hz,
                      &RateSegment::dark_rate_idler_hz, spec.detector_idler, g);
  return c;
}

/// Mean of one observable over the seeds with its standard error.
struct Estimate {
  double mean = 0;
  double err = 0;
};

/// Per-arm singles, true coincidences (peak minus mean side window) and
/// CAR, each averaged over kSeeds runs. Singles errors come from the
/// Poisson variance of the observed counts, true-coincidence errors from
/// var(C) + var(A) = C + A / K, and CAR errors from measure_car's car_err.
struct Observables {
  Estimate singles_a, singles_b, true_coinc, car;
};

template <class Run>
Observables observe(const ChannelPairSpec& spec, double side_spacing_s,
                    std::uint64_t seed0, const Run& run) {
  double sa = 0, sb = 0, tc = 0, tc_var = 0, car = 0, car_var = 0;
  for (int i = 0; i < kSeeds; ++i) {
    const Clicks c = run(spec, seed0 + static_cast<std::uint64_t>(i));
    const detect::CarResult r =
        detect::measure_car(c.a, c.b, kWindow, side_spacing_s, kSideWindows);
    sa += static_cast<double>(c.a.size());
    sb += static_cast<double>(c.b.size());
    tc += r.coincidences - r.accidentals;
    tc_var += r.coincidences + r.accidentals / kSideWindows;
    car += r.car;
    car_var += r.car_err * r.car_err;
  }
  const double n = kSeeds;
  return {{sa / n, std::sqrt(sa) / n},
          {sb / n, std::sqrt(sb) / n},
          {tc / n, std::sqrt(tc_var) / n},
          {car / n, std::sqrt(car_var) / n}};
}

/// |a − b| within kSigmas combined standard errors.
void expect_agree(const Estimate& a, const Estimate& b, const std::string& what) {
  const double sigma = std::hypot(a.err, b.err);
  EXPECT_LE(std::abs(a.mean - b.mean), kSigmas * sigma)
      << what << ": " << a.mean << " vs " << b.mean << " (sigma " << sigma << ")";
}

/// |estimate − analytic| within kSigmas standard errors of the estimate.
void expect_near_analytic(const Estimate& e, double analytic, const std::string& what) {
  expect_agree(e, {analytic, 0.0}, what);
}

/// Fraction of true pairs inside the ±kWindow/2 peak: the Laplace delay of
/// scale 1/(2π δν) (detector jitter is negligible against the window).
double peak_capture(double linewidth_hz) {
  const double scale = 1.0 / (2.0 * photonics::pi * linewidth_hz);
  return -std::expm1(-kWindow / (2.0 * scale));
}

ChannelPairSpec lossy_spec() {
  ChannelPairSpec s;
  s.pair_rate_hz = 200e3;
  s.linewidth_hz = 100e6;
  s.transmission_signal = 0.7;
  s.transmission_idler = 0.5;
  s.background_rate_signal_hz = 20e3;
  s.background_rate_idler_hz = 30e3;
  s.detector_signal.efficiency = 0.6;
  s.detector_signal.dark_rate_hz = 2e3;
  s.detector_signal.jitter_sigma_s = 30e-12;
  s.detector_signal.dead_time_s = 0;  // keeps the singles means linear
  s.detector_idler = s.detector_signal;
  s.detector_idler.efficiency = 0.5;
  s.detector_idler.dark_rate_hz = 3e3;
  return s;
}

double eta_a(const ChannelPairSpec& s) {
  return s.transmission_signal * s.detector_signal.efficiency;
}
double eta_b(const ChannelPairSpec& s) {
  return s.transmission_idler * s.detector_idler.efficiency;
}

/// Detected singles rate of one arm apart from the pair photons: spec
/// background thinned by efficiency plus detector darks.
double floor_rate_a(const ChannelPairSpec& s) {
  return s.background_rate_signal_hz * s.detector_signal.efficiency +
         s.detector_signal.dark_rate_hz;
}
double floor_rate_b(const ChannelPairSpec& s) {
  return s.background_rate_idler_hz * s.detector_idler.efficiency +
         s.detector_idler.dark_rate_hz;
}

void compare_with_reference(const Observables& engine, const Observables& ref) {
  expect_agree(engine.singles_a, ref.singles_a, "singles a vs reference");
  expect_agree(engine.singles_b, ref.singles_b, "singles b vs reference");
  expect_agree(engine.true_coinc, ref.true_coinc, "true coincidences vs reference");
  expect_agree(engine.car, ref.car, "CAR vs reference");
}

// ----------------------------------------------------------------- tests

TEST(EmissionDistribution, CwMatchesAnalyticAndPerPairReference) {
  const ChannelPairSpec spec = lossy_spec();
  const double spacing = 200e-9;
  const Observables engine = observe(spec, spacing, 100, run_engine);
  const Observables ref = observe(spec, spacing, 200, run_reference);

  const double sa = spec.pair_rate_hz * eta_a(spec) + floor_rate_a(spec);
  const double sb = spec.pair_rate_hz * eta_b(spec) + floor_rate_b(spec);
  const double true_c = spec.pair_rate_hz * eta_a(spec) * eta_b(spec) * kDuration *
                        peak_capture(spec.linewidth_hz);
  const double acc = sa * sb * kWindow * kDuration;
  expect_near_analytic(engine.singles_a, sa * kDuration, "singles a");
  expect_near_analytic(engine.singles_b, sb * kDuration, "singles b");
  expect_near_analytic(engine.true_coinc, true_c, "true coincidences");
  expect_near_analytic(engine.car, (true_c + acc) / acc, "CAR");
  compare_with_reference(engine, ref);
}

TEST(EmissionDistribution, DoublePulseMatchesAnalyticAndPerPairReference) {
  ChannelPairSpec spec = lossy_spec();
  spec.emission = EmissionMode::Pulsed;
  spec.pair_rate_hz = 0;
  spec.pulsed.repetition_rate_hz = 10e6;
  spec.pulsed.mean_pairs_per_pulse = 0.02;
  spec.pulsed.bin_separation_s = 20e-9;
  spec.pulsed.late_fraction = 0.4;
  spec.pulsed.pulse_sigma_s = 1e-9;
  // Side windows one repetition period apart: a pulsed source's accidental
  // floor is the neighboring pulse slot, whose Poisson pair numbers make it
  // equal to the multi-pair floor under the peak.
  const double spacing = 1.0 / spec.pulsed.repetition_rate_hz;
  const Observables engine = observe(spec, spacing, 300, run_engine);
  const Observables ref = observe(spec, spacing, 400, run_reference);

  // The CAR floor depends on the pulse-envelope overlap of independent
  // photons, so it is checked against the reference only.
  const double rate = spec.pulsed.mean_pairs_per_pulse * spec.pulsed.repetition_rate_hz;
  expect_near_analytic(engine.singles_a,
                       (rate * eta_a(spec) + floor_rate_a(spec)) * kDuration, "singles a");
  expect_near_analytic(engine.singles_b,
                       (rate * eta_b(spec) + floor_rate_b(spec)) * kDuration, "singles b");
  expect_near_analytic(engine.true_coinc,
                       rate * eta_a(spec) * eta_b(spec) * kDuration *
                           peak_capture(spec.linewidth_hz),
                       "true coincidences");
  compare_with_reference(engine, ref);
}

TEST(EmissionDistribution, PiecewiseMatchesAnalyticAndPerPairReference) {
  ChannelPairSpec spec = lossy_spec();
  spec.emission = EmissionMode::PiecewiseRates;
  spec.pair_rate_hz = 0;
  const double rates[] = {100e3, 250e3, 150e3, 300e3};
  for (int k = 0; k < 4; ++k) {
    RateSegment seg;
    seg.duration_s = kDuration / 4;
    seg.pair_rate_hz = rates[k];
    seg.background_rate_signal_hz = 5e3 * k;
    seg.background_rate_idler_hz = 4e3 * (3 - k);
    seg.dark_rate_signal_hz = 1e3 * k;
    seg.dark_rate_idler_hz = 500.0;
    spec.segments.push_back(seg);
  }
  const double spacing = 200e-9;
  const Observables engine = observe(spec, spacing, 500, run_engine);
  const Observables ref = observe(spec, spacing, 600, run_reference);

  // Rates are constant within a segment, so every mean is a sum over them.
  double sa = 0, sb = 0, true_c = 0, acc = 0;
  for (const RateSegment& seg : spec.segments) {
    const double ra = seg.pair_rate_hz * eta_a(spec) + floor_rate_a(spec) +
                      seg.background_rate_signal_hz * spec.detector_signal.efficiency +
                      seg.dark_rate_signal_hz;
    const double rb = seg.pair_rate_hz * eta_b(spec) + floor_rate_b(spec) +
                      seg.background_rate_idler_hz * spec.detector_idler.efficiency +
                      seg.dark_rate_idler_hz;
    sa += ra * seg.duration_s;
    sb += rb * seg.duration_s;
    true_c += seg.pair_rate_hz * eta_a(spec) * eta_b(spec) * seg.duration_s;
    acc += ra * rb * kWindow * seg.duration_s;
  }
  true_c *= peak_capture(spec.linewidth_hz);
  expect_near_analytic(engine.singles_a, sa, "singles a");
  expect_near_analytic(engine.singles_b, sb, "singles b");
  expect_near_analytic(engine.true_coinc, true_c, "true coincidences");
  expect_near_analytic(engine.car, (true_c + acc) / acc, "CAR");
  compare_with_reference(engine, ref);
}

TEST(EmissionDistribution, LosslessArmKeepsEveryPartnerAndDeadArmNone) {
  // eta = 1 on one arm makes the other arm's one-photon class unreachable:
  // every signal photon keeps its idler partner (within 40 delay scales,
  // P(miss) ~ e^-40). eta = 0 on an arm leaves it empty.
  detect::PairStreamParams p;
  p.pair_rate_hz = 50e3;
  p.linewidth_hz = 1e9;
  p.duration_s = 1.0;
  p.transmission_a = 0.3;
  p.transmission_b = 1.0;
  rng::Xoshiro256 g(9);
  const PairStreams full = detect::generate_pair_arrivals(p, g);
  ASSERT_FALSE(full.a.empty());
  const double reach = 40.0 / (2.0 * photonics::pi * p.linewidth_hz);
  std::size_t orphans = 0;
  for (const double ta : full.a) {
    const auto it = std::lower_bound(full.b.begin(), full.b.end(), ta - reach);
    if (it == full.b.end() || *it > ta + reach) ++orphans;
  }
  EXPECT_EQ(orphans, 0u);

  p.transmission_b = 0.0;
  const PairStreams dead = detect::generate_pair_arrivals(p, g);
  EXPECT_TRUE(dead.b.empty());
  EXPECT_FALSE(dead.a.empty());
}

TEST(EmissionDistribution, NetworkSiftedRateAndQberMatchAnalyticBudget) {
  // The analytic link budget counts coincidences behind the two time-bin
  // analyzers, which keep 1/4 of the pairs and 1/2 of the singles; the
  // engine streams both bins unanalyzed, so its sifted rate is 4x the
  // budget's, while the accidental fraction — and with it the QBER — is
  // invariant under that post-selection when darks vanish. A 5 ns window
  // catches all but e^-13 of the 822 MHz line's pair delays, so the budget's
  // full-capture assumption holds too. Five seeds pool into one estimate
  // per user.
  const auto comb = core::QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::DoublePulse);
  const core::TimebinExperiment exp = comb.timebin_default();
  core::UserEndpointParams endpoint;
  endpoint.coincidence_window_s = 5e-9;
  endpoint.dark_rate_hz = 0.0;
  const std::size_t users = 5;
  const double duration = 0.2;
  const int seeds = 5;

  std::vector<double> coinc(users, 0), acc(users, 0);
  core::QkdNetworkConfig cfg = core::QkdNetworkConfig::uniform(users, 40.0, endpoint);
  for (int i = 0; i < seeds; ++i) {
    cfg.seed = 700 + static_cast<std::uint64_t>(i);
    const core::QkdNetworkReport report = core::QkdNetwork(exp, cfg).run(duration);
    for (std::size_t u = 0; u < users; ++u) {
      coinc[u] += report.users[u].car.coincidences;
      acc[u] += report.users[u].car.accidentals;
    }
  }

  const core::QkdNetwork net(exp, cfg);
  for (std::size_t u = 0; u < users; ++u) {
    SCOPED_TRACE("user " + std::to_string(u));
    const core::QkdChannelPerformance budget = core::analytic_channel_performance(
        exp, net.assigned_channel_pair(u), endpoint, cfg.users[u].link);
    const double live = seeds * duration;
    // Sifted rate: Poisson counts, sigma = sqrt(C).
    const double sifted = endpoint.sifting_factor * coinc[u] / live;
    const double sifted_err = endpoint.sifting_factor * std::sqrt(coinc[u]) / live;
    EXPECT_LE(std::abs(sifted - 4.0 * budget.sifted_rate_hz), kSigmas * sifted_err)
        << sifted << " vs 4 x " << budget.sifted_rate_hz;
    // QBER = (1 - v_int (C - A) / C) / 2, so its error is v_int / 2 times
    // that of A / C; var(A) = A / K for the mean of K side windows and the
    // C term adds (A / C)^2 / C.
    const double v_int =
        core::intrinsic_visibility(exp, net.assigned_channel_pair(u), cfg.users[u].link);
    const double ratio = acc[u] / coinc[u];
    const double qber = core::qber_from_visibility(v_int * (1.0 - ratio));
    const double ratio_err =
        std::sqrt(acc[u] / kSideWindows / (coinc[u] * coinc[u]) + ratio * ratio / coinc[u]);
    EXPECT_LE(std::abs(qber - budget.qber), kSigmas * 0.5 * v_int * ratio_err)
        << qber << " vs " << budget.qber;
    // The accidental floor is resolved, not lost in the error.
    EXPECT_GT(ratio, 10.0 * ratio_err);
  }
}

}  // namespace
