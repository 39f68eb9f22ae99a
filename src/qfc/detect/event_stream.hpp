#pragma once

/// \file event_stream.hpp
/// Monte-Carlo generation of correlated photon arrival-time streams for
/// the three pair-emission models of the engine: CW (Poissonian pair
/// emission), pulsed (pair times locked to a pulse train, optionally
/// double-pulsed into early/late time bins), and piecewise-constant rate
/// schedules (drifting sources). All share the two-sided exponential
/// signal-idler delay (the Fourier pair of the Lorentzian resonance) and
/// independent per-arm thinning by `transmission_a/b`. The lost photons are
/// never drawn: each sampler draws only the surviving pairs (both arms, or
/// one), one Poisson stream at the pair rate times the probability that any
/// arm survives, with one uniform per pair picking which arms do. Detector
/// imperfections are applied separately by SinglePhotonDetector; the event
/// engine folds the detector efficiency into the transmissions, so its
/// samplers draw detected photons only.
///
/// The emission vocabulary is PairStreamParams (shared by all three models)
/// plus PulsedEmission or a RateSegment schedule; ChannelPairSpec
/// (event_engine.hpp) carries the same types, so the engine samples a spec
/// without translating it. The three generate_* functions below (CW pairs,
/// homogeneous and piecewise Poisson singles) are one advance to +∞ of a
/// detail::Sampler, the same resumable loop the event engine drives per
/// channel and per window; pulsed and piecewise pair emission are reached
/// through the engine only.

#include <cstddef>
#include <vector>

#include "qfc/rng/xoshiro.hpp"

namespace qfc::detect {

/// `transmission_a/b` is the probability that an arm's photon survives, drawn
/// independently per arm: the output is the pair stream thinned by it (a
/// photon whose arm loses it never appears). Pass transmission × detector
/// efficiency to get the detected photons, as the event engine does.
struct PairStreamParams {
  double pair_rate_hz = 0;      ///< on-chip generated pair rate
  double linewidth_hz = 0;      ///< Lorentzian FWHM of both photons
  double duration_s = 0;        ///< experiment duration
  double transmission_a = 1.0;  ///< survival probability, signal arm
  double transmission_b = 1.0;  ///< survival probability, idler arm

  void validate() const;
};

struct PairStreams {
  std::vector<double> a;  ///< photon arrival times, signal arm (sorted)
  std::vector<double> b;  ///< photon arrival times, idler arm (sorted)
};

/// Generate correlated arrival streams. The signal-idler delay is Laplace
/// distributed with scale 1/(2π δν), matching the cavity-SFWM cross-
/// correlation G²(τ) ∝ exp(−2π δν |τ|).
PairStreams generate_pair_arrivals(const PairStreamParams& p, rng::Xoshiro256& g);

/// Generate an *uncorrelated* photon stream (e.g. leaked pump, fluorescence)
/// at the given rate.
std::vector<double> generate_poisson_arrivals(double rate_hz, double duration_s,
                                              rng::Xoshiro256& g);

/// Pulse-train-locked pair emission (Sec. IV double-pulse pumping). Each
/// repetition period emits a Poisson number of pairs with mean
/// `mean_pairs_per_pulse`; each pair's emission time sits on the pulse
/// (Gaussian envelope jitter `pulse_sigma_s`), optionally displaced into
/// the late time bin by `bin_separation_s` with probability
/// `late_fraction` — so early/late bins are physical at the click level.
/// Linewidth, duration and per-arm transmission come from the
/// PairStreamParams it is sampled with.
struct PulsedEmission {
  double repetition_rate_hz = 0;   ///< pump pulse repetition rate
  double mean_pairs_per_pulse = 0; ///< mean pair number per repetition period
  double pulse_sigma_s = 0;        ///< Gaussian emission-time jitter (1σ)
  double bin_separation_s = 0;     ///< 0 = single pulse; > 0 = early/late bins
  double late_fraction = 0.5;      ///< probability a pair is born in the late bin

  void validate() const;
};

/// One segment of a piecewise-constant emission schedule for a drifting
/// source. Segments are consecutive starting at t = 0; the schedule must
/// cover the full stream duration. Sampled as pairs, `pair_rate_hz` drives
/// each segment, with the delay and transmission semantics of the CW
/// stream.
struct RateSegment {
  double duration_s = 0;                  ///< length of this segment
  double pair_rate_hz = 0;                ///< on-chip pair rate in this segment
  double background_rate_signal_hz = 0;   ///< extra in-band background, signal arm
  double background_rate_idler_hz = 0;    ///< extra in-band background, idler arm
  double dark_rate_signal_hz = 0;         ///< extra dark clicks, signal detector
  double dark_rate_idler_hz = 0;          ///< extra dark clicks, idler detector
};

/// Inhomogeneous (piecewise-constant rate) Poisson arrivals over
/// [0, duration): `rate` selects which RateSegment member drives each
/// segment (e.g. `&RateSegment::dark_rate_signal_hz`).
std::vector<double> generate_piecewise_poisson_arrivals(
    const std::vector<RateSegment>& segments, double RateSegment::*rate,
    double duration_s, rng::Xoshiro256& g);

namespace detail {

/// Resumable position of one generation loop — the only sampling loops of
/// the engine. advance(..., target_s, g, out) emits every event below
/// target_s (and inside the run) and pauses before the first one at or past
/// it, drawing nothing for it, so successive advances to rising targets
/// consume exactly the draws of one advance to +∞ on the same generator.
/// The generate_* functions above are that one advance to +∞; the event
/// engine (event_engine.hpp) advances window by window, and a batch run is
/// its one-window case. A Sampler drives one loop for its whole life: the
/// overload picks which one. The pulsed and schedule pair overloads take
/// linewidth, duration and transmissions from `p` and ignore its
/// `pair_rate_hz`: the PulsedEmission or the segments carry the rate.
struct Sampler {
  std::size_t seg = 0;   ///< current RateSegment (0 for a homogeneous rate)
  double seg_start = 0;  ///< start time of that segment
  double next = 0;       ///< next event time (pulsed: next occupied pulse slot)
  bool primed = false;   ///< `next` has been drawn

  void advance(double rate_hz, double duration_s, double target_s, rng::Xoshiro256& g,
               std::vector<double>& out);
  void advance(const std::vector<RateSegment>& segments, double RateSegment::*rate,
               double duration_s, double target_s, rng::Xoshiro256& g,
               std::vector<double>& out);
  void advance(const PairStreamParams& p, double target_s, rng::Xoshiro256& g,
               PairStreams& out);
  void advance(const PairStreamParams& p, const PulsedEmission& pulsed, double target_s,
               rng::Xoshiro256& g, PairStreams& out);
  void advance(const PairStreamParams& p, const std::vector<RateSegment>& segments,
               double target_s, rng::Xoshiro256& g, PairStreams& out);
};

/// Throws std::invalid_argument unless `segments` is non-empty, every
/// segment has a positive duration and non-negative rates, and together
/// they cover [0, duration_s).
void validate_segments(const std::vector<RateSegment>& segments, double duration_s);

}  // namespace detail

}  // namespace qfc::detect
