#pragma once

/// \file detector.hpp
/// Single-photon detector model: quantum efficiency, Poissonian dark/
/// background counts, Gaussian timing jitter and dead time. This is the
/// simulated stand-in for the gated InGaAs detectors of refs [6]-[8].

#include <vector>

#include "qfc/rng/distributions.hpp"
#include "qfc/rng/xoshiro.hpp"

namespace qfc::detect {

struct DetectorParams {
  /// Photon detection probability (includes fiber/filter losses if the
  /// caller folds them in; the experiment layer keeps them separate).
  double efficiency = 0.20;
  /// Dark + broadband-background click rate, Hz. Free-running InGaAs
  /// detectors with in-band background sit in the kHz range.
  double dark_rate_hz = 1000.0;
  /// Gaussian timing jitter (sigma), seconds.
  double jitter_sigma_s = 50e-12;
  /// Dead time after each click, seconds.
  double dead_time_s = 10e-6;

  void validate() const;
};

class SinglePhotonDetector {
 public:
  explicit SinglePhotonDetector(DetectorParams params);

  const DetectorParams& params() const noexcept { return params_; }

  /// Turn true photon arrival times (seconds, unsorted OK) into detector
  /// click timestamps over [0, duration): thins by efficiency, jitters, adds
  /// dark counts, sorts, and applies dead time.
  std::vector<double> detect(const std::vector<double>& photon_arrivals_s,
                             double duration_s, rng::Xoshiro256& g) const;

  /// As detect(), but additionally merges caller-supplied dark click times
  /// (sorted, e.g. from a piecewise-rate schedule) into the stream before
  /// dead time. The extra darks click directly — no efficiency thinning,
  /// no jitter — exactly like the internal params().dark_rate_hz pass,
  /// which still runs and composes additively with them.
  std::vector<double> detect(const std::vector<double>& photon_arrivals_s,
                             const std::vector<double>& extra_dark_clicks_s,
                             double duration_s, rng::Xoshiro256& g) const;

  /// Core overload with split randomness: the photon pass consumes
  /// `g_photon` — first one efficiency Bernoulli per in-run photon, then one
  /// jitter draw per survivor — and the internal dark-count pass consumes
  /// `g_dark`. The single-generator overloads alias one generator into both
  /// roles (photon draws first, then darks). At efficiency 1 the thinning
  /// draws nothing, so the photon pass is exactly the event engine's
  /// jitter-only stage: the engine folds efficiency into the pair sampler's
  /// transmissions (event_stream.hpp) and gives each pass its own forked
  /// stream, so the two can be windowed independently.
  std::vector<double> detect(const std::vector<double>& photon_arrivals_s,
                             const std::vector<double>& extra_dark_clicks_s,
                             double duration_s, rng::Xoshiro256& g_photon,
                             rng::Xoshiro256& g_dark) const;

 private:
  DetectorParams params_;
};

namespace detail {

/// Dead-time carry before the first click: far enough back that the first
/// click of a run is always kept.
constexpr double kNoClickYet = -1e18;

/// The detector stages shared by SinglePhotonDetector::detect (one call for
/// the whole run) and the event engine (one call per window and arm, with
/// the state carried across windows): detect() is the one-window case.
///
/// detect_photons jitters the detected photons [begin, end), in that order
/// (one normal draw per photon inside [0, duration_s), none for the rest),
/// and appends every click that lands inside [0, duration_s) to `clicks`,
/// then sorts `clicks` again if jitter swapped neighbors (usually a no-op
/// probe). Efficiency is not applied here: the caller passes photons that
/// are already thinned.
void detect_photons(const double* begin, const double* end, double jitter_sigma_s,
                    double duration_s, rng::Xoshiro256& g, std::vector<double>& clicks);

/// finalize_clicks merges the sorted photon clicks [begin, end) with the
/// sorted internal darks and schedule darks (which click directly: no
/// efficiency, no jitter) and drops every click closer than dead_time_s to
/// the previously kept one, carrying that one in `dead_last`.
std::vector<double> finalize_clicks(const double* begin, const double* end,
                                    const std::vector<double>& darks,
                                    const std::vector<double>& schedule_darks,
                                    double dead_time_s, double& dead_last);

}  // namespace detail

}  // namespace qfc::detect
