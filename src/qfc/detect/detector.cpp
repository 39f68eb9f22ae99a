#include "qfc/detect/detector.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qfc/detect/event_stream.hpp"
#include "qfc/obs/obs.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::detect {

void DetectorParams::validate() const {
  if (efficiency < 0 || efficiency > 1)
    throw std::invalid_argument("DetectorParams: efficiency outside [0,1]");
  if (dark_rate_hz < 0) throw std::invalid_argument("DetectorParams: negative dark rate");
  if (jitter_sigma_s < 0) throw std::invalid_argument("DetectorParams: negative jitter");
  if (dead_time_s < 0) throw std::invalid_argument("DetectorParams: negative dead time");
}

SinglePhotonDetector::SinglePhotonDetector(DetectorParams params) : params_(params) {
  params_.validate();
}

std::vector<double> SinglePhotonDetector::detect(const std::vector<double>& arrivals,
                                                 double duration_s,
                                                 rng::Xoshiro256& g) const {
  static const std::vector<double> no_extra_darks;
  return detect(arrivals, no_extra_darks, duration_s, g);
}

std::vector<double> SinglePhotonDetector::detect(const std::vector<double>& arrivals,
                                                 const std::vector<double>& extra_darks,
                                                 double duration_s,
                                                 rng::Xoshiro256& g) const {
  // Aliasing one generator into both roles reproduces the historical draw
  // order exactly: photon-pass draws first, dark-pass draws after.
  return detect(arrivals, extra_darks, duration_s, g, g);
}

std::vector<double> SinglePhotonDetector::detect(const std::vector<double>& arrivals,
                                                 const std::vector<double>& extra_darks,
                                                 double duration_s,
                                                 rng::Xoshiro256& g_photon,
                                                 rng::Xoshiro256& g_dark) const {
  if (duration_s <= 0) throw std::invalid_argument("detect: duration <= 0");
  if (!std::is_sorted(extra_darks.begin(), extra_darks.end()))
    throw std::invalid_argument("detect: extra dark clicks unsorted");

  // Efficiency thinning, skipped (no draws) at efficiency 1.
  std::vector<double> detected;
  const std::vector<double>* photons = &arrivals;
  if (params_.efficiency < 1) {
    for (const double t : arrivals)
      if (t >= 0 && t < duration_s && rng::sample_bernoulli(g_photon, params_.efficiency))
        detected.push_back(t);
    photons = &detected;
  }
  std::vector<double> clicks;
  detail::detect_photons(photons->data(), photons->data() + photons->size(),
                         params_.jitter_sigma_s, duration_s, g_photon, clicks);
  std::vector<double> darks;
  if (params_.dark_rate_hz > 0)
    darks = generate_poisson_arrivals(params_.dark_rate_hz, duration_s, g_dark);
  double dead_last = detail::kNoClickYet;
  return detail::finalize_clicks(clicks.data(), clicks.data() + clicks.size(), darks,
                                 extra_darks, params_.dead_time_s, dead_last);
}

namespace detail {

void detect_photons(const double* begin, const double* end, double jitter_sigma_s,
                    double duration_s, rng::Xoshiro256& g, std::vector<double>& clicks) {
  for (const double* t = begin; t != end; ++t) {
    if (*t < 0 || *t >= duration_s) continue;
    const double jittered = *t + rng::sample_normal(g, 0.0, jitter_sigma_s);
    if (jittered >= 0 && jittered < duration_s) clicks.push_back(jittered);
  }
  // Photon clicks are nearly sorted already (jitter is tiny vs typical
  // arrival spacing), so the is_sorted probe usually skips the sort.
  if (!std::is_sorted(clicks.begin(), clicks.end()))
    std::sort(clicks.begin(), clicks.end());
}

std::vector<double> finalize_clicks(const double* begin, const double* end,
                                    const std::vector<double>& darks,
                                    const std::vector<double>& schedule_darks,
                                    double dead_time_s, double& dead_last) {
  if (obs::metrics_enabled() && !(darks.empty() && schedule_darks.empty()))
    obs::counter("detect.darks_injected").add(darks.size() + schedule_darks.size());

  // All three sources are sorted, so linear merges replace
  // concatenate-and-resort.
  std::vector<double> clicks(static_cast<std::size_t>(end - begin) + darks.size());
  std::merge(begin, end, darks.begin(), darks.end(), clicks.begin());
  if (!schedule_darks.empty()) {
    std::vector<double> merged(clicks.size() + schedule_darks.size());
    std::merge(clicks.begin(), clicks.end(), schedule_darks.begin(),
               schedule_darks.end(), merged.begin());
    clicks.swap(merged);
  }

  // Dead time: drop clicks closer than dead_time_s to the previous kept
  // one, compacting in place.
  if (dead_time_s > 0) {
    std::size_t kept = 0;
    for (const double t : clicks) {
      if (t - dead_last >= dead_time_s) {
        clicks[kept++] = t;
        dead_last = t;
      }
    }
    clicks.resize(kept);
  }
  return clicks;
}

}  // namespace detail

}  // namespace qfc::detect
