#pragma once

/// \file engine_plan.hpp
/// Internal: the event engine's one generation path. ChannelPlan holds the
/// validated sampler parameters of a ChannelPairSpec, in detected photons;
/// ClickGenerator runs every channel's stages (emission, backgrounds,
/// jitter, darks, dead time) window by window on the per-stage sub-streams
/// of channel_rng.hpp.
/// EventEngine::run is a single window to the end of the run and
/// EventStreamer::next one window each, so batch and streaming output are
/// the same code at different window lengths. Not installed API; include
/// only from qfc::detect translation units.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "qfc/detect/event_engine.hpp"
#include "qfc/detect/event_stream.hpp"

namespace qfc::parallel {
class WorkerPool;
}

namespace qfc::detect::detail {

/// Per-channel generation plan, fully validated before any parallel work.
/// Everything in it is in *detected* photons: make_plan folds each arm's
/// detector efficiency into the sampler's per-arm transmission and into the
/// spec-level and piecewise background rates, so the samplers draw only
/// photons that click and the detector stage is jitter alone.
struct ChannelPlan {
  EmissionMode mode = EmissionMode::Cw;
  PairStreamParams cw;
  PulsedStreamParams pulsed;
  PiecewiseStreamParams piecewise;  ///< segment backgrounds already thinned
  double bg_a = 0;  ///< detected spec-level background rate, signal arm
  double bg_b = 0;  ///< detected spec-level background rate, idler arm
};

/// Expects validated detectors (make_checked_plan checks them first).
inline ChannelPlan make_plan(const ChannelPairSpec& spec, double duration_s) {
  if (spec.transmission_signal < 0 || spec.transmission_signal > 1 ||
      spec.transmission_idler < 0 || spec.transmission_idler > 1)
    throw std::invalid_argument("ChannelPairSpec: transmission outside [0,1]");
  const double eff_a = spec.detector_signal.efficiency;
  const double eff_b = spec.detector_idler.efficiency;
  const double eta_a = spec.transmission_signal * eff_a;
  const double eta_b = spec.transmission_idler * eff_b;
  ChannelPlan plan;
  plan.mode = spec.emission;
  plan.bg_a = spec.background_rate_signal_hz * eff_a;
  plan.bg_b = spec.background_rate_idler_hz * eff_b;
  switch (spec.emission) {
    case EmissionMode::Cw:
      plan.cw.pair_rate_hz = spec.pair_rate_hz;
      plan.cw.linewidth_hz = spec.linewidth_hz;
      plan.cw.duration_s = duration_s;
      plan.cw.transmission_a = eta_a;
      plan.cw.transmission_b = eta_b;
      plan.cw.validate();
      break;
    case EmissionMode::Pulsed:
      if (spec.pair_rate_hz != 0)
        throw std::invalid_argument(
            "ChannelPairSpec: Pulsed mode needs pair_rate_hz == 0 (the rate is "
            "mean_pairs_per_pulse x repetition_rate_hz)");
      plan.pulsed.repetition_rate_hz = spec.pulsed.repetition_rate_hz;
      plan.pulsed.mean_pairs_per_pulse = spec.pulsed.mean_pairs_per_pulse;
      plan.pulsed.pulse_sigma_s = spec.pulsed.pulse_sigma_s;
      plan.pulsed.bin_separation_s = spec.pulsed.bin_separation_s;
      plan.pulsed.late_fraction = spec.pulsed.late_fraction;
      plan.pulsed.linewidth_hz = spec.linewidth_hz;
      plan.pulsed.duration_s = duration_s;
      plan.pulsed.transmission_a = eta_a;
      plan.pulsed.transmission_b = eta_b;
      plan.pulsed.validate();
      break;
    case EmissionMode::PiecewiseRates:
      if (spec.pair_rate_hz != 0)
        throw std::invalid_argument(
            "ChannelPairSpec: PiecewiseRates mode needs pair_rate_hz == 0 (the "
            "segments carry the pair rate)");
      plan.piecewise.segments = spec.segments;
      plan.piecewise.linewidth_hz = spec.linewidth_hz;
      plan.piecewise.duration_s = duration_s;
      plan.piecewise.transmission_a = eta_a;
      plan.piecewise.transmission_b = eta_b;
      plan.piecewise.validate();
      for (RateSegment& seg : plan.piecewise.segments) {
        seg.background_rate_signal_hz *= eff_a;
        seg.background_rate_idler_hz *= eff_b;
      }
      break;
  }
  return plan;
}

/// make_plan plus the remaining spec-level checks (background rates,
/// detectors), with the channel index prefixed onto any error so one bad
/// entry in a hundreds-of-channels plan (e.g. a QkdNetwork user list) names
/// the offender instead of forcing a bisection.
inline ChannelPlan make_checked_plan(const ChannelPairSpec& spec, double duration_s,
                                     std::size_t channel) {
  try {
    if (spec.background_rate_signal_hz < 0 || spec.background_rate_idler_hz < 0)
      throw std::invalid_argument("ChannelPairSpec: negative background rate");
    spec.detector_signal.validate();
    spec.detector_idler.validate();
    return make_plan(spec, duration_s);
  } catch (const std::invalid_argument& e) {
    throw std::invalid_argument("channel " + std::to_string(channel) + ": " + e.what());
  }
}

inline void validate_engine_config(const EngineConfig& cfg) {
  if (cfg.duration_s <= 0) throw std::invalid_argument("EngineConfig: duration <= 0");
}

/// Every channel's click pipeline, resumable window by window.
///
/// Determinism: each channel forks its generator from the master seed in
/// channel order and its eleven stage streams from that (channel_rng.hpp),
/// all at construction; every stage owns a detail::Sampler on its own
/// stream. A window only pauses those samplers, so any sequence of windows
/// consumes the same per-stream draws as one window over the whole run, and
/// worker threads of the detect pool (held from construction) claim whole
/// channels, so no result depends on the thread count either.
///
/// Window boundaries: a window finalizes the clicks below its end C. The
/// delay and jitter distributions have unbounded support, so arrivals are
/// detected up to theta = C + jitter slack and pairs emitted up to
/// theta + delay slack; what lies past a watermark is carried into the
/// next window. An arrival or click that still lands behind an earlier
/// window's watermark counts as a boundary violation and is folded into
/// the current window.
class ClickGenerator {
 public:
  /// Validates `cfg` and every spec. `slack_override_s` > 0 replaces both
  /// automatic look-ahead slacks (see StreamConfig::slack_override_s).
  ClickGenerator(const EngineConfig& cfg, const std::vector<ChannelPairSpec>& specs,
                 double slack_override_s = 0);
  ~ClickGenerator();

  /// The clicks of every channel below `until_s` not emitted by an earlier
  /// call, one `channel_span` span per channel. `last` drains the rest of
  /// the run and frees every carried buffer.
  EngineResult advance(double until_s, bool last, const char* channel_span);

  std::uint64_t boundary_violations() const;
  /// Arrivals and clicks carried past the last window.
  std::size_t backlog_events() const;

 private:
  struct Arm;
  struct Channel;
  void process_channel(Channel& ch, double until_s, bool last,
                       std::vector<double>& signal, std::vector<double>& idler) const;

  double duration_s_ = 0;
  std::vector<Channel> chans_;
  std::shared_ptr<parallel::WorkerPool> pool_;  ///< the detect pool
  bool started_ = false;
};

}  // namespace qfc::detect::detail
