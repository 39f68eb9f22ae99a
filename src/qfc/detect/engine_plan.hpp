#pragma once

/// \file engine_plan.hpp
/// Internal: the event engine's one generation path. ChannelPlan holds a
/// validated ChannelPairSpec's emission, rescaled to detected photons;
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
/// detector efficiency into the pair transmissions and into the spec-level
/// and schedule background rates, so the samplers draw only photons that
/// click and the detector stage is jitter alone. `pulsed` and `segments`
/// are the spec's own (the segments with thinned backgrounds); only the
/// mode's one is read.
struct ChannelPlan {
  EmissionMode mode = EmissionMode::Cw;
  PairStreamParams pair;              ///< pair rate is 0 unless mode == Cw
  PulsedEmission pulsed;
  std::vector<RateSegment> segments;  ///< schedule backgrounds already thinned
  double bg_a = 0;  ///< detected spec-level background rate, signal arm
  double bg_b = 0;  ///< detected spec-level background rate, idler arm
};

/// Expects validated detectors (make_checked_plan checks them first).
inline ChannelPlan make_plan(const ChannelPairSpec& spec, double duration_s) {
  if (spec.transmission_signal < 0 || spec.transmission_signal > 1 ||
      spec.transmission_idler < 0 || spec.transmission_idler > 1)
    throw std::invalid_argument("ChannelPairSpec: transmission outside [0,1]");
  if (spec.emission != EmissionMode::Cw && spec.pair_rate_hz != 0)
    throw std::invalid_argument(
        spec.emission == EmissionMode::Pulsed
            ? "ChannelPairSpec: Pulsed mode needs pair_rate_hz == 0 (the rate is "
              "mean_pairs_per_pulse x repetition_rate_hz)"
            : "ChannelPairSpec: PiecewiseRates mode needs pair_rate_hz == 0 (the "
              "segments carry the pair rate)");
  if (spec.emission == EmissionMode::Pulsed) spec.pulsed.validate();
  if (spec.emission == EmissionMode::PiecewiseRates)
    validate_segments(spec.segments, duration_s);
  const double eff_a = spec.detector_signal.efficiency;
  const double eff_b = spec.detector_idler.efficiency;
  ChannelPlan plan{.mode = spec.emission,
                   .pair = {.pair_rate_hz = spec.pair_rate_hz,
                            .linewidth_hz = spec.linewidth_hz,
                            .duration_s = duration_s,
                            .transmission_a = spec.transmission_signal * eff_a,
                            .transmission_b = spec.transmission_idler * eff_b},
                   .pulsed = spec.pulsed,
                   .segments = spec.segments,
                   .bg_a = spec.background_rate_signal_hz * eff_a,
                   .bg_b = spec.background_rate_idler_hz * eff_b};
  for (RateSegment& seg : plan.segments) {
    seg.background_rate_signal_hz *= eff_a;
    seg.background_rate_idler_hz *= eff_b;
  }
  plan.pair.validate();
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
/// worker threads of the shared pool (held from construction) claim whole
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
  std::shared_ptr<parallel::WorkerPool> pool_;  ///< parallel::shared_pool()
  bool started_ = false;
};

}  // namespace qfc::detect::detail
