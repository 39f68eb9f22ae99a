#include "qfc/detect/event_stream.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "qfc/photonics/constants.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::detect {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Signal-idler delay scale 1/(2π δν) of a Lorentzian line.
double delay_scale(double linewidth_hz) {
  return 1.0 / (2.0 * photonics::pi * linewidth_hz);
}

/// The surviving classes of a pair process whose arms are thinned
/// independently, arm x keeping a photon with probability eta_x: both arms
/// (eta_a eta_b), signal only (eta_a (1 - eta_b)) and idler only
/// ((1 - eta_a) eta_b). By the thinning theorem each class is a Poisson
/// process of its own, and by superposition their union is one process at
/// `p_any` times the pair rate, whose events a single uniform classifies.
/// The thresholds are ratios to p_any, so eta = 0 or 1 on either arm makes
/// the impossible classes exactly unreachable.
struct Thinning {
  double p_any;     ///< probability that at least one arm keeps its photon
  double cut_both;  ///< u below this: both arms
  double cut_a;     ///< u below this (and not both): signal only; else idler only

  Thinning(double eta_a, double eta_b)
      : p_any(eta_a + eta_b * (1.0 - eta_a)),
        cut_both(p_any > 0 ? eta_a * eta_b / p_any : 0.0),
        cut_a(p_any > 0 ? eta_a / p_any : 0.0) {}
};

/// Emit one surviving pair born at t0: Laplace-split the signal-idler delay
/// symmetrically, draw the pair's class and keep the class's photons that
/// land inside [0, duration_s). Every pair loop below calls it, so delay,
/// class and clip semantics and RNG order are the same in all three
/// emission models. A one-arm class still draws the delay, so its photon
/// sits where the pair's would and the run edges clip it alike.
void emit_pair(double t0, double scale, double duration_s, const Thinning& thin,
               PairStreams& s, rng::Xoshiro256& g) {
  // Symmetrize: put half the Laplace delay on each photon so neither arm
  // is systematically early.
  const double delta = rng::sample_double_exponential(g, 1.0 / scale);
  const double u = g.uniform();
  const double ta = t0 + delta / 2.0;
  const double tb = t0 - delta / 2.0;
  const bool keep_a = u < thin.cut_a;
  const bool keep_b = u < thin.cut_both || !keep_a;
  if (keep_a && ta >= 0 && ta < duration_s) s.a.push_back(ta);
  if (keep_b && tb >= 0 && tb < duration_s) s.b.push_back(tb);
}

/// The Poisson loop behind every sampler but the pulsed one: a process at
/// rate rate_of(k) on segment k (length len_of(k); segments consecutive from
/// t = 0, clipped to duration_s) calls emit(t) for each event below
/// target_s. A homogeneous rate is a single segment spanning the run. Each
/// segment restarts the exponential clock at its own start (memorylessness
/// makes that exact) and a segment is first drawn from only once the
/// target reaches it.
template <class RateOf, class LenOf, class Emit>
void advance_poisson(detail::Sampler& s, std::size_t num_segments, const RateOf& rate_of,
                     const LenOf& len_of, double duration_s, double target_s,
                     rng::Xoshiro256& g, const Emit& emit) {
  while (s.seg < num_segments && s.seg_start < duration_s) {
    const double seg_end = std::min(s.seg_start + len_of(s.seg), duration_s);
    const double r = rate_of(s.seg);
    if (r > 0) {
      if (!s.primed) {
        if (s.seg_start >= target_s) return;
        s.next = s.seg_start + rng::sample_exponential(g, r);
        s.primed = true;
      }
      while (s.next < seg_end && s.next < target_s) {
        emit(s.next);
        s.next += rng::sample_exponential(g, r);
      }
      if (s.next < seg_end) return;  // paused mid-segment
    }
    s.seg_start += len_of(s.seg);
    ++s.seg;
    s.primed = false;
  }
}

/// Room for the expected survivors of `expected_pairs` pairs in each arm,
/// plus 10% headroom.
void reserve_pairs(PairStreams& s, double expected_pairs, double transmission_a,
                   double transmission_b) {
  const auto room = [&](double eta) {
    return static_cast<std::size_t>(expected_pairs * eta * 1.1) + 16;
  };
  s.a.reserve(room(transmission_a));
  s.b.reserve(room(transmission_b));
}

/// The pair emission times are generated in order and the signal-idler
/// delay is ~1/(2π δν), usually far below the mean pair spacing: both
/// arms are almost always already sorted, so probe before sorting.
void sort_if_needed(PairStreams& s) {
  if (!std::is_sorted(s.a.begin(), s.a.end())) std::sort(s.a.begin(), s.a.end());
  if (!std::is_sorted(s.b.begin(), s.b.end())) std::sort(s.b.begin(), s.b.end());
}

}  // namespace

// ------------------------------------------------------------ samplers

namespace detail {

void validate_segments(const std::vector<RateSegment>& segments, double duration_s) {
  if (segments.empty())
    throw std::invalid_argument("RateSegment schedule: no segments");
  double total = 0;
  for (const RateSegment& seg : segments) {
    if (seg.duration_s <= 0)
      throw std::invalid_argument("RateSegment: segment duration <= 0");
    if (seg.pair_rate_hz < 0 || seg.background_rate_signal_hz < 0 ||
        seg.background_rate_idler_hz < 0 || seg.dark_rate_signal_hz < 0 ||
        seg.dark_rate_idler_hz < 0)
      throw std::invalid_argument("RateSegment: negative rate");
    total += seg.duration_s;
  }
  // Tiny relative slack so schedules assembled as duration/n sums are not
  // rejected for float rounding.
  if (total < duration_s * (1.0 - 1e-9))
    throw std::invalid_argument(
        "RateSegment schedule: segments do not cover the stream duration");
}

void Sampler::advance(double rate_hz, double duration_s, double target_s,
                      rng::Xoshiro256& g, std::vector<double>& out) {
  advance_poisson(
      *this, 1, [&](std::size_t) { return rate_hz; },
      [&](std::size_t) { return duration_s; }, duration_s, target_s, g,
      [&](double t) { out.push_back(t); });
}

void Sampler::advance(const std::vector<RateSegment>& segments,
                      double RateSegment::*rate, double duration_s, double target_s,
                      rng::Xoshiro256& g, std::vector<double>& out) {
  advance_poisson(
      *this, segments.size(), [&](std::size_t k) { return segments[k].*rate; },
      [&](std::size_t k) { return segments[k].duration_s; }, duration_s, target_s, g,
      [&](double t) { out.push_back(t); });
}

void Sampler::advance(const PairStreamParams& p, double target_s, rng::Xoshiro256& g,
                      PairStreams& out) {
  const double scale = delay_scale(p.linewidth_hz);
  const Thinning thin(p.transmission_a, p.transmission_b);
  const double rate = p.pair_rate_hz * thin.p_any;
  advance_poisson(
      *this, 1, [&](std::size_t) { return rate; },
      [&](std::size_t) { return p.duration_s; }, p.duration_s, target_s, g,
      [&](double t) { emit_pair(t, scale, p.duration_s, thin, out, g); });
}

void Sampler::advance(const PairStreamParams& p, const std::vector<RateSegment>& segments,
                      double target_s, rng::Xoshiro256& g, PairStreams& out) {
  const double scale = delay_scale(p.linewidth_hz);
  const Thinning thin(p.transmission_a, p.transmission_b);
  advance_poisson(
      *this, segments.size(),
      [&](std::size_t k) { return segments[k].pair_rate_hz * thin.p_any; },
      [&](std::size_t k) { return segments[k].duration_s; }, p.duration_s, target_s, g,
      [&](double t) { emit_pair(t, scale, p.duration_s, thin, out, g); });
}

void Sampler::advance(const PairStreamParams& p, const PulsedEmission& pulsed,
                      double target_s, rng::Xoshiro256& g, PairStreams& out) {
  const Thinning thin(p.transmission_a, p.transmission_b);
  const double mu = pulsed.mean_pairs_per_pulse * thin.p_any;  // surviving pairs per slot
  if (mu == 0) return;
  const double scale = delay_scale(p.linewidth_hz);
  const double period = 1.0 / pulsed.repetition_rate_hz;
  const bool double_pulse = pulsed.bin_separation_s > 0;
  // Visit only the slots holding a surviving pair: a slot's surviving pair
  // number is Poisson with mean mu (thinning), so occupancy is Bernoulli
  // with p_occ = 1 - e^-mu per slot, the index gap to the next occupied
  // slot is geometric — sampled exactly as floor(Exp(mu)) — and the pair
  // number of a visited slot is zero-truncated Poisson. Identical in
  // distribution to a Poisson draw per slot, at O(surviving pairs) RNG cost
  // instead of O(slots); comb sources run at mu << 1, where almost every
  // slot is empty.
  if (!primed) {
    next = std::floor(rng::sample_exponential(g, mu));
    primed = true;
  }
  for (;;) {
    const double t_pulse = next * period;
    if (t_pulse >= p.duration_s || t_pulse >= target_s) return;
    const std::uint64_t n = rng::sample_zero_truncated_poisson(g, mu);
    for (std::uint64_t i = 0; i < n; ++i) {
      double t0 = t_pulse;
      if (double_pulse && rng::sample_bernoulli(g, pulsed.late_fraction))
        t0 += pulsed.bin_separation_s;
      if (pulsed.pulse_sigma_s > 0) t0 += rng::sample_normal(g, 0.0, pulsed.pulse_sigma_s);
      emit_pair(t0, scale, p.duration_s, thin, out, g);
    }
    next += 1.0 + std::floor(rng::sample_exponential(g, mu));
  }
}

}  // namespace detail

// ------------------------------------------------------------- kernels

void PairStreamParams::validate() const {
  if (pair_rate_hz < 0) throw std::invalid_argument("PairStreamParams: negative rate");
  if (linewidth_hz <= 0) throw std::invalid_argument("PairStreamParams: linewidth <= 0");
  if (duration_s <= 0) throw std::invalid_argument("PairStreamParams: duration <= 0");
  if (transmission_a < 0 || transmission_a > 1 || transmission_b < 0 || transmission_b > 1)
    throw std::invalid_argument("PairStreamParams: transmission outside [0,1]");
}

PairStreams generate_pair_arrivals(const PairStreamParams& p, rng::Xoshiro256& g) {
  p.validate();
  PairStreams s;
  reserve_pairs(s, p.pair_rate_hz * p.duration_s, p.transmission_a, p.transmission_b);
  detail::Sampler{}.advance(p, kInf, g, s);
  sort_if_needed(s);
  return s;
}

std::vector<double> generate_poisson_arrivals(double rate_hz, double duration_s,
                                              rng::Xoshiro256& g) {
  if (rate_hz < 0) throw std::invalid_argument("generate_poisson_arrivals: negative rate");
  if (duration_s <= 0) throw std::invalid_argument("generate_poisson_arrivals: duration <= 0");
  std::vector<double> out;
  detail::Sampler{}.advance(rate_hz, duration_s, kInf, g, out);
  return out;
}

void PulsedEmission::validate() const {
  if (repetition_rate_hz <= 0)
    throw std::invalid_argument("PulsedEmission: repetition rate <= 0");
  if (mean_pairs_per_pulse < 0)
    throw std::invalid_argument("PulsedEmission: negative mean pairs per pulse");
  if (pulse_sigma_s < 0) throw std::invalid_argument("PulsedEmission: negative pulse jitter");
  if (bin_separation_s < 0)
    throw std::invalid_argument("PulsedEmission: negative bin separation");
  if (bin_separation_s >= 1.0 / repetition_rate_hz)
    throw std::invalid_argument("PulsedEmission: bin separation >= repetition period");
  if (late_fraction < 0 || late_fraction > 1)
    throw std::invalid_argument("PulsedEmission: late fraction outside [0,1]");
}

std::vector<double> generate_piecewise_poisson_arrivals(
    const std::vector<RateSegment>& segments, double RateSegment::*rate,
    double duration_s, rng::Xoshiro256& g) {
  if (duration_s <= 0)
    throw std::invalid_argument("generate_piecewise_poisson_arrivals: duration <= 0");
  detail::validate_segments(segments, duration_s);
  std::vector<double> out;
  detail::Sampler{}.advance(segments, rate, duration_s, kInf, g, out);
  return out;
}

}  // namespace qfc::detect
