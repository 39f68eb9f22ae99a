#include "qfc/detect/event_engine.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "qfc/detect/analysis_sweep.hpp"
#include "qfc/detect/channel_rng.hpp"
#include "qfc/detect/engine_plan.hpp"
#include "qfc/detect/event_stream.hpp"
#include "qfc/obs/obs.hpp"
#include "qfc/parallel/worker_pool.hpp"
#include "qfc/photonics/constants.hpp"
#include "qfc/rng/xoshiro.hpp"

namespace qfc::detect {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

// ---------------------------------------------------------------- EventTable

std::size_t EventTable::channel_size(std::size_t c) const {
  if (c + 1 >= offsets.size()) throw std::out_of_range("EventTable: bad channel");
  return offsets[c + 1] - offsets[c];
}

const double* EventTable::channel_begin(std::size_t c) const {
  if (c + 1 >= offsets.size()) throw std::out_of_range("EventTable: bad channel");
  return time_s.data() + offsets[c];
}

const double* EventTable::channel_end(std::size_t c) const {
  if (c + 1 >= offsets.size()) throw std::out_of_range("EventTable: bad channel");
  return time_s.data() + offsets[c + 1];
}

std::vector<double> EventTable::channel_clicks(std::size_t c) const {
  return std::vector<double>(channel_begin(c), channel_end(c));
}

EventTable EventTable::from_columns(std::vector<std::vector<double>> per_channel) {
  EventTable t;
  std::size_t total = 0;
  for (const auto& col : per_channel) {
    if (!std::is_sorted(col.begin(), col.end()))
      throw std::invalid_argument("EventTable::from_columns: unsorted channel column");
    total += col.size();
  }
  t.time_s.reserve(total);
  t.channel.reserve(total);
  t.offsets.reserve(per_channel.size() + 1);
  t.offsets.push_back(0);
  for (std::size_t c = 0; c < per_channel.size(); ++c) {
    t.time_s.insert(t.time_s.end(), per_channel[c].begin(), per_channel[c].end());
    t.channel.insert(t.channel.end(), per_channel[c].size(),
                     static_cast<std::uint32_t>(c));
    t.offsets.push_back(t.time_s.size());
  }
  return t;
}

// ---------------------------------------------------------------- generation

namespace detail {

namespace {

const char* emission_name(EmissionMode mode) {
  switch (mode) {
    case EmissionMode::Cw: return "engine.emission.cw";
    case EmissionMode::Pulsed: return "engine.emission.pulsed";
    case EmissionMode::PiecewiseRates: return "engine.emission.piecewise";
  }
  return "engine.emission.unknown";
}

/// Merge the sorted `extra` into the sorted `dst` in one linear pass, back
/// to front in place, so the carried buffer keeps its allocation.
void merge_into(std::vector<double>& dst, const std::vector<double>& extra) {
  std::size_t i = dst.size(), j = extra.size();
  dst.resize(i + j);
  for (std::size_t k = dst.size(); j > 0;)
    dst[--k] = (i > 0 && dst[i - 1] > extra[j - 1]) ? dst[--i] : extra[--j];
}

/// Number of leading elements of the sorted [first, last) below `t`.
std::uint64_t count_below(std::vector<double>::const_iterator first,
                          std::vector<double>::const_iterator last, double t) {
  return static_cast<std::uint64_t>(std::lower_bound(first, last, t) - first);
}

}  // namespace

/// One detector arm: its stages (each a sampler on its own stream) and the
/// photon clicks carried past the last click watermark. Its photons are
/// detected ones already (ChannelPlan), so the detection stream draws
/// jitter only.
struct ClickGenerator::Arm {
  DetectorParams det;
  double bg_rate_hz = 0;  ///< detected spec-level background rate
  double RateSegment::*pwbg_rate = nullptr;    ///< this arm's schedule background
  double RateSegment::*pwdark_rate = nullptr;  ///< this arm's schedule darks
  rng::Xoshiro256 g_bg, g_pwbg, g_det, g_dark, g_pwdark;
  Sampler bg, pwbg, dark, pwdark;
  std::vector<double> clicks;
  double dead_last = kNoClickYet;

  /// Jitter this arm's sorted `arrivals` below `theta` (carried ones plus
  /// fresh pairs; backgrounds are merged in here), then finalize its clicks
  /// below `until_s`. Concatenated over windows, the photon pass visits the
  /// arrivals in the order of a single window, so the detection stream's
  /// draws line up exactly.
  std::vector<double> process(std::vector<double>& arrivals, const ChannelPlan& plan,
                              double duration_s, double theta, double until_s,
                              double prev_theta, double prev_until, bool last,
                              std::uint64_t& violations) {
    if (!std::is_sorted(arrivals.begin(), arrivals.end()))
      std::sort(arrivals.begin(), arrivals.end());
    {
      // Backgrounds are complete below theta by construction of their
      // advance target, and sorted, so they merge in linearly.
      std::vector<double> fresh;
      if (bg_rate_hz > 0) {
        bg.advance(bg_rate_hz, duration_s, theta, g_bg, fresh);
        merge_into(arrivals, fresh);
      }
      if (plan.mode == EmissionMode::PiecewiseRates) {
        fresh.clear();
        pwbg.advance(plan.segments, pwbg_rate, duration_s, theta, g_pwbg, fresh);
        merge_into(arrivals, fresh);
      }
    }
    const auto split = std::lower_bound(arrivals.begin(), arrivals.end(), theta);
    violations += count_below(arrivals.begin(), split, prev_theta);
    const auto photons = static_cast<std::size_t>(split - arrivals.begin());
    if (obs::metrics_enabled()) obs::counter("engine.events_generated").add(photons);
    detect_photons(arrivals.data(), arrivals.data() + photons, det.jitter_sigma_s,
                   duration_s, g_det, clicks);
    if (last)
      std::vector<double>().swap(arrivals);
    else
      arrivals.erase(arrivals.begin(), split);

    // Dark clicks carry no jitter, so the click watermark is exact for
    // them: generate straight up to it.
    std::vector<double> darks, schedule_darks;
    if (det.dark_rate_hz > 0) dark.advance(det.dark_rate_hz, duration_s, until_s, g_dark, darks);
    if (plan.mode == EmissionMode::PiecewiseRates)
      pwdark.advance(plan.segments, pwdark_rate, duration_s, until_s, g_pwdark,
                     schedule_darks);
    const auto done = std::lower_bound(clicks.begin(), clicks.end(), until_s);
    violations += count_below(clicks.begin(), done, prev_until);
    std::vector<double> out =
        finalize_clicks(clicks.data(), clicks.data() + (done - clicks.begin()), darks,
                        schedule_darks, det.dead_time_s, dead_last);
    if (last)
      std::vector<double>().swap(clicks);
    else
      clicks.erase(clicks.begin(), done);
    return out;
  }
};

struct ClickGenerator::Channel {
  ChannelPlan plan;
  double spill_pair = 0;  ///< emission look-ahead past the arrival watermark
  double spill_jit = 0;   ///< arrival watermark past the click watermark
  rng::Xoshiro256 g_pair;
  Sampler pairs;
  PairStreams arrivals;    ///< carried past the last arrival watermark
  Arm a, b;
  double prev_theta = 0;   ///< last window's arrival watermark
  double prev_until = 0;   ///< last window's click watermark
  std::uint64_t violations = 0;
};

ClickGenerator::ClickGenerator(const EngineConfig& cfg,
                               const std::vector<ChannelPairSpec>& specs,
                               double slack_override_s)
    : duration_s_(cfg.duration_s) {
  validate_engine_config(cfg);
  const std::size_t n = specs.size();
  chans_.resize(n);
  // Plan and fork everything serially, in channel order, so the parallel
  // windows are schedule-independent: channel c's output depends only on
  // its own streams, never on which thread ran it or when.
  rng::Xoshiro256 master(cfg.seed);
  for (std::size_t c = 0; c < n; ++c) {
    const ChannelPairSpec& spec = specs[c];
    Channel& ch = chans_[c];
    ch.plan = make_checked_plan(spec, cfg.duration_s, c);

    // P(|Laplace| / 2 > 32 scales) = e^-64; pulsed adds the deterministic
    // late-bin shift and 16 sigmas of pulse-envelope jitter.
    ch.spill_pair = 32.0 / (2.0 * photonics::pi * spec.linewidth_hz);
    if (spec.emission == EmissionMode::Pulsed)
      ch.spill_pair += spec.pulsed.bin_separation_s + 16.0 * spec.pulsed.pulse_sigma_s;
    ch.spill_jit = 16.0 * std::max(spec.detector_signal.jitter_sigma_s,
                                   spec.detector_idler.jitter_sigma_s);
    if (slack_override_s > 0) ch.spill_pair = ch.spill_jit = slack_override_s;

    rng::Xoshiro256 g = master.fork(static_cast<std::uint64_t>(c + 1));
    const ChannelRngs r = fork_channel_rngs(g);
    ch.g_pair = r.pair;
    ch.a.det = spec.detector_signal;
    ch.a.bg_rate_hz = ch.plan.bg_a;
    ch.a.pwbg_rate = &RateSegment::background_rate_signal_hz;
    ch.a.pwdark_rate = &RateSegment::dark_rate_signal_hz;
    ch.a.g_bg = r.bg_a;
    ch.a.g_pwbg = r.pwbg_a;
    ch.a.g_det = r.det_a;
    ch.a.g_dark = r.dark_a;
    ch.a.g_pwdark = r.pwdark_a;
    ch.b.det = spec.detector_idler;
    ch.b.bg_rate_hz = ch.plan.bg_b;
    ch.b.pwbg_rate = &RateSegment::background_rate_idler_hz;
    ch.b.pwdark_rate = &RateSegment::dark_rate_idler_hz;
    ch.b.g_bg = r.bg_b;
    ch.b.g_pwbg = r.pwbg_b;
    ch.b.g_det = r.det_b;
    ch.b.g_dark = r.dark_b;
    ch.b.g_pwdark = r.pwdark_b;
  }
  pool_ = parallel::shared_pool();
}

ClickGenerator::~ClickGenerator() = default;

void ClickGenerator::process_channel(Channel& ch, double until_s, bool last,
                                     std::vector<double>& signal,
                                     std::vector<double>& idler) const {
  // Watermark ladder for this window: clicks finalize below until_s,
  // arrivals are detected below theta = until_s + jitter slack, emission
  // runs to theta + pair-delay slack. The last window drains everything.
  const double theta = last ? kInf : until_s + ch.spill_jit;
  const double emit_to = last ? duration_s_ : std::min(theta + ch.spill_pair, duration_s_);

  // Pairs go straight into the carried arrival buffers.
  switch (ch.plan.mode) {
    case EmissionMode::Cw:
      ch.pairs.advance(ch.plan.pair, emit_to, ch.g_pair, ch.arrivals);
      break;
    case EmissionMode::Pulsed:
      ch.pairs.advance(ch.plan.pair, ch.plan.pulsed, emit_to, ch.g_pair, ch.arrivals);
      break;
    case EmissionMode::PiecewiseRates:
      ch.pairs.advance(ch.plan.pair, ch.plan.segments, emit_to, ch.g_pair, ch.arrivals);
      break;
  }
  if (obs::metrics_enabled() && !started_)
    obs::counter(emission_name(ch.plan.mode)).increment();

  signal = ch.a.process(ch.arrivals.a, ch.plan, duration_s_, theta, until_s,
                        ch.prev_theta, ch.prev_until, last, ch.violations);
  idler = ch.b.process(ch.arrivals.b, ch.plan, duration_s_, theta, until_s,
                       ch.prev_theta, ch.prev_until, last, ch.violations);
  if (obs::metrics_enabled())
    obs::counter("engine.clicks_kept").add(signal.size() + idler.size());
  ch.prev_theta = theta;
  ch.prev_until = until_s;
}

EngineResult ClickGenerator::advance(double until_s, bool last,
                                     const char* channel_span) {
  const std::size_t n = chans_.size();
  std::vector<std::vector<double>> sig_cols(n), idl_cols(n);
  pool_->run(n, [&](std::size_t c) {
    QFC_OBS_SPAN(channel_span, {{"channel", c}});
    process_channel(chans_[c], until_s, last, sig_cols[c], idl_cols[c]);
  });
  started_ = true;
  EngineResult result;
  result.signal = EventTable::from_columns(std::move(sig_cols));
  result.idler = EventTable::from_columns(std::move(idl_cols));
  return result;
}

std::uint64_t ClickGenerator::boundary_violations() const {
  std::uint64_t v = 0;
  for (const Channel& ch : chans_) v += ch.violations;
  return v;
}

std::size_t ClickGenerator::backlog_events() const {
  std::size_t backlog = 0;
  for (const Channel& ch : chans_)
    backlog += ch.arrivals.a.size() + ch.arrivals.b.size() + ch.a.clicks.size() +
               ch.b.clicks.size();
  return backlog;
}

}  // namespace detail

// --------------------------------------------------------------- EventEngine

EventEngine::EventEngine(EngineConfig cfg) : cfg_(cfg) {
  detail::validate_engine_config(cfg_);
}

EngineResult EventEngine::run(const std::vector<ChannelPairSpec>& channels) const {
  QFC_OBS_SPAN("engine.run", {{"channels", channels.size()}});
  // One window over the whole run.
  detail::ClickGenerator gen(cfg_, channels);
  return gen.advance(cfg_.duration_s, /*last=*/true, "engine.generate");
}

// ----------------------------------------------------------- batched analysis

namespace analysis_detail {

/// Minimum table size before merge_channels fans its pair-merges out over
/// the pool: below this the per-round dispatch handshake costs more than
/// the merge itself.
constexpr std::size_t kMergeParallelMinEvents = std::size_t{1} << 15;

MergedView merge_channels(const EventTable& table, parallel::WorkerPool* pool) {
  QFC_OBS_SPAN("engine.analysis.merge", {{"events", table.size()}});
  MergedView m;
  const std::size_t n = table.size();
  m.t.reserve(n);
  m.ch.reserve(n);
  const std::size_t num_ch = table.num_channels();
  if (num_ch == 1) {
    m.t = table.time_s;
    m.ch = table.channel;
    return m;
  }

  // Bottom-up pairwise merge of the already-sorted channel columns:
  // ceil(log2 C) sequential passes over the data, far more cache-friendly
  // than a per-event heap. Ties take the left (lower-id) channel first.
  // Within one pass the pair-merges read and write disjoint index ranges
  // ([bounds[s], bounds[s+2]) each) and the next pass's bounds depend only
  // on the current bounds, so the pairs of a pass can run in parallel
  // without changing a single output bit (the qfc::parallel contract).
  m.t = table.time_s;
  m.ch = table.channel;
  std::vector<std::size_t> bounds = table.offsets;
  std::vector<double> tb(n);
  std::vector<std::uint32_t> cb(n);
  const bool threaded = pool && pool->size() > 1 && n >= kMergeParallelMinEvents;
  while (bounds.size() > 2) {
    const std::size_t npairs = (bounds.size() - 1) / 2;
    const auto merge_pair = [&](std::size_t pair) {
      const std::size_t s = 2 * pair;
      std::size_t i = bounds[s], j = bounds[s + 1], o = bounds[s];
      const std::size_t iend = bounds[s + 1], jend = bounds[s + 2];
      while (i < iend && j < jend) {
        // Branchless select: the interleave of independent Poisson streams
        // is a coin flip per element, the worst case for a branchy merge.
        const bool take_j = m.t[j] < m.t[i];
        tb[o] = take_j ? m.t[j] : m.t[i];
        cb[o] = take_j ? m.ch[j] : m.ch[i];
        j += take_j;
        i += 1 - static_cast<std::size_t>(take_j);
        ++o;
      }
      for (; i < iend; ++i, ++o) {
        tb[o] = m.t[i];
        cb[o] = m.ch[i];
      }
      for (; j < jend; ++j, ++o) {
        tb[o] = m.t[j];
        cb[o] = m.ch[j];
      }
    };
    if (threaded && npairs > 1) {
      parallel::parallel_for_chunks(*pool, npairs, 1,
                                    [&](std::size_t, std::size_t begin,
                                        std::size_t end) {
                                      for (std::size_t p = begin; p < end; ++p)
                                        merge_pair(p);
                                    });
    } else {
      for (std::size_t p = 0; p < npairs; ++p) merge_pair(p);
    }

    std::vector<std::size_t> next_bounds;
    next_bounds.reserve(bounds.size() / 2 + 2);
    next_bounds.push_back(0);
    for (std::size_t s = 0; s + 2 < bounds.size(); s += 2)
      next_bounds.push_back(bounds[s + 2]);
    const std::size_t s_odd = 2 * npairs;
    if (s_odd + 1 < bounds.size()) {  // odd segment out: copy through
      std::copy(m.t.begin() + static_cast<std::ptrdiff_t>(bounds[s_odd]),
                m.t.begin() + static_cast<std::ptrdiff_t>(bounds[s_odd + 1]),
                tb.begin() + static_cast<std::ptrdiff_t>(bounds[s_odd]));
      std::copy(m.ch.begin() + static_cast<std::ptrdiff_t>(bounds[s_odd]),
                m.ch.begin() + static_cast<std::ptrdiff_t>(bounds[s_odd + 1]),
                cb.begin() + static_cast<std::ptrdiff_t>(bounds[s_odd]));
      next_bounds.push_back(bounds[s_odd + 1]);
    }
    m.t.swap(tb);
    m.ch.swap(cb);
    bounds.swap(next_bounds);
  }
  return m;
}

std::vector<std::size_t> sweep_resolved(const std::vector<Column>& signal, double reach,
                                        double frontier, parallel::WorkerPool* pool,
                                        std::size_t row_size, std::uint64_t* counts,
                                        const ChunkSweep& sweep) {
  struct Chunk {
    std::size_t channel;
    const double* begin;
    const double* end;
  };
  std::vector<Chunk> chunks;
  std::vector<std::size_t> resolved(signal.size(), 0);
  for (std::size_t c = 0; c < signal.size(); ++c) {
    const Column& col = signal[c];
    const double* split = std::partition_point(
        col.begin, col.end, [&](double ta) { return ta + reach < frontier; });
    resolved[c] = static_cast<std::size_t>(split - col.begin);
    for (std::size_t b = 0; b < resolved[c]; b += kAnalysisChunkEvents)
      chunks.push_back(
          {c, col.begin + b, col.begin + std::min(resolved[c], b + kAnalysisChunkEvents)});
  }
  // Span + histogram around one chunk's sweep; pure wrapper, so the count
  // arithmetic — and with it the determinism contract — is untouched.
  const auto observed_sweep = [&](const Chunk& k, std::uint64_t* row) {
    QFC_OBS_SPAN("engine.analysis.shard",
                 {{"channel", k.channel}, {"events", k.end - k.begin}});
    if (obs::metrics_enabled()) {
      const std::uint64_t t0 = obs::detail::now_ns();
      sweep(k.channel, k.begin, k.end, row);
      obs::histogram("engine.analysis.shard_ns").observe(obs::detail::now_ns() - t0);
      obs::counter("engine.analysis.shards").increment();
    } else {
      sweep(k.channel, k.begin, k.end, row);
    }
  };
  if (pool == nullptr || pool->size() <= 1 || chunks.size() <= 1) {
    for (const Chunk& k : chunks) observed_sweep(k, counts + k.channel * row_size);
    return resolved;
  }
  std::vector<std::vector<std::uint64_t>> partials(chunks.size());
  pool->run(chunks.size(), [&](std::size_t i) {
    partials[i].assign(row_size, 0);
    observed_sweep(chunks[i], partials[i].data());
  });
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    std::uint64_t* dst = counts + chunks[i].channel * row_size;
    for (std::size_t k = 0; k < row_size; ++k) dst[k] += partials[i][k];
  }
  return resolved;
}

}  // namespace analysis_detail

unsigned analysis_threads() { return parallel::threads(); }

const CarResult& CarMatrix::at(std::size_t s, std::size_t i) const {
  if (s >= num_signal || i >= num_idler)
    throw std::out_of_range("CarMatrix::at: bad cell");
  return cells[s * num_idler + i];
}

double mean_pair_rate_hz(const ChannelPairSpec& spec) {
  switch (spec.emission) {
    case EmissionMode::Cw:
      return spec.pair_rate_hz;
    case EmissionMode::Pulsed:
      return spec.pulsed.mean_pairs_per_pulse * spec.pulsed.repetition_rate_hz;
    case EmissionMode::PiecewiseRates: {
      double total = 0, rate_time = 0;
      for (const RateSegment& seg : spec.segments) {
        total += seg.duration_s;
        rate_time += seg.pair_rate_hz * seg.duration_s;
      }
      return total > 0 ? rate_time / total : 0.0;
    }
  }
  return 0.0;
}

void apply_adjacent_crosstalk(std::vector<ChannelPairSpec>& specs,
                              const std::vector<int>& comb_bin,
                              const std::vector<double>& leakage_fraction) {
  if (comb_bin.size() != specs.size() || leakage_fraction.size() != specs.size())
    throw std::invalid_argument(
        "apply_adjacent_crosstalk: comb_bin and leakage_fraction must have one "
        "entry per spec");
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (leakage_fraction[i] < 0 || leakage_fraction[i] > 1)
      throw std::invalid_argument("apply_adjacent_crosstalk: channel " +
                                  std::to_string(i) +
                                  ": leakage fraction outside [0, 1]");

  // Neighbor flux is read from the specs before any crosstalk is added, so
  // the result is independent of channel order and leakage never cascades
  // through a chain of bins.
  std::vector<double> flux(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i)
    flux[i] = mean_pair_rate_hz(specs[i]);

  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (leakage_fraction[i] <= 0) continue;  // exact no-op: bitwise parity
    double neighbor_flux = 0;
    for (std::size_t j = 0; j < specs.size(); ++j) {
      if (j == i) continue;
      const int d = comb_bin[j] - comb_bin[i];
      if (d == 1 || d == -1) neighbor_flux += flux[j];
    }
    if (neighbor_flux <= 0) continue;
    const double leaked = leakage_fraction[i] * neighbor_flux;
    specs[i].background_rate_signal_hz += leaked * specs[i].transmission_signal;
    specs[i].background_rate_idler_hz += leaked * specs[i].transmission_idler;
  }
}

}  // namespace qfc::detect
