#include "qfc/detect/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "qfc/detect/analysis_sweep.hpp"
#include "qfc/detect/engine_plan.hpp"
#include "qfc/obs/obs.hpp"

namespace qfc::detect {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr std::size_t kNoChannels = static_cast<std::size_t>(-1);

const StreamConfig& checked(const StreamConfig& s) {
  if (!(s.window_s > 0)) throw std::invalid_argument("StreamConfig: window <= 0");
  return s;
}

}  // namespace

// -------------------------------------------------------- EventStreamer

struct EventStreamer::Impl {
  EngineConfig cfg;
  StreamConfig stream;
  detail::ClickGenerator gen;
  std::size_t num_windows = 0;
  std::size_t k = 0;  ///< next window index
  std::uint64_t reported_violations = 0;

  Impl(const EngineConfig& c, const StreamConfig& s,
       const std::vector<ChannelPairSpec>& channels)
      : cfg(c), stream(s), gen(c, channels, checked(s).slack_override_s) {
    num_windows = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(cfg.duration_s / stream.window_s)));
    // Guard the float-rounding edge where ceil overshoots: never start a
    // window at or past the end of the run.
    while (num_windows > 1 &&
           static_cast<double>(num_windows - 1) * stream.window_s >= cfg.duration_s)
      --num_windows;
  }

  bool next(StreamWindow& out) {
    if (k >= num_windows) return false;
    QFC_OBS_SPAN("engine.stream.window", {{"index", k}});
    const bool last = (k + 1 == num_windows);
    const double until =
        last ? cfg.duration_s
             : std::min(static_cast<double>(k + 1) * stream.window_s, cfg.duration_s);
    out.events = gen.advance(until, last, "engine.stream.channel");
    out.index = k;
    out.t_begin_s = static_cast<double>(k) * stream.window_s;
    out.t_end_s = until;
    out.last = last;
    ++k;

    const std::uint64_t viol = gen.boundary_violations();
    if (obs::metrics_enabled()) {
      obs::counter("engine.stream.windows").increment();
      if (viol > reported_violations)
        obs::counter("engine.stream.boundary_violations").add(viol - reported_violations);
      obs::gauge("engine.stream.backlog_events")
          .set(static_cast<long long>(gen.backlog_events()));
      obs::gauge("engine.stream.rss_kb").set(obs::current_rss_kb());
    }
    reported_violations = viol;
    return true;
  }
};

EventStreamer::EventStreamer(const EngineConfig& cfg, const StreamConfig& stream,
                             std::vector<ChannelPairSpec> channels)
    : impl_(std::make_unique<Impl>(cfg, stream, channels)) {}

EventStreamer::~EventStreamer() = default;
EventStreamer::EventStreamer(EventStreamer&&) noexcept = default;
EventStreamer& EventStreamer::operator=(EventStreamer&&) noexcept = default;

bool EventStreamer::next(StreamWindow& out) { return impl_->next(out); }
bool EventStreamer::done() const { return impl_->k >= impl_->num_windows; }
std::size_t EventStreamer::next_window() const { return impl_->k; }
std::size_t EventStreamer::num_windows() const { return impl_->num_windows; }
std::uint64_t EventStreamer::boundary_violations() const {
  return impl_->gen.boundary_violations();
}
const EngineConfig& EventStreamer::config() const { return impl_->cfg; }
const StreamConfig& EventStreamer::stream_config() const { return impl_->stream; }

// ------------------------------------------------ streaming accumulators

namespace {

using analysis_detail::columns_of;

/// Repair co-sorted (time, channel) arrays after a boundary violation made
/// an append non-monotone. Rare path (never taken at default slack).
void co_sort(std::vector<double>& t, std::vector<std::uint32_t>& ch) {
  std::vector<std::size_t> idx(t.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::size_t x, std::size_t y) { return t[x] < t[y]; });
  std::vector<double> t2(t.size());
  std::vector<std::uint32_t> c2(ch.size());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    t2[i] = t[idx[i]];
    c2[i] = ch[idx[i]];
  }
  t.swap(t2);
  ch.swap(c2);
}

/// Append `col` to sorted `dst`, repairing the junction if a boundary
/// violation broke monotonicity.
void append_sorted(std::vector<double>& dst, const double* begin,
                   const double* end) {
  if (begin == end) return;
  const bool clean = dst.empty() || *begin >= dst.back();
  const std::size_t old = dst.size();
  dst.insert(dst.end(), begin, end);
  if (!clean)
    std::inplace_merge(dst.begin(),
                       dst.begin() + static_cast<std::ptrdiff_t>(old), dst.end());
}

/// Rolling state of the count-matrix accumulator, the one cross-channel
/// accumulator: the trimmed merged idler view and the per-signal-channel
/// unresolved event buffers.
struct MergedRoll {
  std::size_t ns = kNoChannels, ni = kNoChannels;
  std::vector<double> it;
  std::vector<std::uint32_t> ich;
  std::vector<std::vector<double>> pending;

  void append_window(const StreamWindow& w, parallel::WorkerPool* pool) {
    const std::size_t wns = w.events.signal.num_channels();
    const std::size_t wni = w.events.idler.num_channels();
    if (ns == kNoChannels) {
      ns = wns;
      ni = wni;
      pending.resize(ns);
    } else if (wns != ns || wni != ni) {
      throw std::invalid_argument(
          "streaming accumulator: window channel count changed mid-run");
    }
    analysis_detail::MergedView mv =
        analysis_detail::merge_channels(w.events.idler, pool);
    const bool clean = it.empty() || mv.t.empty() || mv.t.front() >= it.back();
    it.insert(it.end(), mv.t.begin(), mv.t.end());
    ich.insert(ich.end(), mv.ch.begin(), mv.ch.end());
    if (!clean) co_sort(it, ich);
    for (std::size_t c = 0; c < ns; ++c)
      append_sorted(pending[c], w.events.signal.channel_begin(c),
                    w.events.signal.channel_end(c));
  }

  /// Count every signal event whose full reach lies behind `frontier`
  /// (analysis_detail::sweep_resolved), then drop it and trim the merged
  /// idler view below everything any future event can reach.
  void resolve(double frontier, double reach, std::size_t row_size,
               parallel::WorkerPool* pool, std::vector<std::uint64_t>& counts,
               const analysis_detail::ChunkSweep& sweep) {
    if (ns == kNoChannels) return;
    const std::vector<std::size_t> resolved = analysis_detail::sweep_resolved(
        columns_of(pending), reach, frontier, pool, row_size, counts.data(), sweep);
    double trim_t = frontier;
    for (std::size_t c = 0; c < ns; ++c) {
      auto& p = pending[c];
      p.erase(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(resolved[c]));
      if (!p.empty()) trim_t = std::min(trim_t, p.front());
    }
    if (std::isfinite(trim_t)) {
      const auto cut =
          std::lower_bound(it.begin(), it.end(), trim_t - reach) - it.begin();
      it.erase(it.begin(), it.begin() + cut);
      ich.erase(ich.begin(), ich.begin() + cut);
    } else {
      it.clear();
      ich.clear();
    }
  }
};

/// Rolling state shared by the two diagonal accumulators (CAR and
/// correlator): per channel c, the trimmed idler column and the unresolved
/// signal events, swept pairwise (signal c against idler c only).
struct ColumnRoll {
  std::size_t nch = kNoChannels;
  std::vector<std::vector<double>> idler;    ///< rolling per-channel columns
  std::vector<std::vector<double>> pending;  ///< unresolved signal events

  /// `who` names the batch helper in the channel-count-mismatch message.
  void append_window(const StreamWindow& w, const char* who) {
    const std::size_t wns = w.events.signal.num_channels();
    if (wns != w.events.idler.num_channels())
      throw std::invalid_argument(std::string(who) + ": channel count mismatch");
    if (nch == kNoChannels) {
      nch = wns;
      idler.resize(nch);
      pending.resize(nch);
    } else if (wns != nch) {
      throw std::invalid_argument(
          "streaming accumulator: window channel count changed mid-run");
    }
    for (std::size_t c = 0; c < nch; ++c) {
      append_sorted(idler[c], w.events.idler.channel_begin(c),
                    w.events.idler.channel_end(c));
      append_sorted(pending[c], w.events.signal.channel_begin(c),
                    w.events.signal.channel_end(c));
    }
  }

  /// Count every signal event whose full reach lies behind `frontier`
  /// (analysis_detail::sweep_resolved) with `sweep`, a pairwise sweep over
  /// columns_of(idler), then drop it and trim each idler column below
  /// everything its channel's future events can reach.
  void resolve(double frontier, double reach, std::size_t row_size,
               parallel::WorkerPool* pool, std::vector<std::uint64_t>& counts,
               const analysis_detail::ChunkSweep& sweep) {
    if (nch == kNoChannels) return;
    const std::vector<std::size_t> resolved = analysis_detail::sweep_resolved(
        columns_of(pending), reach, frontier, pool, row_size, counts.data(), sweep);
    for (std::size_t c = 0; c < nch; ++c) {
      auto& p = pending[c];
      p.erase(p.begin(), p.begin() + static_cast<std::ptrdiff_t>(resolved[c]));
      const double unresolved = p.empty() ? frontier : p.front();
      auto& col = idler[c];
      if (std::isfinite(unresolved)) {
        const auto cut =
            std::lower_bound(col.begin(), col.end(), unresolved - reach) - col.begin();
        col.erase(col.begin(), col.begin() + cut);
      } else {
        col.clear();
      }
    }
  }
};

}  // namespace

// ------------------------------------------------ StreamingCarAccumulator

struct StreamingCarAccumulator::Impl {
  analysis_detail::CarGrid grid;
  std::shared_ptr<parallel::WorkerPool> pool;
  ColumnRoll roll;
  std::vector<std::uint64_t> counts;  ///< nch x stride
  bool finished = false;

  Impl(double window_s, double side_window_spacing_s, int num_side_windows)
      : grid(analysis_detail::checked_car_grid("car_diagonal", window_s,
                                               side_window_spacing_s,
                                               num_side_windows)),
        pool(analysis_detail::analysis_pool()) {}

  void push(const StreamWindow& w) {
    if (finished)
      throw std::logic_error("StreamingCarAccumulator: push after finish");
    QFC_OBS_SPAN("engine.stream.car_push", {{"events", w.events.signal.size()}});
    roll.append_window(w, "car_diagonal");
    if (counts.empty()) counts.assign(roll.nch * grid.stride, 0);
    resolve(w.t_end_s);
  }

  void resolve(double frontier) {
    const std::vector<analysis_detail::Column> idler_cols = columns_of(roll.idler);
    roll.resolve(frontier, grid.reach, grid.stride, pool.get(), counts,
                 analysis_detail::car_pair_sweep(idler_cols, grid));
  }

  std::vector<CarResult> finish() {
    if (finished)
      throw std::logic_error("StreamingCarAccumulator: finish called twice");
    finished = true;
    if (roll.nch == kNoChannels) return {};
    resolve(kInf);
    std::vector<CarResult> cells(roll.nch, CarResult{});
    analysis_detail::finalize_car_cells(cells, counts, grid);
    return cells;
  }
};

StreamingCarAccumulator::StreamingCarAccumulator(double window_s,
                                                 double side_window_spacing_s,
                                                 int num_side_windows)
    : impl_(std::make_unique<Impl>(window_s, side_window_spacing_s,
                                   num_side_windows)) {}
StreamingCarAccumulator::~StreamingCarAccumulator() = default;
StreamingCarAccumulator::StreamingCarAccumulator(
    StreamingCarAccumulator&&) noexcept = default;
StreamingCarAccumulator& StreamingCarAccumulator::operator=(
    StreamingCarAccumulator&&) noexcept = default;

void StreamingCarAccumulator::push(const StreamWindow& w) { impl_->push(w); }
std::vector<CarResult> StreamingCarAccumulator::finish() { return impl_->finish(); }

// ---------------------------------------- StreamingCountMatrixAccumulator

struct StreamingCountMatrixAccumulator::Impl {
  double half = 0, offset_s = 0, reach = 0;
  std::shared_ptr<parallel::WorkerPool> pool;
  MergedRoll roll;
  std::vector<std::uint64_t> counts;
  bool finished = false;

  Impl(double window_s, double offset) : offset_s(offset) {
    if (window_s <= 0)
      throw std::invalid_argument("coincidence_count_matrix: window <= 0");
    half = window_s / 2.0;
    reach = std::abs(offset_s) + window_s;
    pool = analysis_detail::analysis_pool();
  }

  void push(const StreamWindow& w) {
    if (finished)
      throw std::logic_error(
          "StreamingCountMatrixAccumulator: push after finish");
    roll.append_window(w, pool.get());
    if (counts.empty() && roll.ns != kNoChannels)
      counts.assign(roll.ns * roll.ni, 0);
    resolve(w.t_end_s);
  }

  void resolve(double frontier) {
    roll.resolve(frontier, reach, roll.ni, pool.get(), counts,
                 analysis_detail::window_sweep(roll.it, roll.ich, half, offset_s, reach));
  }

  std::vector<std::uint64_t> finish() {
    if (finished)
      throw std::logic_error(
          "StreamingCountMatrixAccumulator: finish called twice");
    finished = true;
    if (roll.ns == kNoChannels) return {};
    resolve(kInf);
    return std::move(counts);
  }
};

StreamingCountMatrixAccumulator::StreamingCountMatrixAccumulator(double window_s,
                                                                 double offset_s)
    : impl_(std::make_unique<Impl>(window_s, offset_s)) {}
StreamingCountMatrixAccumulator::~StreamingCountMatrixAccumulator() = default;
StreamingCountMatrixAccumulator::StreamingCountMatrixAccumulator(
    StreamingCountMatrixAccumulator&&) noexcept = default;
StreamingCountMatrixAccumulator& StreamingCountMatrixAccumulator::operator=(
    StreamingCountMatrixAccumulator&&) noexcept = default;

void StreamingCountMatrixAccumulator::push(const StreamWindow& w) {
  impl_->push(w);
}
std::vector<std::uint64_t> StreamingCountMatrixAccumulator::finish() {
  return impl_->finish();
}

// ---------------------------------------- StreamingCorrelatorAccumulator

struct StreamingCorrelatorAccumulator::Impl {
  double bin_width_s = 0, range_s = 0;
  std::size_t half_bins = 0, num_bins = 0;
  std::shared_ptr<parallel::WorkerPool> pool;
  ColumnRoll roll;
  std::vector<std::uint64_t> counts;  ///< nch x num_bins
  bool finished = false;

  Impl(double bin_width, double range) : bin_width_s(bin_width), range_s(range) {
    if (bin_width_s <= 0 || range_s <= 0)
      throw std::invalid_argument("correlate_all: non-positive bin width or range");
    half_bins = static_cast<std::size_t>(std::ceil(range_s / bin_width_s));
    num_bins = 2 * half_bins + 1;
    pool = analysis_detail::analysis_pool();
  }

  void push(const StreamWindow& w) {
    if (finished)
      throw std::logic_error("StreamingCorrelatorAccumulator: push after finish");
    roll.append_window(w, "correlate_all");
    if (counts.empty()) counts.assign(roll.nch * num_bins, 0);
    resolve(w.t_end_s);
  }

  void resolve(double frontier) {
    const std::vector<analysis_detail::Column> idler_cols = columns_of(roll.idler);
    roll.resolve(frontier, range_s, num_bins, pool.get(), counts,
                 analysis_detail::corr_sweep(idler_cols, bin_width_s, range_s, half_bins,
                                             num_bins));
  }

  std::vector<CoincidenceHistogram> finish() {
    if (finished)
      throw std::logic_error(
          "StreamingCorrelatorAccumulator: finish called twice");
    finished = true;
    if (roll.nch == kNoChannels) return {};
    resolve(kInf);
    return analysis_detail::split_histograms(counts, num_bins, bin_width_s, range_s);
  }
};

StreamingCorrelatorAccumulator::StreamingCorrelatorAccumulator(double bin_width_s,
                                                               double range_s)
    : impl_(std::make_unique<Impl>(bin_width_s, range_s)) {}
StreamingCorrelatorAccumulator::~StreamingCorrelatorAccumulator() = default;
StreamingCorrelatorAccumulator::StreamingCorrelatorAccumulator(
    StreamingCorrelatorAccumulator&&) noexcept = default;
StreamingCorrelatorAccumulator& StreamingCorrelatorAccumulator::operator=(
    StreamingCorrelatorAccumulator&&) noexcept = default;

void StreamingCorrelatorAccumulator::push(const StreamWindow& w) {
  impl_->push(w);
}
std::vector<CoincidenceHistogram> StreamingCorrelatorAccumulator::finish() {
  return impl_->finish();
}

// -------------------------------------------- StreamingAllanAccumulator

struct StreamingAllanAccumulator::Impl {
  double window_s = 0, dt = 0;
  std::size_t s_ch = 0, i_ch = 0;
  std::size_t idx = 0;  ///< next interval to flush
  std::vector<double> buf_a, buf_b;
  std::vector<double> counts;
  double frontier = 0;
  bool finished = false;

  Impl(double coincidence_window_s, double sample_interval_s,
       std::size_t signal_channel, std::size_t idler_channel)
      : window_s(coincidence_window_s),
        dt(sample_interval_s),
        s_ch(signal_channel),
        i_ch(idler_channel) {
    if (window_s <= 0)
      throw std::invalid_argument("StreamingAllanAccumulator: window <= 0");
    if (dt <= 0)
      throw std::invalid_argument(
          "StreamingAllanAccumulator: sample interval <= 0");
  }

  void push(const StreamWindow& w) {
    if (finished)
      throw std::logic_error("StreamingAllanAccumulator: push after finish");
    if (s_ch >= w.events.signal.num_channels() ||
        i_ch >= w.events.idler.num_channels())
      throw std::invalid_argument("StreamingAllanAccumulator: bad channel index");
    append_sorted(buf_a, w.events.signal.channel_begin(s_ch),
                  w.events.signal.channel_end(s_ch));
    append_sorted(buf_b, w.events.idler.channel_begin(i_ch),
                  w.events.idler.channel_end(i_ch));
    frontier = w.t_end_s;
    flush();
  }

  void flush() {
    while (frontier >= static_cast<double>(idx + 1) * dt) {
      const double t1 = static_cast<double>(idx + 1) * dt;
      const auto ea = std::lower_bound(buf_a.begin(), buf_a.end(), t1);
      const auto eb = std::lower_bound(buf_b.begin(), buf_b.end(), t1);
      const std::vector<double> a(buf_a.begin(), ea);
      const std::vector<double> b(buf_b.begin(), eb);
      counts.push_back(static_cast<double>(count_coincidences(a, b, window_s)));
      buf_a.erase(buf_a.begin(), ea);
      buf_b.erase(buf_b.begin(), eb);
      ++idx;
    }
  }

  StreamingAllanResult finish() {
    if (finished)
      throw std::logic_error("StreamingAllanAccumulator: finish called twice");
    finished = true;
    StreamingAllanResult r;
    r.counts = counts;
    if (r.counts.empty()) return r;
    r.mean_counts =
        std::accumulate(r.counts.begin(), r.counts.end(), 0.0) /
        static_cast<double>(r.counts.size());
    std::vector<double> fractional(r.counts.size());
    for (std::size_t i = 0; i < r.counts.size(); ++i)
      fractional[i] = r.counts[i] / r.mean_counts;
    r.allan = allan_curve(fractional, dt);
    return r;
  }
};

StreamingAllanAccumulator::StreamingAllanAccumulator(double coincidence_window_s,
                                                     double sample_interval_s,
                                                     std::size_t signal_channel,
                                                     std::size_t idler_channel)
    : impl_(std::make_unique<Impl>(coincidence_window_s, sample_interval_s,
                                   signal_channel, idler_channel)) {}
StreamingAllanAccumulator::~StreamingAllanAccumulator() = default;
StreamingAllanAccumulator::StreamingAllanAccumulator(
    StreamingAllanAccumulator&&) noexcept = default;
StreamingAllanAccumulator& StreamingAllanAccumulator::operator=(
    StreamingAllanAccumulator&&) noexcept = default;

void StreamingAllanAccumulator::push(const StreamWindow& w) { impl_->push(w); }
StreamingAllanResult StreamingAllanAccumulator::finish() {
  return impl_->finish();
}

}  // namespace qfc::detect
