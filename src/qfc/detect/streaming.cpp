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
#include "qfc/parallel/worker_pool.hpp"

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
std::size_t EventStreamer::num_windows() const { return impl_->num_windows; }
std::uint64_t EventStreamer::boundary_violations() const {
  return impl_->gen.boundary_violations();
}

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

/// The first window fixes a bank's channel count; every later one must
/// carry the same.
void fix_channel_count(std::size_t& fixed, std::size_t n) {
  if (fixed == kNoChannels)
    fixed = n;
  else if (n != fixed)
    throw std::invalid_argument(
        "streaming accumulator: window channel count changed mid-run");
}

/// Leading events of sorted idler times `t` that no sweep reaches again once
/// every unresolved signal event lies at or after `from`: those before
/// from - reach, or all of them at from = +∞.
std::ptrdiff_t stale(const std::vector<double>& t, double from, double reach) {
  if (!std::isfinite(from)) return static_cast<std::ptrdiff_t>(t.size());
  return std::lower_bound(t.begin(), t.end(), from - reach) - t.begin();
}

/// What both rolls hold on the signal side: per channel the events not yet
/// swept, the shared pool (held from construction) and the integer counts
/// (row c at c * row_size, sized at the first resolve).
struct SignalRoll {
  std::size_t ns = kNoChannels;
  std::vector<std::vector<double>> pending;
  std::shared_ptr<parallel::WorkerPool> pool = parallel::shared_pool();
  std::vector<std::uint64_t> counts;

  bool started() const { return ns != kNoChannels; }

  void append_signal(const EventTable& signal) {
    fix_channel_count(ns, signal.num_channels());
    pending.resize(ns);
    for (std::size_t c = 0; c < ns; ++c)
      append_sorted(pending[c], signal.channel_begin(c), signal.channel_end(c));
  }

  /// Count every pending event whose full reach lies behind `frontier`
  /// (analysis_detail::sweep_resolved) with `sweep`, then drop it.
  void sweep_pending(double frontier, double reach, std::size_t row_size,
                     const analysis_detail::ChunkSweep& sweep) {
    if (counts.empty()) counts.assign(ns * row_size, 0);
    const std::vector<std::size_t> resolved = analysis_detail::sweep_resolved(
        columns_of(pending), reach, frontier, pool.get(), row_size, counts.data(), sweep);
    for (std::size_t c = 0; c < ns; ++c)
      pending[c].erase(pending[c].begin(),
                       pending[c].begin() + static_cast<std::ptrdiff_t>(resolved[c]));
  }

  /// Earliest time a future sweep of signal channel c starts from.
  double unresolved(std::size_t c, double frontier) const {
    return pending[c].empty() ? frontier : pending[c].front();
  }
};

/// Roll of the diagonal analyses (per-channel CAR, correlator): per channel
/// c the rolling idler column, swept against signal channel c only and
/// trimmed below what channel c's pending events can reach.
struct ColumnRoll : SignalRoll {
  std::vector<std::vector<double>> idler;

  /// `who` names the batch helper in the channel-count-mismatch message.
  void append(const EventTable& signal, const EventTable& idler_bank, const char* who) {
    if (signal.num_channels() != idler_bank.num_channels())
      throw std::invalid_argument(std::string(who) + ": channel count mismatch");
    append_signal(signal);
    idler.resize(ns);
    for (std::size_t c = 0; c < ns; ++c)
      append_sorted(idler[c], idler_bank.channel_begin(c), idler_bank.channel_end(c));
  }

  /// `sweep` is a pairwise sweep over columns_of(idler).
  void resolve(double frontier, double reach, std::size_t row_size,
               const analysis_detail::ChunkSweep& sweep) {
    sweep_pending(frontier, reach, row_size, sweep);
    for (std::size_t c = 0; c < ns; ++c)
      idler[c].erase(idler[c].begin(),
                     idler[c].begin() + stale(idler[c], unresolved(c, frontier), reach));
  }
};

/// Roll of the cross-channel CAR matrix: one merged, time-ordered idler
/// view over all channels, swept against every signal channel and trimmed
/// below what the earliest pending event of any channel can reach.
struct MergedRoll : SignalRoll {
  std::size_t ni = kNoChannels;
  std::vector<double> it;
  std::vector<std::uint32_t> ich;

  void append(const EventTable& signal, const EventTable& idler) {
    fix_channel_count(ni, idler.num_channels());
    append_signal(signal);
    analysis_detail::MergedView mv = analysis_detail::merge_channels(idler, pool.get());
    const bool clean = it.empty() || mv.t.empty() || mv.t.front() >= it.back();
    it.insert(it.end(), mv.t.begin(), mv.t.end());
    ich.insert(ich.end(), mv.ch.begin(), mv.ch.end());
    if (!clean) co_sort(it, ich);
  }

  /// `sweep` is a sweep over (it, ich).
  void resolve(double frontier, double reach, std::size_t row_size,
               const analysis_detail::ChunkSweep& sweep) {
    sweep_pending(frontier, reach, row_size, sweep);
    double from = frontier;
    for (std::size_t c = 0; c < ns; ++c) from = std::min(from, unresolved(c, frontier));
    const std::ptrdiff_t cut = stale(it, from, reach);
    it.erase(it.begin(), it.begin() + cut);
    ich.erase(ich.begin(), ich.begin() + cut);
  }
};

// Each analysis below is the one implementation behind a batch helper and
// its accumulator: push(signal, idler, frontier) appends one window's
// tables and resolves what lies behind `frontier`; finish() resolves the
// rest and builds the result. The batch helper pushes its whole tables once
// at frontier +∞; the accumulator pushes each window at its end time.

/// Per-channel CAR: car_diagonal and StreamingCarAccumulator.
struct CarPairAnalysis {
  analysis_detail::CarGrid grid;
  ColumnRoll roll;

  CarPairAnalysis(double window_s, double side_window_spacing_s, int num_side_windows)
      : grid(analysis_detail::checked_car_grid("car_diagonal", window_s,
                                               side_window_spacing_s, num_side_windows)) {}

  void push(const EventTable& signal, const EventTable& idler, double frontier) {
    roll.append(signal, idler, "car_diagonal");
    resolve(frontier);
  }

  void resolve(double frontier) {
    const std::vector<analysis_detail::Column> idler_cols = columns_of(roll.idler);
    roll.resolve(frontier, grid.reach, grid.stride,
                 analysis_detail::car_pair_sweep(idler_cols, grid));
  }

  std::vector<CarResult> finish() {
    if (!roll.started()) return {};
    resolve(kInf);
    std::vector<CarResult> cells(roll.ns, CarResult{});
    analysis_detail::finalize_car_cells(cells, roll.counts, grid);
    return cells;
  }
};

/// Cross-channel CAR matrix: car_matrix and StreamingCarMatrixAccumulator.
struct CarMatrixAnalysis {
  analysis_detail::CarGrid grid;
  MergedRoll roll;

  CarMatrixAnalysis(double window_s, double side_window_spacing_s, int num_side_windows)
      : grid(analysis_detail::checked_car_grid("car_matrix", window_s,
                                               side_window_spacing_s, num_side_windows)) {}

  void push(const EventTable& signal, const EventTable& idler, double frontier) {
    roll.append(signal, idler);
    resolve(frontier);
  }

  void resolve(double frontier) {
    roll.resolve(frontier, grid.reach, roll.ni * grid.stride,
                 analysis_detail::car_sweep(roll.it, roll.ich, grid));
  }

  CarMatrix finish() {
    CarMatrix m;
    if (!roll.started()) return m;
    resolve(kInf);
    m.num_signal = roll.ns;
    m.num_idler = roll.ni;
    m.cells.assign(m.num_signal * m.num_idler, CarResult{});
    analysis_detail::finalize_car_cells(m.cells, roll.counts, grid);
    return m;
  }
};

/// Diagonal Δt histograms: correlate_all and StreamingCorrelatorAccumulator.
struct CorrelatorAnalysis {
  double bin_width_s = 0, range_s = 0;
  std::size_t half_bins = 0, num_bins = 0;
  ColumnRoll roll;

  CorrelatorAnalysis(double bin_width, double range) : bin_width_s(bin_width), range_s(range) {
    if (bin_width_s <= 0 || range_s <= 0)
      throw std::invalid_argument("correlate_all: non-positive bin width or range");
    half_bins = static_cast<std::size_t>(std::ceil(range_s / bin_width_s));
    num_bins = 2 * half_bins + 1;
  }

  void push(const EventTable& signal, const EventTable& idler, double frontier) {
    roll.append(signal, idler, "correlate_all");
    resolve(frontier);
  }

  void resolve(double frontier) {
    const std::vector<analysis_detail::Column> idler_cols = columns_of(roll.idler);
    roll.resolve(frontier, range_s, num_bins,
                 analysis_detail::corr_sweep(idler_cols, bin_width_s, range_s, half_bins,
                                             num_bins));
  }

  std::vector<CoincidenceHistogram> finish() {
    if (!roll.started()) return {};
    resolve(kInf);
    return analysis_detail::split_histograms(roll.counts, num_bins, bin_width_s, range_s);
  }
};

/// Misuse guard of an accumulator: a push after finish, or a second
/// finish, throws std::logic_error naming the class.
struct Once {
  const char* name;
  bool finished = false;

  void push() const {
    if (finished) throw std::logic_error(std::string(name) + ": push after finish");
  }
  void finish() {
    if (finished) throw std::logic_error(std::string(name) + ": finish called twice");
    finished = true;
  }
};

}  // namespace

// ------------------------------------------ batch analyzers: one window

CarMatrix car_matrix(const EventTable& signal, const EventTable& idler,
                     double window_s, double side_window_spacing_s,
                     int num_side_windows) {
  CarMatrixAnalysis a(window_s, side_window_spacing_s, num_side_windows);
  QFC_OBS_SPAN("engine.car_matrix", {{"events", signal.size() + idler.size()}});
  a.push(signal, idler, kInf);
  return a.finish();
}

std::vector<CarResult> car_diagonal(const EventTable& signal, const EventTable& idler,
                                    double window_s, double side_window_spacing_s,
                                    int num_side_windows) {
  CarPairAnalysis a(window_s, side_window_spacing_s, num_side_windows);
  QFC_OBS_SPAN("engine.car_diagonal", {{"events", signal.size() + idler.size()}});
  a.push(signal, idler, kInf);
  return a.finish();
}

std::vector<CoincidenceHistogram> correlate_all(const EventTable& signal,
                                                const EventTable& idler,
                                                double bin_width_s, double range_s) {
  CorrelatorAnalysis a(bin_width_s, range_s);
  QFC_OBS_SPAN("engine.correlate_all", {{"events", signal.size() + idler.size()}});
  a.push(signal, idler, kInf);
  return a.finish();
}

// ------------------------------------------------ StreamingCarAccumulator

struct StreamingCarAccumulator::Impl : CarPairAnalysis {
  using CarPairAnalysis::CarPairAnalysis;
  Once once{"StreamingCarAccumulator"};
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

void StreamingCarAccumulator::push(const StreamWindow& w) {
  impl_->once.push();
  QFC_OBS_SPAN("engine.stream.car_push", {{"events", w.events.signal.size()}});
  impl_->push(w.events.signal, w.events.idler, w.t_end_s);
}
std::vector<CarResult> StreamingCarAccumulator::finish() {
  impl_->once.finish();
  return impl_->finish();
}

// ------------------------------------------ StreamingCarMatrixAccumulator

struct StreamingCarMatrixAccumulator::Impl : CarMatrixAnalysis {
  using CarMatrixAnalysis::CarMatrixAnalysis;
  Once once{"StreamingCarMatrixAccumulator"};
};

StreamingCarMatrixAccumulator::StreamingCarMatrixAccumulator(double window_s,
                                                             double side_window_spacing_s,
                                                             int num_side_windows)
    : impl_(std::make_unique<Impl>(window_s, side_window_spacing_s,
                                   num_side_windows)) {}
StreamingCarMatrixAccumulator::~StreamingCarMatrixAccumulator() = default;
StreamingCarMatrixAccumulator::StreamingCarMatrixAccumulator(
    StreamingCarMatrixAccumulator&&) noexcept = default;
StreamingCarMatrixAccumulator& StreamingCarMatrixAccumulator::operator=(
    StreamingCarMatrixAccumulator&&) noexcept = default;

void StreamingCarMatrixAccumulator::push(const StreamWindow& w) {
  impl_->once.push();
  QFC_OBS_SPAN("engine.stream.car_matrix_push", {{"events", w.events.signal.size()}});
  impl_->push(w.events.signal, w.events.idler, w.t_end_s);
}
CarMatrix StreamingCarMatrixAccumulator::finish() {
  impl_->once.finish();
  return impl_->finish();
}

// ---------------------------------------- StreamingCorrelatorAccumulator

struct StreamingCorrelatorAccumulator::Impl : CorrelatorAnalysis {
  using CorrelatorAnalysis::CorrelatorAnalysis;
  Once once{"StreamingCorrelatorAccumulator"};
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
  impl_->once.push();
  QFC_OBS_SPAN("engine.stream.correlate_push", {{"events", w.events.signal.size()}});
  impl_->push(w.events.signal, w.events.idler, w.t_end_s);
}
std::vector<CoincidenceHistogram> StreamingCorrelatorAccumulator::finish() {
  impl_->once.finish();
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
  Once once{"StreamingAllanAccumulator"};

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
    once.push();
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
    once.finish();
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
