#pragma once

/// \file analysis_sweep.hpp
/// Internal: the one analysis sweep behind every analysis of streaming.cpp
/// — the merged idler view, the CAR window grid, the sharded sweep over
/// signal columns and the per-analysis chunk sweeps. The cross-channel
/// CAR matrix (car_sweep) sweeps each signal column against the merged
/// idler view; the diagonal analyses (car_pair_sweep, corr_sweep) sweep
/// signal column c against idler column c only. Both CAR sweeps decide
/// window membership with the one car_window helper, so every diagonal cell
/// of car_matrix equals car_diagonal bitwise. Each analysis runs these
/// sweeps window by window for its accumulator; the batch helper is the
/// same analysis with one window resolved at frontier = +∞, so "streaming is
/// bitwise identical to batch" needs no second copy of any count. Not
/// installed API; include only from qfc::detect translation units.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "qfc/detect/event_engine.hpp"

namespace qfc::parallel {
class WorkerPool;
}

namespace qfc::detect::analysis_detail {

/// Fixed shard size of every analysis resolve, batch (one resolve at +∞)
/// or streamed (one per pushed window). Boundaries derived from it depend
/// only on the data, never on the worker count.
constexpr std::size_t kAnalysisChunkEvents = 16384;

/// Time-ordered view over all channels of a table: one (time, channel)
/// sequence merged across the per-channel columns.
struct MergedView {
  std::vector<double> t;
  std::vector<std::uint32_t> ch;
};

/// Bottom-up pairwise merge of the per-channel columns (event_engine.cpp).
/// When `pool` is non-null and the table is large enough, the independent
/// pair-merges of each pass run over `parallel_for_chunks` — their output
/// ranges are disjoint and the pass layout depends only on the offsets, so
/// the result is bitwise identical at every pool size.
MergedView merge_channels(const EventTable& table,
                          parallel::WorkerPool* pool = nullptr);

/// One signal channel's sorted events.
struct Column {
  const double* begin = nullptr;
  const double* end = nullptr;
};

inline std::vector<Column> columns_of(const std::vector<std::vector<double>>& per_channel) {
  std::vector<Column> cols(per_channel.size());
  for (std::size_t c = 0; c < cols.size(); ++c)
    cols[c] = {per_channel[c].data(), per_channel[c].data() + per_channel[c].size()};
  return cols;
}

/// Counts the signal events [begin, end) of channel `channel` into `row`,
/// that channel's row of the count array.
using ChunkSweep = std::function<void(std::size_t channel, const double* begin,
                                      const double* end, std::uint64_t* row)>;

/// The sharded sweep. In every signal column the leading events whose
/// reach lies behind `frontier` (t + reach < frontier) resolve — all of them
/// at frontier = +∞, the batch case. They are cut into chunks at fixed
/// kAnalysisChunkEvents boundaries, which depend on the data only, never on
/// the worker count; each chunk sweeps into its own partial row and the
/// partials add into `counts` (row c at c * row_size) in chunk order after
/// the join. Counts are integers, so the result is bitwise identical at
/// every pool size; with one worker or one chunk the chunks sweep their rows
/// directly. Each chunk runs under an engine.analysis.shard span and feeds
/// the engine.analysis.shard_ns histogram. Returns the number of resolved
/// events per column (event_engine.cpp).
std::vector<std::size_t> sweep_resolved(const std::vector<Column>& signal, double reach,
                                        double frontier, parallel::WorkerPool* pool,
                                        std::size_t row_size, std::uint64_t* counts,
                                        const ChunkSweep& sweep);

/// Index of the first merged-view event with t >= first signal time - reach:
/// exactly where the monotone `lo` pointer of the full sweep would stand
/// when it reaches this chunk's first event.
inline std::size_t sweep_start(const std::vector<double>& t, double first_ta,
                               double reach) {
  return static_cast<std::size_t>(
      std::lower_bound(t.begin(), t.end(), first_ta - reach) - t.begin());
}

/// CAR window grid: index 0 is the peak at Δt = 0; side window w = 1..K sits
/// at multiple m_w of the spacing, alternating +1, -1, +2, -2, ...
/// (the same offsets measure_car scans one pair at a time).
struct CarGrid {
  int K = 0;
  int mmax = 0;
  double half = 0;
  double spacing = 0;
  double reach = 0;          ///< conservative scan reach (one extra window)
  std::size_t stride = 0;    ///< K + 1 windows per (signal, idler) cell
  std::vector<int> window_of;
};

inline CarGrid make_car_grid(double window_s, double side_window_spacing_s,
                             int num_side_windows) {
  CarGrid g;
  g.K = num_side_windows;
  g.mmax = (g.K + 1) / 2;
  g.half = window_s / 2.0;
  g.spacing = side_window_spacing_s;
  g.reach = g.mmax * side_window_spacing_s + window_s;
  g.stride = static_cast<std::size_t>(g.K) + 1;
  g.window_of.assign(static_cast<std::size_t>(2 * g.mmax + 1), -1);
  g.window_of[static_cast<std::size_t>(g.mmax)] = 0;
  for (int w = 1; w <= g.K; ++w) {
    const int m = (w % 2 == 1) ? (w + 1) / 2 : -(w / 2);
    g.window_of[static_cast<std::size_t>(m + g.mmax)] = w;
  }
  return g;
}

/// make_car_grid after the parameter checks shared by the two CAR analyses
/// (car_matrix, car_diagonal and their accumulators); `who` names the batch
/// helper in the std::invalid_argument message.
inline CarGrid checked_car_grid(const char* who, double window_s,
                                double side_window_spacing_s, int num_side_windows) {
  const std::string name(who);
  if (window_s <= 0) throw std::invalid_argument(name + ": window <= 0");
  if (num_side_windows < 1)
    throw std::invalid_argument(name + ": need at least one side window");
  if (side_window_spacing_s <= window_s)
    throw std::invalid_argument(name + ": side windows overlap the peak");
  return make_car_grid(window_s, side_window_spacing_s, num_side_windows);
}

/// The CAR window of grid `g` that idler event tb falls in for signal event
/// ta, or -1 for none. The rounding to the nearest grid offset only
/// *selects* the window — the membership test repeats measure_car's
/// center-bounds arithmetic exactly. The one copy of that arithmetic, shared
/// by car_sweep and car_pair_sweep.
inline int car_window(const CarGrid& g, double ta, double tb) {
  const double dt = ta - tb;
  const auto m = static_cast<std::int64_t>(std::llround(dt / g.spacing));
  if (m < -g.mmax || m > g.mmax) return -1;
  const int w = g.window_of[static_cast<std::size_t>(m + g.mmax)];
  if (w < 0) return -1;
  const double center = ta - static_cast<double>(m) * g.spacing;
  if (tb < center - g.half || tb > center + g.half) return -1;
  return w;
}

/// CAR sweep against a merged idler sequence (it, ich): per signal event,
/// advance the monotone `lo` pointer, then bin every idler event within
/// reach into its car_window. A row is ni x stride counts.
inline ChunkSweep car_sweep(const std::vector<double>& it,
                            const std::vector<std::uint32_t>& ich, const CarGrid& g) {
  return [&it, &ich, &g](std::size_t, const double* a0, const double* a1,
                         std::uint64_t* row) {
    std::size_t lo = sweep_start(it, *a0, g.reach);
    for (const double* a = a0; a != a1; ++a) {
      const double ta = *a;
      while (lo < it.size() && it[lo] < ta - g.reach) ++lo;
      for (std::size_t j = lo; j < it.size() && it[j] <= ta + g.reach; ++j) {
        const int w = car_window(g, ta, it[j]);
        if (w >= 0) ++row[ich[j] * g.stride + static_cast<std::size_t>(w)];
      }
    }
  };
}

/// Per-pair CAR sweep: signal channel c against idler column idler[c] only,
/// the same reach bounds and car_window as car_sweep, so each count equals
/// car_sweep's (c, c) cell bitwise. A row is stride counts.
inline ChunkSweep car_pair_sweep(const std::vector<Column>& idler, const CarGrid& g) {
  return [&idler, &g](std::size_t c, const double* a0, const double* a1,
                      std::uint64_t* row) {
    const double* ie = idler[c].end;
    const double* lo = std::lower_bound(idler[c].begin, ie, *a0 - g.reach);
    for (const double* a = a0; a != a1; ++a) {
      const double ta = *a;
      while (lo != ie && *lo < ta - g.reach) ++lo;
      for (const double* j = lo; j != ie && *j <= ta + g.reach; ++j) {
        const int w = car_window(g, ta, *j);
        if (w >= 0) ++row[static_cast<std::size_t>(w)];
      }
    }
  };
}

/// Diagonal Δt-histogram sweep: signal channel c against idler column
/// idler[c] only.
inline ChunkSweep corr_sweep(const std::vector<Column>& idler, double bin_width_s,
                             double range_s, std::size_t half_bins, std::size_t num_bins) {
  return [&idler, bin_width_s, range_s, half_bins, num_bins](
             std::size_t c, const double* a0, const double* a1, std::uint64_t* counts) {
    const double* ie = idler[c].end;
    const double* lo = std::lower_bound(idler[c].begin, ie, *a0 - range_s);
    for (const double* a = a0; a != a1; ++a) {
      const double ta = *a;
      while (lo != ie && *lo < ta - range_s) ++lo;
      for (const double* j = lo; j != ie && *j <= ta + range_s; ++j) {
        const double dt = ta - *j;
        const auto bin = static_cast<std::int64_t>(std::llround(dt / bin_width_s)) +
                         static_cast<std::int64_t>(half_bins);
        if (bin >= 0 && bin < static_cast<std::int64_t>(num_bins))
          ++counts[static_cast<std::size_t>(bin)];
      }
    }
  };
}

/// Cut the nch x num_bins correlation counts into one histogram per
/// channel.
inline std::vector<CoincidenceHistogram> split_histograms(
    const std::vector<std::uint64_t>& counts, std::size_t num_bins, double bin_width_s,
    double range_s) {
  std::vector<CoincidenceHistogram> hists(num_bins == 0 ? 0 : counts.size() / num_bins);
  for (std::size_t c = 0; c < hists.size(); ++c) {
    hists[c].bin_width_s = bin_width_s;
    hists[c].range_s = range_s;
    hists[c].counts.assign(counts.begin() + static_cast<std::ptrdiff_t>(c * num_bins),
                           counts.begin() + static_cast<std::ptrdiff_t>((c + 1) * num_bins));
  }
  return hists;
}

/// Turn the per-window integer counts (cell i at i * stride) into
/// CarResults — the same counting and error semantics as measure_car.
/// Shared by car_matrix (cells row-major signal x idler) and car_diagonal
/// (one cell per channel).
inline void finalize_car_cells(std::vector<CarResult>& cells,
                               const std::vector<std::uint64_t>& counts,
                               const CarGrid& g) {
  for (std::size_t cell = 0; cell < cells.size(); ++cell) {
    CarResult& r = cells[cell];
    r.coincidences = static_cast<double>(counts[cell * g.stride]);
    double acc_total = 0;
    for (int w = 1; w <= g.K; ++w)
      acc_total +=
          static_cast<double>(counts[cell * g.stride + static_cast<std::size_t>(w)]);
    r.accidentals = acc_total / g.K;
    if (r.accidentals <= 0) r.accidentals = 1.0 / g.K;  // lower bound, as measure_car
    r.car = r.coincidences / r.accidentals;
    const double rel_c = r.coincidences > 0 ? 1.0 / std::sqrt(r.coincidences) : 1.0;
    const double rel_a = 1.0 / std::sqrt(std::max(1.0, acc_total));
    r.car_err = r.car * std::sqrt(rel_c * rel_c + rel_a * rel_a);
  }
}

}  // namespace qfc::detect::analysis_detail
