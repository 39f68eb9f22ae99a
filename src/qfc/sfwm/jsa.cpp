#include "qfc/sfwm/jsa.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "qfc/linalg/svd.hpp"
#include "qfc/photonics/microring.hpp"

namespace qfc::sfwm {

using linalg::cplx;
using linalg::CMat;

CMat sample_jsa(const JsaParams& p) {
  if (p.pump_bandwidth_hz <= 0 || p.ring_linewidth_s_hz <= 0 || p.ring_linewidth_i_hz <= 0)
    throw std::invalid_argument("sample_jsa: bandwidths must be positive");
  if (p.grid_points < 8) throw std::invalid_argument("sample_jsa: grid too coarse");

  // Two-photon (energy-sum) envelope: the SFWM pump enters twice, so the
  // envelope is the pump spectrum convolved with itself -> for a Gaussian,
  // √2 wider in standard deviation.
  const double sigma_pump =
      p.pump_bandwidth_hz / (2.0 * std::sqrt(2.0 * std::log(2.0)));  // FWHM -> σ (intensity)
  const double sigma_2ph = std::sqrt(2.0) * sigma_pump;

  const double scale = std::max(
      {p.pump_bandwidth_hz, p.ring_linewidth_s_hz, p.ring_linewidth_i_hz});
  const double half_span = p.span_linewidths * scale / 2.0;
  const std::size_t n = p.grid_points;

  CMat a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double det_s =
        -half_span + (2.0 * half_span) * static_cast<double>(i) / static_cast<double>(n - 1);
    for (std::size_t j = 0; j < n; ++j) {
      const double det_i =
          -half_span + (2.0 * half_span) * static_cast<double>(j) / static_cast<double>(n - 1);
      const double sum = det_s + det_i;
      // Gaussian amplitude envelope of the photon-pair energy sum.
      const double env = std::exp(-sum * sum / (4.0 * sigma_2ph * sigma_2ph));
      const cplx ls = photonics::MicroringResonator::lorentzian_amplitude(
          det_s, p.ring_linewidth_s_hz);
      const cplx li = photonics::MicroringResonator::lorentzian_amplitude(
          det_i, p.ring_linewidth_i_hz);
      a(i, j) = env * ls * li;
    }
  }
  const double norm = a.frobenius_norm();
  if (norm <= 0) throw std::invalid_argument("sample_jsa: vanishing amplitude");
  a *= cplx(1.0 / norm, 0);
  return a;
}

namespace {

CMat normalized_jsa(const CMat& jsa) {
  CMat a = jsa;
  const double norm = a.frobenius_norm();
  if (norm <= 0) throw std::invalid_argument("schmidt_decompose: zero matrix");
  a *= cplx(1.0 / norm, 0);
  return a;
}

SchmidtResult schmidt_from_sigma(linalg::RVec sigma) {
  SchmidtResult res;
  res.coefficients = std::move(sigma);
  double sum4 = 0;
  double entropy = 0;
  for (double lam : res.coefficients) {
    const double p2 = lam * lam;
    sum4 += p2 * p2;
    if (p2 > 1e-15) entropy -= p2 * std::log2(p2);
  }
  res.schmidt_number = 1.0 / sum4;
  res.purity = sum4;
  res.entropy_bits = entropy;
  return res;
}

}  // namespace

SchmidtResult schmidt_decompose(const CMat& jsa) {
  return schmidt_from_sigma(linalg::svd(normalized_jsa(jsa)).sigma);
}

double heralded_purity(double pump_bandwidth_hz, double ring_linewidth_hz,
                       std::size_t grid_points) {
  JsaParams p;
  p.pump_bandwidth_hz = pump_bandwidth_hz;
  p.ring_linewidth_s_hz = ring_linewidth_hz;
  p.ring_linewidth_i_hz = ring_linewidth_hz;
  p.grid_points = grid_points;
  return schmidt_decompose(sample_jsa(p)).purity;
}

double marginal_fwhm_hz(const JsaParams& p) {
  const CMat a = sample_jsa(p);
  const std::size_t n = a.rows();

  // Signal marginal: row sums of |A|².
  std::vector<double> marg(n, 0.0);
  double peak = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) marg[i] += std::norm(a(i, j));
    peak = std::max(peak, marg[i]);
  }
  if (peak <= 0) throw std::invalid_argument("marginal_fwhm_hz: empty marginal");

  // Grid geometry must match sample_jsa.
  const double scale = std::max(
      {p.pump_bandwidth_hz, p.ring_linewidth_s_hz, p.ring_linewidth_i_hz});
  const double half_span = p.span_linewidths * scale / 2.0;
  const auto axis = [&](double idx) {
    return -half_span + 2.0 * half_span * idx / static_cast<double>(n - 1);
  };

  // Find half-maximum crossings from both ends with linear interpolation.
  const double half = peak / 2.0;
  double lo = -half_span, hi = half_span;
  for (std::size_t i = 1; i < n; ++i) {
    if (marg[i - 1] < half && marg[i] >= half) {
      const double f = (half - marg[i - 1]) / (marg[i] - marg[i - 1]);
      lo = axis(static_cast<double>(i - 1) + f);
      break;
    }
  }
  for (std::size_t i = n - 1; i > 0; --i) {
    if (marg[i] < half && marg[i - 1] >= half) {
      const double f = (half - marg[i]) / (marg[i - 1] - marg[i]);
      hi = axis(static_cast<double>(i) - f);
      break;
    }
  }
  return hi - lo;
}

}  // namespace qfc::sfwm
