#pragma once

/// \file jsa.hpp
/// Joint spectral amplitude of an SFWM photon pair from one resonance pair,
/// and its Schmidt decomposition. This quantifies the paper's Sec. II/V
/// claim that matching the pump bandwidth to the ring linewidth yields
/// (near-)pure, single-temporal-mode photons.

#include <cstddef>

#include "qfc/linalg/matrix.hpp"

namespace qfc::sfwm {

/// Parameters of a sampled JSA  A(ν_s, ν_i) ∝ α(ν_s + ν_i) L_s(ν_s) L_i(ν_i)
/// with a Gaussian two-photon pump envelope α and Lorentzian resonance
/// amplitudes L. Frequencies are detunings from the respective resonance
/// centers; energy conservation couples them through α.
struct JsaParams {
  double pump_bandwidth_hz = 0;    ///< intensity FWHM of the *pump pulse* spectrum
  double ring_linewidth_s_hz = 0;  ///< signal resonance FWHM
  double ring_linewidth_i_hz = 0;  ///< idler resonance FWHM
  std::size_t grid_points = 64;    ///< samples per axis
  double span_linewidths = 12.0;   ///< grid half-span in units of the larger scale
};

/// Sampled JSA matrix (signal index = row, idler index = column),
/// normalized to unit Frobenius norm.
linalg::CMat sample_jsa(const JsaParams& p);

struct SchmidtResult {
  linalg::RVec coefficients;  ///< λ_n, descending, Σλ_n² = 1
  double schmidt_number = 0;  ///< K = 1/Σλ_n⁴
  double purity = 0;          ///< heralded-photon purity = 1/K
  double entropy_bits = 0;    ///< entanglement entropy −Σλ²log₂λ²
};

/// Schmidt decomposition of a sampled JSA (any rectangular complex matrix;
/// normalized internally).
SchmidtResult schmidt_decompose(const linalg::CMat& jsa);

/// Heralded-photon spectral purity for an SFWM source whose pump bandwidth
/// and (equal) resonance linewidths are given — convenience wrapper around
/// sample_jsa + schmidt_decompose.
double heralded_purity(double pump_bandwidth_hz, double ring_linewidth_hz,
                       std::size_t grid_points = 64);

/// FWHM of the signal photon's marginal spectrum |∫A|² for a JSA sampled
/// with the given parameters (linear interpolation between grid points).
/// The paper's Sec. V condition — "photons have the same bandwidth as the
/// pump" — holds when this equals the pump bandwidth, which requires
/// pump BW ≈ ring linewidth.
double marginal_fwhm_hz(const JsaParams& p);

}  // namespace qfc::sfwm
