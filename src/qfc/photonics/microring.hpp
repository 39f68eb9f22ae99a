#pragma once

/// \file microring.hpp
/// Add-drop microring resonator model: resonance grid, loaded/intrinsic Q,
/// linewidth, finesse, field enhancement and port transfer functions for
/// both polarizations. This is the simulated stand-in for the paper's
/// high-Q Hydex ring (DESIGN.md §4).

#include <complex>
#include <vector>

#include "qfc/photonics/waveguide.hpp"

namespace qfc::photonics {

class MicroringResonator {
 public:
  /// \param waveguide   ring waveguide (geometry + material dispersion)
  /// \param radius_m    ring radius (circumference = 2πR)
  /// \param t1          field self-coupling of the input bus coupler, in (0,1)
  /// \param t2          field self-coupling of the drop bus coupler, in (0,1)
  /// \param loss_db_per_m  propagation loss of the ring waveguide
  MicroringResonator(Waveguide waveguide, double radius_m, double t1, double t2,
                     double loss_db_per_m);

  double circumference_m() const noexcept { return circumference_; }

  /// Single-pass field transmission a = 10^(−loss·L/20).
  double round_trip_amplitude() const;

  /// Free spectral range near the given frequency.
  double fsr_hz(double frequency_hz, Polarization pol) const;

  /// Frequency of longitudinal mode m (fixed-point solution of the
  /// resonance condition n_eff(ν) L ν / c = m).
  double resonance_frequency_hz(int mode_number, Polarization pol) const;

  /// Longitudinal mode number closest to the given frequency.
  int mode_number_near(double frequency_hz, Polarization pol) const;

  /// Closest resonance frequency to the given frequency.
  double nearest_resonance_hz(double frequency_hz, Polarization pol) const;

  /// All resonances with min <= ν <= max, ascending.
  std::vector<double> resonances_in(double min_hz, double max_hz, Polarization pol) const;

  /// Finesse = FSR / linewidth = π√(t1 t2 a) / (1 − t1 t2 a).
  double finesse() const;

  /// Loaded (FWHM) linewidth near the given frequency.
  double linewidth_hz(double frequency_hz, Polarization pol) const;

  /// Loaded quality factor ν/δν.
  double loaded_q(double frequency_hz, Polarization pol) const;

  /// Intrinsic Q (loss-limited, both couplers open).
  double intrinsic_q(double frequency_hz, Polarization pol) const;

  /// Round-trip phase 2πν n_eff L / c.
  double round_trip_phase(double frequency_hz, Polarization pol) const;

  /// Through-port field transfer (t1 − t2 a e^{iφ})/(1 − t1 t2 a e^{iφ}).
  std::complex<double> through_field(double frequency_hz, Polarization pol) const;

  /// Drop-port field transfer −κ1 κ2 √a e^{iφ/2}/(1 − t1 t2 a e^{iφ}).
  std::complex<double> drop_field(double frequency_hz, Polarization pol) const;

  double through_power(double frequency_hz, Polarization pol) const;
  double drop_power(double frequency_hz, Polarization pol) const;

  /// Intracavity intensity build-up |E_cav/E_in|² = κ1²/|1 − t1 t2 a e^{iφ}|².
  double field_enhancement(double frequency_hz, Polarization pol) const;

  /// On-resonance intensity build-up κ1²/(1 − t1 t2 a)².
  double peak_field_enhancement() const;

  /// Thermal tuning rate dν/dT = −ν (dn/dT)/n_g (negative: heating
  /// red-shifts resonances).
  double thermal_shift_hz_per_K(double frequency_hz, Polarization pol) const;

  /// Normalized complex Lorentzian resonance amplitude
  /// (δν/2) / (δν/2 + iΔ) for detuning Δ from line center — the spectral
  /// amplitude of photons emitted from a resonance of FWHM δν.
  static std::complex<double> lorentzian_amplitude(double detuning_hz, double fwhm_hz);

 private:
  Waveguide waveguide_;
  double radius_;
  double circumference_;
  double t1_, t2_;
  double loss_db_per_m_;
};

/// Solve for the symmetric coupling (t1 = t2 = t) that yields the target
/// loaded linewidth at the given frequency; throws NumericalError when the
/// propagation loss alone already exceeds the target.
double design_symmetric_coupling_for_linewidth(const Waveguide& waveguide,
                                               double radius_m, double loss_db_per_m,
                                               double target_linewidth_hz,
                                               double at_frequency_hz,
                                               Polarization pol = Polarization::TE);

}  // namespace qfc::photonics
