#pragma once

/// \file waveguide.hpp
/// Effective-index model of the Hydex strip waveguide forming the ring.
/// A full vectorial mode solver is out of scope; we use a documented
/// surrogate in which each polarization pays a confinement penalty set by
/// the transverse dimension that confines its dominant field component:
///
///   n_eff(λ, pol) = n_core(λ) − η (λ / d_pol)²,
///   d_TE = width, d_TM = height.
///
/// This captures the two device-design levers the paper uses (Sec. III):
/// geometric birefringence (TE/TM resonance offset via width ≠ height) and
/// near-equal TE/TM group indices (similar free spectral ranges).
///
/// A second, *dispersion-engineered* birefringence mechanism is modeled by
/// `tm_phase_trim`: an additional TM phase-index term linear in λ,
///   n_TM += trim · (λ/λ_ref),   λ_ref = 1.55 µm.
/// Because a linear-in-λ index term cancels exactly in the group index
/// n_g = n − λ dn/dλ, this trim offsets the TM resonance grid WITHOUT
/// changing its FSR — the paper's Sec. III requirement ("frequency offset
/// between TE and TM modes ... dispersion controlled to achieve similar
/// free spectral ranges").

#include "qfc/photonics/material.hpp"

namespace qfc::photonics {

enum class Polarization { TE, TM };

struct WaveguideGeometry {
  double width_m;   ///< horizontal core dimension
  double height_m;  ///< vertical core dimension
};

class Waveguide {
 public:
  /// \param geometry   core cross-section
  /// \param material   core material dispersion model
  /// \param confinement_strength  η in the model above (default fitted so a
  ///        1.5 µm × 1.45 µm Hydex core gives n_eff ≈ 1.69 at 1550 nm)
  /// \param tm_phase_trim  dispersion-engineered TM phase-index offset
  ///        (see file comment); 0 = plain geometric model
  Waveguide(WaveguideGeometry geometry, const SellmeierMaterial& material,
            double confinement_strength = 0.012, double tm_phase_trim = 0.0);

  double effective_index(double frequency_hz, Polarization pol) const;

  /// Group index n_g = n_eff + ν dn_eff/dν.
  double group_index(double frequency_hz, Polarization pol) const;

  /// GVD β₂ of the guided mode, s²/m.
  double gvd_s2_per_m(double frequency_hz, Polarization pol) const;

  /// n_eff(TE) − n_eff(TM) at the given frequency.
  double birefringence(double frequency_hz) const;

  /// Thermo-optic resonance drift input: dn_eff/dT ≈ dn_core/dT.
  double dn_dT_per_K() const;

 private:
  double confinement_penalty(double wavelength_m, Polarization pol) const;

  WaveguideGeometry geometry_;
  const SellmeierMaterial* material_;
  double eta_;
  double tm_phase_trim_;
};

}  // namespace qfc::photonics
