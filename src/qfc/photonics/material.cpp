#include "qfc/photonics/material.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/photonics/constants.hpp"

namespace qfc::photonics {

SellmeierMaterial::SellmeierMaterial(Term t1, Term t2, double thermo_optic_per_K)
    : t1_(t1), t2_(t2), dn_dT_(thermo_optic_per_K) {}

double SellmeierMaterial::index(double wavelength_m) const {
  if (wavelength_m <= 0) throw std::invalid_argument("SellmeierMaterial::index: wavelength <= 0");
  const double l2 = wavelength_m * wavelength_m;
  if (l2 <= t1_.c_m2)
    throw std::invalid_argument("SellmeierMaterial::index: wavelength below UV resonance");
  const double n2 = 1.0 + t1_.b * l2 / (l2 - t1_.c_m2) + t2_.b * l2 / (l2 - t2_.c_m2);
  if (n2 <= 0) throw std::invalid_argument("SellmeierMaterial::index: model invalid here");
  return std::sqrt(n2);
}

double SellmeierMaterial::group_index(double wavelength_m) const {
  const double h = wavelength_m * 1e-4;
  const double dn_dl = (index(wavelength_m + h) - index(wavelength_m - h)) / (2 * h);
  return index(wavelength_m) - wavelength_m * dn_dl;
}

double SellmeierMaterial::gvd_s2_per_m(double wavelength_m) const {
  const double h = wavelength_m * 1e-3;
  const double d2n_dl2 =
      (index(wavelength_m + h) - 2 * index(wavelength_m) + index(wavelength_m - h)) / (h * h);
  const double c = speed_of_light_m_per_s;
  return wavelength_m * wavelength_m * wavelength_m / (2 * pi * c * c) * d2n_dl2;
}

const SellmeierMaterial& hydex() {
  // Surrogate fit: n(1550 nm) ≈ 1.70, normal bulk dispersion across S/C/L.
  static const SellmeierMaterial m({1.88, 1.21e-14}, {0.08, 8.1e-11}, 1.0e-5);
  return m;
}

const SellmeierMaterial& fused_silica() {
  // Two-term refit of Malitson (1965): n(1550 nm) ≈ 1.443.
  static const SellmeierMaterial m({1.10, 8.464e-15}, {0.90, 9.7934e-11}, 8.6e-6);
  return m;
}

}  // namespace qfc::photonics
