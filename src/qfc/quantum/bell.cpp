#include "qfc/quantum/bell.hpp"

#include <cmath>
#include <stdexcept>

namespace qfc::quantum {

using linalg::cplx;

StateVector bell_phi(double phase_rad) {
  const double s = 1.0 / std::sqrt(2.0);
  CVec v(4, cplx(0, 0));
  v[0] = cplx(s, 0);
  v[3] = s * std::exp(cplx(0, phase_rad));
  return StateVector(std::move(v));
}

DensityMatrix werner_phi(double visibility, double phase_rad) {
  if (visibility < 0 || visibility > 1)
    throw std::invalid_argument("werner_phi: visibility outside [0,1]");
  const DensityMatrix pure{bell_phi(phase_rad)};
  const DensityMatrix mixed{std::size_t{2}};
  return pure.mix(mixed, 1.0 - visibility);
}

StateVector bell_product(std::size_t num_pairs, double phase_rad) {
  if (num_pairs == 0) throw std::invalid_argument("bell_product: need at least one pair");
  StateVector out = bell_phi(phase_rad);
  for (std::size_t i = 1; i < num_pairs; ++i) out = out.tensor(bell_phi(phase_rad));
  return out;
}

DensityMatrix isotropic_noise(const StateVector& target, double p) {
  if (p < 0 || p > 1) throw std::invalid_argument("isotropic_noise: p outside [0,1]");
  const DensityMatrix pure{target};
  const DensityMatrix mixed{target.num_qubits()};
  return pure.mix(mixed, 1.0 - p);
}

}  // namespace qfc::quantum
