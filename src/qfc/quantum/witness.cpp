#include "qfc/quantum/witness.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/measures.hpp"

namespace qfc::quantum {

using linalg::cplx;
using linalg::CMat;

CMat projector_witness(const StateVector& target, double alpha) {
  if (alpha <= 0 || alpha >= 1)
    throw std::invalid_argument("projector_witness: alpha outside (0,1)");
  CMat w = CMat::identity(target.dim());
  w *= cplx(alpha, 0);
  w -= linalg::outer(target.amplitudes(), target.amplitudes());
  return w;
}

double witness_expectation(const CMat& witness, const DensityMatrix& rho) {
  return std::real(rho.expectation(witness));
}

double bell_witness_value(const DensityMatrix& rho, double phase_rad) {
  if (rho.dims() != qubit_dims(2))
    throw std::invalid_argument("bell_witness_value: need a two-qubit state");
  return 0.5 - fidelity(rho, bell_phi(phase_rad));
}

StateVector ghz_state(std::size_t num_qubits, double phase_rad) {
  if (num_qubits < 2) throw std::invalid_argument("ghz_state: need >= 2 qubits");
  linalg::CVec v(std::size_t{1} << num_qubits, cplx(0, 0));
  const double s = 1.0 / std::sqrt(2.0);
  v.front() = cplx(s, 0);
  v.back() = s * std::exp(cplx(0, phase_rad));
  return StateVector(std::move(v), qubit_dims(num_qubits));
}

double werner_detection_threshold(std::size_t num_qubits, double alpha) {
  if (num_qubits == 0) throw std::invalid_argument("werner_detection_threshold: n == 0");
  const double d = static_cast<double>(std::size_t{1} << num_qubits);
  return (alpha * d - 1.0) / (d - 1.0);
}

}  // namespace qfc::quantum
