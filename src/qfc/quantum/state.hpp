#pragma once

/// \file state.hpp
/// Pure states and density matrices of registers whose particles have
/// arbitrary (not necessarily equal, not necessarily power-of-two)
/// dimension: the time-bin qubits of the paper are Dims(n, 2) registers, the
/// d-level frequency-bin systems of Kues et al. 2020 / Maltese et al. 2019
/// are Dims{d, d} ones. Particle 0 owns the most significant digit of the
/// mixed-radix computational-basis index (|q0 q1 ... qn-1>).

#include <cstddef>
#include <vector>

#include "qfc/linalg/matrix.hpp"

namespace qfc::quantum {

using linalg::cplx;
using linalg::CMat;
using linalg::CVec;

/// Per-particle dimensions, most significant digit first.
using Dims = std::vector<std::size_t>;

/// Dims of an n-qubit register, Dims(n, 2). Qubit-only consumers (CHSH,
/// Franson, Pauli tomography, gates) compare a register's dims() to this.
inline Dims qubit_dims(std::size_t n) { return Dims(n, 2); }

/// Product of the per-particle dimensions; validates every entry >= 2 and
/// caps the total at 4096 (Jacobi eigensolver territory).
std::size_t total_dim(const Dims& dims);

/// Normalized pure state of a mixed-radix register.
class StateVector {
 public:
  /// |0...0> with the given per-particle dimensions.
  explicit StateVector(Dims dims);

  /// From amplitudes (size must equal the product of dims); normalizes
  /// unless already normalized, throws on the zero vector.
  StateVector(CVec amplitudes, Dims dims);

  /// Qubit register from 2^n amplitudes (n >= 1): dims are qubit_dims(n).
  explicit StateVector(CVec amplitudes);

  const Dims& dims() const noexcept { return dims_; }
  std::size_t num_particles() const noexcept { return dims_.size(); }
  std::size_t dim() const noexcept { return amps_.size(); }
  const CVec& amplitudes() const noexcept { return amps_; }
  cplx amplitude(std::size_t basis_index) const { return amps_.at(basis_index); }

  /// Tensor product |this> ⊗ |other> (dims are concatenated).
  StateVector tensor(const StateVector& other) const;

  /// |<this|other>|².
  double overlap_probability(const StateVector& other) const;

  /// Apply a d_p x d_p unitary on particle p.
  StateVector apply_local(const CMat& u, std::size_t particle) const;

  /// Probability of measuring the given computational-basis outcome.
  double probability(std::size_t basis_index) const;

 private:
  Dims dims_;
  CVec amps_;
};

/// Density matrix of a mixed-radix register: Hermitian, unit trace, PSD
/// (validated).
class DensityMatrix {
 public:
  /// Maximally mixed state I/dim.
  explicit DensityMatrix(Dims dims);

  /// |psi><psi|.
  explicit DensityMatrix(const StateVector& psi);

  /// From a raw matrix; validates shape/Hermiticity/trace; PSD check is
  /// tolerance-based (small negative eigenvalues allowed up to psd_tol).
  DensityMatrix(CMat rho, Dims dims, double psd_tol = 1e-8);

  const Dims& dims() const noexcept { return dims_; }
  std::size_t num_particles() const noexcept { return dims_.size(); }
  std::size_t dim() const noexcept { return rho_.rows(); }
  const CMat& matrix() const noexcept { return rho_; }

  /// Tr(ρ O).
  cplx expectation(const CMat& observable) const;

  /// Probability Tr(ρ P) of projector P, clipped to [0, 1].
  double probability(const CMat& projector) const;

  /// ρ ⊗ σ (dims are concatenated).
  DensityMatrix tensor(const DensityMatrix& other) const;

  /// Partial trace keeping the listed particles (strictly ascending).
  DensityMatrix partial_trace_keep(const std::vector<std::size_t>& keep) const;

  /// Convex mixture (1−p) ρ + p σ.
  DensityMatrix mix(const DensityMatrix& other, double p) const;

 private:
  /// Unchecked path for internal operations whose results are valid by
  /// construction (tensor, partial trace, mix).
  DensityMatrix() = default;

  Dims dims_;
  CMat rho_;
};

}  // namespace qfc::quantum
