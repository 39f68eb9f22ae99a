#pragma once

/// \file fock.hpp
/// Truncated Fock-space operators and the two-mode squeezed vacuum — the
/// exact quantum state SFWM produces in one signal/idler resonance pair.
/// This is where multi-pair contamination (the dominant visibility / CAR
/// limit in the paper) comes from.

#include <cstddef>

#include "qfc/linalg/matrix.hpp"

namespace qfc::quantum {

/// Annihilation operator a on an N-dimensional truncated Fock space.
linalg::CMat annihilation_matrix(std::size_t dim);
/// Creation operator a† (adjoint of the above).
linalg::CMat creation_matrix(std::size_t dim);
/// Number operator a†a.
linalg::CMat number_matrix(std::size_t dim);

/// Two-mode squeezed vacuum |ψ> = √(1−x) Σ x^{n/2} |n,n> with mean pair
/// number μ (x = μ/(1+μ)). Photon-number statistics in either arm are
/// thermal. All quantities are computed on a truncation chosen from μ.
class TwoModeSqueezedVacuum {
 public:
  explicit TwoModeSqueezedVacuum(double mean_pairs);

  double squeezing_parameter_r() const;  ///< μ = sinh²(r)

  /// P(n pairs) = μⁿ/(1+μ)^{n+1}.
  double pair_number_probability(std::size_t n) const;

  /// Heralded g²(0) of the signal arm given a bucket (non-number-resolving)
  /// herald detector of efficiency eta on the idler arm. For μ -> 0 this
  /// tends to 0 (single photons); multi-pair emission raises it ~ 4μ.
  double heralded_g2(double herald_efficiency) const;

  /// Probability that a herald click announces more than one signal photon
  /// — the multi-pair contamination fraction that degrades time-bin fringe
  /// visibility (paper Sec. IV/V).
  double multi_pair_fraction(double herald_efficiency) const;

  /// Coincidence-to-accidental ratio limit from photon statistics alone
  /// (no dark counts): CAR_stat ≈ 1 + 1/μ for a single thermal mode.
  double statistical_car_limit() const;

 private:
  double mu_;
  std::size_t truncation_;
};

}  // namespace qfc::quantum
