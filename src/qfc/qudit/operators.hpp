#pragma once

/// \file operators.hpp
/// The d-level operator toolbox: Weyl–Heisenberg clock/shift pair and the
/// generalized Gell-Mann basis. These are the qudit analogues of
/// quantum::pauli — the clock/shift pair generates the full d² operator
/// basis the same way Pauli strings do for qubits.

#include <cstddef>
#include <vector>

#include "qfc/linalg/matrix.hpp"

namespace qfc::qudit {

/// Cyclic shift X|j⟩ = |j+1 mod d⟩ (reduces to Pauli X at d = 2).
linalg::CMat shift_operator(std::size_t d);

/// Clock Z|j⟩ = ω^j |j⟩ with ω = exp(2πi/d) (Pauli Z at d = 2).
linalg::CMat clock_operator(std::size_t d);

/// Weyl operator X^a Z^b; the d² of them (a, b ∈ 0..d−1) form an
/// orthogonal operator basis: Tr(W†W') = d δ.
linalg::CMat weyl_operator(std::size_t d, std::size_t a, std::size_t b);

/// The d²−1 generalized Gell-Mann matrices: Hermitian, traceless,
/// Tr(λ_a λ_b) = 2 δ_ab. Ordering: symmetric off-diagonal pairs, then
/// antisymmetric pairs, then the d−1 diagonal matrices.
std::vector<linalg::CMat> gell_mann_basis(std::size_t d);

/// Expansion of a Hermitian matrix in {I/d, gell_mann_basis}: returns the
/// d²−1 real coefficients r_a = Tr(ρ λ_a)/2 (generalized Bloch vector).
linalg::RVec bloch_vector(const linalg::CMat& rho);

}  // namespace qfc::qudit
