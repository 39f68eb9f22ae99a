#pragma once

/// \file bell.hpp
/// Bell states in the time-bin encoding |0> = |short>, |1> = |long>, plus
/// the noise models (Werner mixing, colored/phase noise) used to emulate
/// the experimentally observed visibilities and fidelities.

#include "qfc/quantum/state.hpp"

namespace qfc::quantum {

/// (|00> + e^{iφ} |11>)/√2 — the state generated by double-pulse SFWM with
/// pump inter-pulse phase φ (paper Sec. IV).
StateVector bell_phi(double phase_rad = 0.0);

/// Werner-type state: V |Φ(φ)><Φ(φ)| + (1−V) I/4. A two-photon fringe
/// visibility V maps exactly to this mixing weight for time-bin analysis.
DensityMatrix werner_phi(double visibility, double phase_rad = 0.0);

/// Product of n/2 Bell Φ pairs on adjacent qubit pairs (n even): the
/// multi-photon states of paper Sec. V (four-mode -> two Bell pairs).
StateVector bell_product(std::size_t num_pairs, double phase_rad = 0.0);

/// Isotropic-noise model V |ψ><ψ| + (1−V) I/dim of any register — the
/// standard noise family of the multi-photon and CGLMP studies.
DensityMatrix isotropic_noise(const StateVector& target, double visibility);

/// Two-particle state Σ_k c_k |k⟩|k⟩ from per-level pair amplitudes
/// (normalized internally; the size sets d) — a frequency-bin pair with one
/// amplitude per bin.
StateVector from_pair_amplitudes(const CVec& pair_amplitudes);

/// Maximally entangled pair (1/√d) Σ_k |k⟩|k⟩ of two d-level particles.
StateVector maximally_entangled(std::size_t d);

}  // namespace qfc::quantum
