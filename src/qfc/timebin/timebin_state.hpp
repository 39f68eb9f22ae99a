#pragma once

/// \file timebin_state.hpp
/// Physical noise model mapping SFWM source parameters (multi-pair mean μ,
/// accidental fraction, interferometer phase noise) to the two-qubit
/// time-bin density matrix the analyzers see. This is where the paper's
/// raw visibilities (83% two-photon, 89% four-photon) come from.

#include "qfc/quantum/state.hpp"

namespace qfc::timebin {

struct TimebinNoiseModel {
  /// Mean pair number per double pulse (both bins combined).
  double mean_pairs_per_double_pulse = 0.08;
  /// RMS phase noise of the (stabilized) interferometers, radians.
  double phase_noise_rms_rad = 0.05;
  /// Fraction of post-selected coincidences that are accidental
  /// (detector darks + photons from different pairs).
  double accidental_fraction = 0.02;

  void validate() const;
};

/// Visibility of the *quantum state* itself (multi-pair + phase noise,
/// no accidentals):  V_state = exp(−σφ²/2) / (1 + 2μ). Multi-pair emission
/// contributes the 1/(1+2μ) factor (uncorrelated pairs in the same double
/// pulse); interferometer phase noise washes out coherence.
double state_visibility(const TimebinNoiseModel& m);

/// Raw measured fringe visibility including the flat accidental floor:
///   V_raw = V_state · (1 − f_acc)
/// — this is the number the paper quotes (83%, no background correction).
double predicted_visibility(const TimebinNoiseModel& m);

/// Two-qubit density matrix seen by the analyzers: Werner-like mixture of
/// the ideal |Φ(pump_phase)> with white noise at the level implied by
/// state_visibility (accidentals are added by the counting layer, not
/// folded into the state — see franson.hpp).
quantum::DensityMatrix noisy_pair_state(const TimebinNoiseModel& m,
                                        double pump_phase_rad = 0.0);

}  // namespace qfc::timebin
