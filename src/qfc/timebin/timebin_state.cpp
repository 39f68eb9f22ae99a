#include "qfc/timebin/timebin_state.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/quantum/bell.hpp"

namespace qfc::timebin {

void TimebinNoiseModel::validate() const {
  if (mean_pairs_per_double_pulse < 0)
    throw std::invalid_argument("TimebinNoiseModel: negative mean pair number");
  if (phase_noise_rms_rad < 0)
    throw std::invalid_argument("TimebinNoiseModel: negative phase noise");
  if (accidental_fraction < 0 || accidental_fraction >= 1)
    throw std::invalid_argument("TimebinNoiseModel: accidental fraction outside [0,1)");
}

double state_visibility(const TimebinNoiseModel& m) {
  m.validate();
  const double multi_pair = 1.0 / (1.0 + 2.0 * m.mean_pairs_per_double_pulse);
  const double dephasing = std::exp(-m.phase_noise_rms_rad * m.phase_noise_rms_rad / 2.0);
  return dephasing * multi_pair;
}

double predicted_visibility(const TimebinNoiseModel& m) {
  return state_visibility(m) * (1.0 - m.accidental_fraction);
}

quantum::DensityMatrix noisy_pair_state(const TimebinNoiseModel& m, double pump_phase_rad) {
  return quantum::werner_phi(state_visibility(m), pump_phase_rad);
}

}  // namespace qfc::timebin
