#include "qfc/sfwm/pair_source.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/photonics/constants.hpp"
#include "qfc/sfwm/phase_matching.hpp"

namespace qfc::sfwm {

using photonics::pi;

double drop_port_escape_efficiency(const MicroringResonator& ring) {
  // Decompose the loaded round-trip loss 1 - t1 t2 a into the three decay
  // channels (input coupler, drop coupler, propagation loss) to first
  // order; the drop coupler's share is the escape probability.
  // We recover t1, t2, a from the public interface via finesse identities
  // is impossible, so the ring exposes them indirectly: use through/drop
  // transfer at resonance instead. Simpler and exact enough: on resonance,
  // drop power T_d = κ1²κ2² a /(1-t1t2a)²; the fraction of generated
  // photons leaving via the drop port is κ2²/(κ1² + κ2² + αL_loss) with
  // αL_loss ≈ 1 - a². We approximate with symmetric couplers (the presets
  // are symmetric): η_esc ≈ κ²/(2κ² + 1 - a²).
  const double a = ring.round_trip_amplitude();
  // Recover κ² from the finesse: ρ = t1 t2 a and for symmetric couplers
  // t² = ρ/a, κ² = 1 - t².
  const double f = ring.finesse();
  // Solve π√ρ/(1-ρ) = F for ρ.
  const double x = (-pi + std::sqrt(pi * pi + 4.0 * f * f)) / (2.0 * f);
  const double rho = x * x;
  const double t2 = rho / a;
  const double kappa2 = std::max(0.0, 1.0 - t2);
  const double loss = std::max(0.0, 1.0 - a * a);
  return kappa2 / (2.0 * kappa2 + loss);
}

namespace {

/// Shared rate kernel: C (γ L P)² (π/2) δν η_esc².
double rate_kernel(const MicroringResonator& ring, double p_cav_w, double linewidth_hz,
                   const SfwmEfficiency& eff) {
  const double g = eff.gamma_w_m * ring.circumference_m() * p_cav_w;
  const double esc = drop_port_escape_efficiency(ring);
  return eff.brightness_calibration * g * g * (pi / 2.0) * linewidth_hz * esc * esc;
}

}  // namespace

CwPairSource::CwPairSource(const MicroringResonator& ring, photonics::CwPump pump,
                           int num_channel_pairs, SfwmEfficiency eff)
    : ring_(ring),
      pump_(pump),
      grid_(ring.nearest_resonance_hz(pump.frequency_hz, Polarization::TE),
            ring.fsr_hz(pump.frequency_hz, Polarization::TE), num_channel_pairs),
      eff_(eff) {
  pump_.validate();
  if (eff.gamma_w_m <= 0 || eff.brightness_calibration <= 0)
    throw std::invalid_argument("CwPairSource: non-positive efficiency constants");
}

double CwPairSource::intracavity_power_w() const {
  return pump_.power_w * ring_.peak_field_enhancement();
}

double CwPairSource::photon_linewidth_hz() const {
  return ring_.linewidth_hz(grid_.pump_hz(), Polarization::TE);
}

double CwPairSource::coherence_time_s() const {
  return 1.0 / (pi * photon_linewidth_hz());
}

double CwPairSource::pair_rate_hz(int k) const {
  if (k < 1 || k > grid_.num_pairs())
    throw std::out_of_range("CwPairSource::pair_rate_hz: bad channel index");
  const double mismatch =
      type0_energy_mismatch_hz(ring_, grid_.pump_hz(), k, Polarization::TE);
  const double lw_s = ring_.linewidth_hz(grid_.pair(k).signal.frequency_hz, Polarization::TE);
  const double lw_i = ring_.linewidth_hz(grid_.pair(k).idler.frequency_hz, Polarization::TE);
  const double pm = lorentzian_pm_factor(mismatch, lw_s, lw_i);
  return rate_kernel(ring_, intracavity_power_w(), photon_linewidth_hz(), eff_) * pm;
}

std::vector<double> CwPairSource::pair_rates() const {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(grid_.num_pairs()));
  for (int k = 1; k <= grid_.num_pairs(); ++k) out.push_back(pair_rate_hz(k));
  return out;
}

double CwPairSource::mean_pairs_per_coherence_time(int k) const {
  return pair_rate_hz(k) * coherence_time_s();
}

PulsedPairSource::PulsedPairSource(const MicroringResonator& ring,
                                   photonics::DoublePulsePump pump,
                                   int num_channel_pairs, SfwmEfficiency eff)
    : ring_(ring),
      pump_(pump),
      grid_(ring.nearest_resonance_hz(pump.frequency_hz, Polarization::TE),
            ring.fsr_hz(pump.frequency_hz, Polarization::TE), num_channel_pairs),
      eff_(eff) {
  pump_.validate();
}

double PulsedPairSource::pump_bandwidth_hz() const {
  // Transform-limited Gaussian: Δν Δt = 2 ln2 / π ≈ 0.441.
  return 2.0 * std::log(2.0) / (pi * pump_.train.pulse_fwhm_s);
}

double PulsedPairSource::effective_enhancement() const {
  const double lw = ring_.linewidth_hz(grid_.pump_hz(), Polarization::TE);
  return ring_.peak_field_enhancement() * lw / (lw + pump_bandwidth_hz());
}

double PulsedPairSource::mean_pairs_per_pulse(int k) const {
  if (k < 1 || k > grid_.num_pairs())
    throw std::out_of_range("PulsedPairSource::mean_pairs_per_pulse: bad channel index");
  // Each of the two bins carries half the pulse energy.
  const double energy_per_bin = pump_.train.pulse_energy_J() / 2.0;
  const double peak_power = 0.94 * energy_per_bin / pump_.train.pulse_fwhm_s;  // Gaussian
  const double p_cav = peak_power * effective_enhancement();

  const double mismatch =
      type0_energy_mismatch_hz(ring_, grid_.pump_hz(), k, Polarization::TE);
  const double lw_s = ring_.linewidth_hz(grid_.pair(k).signal.frequency_hz, Polarization::TE);
  const double lw_i = ring_.linewidth_hz(grid_.pair(k).idler.frequency_hz, Polarization::TE);
  const double pm = lorentzian_pm_factor(mismatch, lw_s, lw_i);

  // Rate x interaction time: the pair-emission window of a pulse stored in
  // the cavity is the cavity photon lifetime 1/(π δν).
  const double lw = ring_.linewidth_hz(grid_.pump_hz(), Polarization::TE);
  const double interaction_time = 1.0 / (pi * lw);
  return rate_kernel(ring_, p_cav, lw, eff_) * pm * interaction_time;
}

}  // namespace qfc::sfwm
