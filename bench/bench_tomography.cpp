// E9 (Sec. V): quantum state tomography — Bell-state density matrices per
// channel pair and the four-photon state with fidelity 64%. Ablation:
// MLE vs (projected) linear inversion under shot noise.

#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "qfc/core/comb_source.hpp"
#include "qfc/linalg/hermitian_eig.hpp"
#include "qfc/linalg/matrix_functions.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/tomo/tomography.hpp"

int main() {
  using namespace qfc;
  bench::header("E9  bench_tomography",
                "quantum state tomography: Bell states confirmed per channel; "
                "four-photon density matrix fidelity 64% vs ideal");

  auto comb = core::QuantumFrequencyComb::for_configuration(
      core::PumpConfiguration::DoublePulseFourMode);
  auto exp = comb.four_photon({});
  const auto r = exp.run();

  std::printf("Bell-state tomography (MLE):\n");
  std::printf("  channel pair A fidelity: %.3f\n", r.bell_fidelity_a);
  std::printf("  channel pair B fidelity: %.3f\n", r.bell_fidelity_b);
  std::printf("four-photon tomography (1296-outcome, 81 settings, MLE):\n");
  std::printf("  reconstructed fidelity vs |Phi>⊗|Phi>: %.3f  (paper: 0.64)\n",
              r.four_photon_fidelity);
  std::printf("  true (noise-model) state fidelity:     %.3f\n",
              r.four_photon_state_fidelity);
  std::printf("  MLE iterations (pair / four-photon):   %d / %d\n",
              r.tomo_iterations_pair, r.tomo_iterations_four);

  // Ablation: MLE vs projected linear inversion at several shot counts.
  std::printf("\nablation: reconstruction method vs shots per setting (2-qubit "
              "Werner V=0.83)\n");
  std::printf("%10s %16s %16s %18s\n", "shots", "F(linear+proj)", "F(MLE)",
              "min eig (linear)");
  const auto rho = quantum::werner_phi(0.83);
  for (double shots : {25.0, 100.0, 400.0, 1600.0}) {
    rng::Xoshiro256 g(static_cast<std::uint64_t>(shots));
    const auto data = tomo::simulate_counts(rho, shots, {}, g);
    const auto lin = tomo::linear_inversion(data);
    const auto lin_evals = linalg::hermitian_eigenvalues(lin);
    const auto lin_proj =
        quantum::DensityMatrix(linalg::project_to_density_matrix(lin), rho.dims(), 1e-6);
    const auto mle = tomo::maximum_likelihood(data);
    std::printf("%10.0f %16.3f %16.3f %18.4f\n", shots,
                quantum::fidelity(lin_proj, rho), quantum::fidelity(mle.rho, rho),
                lin_evals.back());
  }

  // The verdict gates means over a fixed seed set, not the one realization
  // above: at 250 shots/setting a single seed misses the Bell bound on ~30%
  // of seeds from shot noise alone.
  constexpr int kSeeds = 16;
  const std::uint64_t first_seed = core::FourPhotonConfig{}.seed;
  double mean_a = 0, mean_b = 0, mean_four = 0;
  for (int k = 0; k < kSeeds; ++k) {
    core::FourPhotonConfig cfg;
    cfg.seed = first_seed + static_cast<std::uint64_t>(k);
    const auto rk = k == 0 ? r : comb.four_photon(cfg).run();
    mean_a += rk.bell_fidelity_a / kSeeds;
    mean_b += rk.bell_fidelity_b / kSeeds;
    mean_four += rk.four_photon_fidelity / kSeeds;
  }
  std::printf("\nmeans over seeds %llu-%llu: pair A %.3f, pair B %.3f, four-photon %.3f\n",
              static_cast<unsigned long long>(first_seed),
              static_cast<unsigned long long>(first_seed + kSeeds - 1), mean_a, mean_b,
              mean_four);

  const bool ok = std::abs(mean_four - 0.64) < 0.12 && mean_a > 0.75 && mean_b > 0.75;
  bench::verdict(ok, "four-photon fidelity ≈ 64% with high per-pair Bell "
                     "fidelities (means over 16 seeds); MLE beats raw linear "
                     "inversion at low counts");
  return ok ? 0 : 1;
}
