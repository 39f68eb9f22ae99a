// Tests for quantum state tomography (S8): settings, projectors, count
// simulation, linear inversion, maximum likelihood, and the rank-1 RρR
// core against the dense loop it replaced.

#include <cmath>

#include <gtest/gtest.h>

#include "qfc/linalg/hermitian_eig.hpp"
#include "qfc/linalg/matrix_functions.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/qudit/mub.hpp"
#include "qfc/tomo/tomography.hpp"

namespace {

using namespace qfc;
using linalg::cplx;
using quantum::bell_phi;
using quantum::DensityMatrix;
using quantum::werner_phi;

/// The dense RρR loop the rank-1 core replaced, kept as an oracle: every
/// iteration rebuilds R from full projectors |ψ⟩⟨ψ|.
tomo::RrrResult dense_rrr(const std::vector<tomo::ProjectorTerm>& terms,
                          const linalg::CMat& seed, const tomo::MleOptions& opts) {
  const std::size_t dim = seed.rows();
  std::vector<linalg::CMat> proj;
  double total = 0;
  for (const auto& t : terms) {
    proj.push_back(linalg::outer(t.state, t.state));
    total += t.count;
  }
  linalg::CMat rho = seed * cplx(1.0 - 1e-3, 0) +
                     linalg::CMat::identity(dim) * cplx(1e-3 / static_cast<double>(dim), 0);
  tomo::RrrResult res;
  for (int it = 0; it < opts.max_iterations && !res.converged; ++it) {
    linalg::CMat r(dim, dim);
    for (std::size_t i = 0; i < terms.size(); ++i) {
      if (terms[i].count <= 0) continue;
      const double p = std::max(1e-12, std::real(linalg::trace_product(rho, proj[i])));
      r += proj[i] * cplx(terms[i].count / (total * p), 0);
    }
    linalg::CMat next = r * rho * r;
    next *= cplx(1.0, 0) / next.trace();
    res.final_update_norm = (next - rho).frobenius_norm();
    rho = std::move(next);
    res.iterations = it + 1;
    res.converged = res.final_update_norm < opts.convergence_tol;
  }
  res.rho = linalg::project_to_density_matrix(rho);
  for (std::size_t i = 0; i < terms.size(); ++i)
    if (terms[i].count > 0)
      res.log_likelihood += terms[i].count *
          std::log(std::max(1e-300, std::real(linalg::trace_product(res.rho, proj[i]))));
  return res;
}

std::vector<tomo::ProjectorTerm> qubit_terms(const std::vector<tomo::SettingCounts>& data) {
  std::vector<tomo::ProjectorTerm> terms;
  for (const auto& d : data)
    for (std::size_t o = 0; o < d.counts.size(); ++o)
      if (d.counts[o] > 0)
        terms.push_back(tomo::ProjectorTerm{tomo::outcome_state(d.setting, o),
                                            static_cast<double>(d.counts[o])});
  return terms;
}

void expect_matches_dense(const std::vector<tomo::ProjectorTerm>& terms,
                          const linalg::CMat& seed, const tomo::MleOptions& opts) {
  const auto fast = tomo::rrr_reconstruct(terms, seed, opts);
  const auto dense = dense_rrr(terms, seed, opts);
  EXPECT_EQ(fast.iterations, dense.iterations);
  EXPECT_EQ(fast.converged, dense.converged);
  EXPECT_LT((fast.rho - dense.rho).frobenius_norm(), 1e-12);
  EXPECT_LT(std::abs(fast.log_likelihood - dense.log_likelihood),
            1e-12 * std::abs(dense.log_likelihood));
  EXPECT_NEAR(fast.final_update_norm, dense.final_update_norm, 1e-12);
}

TEST(Settings, CountAndContent) {
  const auto s1 = tomo::all_settings(1);
  ASSERT_EQ(s1.size(), 3u);
  EXPECT_EQ(s1[0].bases, "X");
  EXPECT_EQ(s1[2].bases, "Z");

  const auto s2 = tomo::all_settings(2);
  EXPECT_EQ(s2.size(), 9u);
  const auto s4 = tomo::all_settings(4);
  EXPECT_EQ(s4.size(), 81u);
}

TEST(Projectors, CompleteAndOrthogonal) {
  const tomo::MeasurementSetting s{"XY"};
  linalg::CMat sum(4, 4);
  for (std::size_t o = 0; o < 4; ++o) {
    const auto p = tomo::outcome_projector(s, o);
    sum += p;
    EXPECT_LT((p * p - p).max_abs(), 1e-12);  // idempotent
  }
  EXPECT_LT((sum - linalg::CMat::identity(4)).max_abs(), 1e-12);
  EXPECT_THROW(tomo::outcome_projector(s, 4), std::out_of_range);
}

TEST(Projectors, ProjectorIsOuterOfOutcomeState) {
  for (const auto& s : tomo::all_settings(3))
    for (std::size_t o = 0; o < 8; ++o) {
      const auto v = tomo::outcome_state(s, o);
      EXPECT_EQ(tomo::outcome_projector(s, o), linalg::outer(v, v)) << s.bases << o;
    }
  EXPECT_THROW(tomo::outcome_state(tomo::MeasurementSetting{"XY"}, 4), std::out_of_range);
}

TEST(Projectors, ZBasisIsComputational) {
  const tomo::MeasurementSetting s{"Z"};
  const auto p0 = tomo::outcome_projector(s, 0);
  EXPECT_NEAR(std::real(p0(0, 0)), 1.0, 1e-12);
  EXPECT_NEAR(std::real(p0(1, 1)), 0.0, 1e-12);
}

TEST(SimulateCounts, TotalsNearShots) {
  rng::Xoshiro256 g(1);
  const DensityMatrix rho{bell_phi()};
  const auto data = tomo::simulate_counts(rho, 1000.0, {}, g);
  ASSERT_EQ(data.size(), 9u);
  for (const auto& d : data)
    EXPECT_NEAR(static_cast<double>(d.total()), 1000.0, 5 * std::sqrt(1000.0));
}

TEST(SimulateCounts, ZZOnBellIsCorrelated) {
  rng::Xoshiro256 g(2);
  const DensityMatrix rho{bell_phi()};
  const auto data = tomo::simulate_counts(rho, 4000.0, {}, g);
  for (const auto& d : data) {
    if (d.setting.bases != "ZZ") continue;
    // Outcomes 00 and 11 only.
    EXPECT_GT(d.counts[0], 1500u);
    EXPECT_GT(d.counts[3], 1500u);
    EXPECT_EQ(d.counts[1], 0u);
    EXPECT_EQ(d.counts[2], 0u);
  }
}

TEST(SimulateCounts, RejectsQuditRegisters) {
  // Pauli settings need qubits: a 4-level particle has the dim of two
  // qubits but is not a qubit register.
  rng::Xoshiro256 g(3);
  for (const quantum::Dims& dims : {quantum::Dims{4}, quantum::Dims{2, 3}})
    EXPECT_THROW(tomo::simulate_counts(DensityMatrix(dims), 100.0, {}, g),
                 std::invalid_argument);
}

TEST(LinearInversion, RecoversBellInNoiselessLimit) {
  rng::Xoshiro256 g(3);
  const DensityMatrix rho{bell_phi()};
  const auto data = tomo::simulate_counts(rho, 2e5, {}, g);
  const auto est = tomo::linear_inversion(data);
  EXPECT_LT((est - rho.matrix()).max_abs(), 0.02);
  EXPECT_NEAR(std::real(est.trace()), 1.0, 1e-9);
}

TEST(LinearInversion, CanBeNonPhysicalAtLowCounts) {
  // With few shots the linear estimate often has negative eigenvalues —
  // the reason MLE exists. (Not guaranteed per-seed, so only check that
  // the estimate is at least Hermitian/unit-trace and that projecting it
  // fixes any negativity.)
  rng::Xoshiro256 g(4);
  const DensityMatrix rho = werner_phi(0.9);
  const auto data = tomo::simulate_counts(rho, 30.0, {}, g);
  const auto est = tomo::linear_inversion(data);
  EXPECT_TRUE(linalg::is_hermitian(est, 1e-9));
  EXPECT_NEAR(std::real(est.trace()), 1.0, 1e-9);
  const auto proj = linalg::project_to_density_matrix(est);
  const auto evals = linalg::hermitian_eigenvalues(proj);
  for (double v : evals) EXPECT_GE(v, -1e-9);
}

TEST(Mle, ReconstructsBellWithHighFidelity) {
  rng::Xoshiro256 g(5);
  const DensityMatrix rho{bell_phi()};
  const auto data = tomo::simulate_counts(rho, 5000.0, {}, g);
  const auto mle = tomo::maximum_likelihood(data);
  EXPECT_TRUE(mle.converged);
  EXPECT_GT(quantum::fidelity(mle.rho, bell_phi()), 0.99);
}

TEST(Mle, ReconstructsWernerVisibility) {
  rng::Xoshiro256 g(6);
  const double v = 0.83;
  const DensityMatrix rho = werner_phi(v);
  const auto data = tomo::simulate_counts(rho, 10000.0, {}, g);
  const auto mle = tomo::maximum_likelihood(data);
  // Fidelity to the true state should be near 1; to the Bell state near
  // (1+3V)/4.
  EXPECT_GT(quantum::fidelity(mle.rho, rho), 0.995);
  EXPECT_NEAR(quantum::fidelity(mle.rho, bell_phi()), (1 + 3 * v) / 4, 0.02);
}

TEST(Mle, PhysicalEvenAtVeryLowCounts) {
  rng::Xoshiro256 g(7);
  const DensityMatrix rho = werner_phi(0.7);
  const auto data = tomo::simulate_counts(rho, 20.0, {}, g);
  const auto mle = tomo::maximum_likelihood(data);
  const auto evals = linalg::hermitian_eigenvalues(mle.rho.matrix());
  for (double e : evals) EXPECT_GE(e, -1e-9);
  EXPECT_NEAR(std::real(mle.rho.matrix().trace()), 1.0, 1e-6);
}

TEST(Mle, AnalyzerPhaseNoiseLowersFidelity) {
  rng::Xoshiro256 g1(8), g2(8);
  const DensityMatrix rho{bell_phi()};
  const auto clean = tomo::simulate_counts(rho, 3000.0, {}, g1);
  tomo::NoiseKnobs knobs;
  knobs.analyzer_phase_rms_rad = 0.5;
  const auto noisy = tomo::simulate_counts(rho, 3000.0, knobs, g2);
  const double f_clean =
      quantum::fidelity(tomo::maximum_likelihood(clean).rho, bell_phi());
  const double f_noisy =
      quantum::fidelity(tomo::maximum_likelihood(noisy).rho, bell_phi());
  EXPECT_GT(f_clean, f_noisy + 0.01);
}

TEST(Mle, FourQubitProductStateReconstruction) {
  rng::Xoshiro256 g(9);
  const DensityMatrix pair = werner_phi(0.9);
  const DensityMatrix four = pair.tensor(pair);
  const auto data = tomo::simulate_counts(four, 500.0, {}, g);
  ASSERT_EQ(data.size(), 81u);
  const auto mle = tomo::maximum_likelihood(data);
  EXPECT_GT(quantum::fidelity(mle.rho, four), 0.95);
}

TEST(Mle, LikelihoodIncreasesVsSeed) {
  // The RρR fixed point must beat (or match) the projected linear seed.
  rng::Xoshiro256 g(10);
  const DensityMatrix rho = werner_phi(0.6);
  const auto data = tomo::simulate_counts(rho, 200.0, {}, g);

  const auto seed_mat = linalg::project_to_density_matrix(tomo::linear_inversion(data));
  double ll_seed = 0;
  for (const auto& d : data)
    for (std::size_t o = 0; o < d.counts.size(); ++o) {
      if (d.counts[o] == 0) continue;
      const auto p = tomo::outcome_projector(d.setting, o);
      const double prob = std::max(1e-12, std::real((seed_mat * p).trace()));
      ll_seed += static_cast<double>(d.counts[o]) * std::log(prob);
    }
  const auto mle = tomo::maximum_likelihood(data);
  EXPECT_GE(mle.log_likelihood, ll_seed - 1e-6);
}

TEST(Tomography, RejectsBadInput) {
  EXPECT_THROW(tomo::linear_inversion({}), std::invalid_argument);
  EXPECT_THROW(tomo::all_settings(0), std::invalid_argument);
  rng::Xoshiro256 g(11);
  const DensityMatrix rho{bell_phi()};
  EXPECT_THROW(tomo::simulate_counts(rho, 0.0, {}, g), std::invalid_argument);
}

TEST(Tomography, RrrCoreValidatesTerms) {
  const linalg::CMat seed = linalg::CMat::identity(2) * linalg::cplx(0.5, 0);
  const linalg::CVec p0{linalg::cplx(1, 0), linalg::cplx(0, 0)};
  // Empty / zero-count data has nothing to reconstruct from.
  EXPECT_THROW(tomo::rrr_reconstruct({}, seed), std::invalid_argument);
  // Mis-sized state vectors and negative (background-subtracted) counts are
  // rejected rather than silently mis-normalizing the iteration.
  const linalg::CVec wrong_length(3, linalg::cplx(1, 0));
  try {
    tomo::rrr_reconstruct({{wrong_length, 10.0}}, seed);
    ADD_FAILURE() << "a wrong-length state vector was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("rrr_reconstruct"), std::string::npos);
  }
  EXPECT_THROW(tomo::rrr_reconstruct({{p0, 10.0}, {p0, -1.0}}, seed),
               std::invalid_argument);
  // A well-posed single-projector problem converges to that projector.
  const auto res = tomo::rrr_reconstruct({{p0, 100.0}}, seed);
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.final_update_norm, tomo::MleOptions{}.convergence_tol);
  EXPECT_NEAR(std::real(res.rho(0, 0)), 1.0, 1e-6);
}

// ------------------------------------------- rank-1 core vs the dense loop

TEST(Tomography, RrrCoreMatchesDenseLoopTwoAndThreeQubits) {
  rng::Xoshiro256 g(21);
  tomo::MleOptions opts;
  opts.max_iterations = 300;
  opts.convergence_tol = 0;  // run every iteration: equal counts by construction
  const auto pair = tomo::simulate_counts(werner_phi(0.8), 400.0, {}, g);
  expect_matches_dense(qubit_terms(pair),
                       linalg::project_to_density_matrix(tomo::linear_inversion(pair)),
                       opts);

  tomo::NoiseKnobs knobs;
  knobs.analyzer_phase_rms_rad = 0.2;
  knobs.accidentals_per_outcome = 0.5;
  const DensityMatrix three = werner_phi(0.9).tensor(DensityMatrix(quantum::StateVector(
      linalg::CVec{linalg::cplx(0.6, 0), linalg::cplx(0, 0.8)})));
  const auto triple = tomo::simulate_counts(three, 100.0, knobs, g);
  expect_matches_dense(qubit_terms(triple),
                       linalg::project_to_density_matrix(tomo::linear_inversion(triple)),
                       opts);

  // At the default tolerance both stop on the same iteration.
  opts = {};
  opts.convergence_tol = 1e-7;
  expect_matches_dense(qubit_terms(pair),
                       linalg::project_to_density_matrix(tomo::linear_inversion(pair)),
                       opts);
}

TEST(Tomography, RrrCoreMatchesDenseLoopOnQutritMubData) {
  const std::size_t d = 3;
  rng::Xoshiro256 g(22);
  const auto rho = quantum::isotropic_noise(quantum::maximally_entangled(d), 0.85);
  const auto data = qudit::simulate_mub_counts(rho, 300.0, g);
  const auto mubs = qudit::mub_bases(d);
  const auto column = [&](std::size_t b, std::size_t k) {
    linalg::CVec v(d);
    for (std::size_t j = 0; j < d; ++j) v[j] = mubs[b](j, k);
    return v;
  };
  std::vector<tomo::ProjectorTerm> terms;
  for (const auto& sc : data)
    for (std::size_t o = 0; o < sc.counts.size(); ++o)
      if (sc.counts[o] > 0)
        terms.push_back(tomo::ProjectorTerm{
            linalg::kron(column(sc.bases[0], o / d), column(sc.bases[1], o % d)),
            static_cast<double>(sc.counts[o])});
  tomo::MleOptions opts;
  opts.max_iterations = 300;
  opts.convergence_tol = 0;
  const auto seed = linalg::project_to_density_matrix(qudit::mub_linear_inversion(data, d, 2));
  expect_matches_dense(terms, seed, opts);

  // The MUB MLE builds the same terms and runs the same core.
  const auto mle = qudit::mub_maximum_likelihood(data, d, 2, opts);
  const auto dense = dense_rrr(terms, seed, opts);
  EXPECT_EQ(mle.iterations, dense.iterations);
  EXPECT_LT((mle.rho.matrix() - dense.rho).frobenius_norm(), 1e-12);
}

}  // namespace
