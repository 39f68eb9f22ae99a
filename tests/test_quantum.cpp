// Tests for the quantum-information substrate (S4): mixed-radix states
// (qubit registers are Dims(n, 2)), Paulis, Bell states, entanglement
// measures, Fock statistics.

#include <cmath>

#include <gtest/gtest.h>

#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/fock.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/quantum/pauli.hpp"
#include "qfc/quantum/state.hpp"

namespace {

using qfc::linalg::cplx;
using qfc::linalg::CMat;
using qfc::linalg::CVec;
using namespace qfc::quantum;

TEST(StateVector, DefaultIsGroundState) {
  const StateVector psi(qubit_dims(2));
  EXPECT_EQ(psi.dim(), 4u);
  EXPECT_NEAR(psi.probability(0), 1.0, 1e-15);
  EXPECT_NEAR(psi.probability(3), 0.0, 1e-15);
  const StateVector mixed_radix(Dims{3, 4});
  EXPECT_EQ(mixed_radix.dim(), 12u);
  EXPECT_NEAR(mixed_radix.probability(0), 1.0, 1e-15);
}

TEST(StateVector, NormalizesInput) {
  const StateVector psi(CVec{cplx(3, 0), cplx(4, 0)});
  EXPECT_NEAR(psi.probability(0), 9.0 / 25.0, 1e-12);
  EXPECT_NEAR(psi.probability(1), 16.0 / 25.0, 1e-12);
}

TEST(StateVector, RejectsBadDimensions) {
  EXPECT_THROW(StateVector(CVec(3, cplx(1, 0))), std::invalid_argument);
  EXPECT_THROW(StateVector(CVec(4, cplx(0, 0))), std::invalid_argument);  // zero vec
  EXPECT_THROW(StateVector(CVec{cplx(1, 0)}), std::invalid_argument);    // 0 qubits
  EXPECT_THROW(StateVector(CVec{}), std::invalid_argument);
  EXPECT_THROW(StateVector(Dims{}), std::invalid_argument);
  EXPECT_THROW(StateVector(Dims{1, 3}), std::invalid_argument);
  EXPECT_THROW(StateVector(CVec(5, cplx(1, 0)), Dims{2, 3}), std::invalid_argument);
  EXPECT_THROW(StateVector(CVec(6, cplx(0, 0)), Dims{2, 3}), std::invalid_argument);
  // The register cap is 4096 amplitudes, whatever the particle dimensions.
  EXPECT_EQ(StateVector(Dims{64, 64}).dim(), 4096u);
  EXPECT_EQ(StateVector(qubit_dims(12)).dim(), 4096u);
  EXPECT_THROW(StateVector(Dims{64, 65}), std::invalid_argument);
  EXPECT_THROW(StateVector(qubit_dims(13)), std::invalid_argument);
}

TEST(StateVector, TensorStructure) {
  const StateVector zero(qubit_dims(1));
  const StateVector one(CVec{cplx(0, 0), cplx(1, 0)});
  const StateVector z1 = zero.tensor(one);  // |01>
  EXPECT_NEAR(z1.probability(1), 1.0, 1e-15);
  EXPECT_EQ(z1.dims(), qubit_dims(2));
  EXPECT_EQ(z1.tensor(StateVector(Dims{3})).dims(), (Dims{2, 2, 3}));
}

TEST(StateVector, ApplyLocalQubitOnEachPosition) {
  // X on qubit 0 of |00> -> |10>; X on qubit 1 -> |01>.
  const StateVector psi(qubit_dims(2));
  EXPECT_NEAR(psi.apply_local(pauli_x(), 0).probability(2), 1.0, 1e-12);
  EXPECT_NEAR(psi.apply_local(pauli_x(), 1).probability(1), 1.0, 1e-12);
  EXPECT_THROW(psi.apply_local(pauli_x(), 2), std::out_of_range);
}

TEST(StateVector, ApplyLocalMatchesFullKron) {
  // A local unitary on each particle of a random-ish state, applied both
  // locally and as a full-register kron, must agree: qubits and a 3 x 4
  // mixed-radix register.
  const CMat h = hadamard();
  const CMat ry = rotation_y(0.7);
  CMat shift3(3, 3);  // |j> -> |j+1 mod 3>
  for (std::size_t j = 0; j < 3; ++j) shift3((j + 1) % 3, j) = cplx(1, 0);
  const CMat u4 = qfc::linalg::kron(h, ry);
  struct Case {
    Dims dims;
    CMat u0, u1;
  };
  for (const Case& c : {Case{qubit_dims(2), h, ry}, Case{Dims{3, 4}, shift3, u4}}) {
    CVec amps(total_dim(c.dims));
    for (std::size_t i = 0; i < amps.size(); ++i)
      amps[i] = cplx(std::sin(1.0 + 0.7 * static_cast<double>(i)),
                     std::cos(0.3 * static_cast<double>(i)));
    const StateVector psi(amps, c.dims);
    const StateVector via_local = psi.apply_local(c.u0, 0).apply_local(c.u1, 1);
    const StateVector via_full(qfc::linalg::kron(c.u0, c.u1) * amps, c.dims);
    EXPECT_EQ(via_local.dims(), c.dims);
    for (std::size_t i = 0; i < psi.dim(); ++i)
      EXPECT_NEAR(std::abs(via_local.amplitude(i) - via_full.amplitude(i)), 0.0, 1e-12);
  }
}

TEST(StateVector, ApplyLocalValidation) {
  const StateVector psi(Dims{3, 4});
  CMat shift3(3, 3);
  for (std::size_t j = 0; j < 3; ++j) shift3((j + 1) % 3, j) = cplx(1, 0);
  EXPECT_THROW(psi.apply_local(shift3, 1), std::invalid_argument);  // particle 1 is 4-level
  EXPECT_THROW(psi.apply_local(shift3, 2), std::out_of_range);
  EXPECT_THROW(psi.apply_local(pauli_x(), 0), std::invalid_argument);
}

TEST(StateVector, HadamardMakesUniform) {
  StateVector psi(qubit_dims(1));
  psi = psi.apply_local(hadamard(), 0);
  EXPECT_NEAR(psi.probability(0), 0.5, 1e-12);
  EXPECT_NEAR(psi.probability(1), 0.5, 1e-12);
}

TEST(StateVector, OverlapOfBellPair) {
  const StateVector phi0 = bell_phi(0.0);
  const StateVector phi_pi = bell_phi(3.14159265358979);
  EXPECT_NEAR(phi0.overlap_probability(phi0), 1.0, 1e-12);
  EXPECT_NEAR(phi0.overlap_probability(phi_pi), 0.0, 1e-12);
}

TEST(Pauli, AlgebraRelations) {
  // X² = I, XY = iZ, anticommutation.
  EXPECT_LT((pauli_x() * pauli_x() - pauli_i()).max_abs(), 1e-15);
  CMat iz = pauli_z();
  iz *= cplx(0, 1);
  EXPECT_LT((pauli_x() * pauli_y() - iz).max_abs(), 1e-15);
  const CMat anti = pauli_x() * pauli_z() + pauli_z() * pauli_x();
  EXPECT_LT(anti.max_abs(), 1e-15);
}

TEST(Pauli, StringBuildsKron) {
  const CMat xz = pauli_string("XZ");
  EXPECT_LT((xz - qfc::linalg::kron(pauli_x(), pauli_z())).max_abs(), 1e-15);
  EXPECT_THROW(pauli_string("XQ"), std::invalid_argument);
  EXPECT_THROW(pauli_string(""), std::invalid_argument);
}

TEST(Pauli, RotationsAreUnitary) {
  for (double th : {0.1, 1.0, 2.5}) {
    EXPECT_TRUE(qfc::linalg::is_unitary(rotation_x(th)));
    EXPECT_TRUE(qfc::linalg::is_unitary(rotation_y(th)));
    EXPECT_TRUE(qfc::linalg::is_unitary(rotation_z(th)));
  }
}

TEST(Pauli, XyObservableEigenstates) {
  for (double phi : {0.0, 0.7, 2.0}) {
    const CMat a = xy_observable(phi);
    for (int sign : {+1, -1}) {
      const CVec v = xy_eigenstate(phi, sign);
      const CVec av = a * v;
      for (std::size_t i = 0; i < 2; ++i)
        EXPECT_NEAR(std::abs(av[i] - static_cast<double>(sign) * v[i]), 0.0, 1e-12);
    }
  }
}

TEST(DensityMatrix, PureStateProperties) {
  const DensityMatrix rho{bell_phi()};
  EXPECT_NEAR(purity(rho), 1.0, 1e-12);
  EXPECT_NEAR(von_neumann_entropy_bits(rho), 0.0, 1e-9);
}

TEST(DensityMatrix, MaximallyMixed) {
  const DensityMatrix rho(qubit_dims(2));
  EXPECT_NEAR(purity(rho), 0.25, 1e-12);
  EXPECT_NEAR(von_neumann_entropy_bits(rho), 2.0, 1e-9);
}

TEST(DensityMatrix, ValidatesInput) {
  CMat bad = CMat::identity(4);  // trace 4
  EXPECT_THROW(DensityMatrix(bad, qubit_dims(2)), std::invalid_argument);
  CMat nonherm(2, 2);
  nonherm(0, 0) = cplx(1, 0);
  nonherm(0, 1) = cplx(0.5, 0);
  EXPECT_THROW(DensityMatrix(nonherm, qubit_dims(1)), std::invalid_argument);
  const CMat mixed6 = CMat::identity(6) * cplx(1.0 / 6.0, 0);
  EXPECT_EQ(DensityMatrix(mixed6, Dims{2, 3}).dims(), (Dims{2, 3}));
  EXPECT_THROW(DensityMatrix(mixed6, qubit_dims(2)), std::invalid_argument);  // size
  EXPECT_THROW(DensityMatrix(Dims{}), std::invalid_argument);
  EXPECT_THROW(DensityMatrix(Dims{64, 65}), std::invalid_argument);
}

TEST(DensityMatrix, PartialTraceOfBellIsMixed) {
  const DensityMatrix rho{bell_phi()};
  const DensityMatrix reduced = rho.partial_trace_keep({0});
  EXPECT_EQ(reduced.dims(), qubit_dims(1));
  EXPECT_NEAR(purity(reduced), 0.5, 1e-12);  // maximally mixed qubit
  EXPECT_NEAR(std::real(reduced.matrix()(0, 0)), 0.5, 1e-12);
  // The maximally entangled qudit pair reduces to I/d.
  for (std::size_t d : {2u, 3u, 5u}) {
    const DensityMatrix reduced_d = DensityMatrix(maximally_entangled(d)).partial_trace_keep({0});
    EXPECT_EQ(reduced_d.dims(), Dims{d});
    EXPECT_NEAR(purity(reduced_d), 1.0 / static_cast<double>(d), 1e-12);
  }
}

TEST(DensityMatrix, PartialTraceOfProductRecoversFactors) {
  const DensityMatrix a{StateVector(CVec{cplx(0.6, 0), cplx(0.8, 0)})};
  const DensityMatrix b{StateVector(CVec{cplx(1, 0), cplx(0, 0)})};
  const DensityMatrix ab = a.tensor(b);
  const DensityMatrix ra = ab.partial_trace_keep({0});
  EXPECT_LT((ra.matrix() - a.matrix()).max_abs(), 1e-12);
  const DensityMatrix rb = ab.partial_trace_keep({1});
  EXPECT_LT((rb.matrix() - b.matrix()).max_abs(), 1e-12);

  // Mixed radix: a qubit ⊗ qutrit ⊗ qubit product, every particle kept
  // alone (the middle one strides over the last qubit).
  const DensityMatrix q0{StateVector(CVec{cplx(0.6, 0), cplx(0, 0.8)})};
  const DensityMatrix t{StateVector(CVec{cplx(1, 0), cplx(1, 0), cplx(0, 1)}, Dims{3})};
  const DensityMatrix q2{StateVector(CVec{cplx(0, 0), cplx(1, 0)})};
  const DensityMatrix prod = q0.tensor(t).tensor(q2);
  EXPECT_EQ(prod.dims(), (Dims{2, 3, 2}));
  const DensityMatrix factors[] = {q0, t, q2};
  for (std::size_t p = 0; p < 3; ++p) {
    const DensityMatrix kept = prod.partial_trace_keep({p});
    EXPECT_EQ(kept.dims(), factors[p].dims());
    EXPECT_LT((kept.matrix() - factors[p].matrix()).max_abs(), 1e-12) << "particle " << p;
  }
  const DensityMatrix outer = prod.partial_trace_keep({0, 2});
  EXPECT_LT((outer.matrix() - q0.tensor(q2).matrix()).max_abs(), 1e-12);
}

TEST(DensityMatrix, PartialTraceValidation) {
  const DensityMatrix rho(Dims{2, 3});
  EXPECT_THROW(rho.partial_trace_keep({}), std::invalid_argument);
  EXPECT_THROW(rho.partial_trace_keep({2}), std::out_of_range);
  EXPECT_THROW(rho.partial_trace_keep({1, 0}), std::invalid_argument);
}

TEST(DensityMatrix, MixInterpolatesLinearly) {
  const DensityMatrix pure{bell_phi()};
  const DensityMatrix mixed(qubit_dims(2));
  const DensityMatrix half = pure.mix(mixed, 0.5);
  EXPECT_NEAR(std::real(half.matrix()(0, 0)), 0.5 * 0.5 + 0.5 * 0.25, 1e-12);
  EXPECT_THROW(pure.mix(mixed, 1.5), std::invalid_argument);
}

TEST(Measures, FidelityBasicProperties) {
  const DensityMatrix bell{bell_phi()};
  const DensityMatrix mixed(qubit_dims(2));
  EXPECT_NEAR(fidelity(bell, bell), 1.0, 1e-9);
  EXPECT_NEAR(fidelity(bell, mixed), 0.25, 1e-9);
  EXPECT_NEAR(fidelity(bell, bell_phi()), 1.0, 1e-9);
}

TEST(Measures, FidelitySymmetric) {
  const DensityMatrix a = werner_phi(0.8);
  const DensityMatrix b = werner_phi(0.3);
  EXPECT_NEAR(fidelity(a, b), fidelity(b, a), 1e-9);
}

TEST(Measures, WernerFidelityClosedForm) {
  // F(Werner(V), Phi) = (1 + 3V)/4.
  for (double v : {0.0, 0.25, 0.5, 0.83, 1.0}) {
    const DensityMatrix w = werner_phi(v);
    EXPECT_NEAR(fidelity(w, bell_phi()), (1 + 3 * v) / 4, 1e-9) << "V=" << v;
  }
}

TEST(Measures, TraceDistanceBounds) {
  const DensityMatrix bell{bell_phi()};
  const DensityMatrix mixed(qubit_dims(2));
  const double d = trace_distance(bell, mixed);
  EXPECT_GT(d, 0.0);
  EXPECT_LE(d, 1.0);
  EXPECT_NEAR(trace_distance(bell, bell), 0.0, 1e-10);
}

TEST(Measures, ConcurrenceOfWernerStates) {
  // C(Werner V) = max(0, (3V − 1)/2).
  for (double v : {0.0, 0.2, 1.0 / 3.0, 0.5, 0.83, 1.0}) {
    const double expected = std::max(0.0, (3 * v - 1) / 2);
    EXPECT_NEAR(concurrence(werner_phi(v)), expected, 1e-6) << "V=" << v;
  }
}

TEST(Measures, NegativityDetectsEntanglement) {
  EXPECT_NEAR(negativity(DensityMatrix{bell_phi()}, 1), 0.5, 1e-9);
  EXPECT_NEAR(negativity(DensityMatrix(qubit_dims(2)), 1), 0.0, 1e-10);
  // Werner separability threshold V = 1/3.
  EXPECT_NEAR(negativity(werner_phi(1.0 / 3.0), 1), 0.0, 1e-8);
  EXPECT_GT(negativity(werner_phi(0.5), 1), 0.01);
}

TEST(Measures, SchmidtCoefficientsOfBell) {
  const auto coeffs = schmidt_coefficients(bell_phi(), 1);
  ASSERT_EQ(coeffs.size(), 2u);
  EXPECT_NEAR(coeffs[0], 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_NEAR(coeffs[1], 1.0 / std::sqrt(2.0), 1e-12);
}

TEST(Measures, SchmidtOfProductStateIsRankOne) {
  const StateVector prod = StateVector(qubit_dims(1)).tensor(StateVector(qubit_dims(1)));
  const auto coeffs = schmidt_coefficients(prod, 1);
  EXPECT_NEAR(coeffs[0], 1.0, 1e-12);
  EXPECT_NEAR(coeffs[1], 0.0, 1e-12);
}

TEST(Measures, RegisterSplitsAfterKParticles) {
  // Qubits: two Bell pairs split after 2 qubits are a product (pair | pair);
  // split after 1 or 3 qubits cut one pair.
  const StateVector four = bell_product(2);
  EXPECT_NEAR(schmidt_number(four, 2), 1.0, 1e-10);
  EXPECT_NEAR(schmidt_number(four, 1), 2.0, 1e-10);
  EXPECT_NEAR(schmidt_number(four, 3), 2.0, 1e-10);
  EXPECT_NEAR(negativity(DensityMatrix(four), 2), 0.0, 1e-10);
  EXPECT_NEAR(negativity(DensityMatrix(four), 1), 0.5, 1e-9);
  // Mixed radix: |Φ_3> ⊗ |0>_qubit split after 1 particle is 3 x 6.
  const StateVector psi = maximally_entangled(3).tensor(StateVector(qubit_dims(1)));
  EXPECT_EQ(schmidt_coefficients(psi, 1).size(), 3u);
  EXPECT_NEAR(schmidt_number(psi, 1), 3.0, 1e-10);
  EXPECT_NEAR(schmidt_number(psi, 2), 1.0, 1e-10);
  EXPECT_NEAR(negativity(DensityMatrix(psi), 1), 1.0, 1e-9);
  EXPECT_THROW(negativity(DensityMatrix(psi), 0), std::invalid_argument);
  EXPECT_THROW(negativity(DensityMatrix(psi), 3), std::invalid_argument);
  EXPECT_THROW(schmidt_coefficients(psi, 3), std::invalid_argument);
}

TEST(Measures, QubitOnlyChecksRejectQuditRegisters) {
  // A 4-level particle and a qubit-qutrit pair: dim() 4 and 6, neither a
  // two-qubit register.
  for (const Dims& dims : {Dims{4}, Dims{2, 3}}) {
    const DensityMatrix rho(dims);
    EXPECT_THROW(concurrence(rho), std::invalid_argument);
  }
  EXPECT_NEAR(concurrence(DensityMatrix(qubit_dims(2))), 0.0, 1e-12);
}

TEST(Measures, MatrixLevelOverloadsHandleNonPowerOfTwoDims) {
  // The matrix-level overloads back the qudit layer: a maximally entangled
  // qutrit pair is a 9x9 density matrix no qubit register can represent.
  const std::size_t d = 3;
  CVec amps(d * d, cplx(0, 0));
  for (std::size_t k = 0; k < d; ++k) amps[k * d + k] = cplx(1, 0);
  qfc::linalg::vnormalize(amps);
  const CMat rho = qfc::linalg::outer(amps, amps);

  EXPECT_NEAR(purity(rho), 1.0, 1e-12);
  EXPECT_NEAR(fidelity(rho, amps), 1.0, 1e-12);
  EXPECT_NEAR(negativity(rho, d, d), (static_cast<double>(d) - 1) / 2, 1e-9);
  const auto lambda = schmidt_coefficients(amps, d, d);
  ASSERT_EQ(lambda.size(), d);
  for (double l : lambda) EXPECT_NEAR(l, 1.0 / std::sqrt(3.0), 1e-12);

  CMat mixed = CMat::identity(d * d);
  mixed *= cplx(1.0 / 9.0, 0);
  EXPECT_NEAR(von_neumann_entropy_bits(mixed), 2 * std::log2(3.0), 1e-9);
  EXPECT_NEAR(negativity(mixed, d, d), 0.0, 1e-10);
  EXPECT_NEAR(trace_distance(rho, rho), 0.0, 1e-10);
  EXPECT_NEAR(fidelity(rho, mixed), 1.0 / 9.0, 1e-9);
}

TEST(Measures, MatrixLevelValidation) {
  const CMat rho = CMat::identity(6) * cplx(1.0 / 6.0, 0);
  EXPECT_THROW(negativity(rho, 4, 2), std::invalid_argument);  // 4*2 != 6
  EXPECT_THROW(schmidt_coefficients(CVec(6, cplx(1, 0)), 5, 2), std::invalid_argument);
  EXPECT_NEAR(negativity(rho, 2, 3), 0.0, 1e-10);
}

TEST(Bell, ProductStateHasPerPairStructure) {
  const StateVector four = bell_product(2);
  EXPECT_EQ(four.dims(), qubit_dims(4));
  // Amplitudes only on |0000>, |0011>, |1100>, |1111>.
  EXPECT_NEAR(four.probability(0b0000), 0.25, 1e-12);
  EXPECT_NEAR(four.probability(0b0011), 0.25, 1e-12);
  EXPECT_NEAR(four.probability(0b1100), 0.25, 1e-12);
  EXPECT_NEAR(four.probability(0b1111), 0.25, 1e-12);
  EXPECT_NEAR(four.probability(0b0101), 0.0, 1e-12);
}

TEST(Bell, IsotropicNoiseFidelity) {
  const StateVector target = bell_product(2);
  const DensityMatrix noisy = isotropic_noise(target, 0.6);
  EXPECT_NEAR(fidelity(noisy, target), 0.6 + 0.4 / 16.0, 1e-9);
  const DensityMatrix noisy_qutrits = isotropic_noise(maximally_entangled(3), 0.6);
  EXPECT_EQ(noisy_qutrits.dims(), (Dims{3, 3}));
  EXPECT_NEAR(fidelity(noisy_qutrits, maximally_entangled(3)), 0.6 + 0.4 / 9.0, 1e-9);
  EXPECT_THROW(isotropic_noise(target, 1.5), std::invalid_argument);
}

TEST(Bell, MaximallyEntangledStructure) {
  const StateVector phi = maximally_entangled(3);
  EXPECT_EQ(phi.dims(), (Dims{3, 3}));
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_NEAR(phi.probability(k * 3 + k), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(phi.probability(1), 0.0, 1e-15);
  // At d = 2 it is the time-bin Bell state Φ(0), as a two-qubit register.
  EXPECT_EQ(maximally_entangled(2).dims(), qubit_dims(2));
  EXPECT_NEAR(maximally_entangled(2).overlap_probability(bell_phi()), 1.0, 1e-12);
  EXPECT_THROW(maximally_entangled(1), std::invalid_argument);
  // Pair amplitudes are normalized and placed on the |kk> diagonal.
  const StateVector pair = from_pair_amplitudes(CVec{cplx(3, 0), cplx(0, 4)});
  EXPECT_NEAR(pair.probability(0b00), 9.0 / 25.0, 1e-12);
  EXPECT_NEAR(pair.probability(0b11), 16.0 / 25.0, 1e-12);
}

TEST(Fock, OperatorsSatisfyCommutator) {
  const std::size_t dim = 12;
  const CMat a = annihilation_matrix(dim);
  const CMat ad = creation_matrix(dim);
  const CMat comm = a * ad - ad * a;
  // [a, a†] = 1 except the truncation corner.
  for (std::size_t i = 0; i + 1 < dim; ++i)
    EXPECT_NEAR(std::real(comm(i, i)), 1.0, 1e-12);
  const CMat n = number_matrix(dim);
  EXPECT_LT((ad * a - n).max_abs(), 1e-12);
}

TEST(Fock, ThermalStatisticsNormalized) {
  const TwoModeSqueezedVacuum tmsv(0.3);
  double total = 0;
  for (std::size_t n = 0; n < 200; ++n) total += tmsv.pair_number_probability(n);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(tmsv.pair_number_probability(0), 1 / 1.3, 1e-12);
}

TEST(Fock, SqueezingParameterRoundTrip) {
  const double mu = 0.42;
  const TwoModeSqueezedVacuum tmsv(mu);
  const double r = tmsv.squeezing_parameter_r();
  EXPECT_NEAR(std::sinh(r) * std::sinh(r), mu, 1e-12);
}

TEST(Fock, HeraldedG2VanishesAtLowMu) {
  const TwoModeSqueezedVacuum low(1e-4);
  EXPECT_LT(low.heralded_g2(0.5), 1e-3);
  const TwoModeSqueezedVacuum zero(0.0);
  EXPECT_DOUBLE_EQ(zero.heralded_g2(0.5), 0.0);
}

TEST(Fock, HeraldedG2GrowsWithMu) {
  const double g2_small = TwoModeSqueezedVacuum(0.01).heralded_g2(0.3);
  const double g2_large = TwoModeSqueezedVacuum(0.5).heralded_g2(0.3);
  EXPECT_GT(g2_large, g2_small);
  // Small-mu expansion: g2 ≈ 4μ (bucket detector, low efficiency).
  EXPECT_NEAR(g2_small, 4 * 0.01, 0.01);
}

TEST(Fock, StatisticalCarLimit) {
  EXPECT_NEAR(TwoModeSqueezedVacuum(0.1).statistical_car_limit(), 11.0, 1e-9);
  EXPECT_TRUE(std::isinf(TwoModeSqueezedVacuum(0.0).statistical_car_limit()));
}

TEST(Fock, MultiPairFractionMonotoneInMu) {
  double prev = 0;
  for (double mu : {0.01, 0.05, 0.2, 0.8}) {
    const double f = TwoModeSqueezedVacuum(mu).multi_pair_fraction(0.2);
    EXPECT_GT(f, prev);
    prev = f;
  }
  EXPECT_LT(prev, 1.0);
}

TEST(Fock, InvalidArgumentsThrow) {
  EXPECT_THROW(TwoModeSqueezedVacuum(-0.1), std::invalid_argument);
  EXPECT_THROW(TwoModeSqueezedVacuum(0.1).heralded_g2(0.0), std::invalid_argument);
  EXPECT_THROW(annihilation_matrix(1), std::invalid_argument);
}

}  // namespace
