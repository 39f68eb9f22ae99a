// Tests for the entanglement-witness toolbox, the three-peak arrival-time
// histogram MC, and the pump-rejection budget model.

#include <cmath>

#include <gtest/gtest.h>

#include "qfc/core/channel_model.hpp"
#include "qfc/photonics/constants.hpp"
#include "qfc/quantum/bell.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/quantum/witness.hpp"
#include "qfc/timebin/arrival_histogram.hpp"
#include "qfc/timebin/timebin_state.hpp"

namespace {

using namespace qfc;
using quantum::bell_phi;
using quantum::DensityMatrix;
using quantum::werner_phi;

// ---------------------------------------------------------- witnesses

TEST(Witness, NegativeOnBellZeroBoundaryOnSeparable) {
  EXPECT_NEAR(quantum::bell_witness_value(DensityMatrix{bell_phi()}), -0.5, 1e-9);
  // Maximally mixed: 1/2 - 1/4 = +1/4.
  EXPECT_NEAR(quantum::bell_witness_value(DensityMatrix(quantum::qubit_dims(2))), 0.25,
              1e-9);
}

TEST(Witness, BellWitnessRejectsQuditRegisters) {
  for (const quantum::Dims& dims : {quantum::Dims{4}, quantum::Dims{2, 3}})
    EXPECT_THROW(quantum::bell_witness_value(DensityMatrix(dims)), std::invalid_argument);
}

class WitnessWernerSweep : public ::testing::TestWithParam<double> {};

TEST_P(WitnessWernerSweep, SignFlipsAtOneThird) {
  const double v = GetParam();
  const double w = quantum::bell_witness_value(werner_phi(v));
  EXPECT_NEAR(w, 0.5 - (1 + 3 * v) / 4, 1e-9);
  // Sign check away from the exact boundary (numerically ambiguous there).
  if (std::abs(v - 1.0 / 3.0) > 1e-6) {
    EXPECT_EQ(w < 0, v > 1.0 / 3.0) << "V=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Visibilities, WitnessWernerSweep,
                         ::testing::Values(0.0, 0.2, 1.0 / 3.0, 0.4, 0.83, 1.0));

TEST(Witness, ProjectorWitnessMatchesFidelityForm) {
  const auto target = quantum::bell_phi();
  const auto w = quantum::projector_witness(target);
  const auto rho = werner_phi(0.7);
  EXPECT_NEAR(quantum::witness_expectation(w, rho),
              0.5 - quantum::fidelity(rho, target), 1e-9);
}

TEST(Witness, DetectionThresholds) {
  EXPECT_NEAR(quantum::werner_detection_threshold(2), 1.0 / 3.0, 1e-12);
  // Larger registers: threshold approaches α as d grows.
  EXPECT_GT(quantum::werner_detection_threshold(4),
            quantum::werner_detection_threshold(2));
  EXPECT_LT(quantum::werner_detection_threshold(4), 0.5);
}

TEST(Witness, GhzStateProperties) {
  const auto ghz4 = quantum::ghz_state(4);
  EXPECT_NEAR(ghz4.probability(0), 0.5, 1e-12);
  EXPECT_NEAR(ghz4.probability(15), 0.5, 1e-12);
  // Witness negative on the pure GHZ.
  const auto w = quantum::projector_witness(ghz4);
  EXPECT_NEAR(quantum::witness_expectation(w, DensityMatrix{ghz4}), -0.5, 1e-9);
  EXPECT_THROW(quantum::ghz_state(1), std::invalid_argument);
}

TEST(Witness, PaperOperatingPointIsDetected) {
  // Time-bin noise model at the paper's μ = 0.08: witness must certify
  // entanglement with a comfortable margin.
  timebin::TimebinNoiseModel m;
  m.mean_pairs_per_double_pulse = 0.08;
  m.phase_noise_rms_rad = 0.12;
  m.accidental_fraction = 0.025;
  EXPECT_LT(quantum::bell_witness_value(timebin::noisy_pair_state(m)), -0.3);
}

// ------------------------------------------------- arrival histogram MC

TEST(ArrivalHistogram, OuterPeaksForbiddenForPhiState) {
  rng::Xoshiro256 g(71);
  const auto h = timebin::simulate_arrival_histogram(DensityMatrix{bell_phi()}, 0.3,
                                                     0.4, 200000, g);
  EXPECT_EQ(h.counts[0], 0u);
  EXPECT_EQ(h.counts[4], 0u);
  EXPECT_EQ(h.total(), 200000u);
}

TEST(ArrivalHistogram, QuadratureGivesOneTwoOneSignature) {
  rng::Xoshiro256 g(72);
  // α + β = π/2: interference term vanishes, central peak = 2x sides.
  const auto h = timebin::simulate_arrival_histogram(
      DensityMatrix{bell_phi()}, 0.0, photonics::pi / 2.0, 400000, g);
  EXPECT_NEAR(h.central_to_side_ratio(), 2.0, 0.06);
  // Sides symmetric.
  EXPECT_NEAR(static_cast<double>(h.counts[1]) / static_cast<double>(h.counts[3]),
              1.0, 0.05);
}

TEST(ArrivalHistogram, FringeExtremaModulateCentralPeakOnly) {
  rng::Xoshiro256 g(73);
  const DensityMatrix rho{bell_phi()};
  const auto at_max = timebin::simulate_arrival_histogram(rho, 0.0, 0.0, 400000, g);
  const auto at_min =
      timebin::simulate_arrival_histogram(rho, 0.0, photonics::pi, 400000, g);
  EXPECT_NEAR(at_max.central_to_side_ratio(), 3.0, 0.1);
  EXPECT_NEAR(at_min.central_to_side_ratio(), 1.0, 0.05);
  // Side peaks carry the same share in both settings.
  const double side_frac_max =
      static_cast<double>(at_max.counts[1] + at_max.counts[3]) /
      static_cast<double>(at_max.total());
  const double side_frac_min =
      static_cast<double>(at_min.counts[1] + at_min.counts[3]) /
      static_cast<double>(at_min.total());
  EXPECT_GT(side_frac_min, side_frac_max);  // same absolute rate, smaller total
}

TEST(ArrivalHistogram, WhiteNoisePopulatesOuterPeaks) {
  rng::Xoshiro256 g(74);
  const auto h = timebin::simulate_arrival_histogram(werner_phi(0.5), 0.0, 0.0,
                                                     400000, g);
  EXPECT_GT(h.counts[0], 1000u);  // |SL>/|LS> components now allowed
  EXPECT_GT(h.counts[4], 1000u);
}

TEST(ArrivalHistogram, RejectsBadInput) {
  rng::Xoshiro256 g(75);
  EXPECT_THROW(
      timebin::simulate_arrival_histogram(DensityMatrix(quantum::qubit_dims(1)), 0, 0, 10, g),
      std::invalid_argument);
  for (const quantum::Dims& dims : {quantum::Dims{4}, quantum::Dims{2, 3}})
    EXPECT_THROW(timebin::simulate_arrival_histogram(DensityMatrix(dims), 0, 0, 10, g),
                 std::invalid_argument);
  EXPECT_THROW(
      timebin::simulate_arrival_histogram(DensityMatrix{bell_phi()}, 0, 0, 0, g),
      std::invalid_argument);
}

// ------------------------------------------------- pump rejection budget

TEST(PumpRejection, ClickRateFollowsBudget) {
  // 15 mW at 193.1 THz: ~1.2e17 photons/s.
  const double rate100 =
      core::pump_leakage_click_rate_hz(15e-3, 193.1e12, 100.0, 0.2);
  const double rate110 =
      core::pump_leakage_click_rate_hz(15e-3, 193.1e12, 110.0, 0.2);
  EXPECT_NEAR(rate100 / rate110, 10.0, 1e-6);
  EXPECT_GT(rate100, 1e5);  // 100 dB is NOT enough for a quantum experiment
}

TEST(PumpRejection, RequiredRejectionIsRoughly140dB) {
  const double db = core::required_pump_rejection_db(15e-3, 193.1e12, 1000.0, 0.2);
  EXPECT_GT(db, 130.0);
  EXPECT_LT(db, 150.0);
  // Round trip: at that rejection the click rate equals the cap.
  EXPECT_NEAR(core::pump_leakage_click_rate_hz(15e-3, 193.1e12, db, 0.2), 1000.0,
              1.0);
}

TEST(PumpRejection, ZeroWhenAlreadyQuiet) {
  EXPECT_DOUBLE_EQ(core::required_pump_rejection_db(1e-18, 193.1e12, 1e6, 0.2), 0.0);
}

}  // namespace
