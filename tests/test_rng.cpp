// Unit + statistical tests for the RNG substrate (S2). Statistical checks
// use wide (5+ sigma) tolerances so they are deterministic in practice.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "qfc/rng/distributions.hpp"
#include "qfc/rng/ou_process.hpp"
#include "qfc/rng/xoshiro.hpp"

namespace {

using qfc::rng::Xoshiro256;

TEST(Xoshiro, DeterministicForSeed) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a() == b()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Xoshiro, UniformInUnitInterval) {
  Xoshiro256 g(7);
  double mn = 1, mx = 0, sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = g.uniform();
    mn = std::min(mn, u);
    mx = std::max(mx, u);
    sum += u;
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
  EXPECT_LT(mn, 0.001);
  EXPECT_GT(mx, 0.999);
}

TEST(Xoshiro, UniformIntBounds) {
  Xoshiro256 g(8);
  std::vector<int> histo(10, 0);
  for (int i = 0; i < 100000; ++i) ++histo[g.uniform_int(10)];
  for (int c : histo) EXPECT_NEAR(c, 10000, 600);  // ~6 sigma
}

TEST(Xoshiro, ForkGivesIndependentStreams) {
  Xoshiro256 parent(9);
  Xoshiro256 c1 = parent.fork(1);
  Xoshiro256 c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (c1() == c2()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Normal, MomentsMatch) {
  Xoshiro256 g(10);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = qfc::rng::sample_normal(g, 2.0, 3.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 2.0, 0.05);
  EXPECT_NEAR(var, 9.0, 0.3);
}

TEST(Normal, NegativeSigmaThrows) {
  Xoshiro256 g(11);
  EXPECT_THROW(qfc::rng::sample_normal(g, 0.0, -1.0), std::invalid_argument);
}

TEST(Exponential, MeanAndPositivity) {
  Xoshiro256 g(12);
  const double lambda = 4.0;
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = qfc::rng::sample_exponential(g, lambda);
    ASSERT_GT(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 1.0 / lambda, 0.005);
}

TEST(Exponential, BadRateThrows) {
  Xoshiro256 g(13);
  EXPECT_THROW(qfc::rng::sample_exponential(g, 0.0), std::invalid_argument);
  EXPECT_THROW(qfc::rng::sample_exponential(g, -2.0), std::invalid_argument);
}

TEST(DoubleExponential, SymmetricWithLaplaceVariance) {
  Xoshiro256 g(14);
  const double lambda = 2.0;
  double sum = 0, sum2 = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = qfc::rng::sample_double_exponential(g, lambda);
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.01);
  // Var(Laplace) = 2/λ².
  EXPECT_NEAR(sum2 / n, 2.0 / (lambda * lambda), 0.02);
}

// Distribution checks for the ziggurat samplers. Each draws 4 * 10^6
// variates and compares them with the analytic law: the Kolmogorov-Smirnov
// statistic sqrt(n) * D against the 0.1% critical value 1.95, the mass
// beyond the base-layer edge r (where the tail branch takes over) within
// 5 sigma of the binomial count, and the sign balance.
constexpr int kDistributionDraws = 4000000;
constexpr double kKsCritical = 1.95;
constexpr double kNormalBaseEdge = 3.4426198558966519;  // 128 normal layers
constexpr double kExpBaseEdge = 7.6971174701310492;     // 256 exponential layers

template <class Draw>
std::vector<double> draw_many(std::uint64_t seed, Draw draw) {
  Xoshiro256 g(seed);
  std::vector<double> xs(kDistributionDraws);
  for (auto& x : xs) x = draw(g);
  return xs;
}

/// sqrt(n) * sup |F_n - F| of the (sorted in place) sample against `cdf`.
template <class Cdf>
double ks_statistic(std::vector<double>& xs, Cdf cdf) {
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  double d = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double f = cdf(xs[i]);
    d = std::max({d, f - static_cast<double>(i) / n, static_cast<double>(i + 1) / n - f});
  }
  return std::sqrt(n) * d;
}

/// Expects `count` of `n` draws within 5 sigma of the binomial mean n * p.
void expect_binomial_count(std::size_t count, double p, const char* what) {
  const double n = kDistributionDraws;
  EXPECT_NEAR(static_cast<double>(count), n * p, 5.0 * std::sqrt(n * p * (1 - p))) << what;
}

std::size_t count_if_beyond(const std::vector<double>& xs, double edge) {
  return static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [&](double x) { return std::abs(x) > edge; }));
}

std::size_t count_negative(const std::vector<double>& xs) {
  return static_cast<std::size_t>(
      std::count_if(xs.begin(), xs.end(), [](double x) { return x < 0; }));
}

TEST(Normal, MatchesCdfTailAndSignBalance) {
  auto xs = draw_many(40, [](Xoshiro256& g) { return qfc::rng::sample_normal(g); });
  const auto two_sided_tail = [](double t) { return std::erfc(t / std::sqrt(2.0)); };
  expect_binomial_count(count_if_beyond(xs, kNormalBaseEdge), two_sided_tail(kNormalBaseEdge),
                        "|x| > r");
  expect_binomial_count(count_if_beyond(xs, kNormalBaseEdge + 0.5),
                        two_sided_tail(kNormalBaseEdge + 0.5), "|x| > r + 0.5");
  expect_binomial_count(count_negative(xs), 0.5, "x < 0");
  std::vector<double> tail;
  for (double x : xs)
    if (std::abs(x) > kNormalBaseEdge) tail.push_back(x);
  const double tail_n = static_cast<double>(tail.size());
  EXPECT_NEAR(static_cast<double>(count_negative(tail)), tail_n / 2, 2.5 * std::sqrt(tail_n))
      << "tail sign balance";
  EXPECT_LT(ks_statistic(xs, [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); }),
            kKsCritical);
}

TEST(Exponential, MatchesCdfAndTail) {
  auto xs = draw_many(41, [](Xoshiro256& g) { return qfc::rng::sample_exponential(g, 1.0); });
  expect_binomial_count(count_if_beyond(xs, kExpBaseEdge), std::exp(-kExpBaseEdge), "x > r");
  expect_binomial_count(count_if_beyond(xs, kExpBaseEdge + 2.0), std::exp(-kExpBaseEdge - 2.0),
                        "x > r + 2");
  EXPECT_LT(ks_statistic(xs, [](double x) { return -std::expm1(-x); }), kKsCritical);
}

TEST(DoubleExponential, MatchesCdfTailAndSignBalance) {
  const double lambda = 2.0;
  auto xs = draw_many(
      42, [&](Xoshiro256& g) { return qfc::rng::sample_double_exponential(g, lambda); });
  expect_binomial_count(count_if_beyond(xs, kExpBaseEdge / lambda), std::exp(-kExpBaseEdge),
                        "|x| > r / lambda");
  expect_binomial_count(count_negative(xs), 0.5, "x < 0");
  const auto laplace_cdf = [&](double x) {
    return x < 0 ? 0.5 * std::exp(lambda * x) : 1.0 - 0.5 * std::exp(-lambda * x);
  };
  EXPECT_LT(ks_statistic(xs, laplace_cdf), kKsCritical);
}

/// Draw i of a fixed mix of the three ziggurat samplers.
double mixed_draw(Xoshiro256& g, int i) {
  switch (i % 3) {
    case 0: return qfc::rng::sample_normal(g);
    case 1: return qfc::rng::sample_exponential(g, 3.0);
    default: return qfc::rng::sample_double_exponential(g, 0.5);
  }
}

TEST(ZigguratSamplers, DrawsArePureFunctionsOfTheGenerator) {
  // No sampler keeps state between calls: a copied generator reproduces
  // the draws, and interleaving two generators changes neither sequence.
  const int n = 30000;
  const Xoshiro256 a(43), b(44);
  const auto sequence = [&](Xoshiro256 g) {
    std::vector<double> out(n);
    for (int i = 0; i < n; ++i) out[static_cast<std::size_t>(i)] = mixed_draw(g, i);
    return out;
  };
  const auto seq_a = sequence(a);
  const auto seq_b = sequence(b);
  EXPECT_EQ(sequence(a), seq_a);
  Xoshiro256 ga = a, gb = b;
  for (int i = 0; i < n; ++i) {
    ASSERT_EQ(mixed_draw(ga, i), seq_a[static_cast<std::size_t>(i)]) << "draw " << i;
    ASSERT_EQ(mixed_draw(gb, i), seq_b[static_cast<std::size_t>(i)]) << "draw " << i;
  }
}

class PoissonMoments : public ::testing::TestWithParam<double> {};

TEST_P(PoissonMoments, MeanAndVariance) {
  const double mu = GetParam();
  Xoshiro256 g(static_cast<std::uint64_t>(mu * 1000) + 15);
  const int n = 100000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(qfc::rng::sample_poisson(g, mu));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  const double tol = 6.0 * std::sqrt(mu / n) + 0.01;
  EXPECT_NEAR(mean, mu, tol);
  EXPECT_NEAR(var, mu, 12.0 * mu / std::sqrt(static_cast<double>(n)) + 0.05);
}

// Covers both the inversion branch (mu < 30) and PTRS (mu >= 30).
INSTANTIATE_TEST_SUITE_P(SmallAndLargeMu, PoissonMoments,
                         ::testing::Values(0.1, 1.0, 5.0, 12.0, 29.9, 30.1, 80.0,
                                           400.0));

TEST(Poisson, ZeroMeanGivesZero) {
  Xoshiro256 g(16);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(qfc::rng::sample_poisson(g, 0.0), 0u);
}

TEST(Poisson, NegativeThrows) {
  Xoshiro256 g(17);
  EXPECT_THROW(qfc::rng::sample_poisson(g, -1.0), std::invalid_argument);
}

TEST(ZeroTruncatedPoisson, NeverZeroAndMeanMatches) {
  Xoshiro256 g(117);
  for (const double mu : {0.05, 0.8, 5.0, 40.0}) {
    const int trials = 40000;
    double sum = 0;
    for (int i = 0; i < trials; ++i) {
      const auto k = qfc::rng::sample_zero_truncated_poisson(g, mu);
      ASSERT_GE(k, 1u);
      sum += static_cast<double>(k);
    }
    // E[k | k >= 1] = mu / (1 - e^-mu).
    const double expected = mu / -std::expm1(-mu);
    EXPECT_NEAR(sum / trials, expected, 0.02 * expected) << "mu=" << mu;
  }
}

TEST(ZeroTruncatedPoisson, NonPositiveMeanThrows) {
  Xoshiro256 g(118);
  EXPECT_THROW(qfc::rng::sample_zero_truncated_poisson(g, 0.0), std::invalid_argument);
  EXPECT_THROW(qfc::rng::sample_zero_truncated_poisson(g, -1.0), std::invalid_argument);
}

TEST(Bernoulli, Extremes) {
  Xoshiro256 g(18);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(qfc::rng::sample_bernoulli(g, 0.0));
    EXPECT_TRUE(qfc::rng::sample_bernoulli(g, 1.0));
  }
  EXPECT_THROW(qfc::rng::sample_bernoulli(g, 1.5), std::invalid_argument);
}

TEST(Binomial, MatchesMoments) {
  Xoshiro256 g(19);
  const std::uint64_t n = 50;
  const double p = 0.3;
  const int trials = 50000;
  double sum = 0;
  for (int i = 0; i < trials; ++i)
    sum += static_cast<double>(qfc::rng::sample_binomial(g, n, p));
  EXPECT_NEAR(sum / trials, static_cast<double>(n) * p, 0.15);
}

TEST(Binomial, NormalApproximationBranch) {
  Xoshiro256 g(20);
  const std::uint64_t n = 2000000;
  const double p = 0.5;
  const double x = static_cast<double>(qfc::rng::sample_binomial(g, n, p));
  // Within 8 sigma of the mean.
  const double mean = static_cast<double>(n) * p;
  const double sigma = std::sqrt(mean * (1 - p));
  EXPECT_NEAR(x, mean, 8 * sigma);
}

TEST(Discrete, RespectsWeights) {
  Xoshiro256 g(21);
  const std::vector<double> w{1.0, 0.0, 3.0};
  std::vector<int> histo(3, 0);
  const int n = 40000;
  for (int i = 0; i < n; ++i) ++histo[qfc::rng::sample_discrete(g, w)];
  EXPECT_EQ(histo[1], 0);
  EXPECT_NEAR(histo[0], n / 4, 500);
  EXPECT_NEAR(histo[2], 3 * n / 4, 500);
}

TEST(Discrete, AllZeroThrows) {
  Xoshiro256 g(22);
  const std::vector<double> w{0.0, 0.0};
  EXPECT_THROW(qfc::rng::sample_discrete(g, w), std::invalid_argument);
}

TEST(Thermal, BoseEinsteinMoments) {
  Xoshiro256 g(23);
  const double mu = 0.7;
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = static_cast<double>(qfc::rng::sample_thermal(g, mu));
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, mu, 0.02);
  // Thermal: Var = μ(1+μ).
  EXPECT_NEAR(var, mu * (1 + mu), 0.06);
}

TEST(OuProcess, RevertsToMeanWithStationaryVariance) {
  Xoshiro256 g(24);
  qfc::rng::OrnsteinUhlenbeck ou(5.0, 10.0, 2.0, 50.0);
  // Long steps: each sample is nearly independent and stationary.
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = ou.step(g, 100.0);
    sum += x;
    sum2 += x * x;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

TEST(OuProcess, ZeroDtIsNoOp) {
  Xoshiro256 g(25);
  qfc::rng::OrnsteinUhlenbeck ou(0.0, 1.0, 1.0, 3.0);
  EXPECT_DOUBLE_EQ(ou.step(g, 0.0), 3.0);
}

TEST(OuProcess, BadParamsThrow) {
  EXPECT_THROW(qfc::rng::OrnsteinUhlenbeck(0, -1, 1, 0), std::invalid_argument);
  EXPECT_THROW(qfc::rng::OrnsteinUhlenbeck(0, 1, -1, 0), std::invalid_argument);
}

}  // namespace
