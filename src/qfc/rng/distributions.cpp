#include "qfc/rng/distributions.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <numbers>
#include <stdexcept>

namespace qfc::rng {

namespace {

// Ziggurat samplers (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000) for
// the exponential and the normal. The area under an unnormalized density
// f, decreasing on [0, inf) with f(0) = 1, is covered by N layers of equal
// area v: layer i >= 1 is the box [0, x[i]) x [f(x[i]), f(x[i+1])), and
// layer 0 is the box [0, r) x [0, f(r)) plus the tail beyond r = x[1],
// drawn as if it were the box [0, x[0]) with x[0] = v / f(r). A draw picks
// a layer and a point x uniform on [0, x[i]); below x[i+1] the point is
// under the curve. That fast path takes 97.8% of exponential and 97.2% of
// normal draws and costs one generator output, one multiply and one
// compare. Only the wedge between x[i+1] and x[i] and the tail evaluate a
// transcendental.
//
// Each draw takes one 64-bit generator output: the layer index from the
// low bits, a sign from the bit above it, and the position from the top
// 53 bits. The fields are disjoint, so the layer and the position are
// independent (Doornik, 2005, found them correlated in the original,
// which took both from one 32-bit word). No variate is cached between
// calls: each draw depends only on the generator.
template <std::size_t N>
struct Ziggurat {
  std::array<double, N + 1> x;  ///< layer edges; x[1] = r, x[N] = 0
  std::array<double, N + 1> f;  ///< f(x[i])
};

/// Builds the tables from the base-layer edge r, the tail area beyond r,
/// f and its inverse; v follows from r, so the base layer is exact.
template <std::size_t N, class Pdf, class InversePdf>
Ziggurat<N> make_ziggurat(double r, double tail_area, Pdf pdf, InversePdf inverse_pdf) {
  Ziggurat<N> z{};
  const double v = r * pdf(r) + tail_area;
  z.x[0] = v / pdf(r);
  z.x[1] = r;
  for (std::size_t i = 1; i + 1 < N; ++i) z.x[i + 1] = inverse_pdf(v / z.x[i] + pdf(z.x[i]));
  z.x[N] = 0.0;
  for (std::size_t i = 0; i <= N; ++i) z.f[i] = pdf(z.x[i]);
  return z;
}

// r solves the layer recursion so that the top layer also has area v, to
// double precision (256 exponential layers, 128 normal layers).
constexpr std::size_t kExpLayers = 256;
constexpr unsigned kExpSignBit = 8;
constexpr double kExpR = 7.6971174701310492;
constexpr std::size_t kNormalLayers = 128;
constexpr unsigned kNormalSignBit = 7;
constexpr double kNormalR = 3.4426198558966519;

const Ziggurat<kExpLayers>& exp_ziggurat() {
  static const auto z = make_ziggurat<kExpLayers>(
      kExpR, std::exp(-kExpR), [](double x) { return std::exp(-x); },
      [](double y) { return -std::log(y); });
  return z;
}

const Ziggurat<kNormalLayers>& normal_ziggurat() {
  static const auto z = make_ziggurat<kNormalLayers>(
      kNormalR, std::sqrt(std::numbers::pi / 2) * std::erfc(kNormalR / std::sqrt(2.0)),
      [](double x) { return std::exp(-0.5 * x * x); },
      [](double y) { return std::sqrt(-2.0 * std::log(y)); });
  return z;
}

/// Position in (0, 1) from the top 53 bits; never exactly 0, so an
/// exponential draw is strictly positive.
double position(std::uint64_t bits) {
  return (static_cast<double>(bits >> 11) + 0.5) * 0x1.0p-53;
}

/// x negated when bit `bit` of `bits` is set. The flip is an XOR into the
/// sign bit: a branch on a random bit would mispredict half the time.
double flip_sign_if(double x, std::uint64_t bits, unsigned bit) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) ^ (((bits >> bit) & 1) << 63));
}

/// Standard exponential. `accepted` receives the output that produced the
/// returned point, whose bit 8 is unused here (the sign of the Laplace
/// delay).
double standard_exponential(Xoshiro256& g, std::uint64_t& accepted) {
  const auto& z = exp_ziggurat();
  double offset = 0.0;
  for (;;) {
    const std::uint64_t bits = g();
    const std::size_t i = bits & (kExpLayers - 1);
    const double x = position(bits) * z.x[i];
    if (x < z.x[i + 1] ||
        (i > 0 && z.f[i] + (z.f[i + 1] - z.f[i]) * g.uniform() < std::exp(-x))) {
      accepted = bits;
      return offset + x;
    }
    // The tail beyond r is r + Exp(1): the exponential is memoryless.
    if (i == 0) offset += kExpR;
  }
}

/// The normal tail beyond r (Marsaglia, 1964): with a ~ Exp(r) and
/// b ~ Exp(1), r + a is accepted when 2b > a^2.
double normal_tail(Xoshiro256& g) {
  for (;;) {
    // 1 - uniform() is in (0, 1], so the log arguments never vanish.
    const double a = -std::log(1.0 - g.uniform()) / kNormalR;
    const double b = -std::log(1.0 - g.uniform());
    if (2.0 * b > a * a) return kNormalR + a;
  }
}

}  // namespace

double sample_normal(Xoshiro256& g) {
  const auto& z = normal_ziggurat();
  for (;;) {
    const std::uint64_t bits = g();
    const std::size_t i = bits & (kNormalLayers - 1);
    double x = position(bits) * z.x[i];
    if (i == 0 && x >= kNormalR) {
      x = normal_tail(g);
    } else if (x >= z.x[i + 1] &&
               z.f[i] + (z.f[i + 1] - z.f[i]) * g.uniform() >= std::exp(-0.5 * x * x)) {
      continue;
    }
    return flip_sign_if(x, bits, kNormalSignBit);
  }
}

double sample_normal(Xoshiro256& g, double mean, double sigma) {
  if (sigma < 0) throw std::invalid_argument("sample_normal: negative sigma");
  return mean + sigma * sample_normal(g);
}

double sample_exponential(Xoshiro256& g, double lambda) {
  if (lambda <= 0) throw std::invalid_argument("sample_exponential: lambda must be > 0");
  std::uint64_t accepted = 0;
  return standard_exponential(g, accepted) / lambda;
}

double sample_double_exponential(Xoshiro256& g, double lambda) {
  if (lambda <= 0)
    throw std::invalid_argument("sample_double_exponential: lambda must be > 0");
  std::uint64_t accepted = 0;
  const double mag = standard_exponential(g, accepted) / lambda;
  return flip_sign_if(mag, accepted, kExpSignBit);
}

namespace {

std::uint64_t poisson_inversion(Xoshiro256& g, double mu) {
  // Knuth-style sequential search on the CDF; fine for mu <~ 30.
  const double target = g.uniform();
  double p = std::exp(-mu);
  double cdf = p;
  std::uint64_t k = 0;
  while (target > cdf && k < 1100) {
    ++k;
    p *= mu / static_cast<double>(k);
    cdf += p;
  }
  return k;
}

std::uint64_t poisson_ptrs(Xoshiro256& g, double mu) {
  // Transformed rejection with squeeze (Hörmann, 1993). Valid for mu >= 10.
  const double b = 0.931 + 2.53 * std::sqrt(mu);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);

  for (;;) {
    const double u = g.uniform() - 0.5;
    const double v = g.uniform();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mu + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (k < 0 || (us < 0.013 && v > us)) continue;
    // lgamma_r, not std::lgamma: lgamma also writes the global signgam,
    // a data race when sweep workers sample concurrently. Same value.
    int sign = 0;
    if (std::log(v) + std::log(inv_alpha) - std::log(a / (us * us) + b) <=
        k * std::log(mu) - mu - ::lgamma_r(k + 1.0, &sign)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

}  // namespace

std::uint64_t sample_poisson(Xoshiro256& g, double mu) {
  if (mu < 0) throw std::invalid_argument("sample_poisson: negative mean");
  if (mu == 0) return 0;
  if (mu < 30.0) return poisson_inversion(g, mu);
  return poisson_ptrs(g, mu);
}

std::uint64_t sample_zero_truncated_poisson(Xoshiro256& g, double mu) {
  if (mu <= 0)
    throw std::invalid_argument("sample_zero_truncated_poisson: mean must be > 0");
  if (mu >= 30.0) {
    // P(0) = e^-mu is astronomically small here; plain rejection of the
    // zero class virtually never loops.
    for (;;) {
      const std::uint64_t k = poisson_ptrs(g, mu);
      if (k > 0) return k;
    }
  }
  // Sequential CDF inversion over k >= 1: the target is uniform on
  // (0, 1 - e^-mu), the total mass of the truncated distribution.
  const double target = g.uniform() * -std::expm1(-mu);
  double p = std::exp(-mu) * mu;  // P(k = 1)
  double cdf = p;
  std::uint64_t k = 1;
  while (target > cdf && k < 1100) {
    ++k;
    p *= mu / static_cast<double>(k);
    cdf += p;
  }
  return k;
}

bool sample_bernoulli(Xoshiro256& g, double p) {
  if (p < 0 || p > 1) throw std::invalid_argument("sample_bernoulli: p outside [0,1]");
  return g.uniform() < p;
}

std::uint64_t sample_binomial(Xoshiro256& g, std::uint64_t n, double p) {
  if (p < 0 || p > 1) throw std::invalid_argument("sample_binomial: p outside [0,1]");
  if (p == 0 || n == 0) return 0;
  if (p == 1) return n;
  const double np = static_cast<double>(n) * p;
  if (np * (1 - p) > 1000.0) {
    const double sigma = std::sqrt(np * (1 - p));
    const double x = std::round(sample_normal(g, np, sigma));
    if (x < 0) return 0;
    if (x > static_cast<double>(n)) return n;
    return static_cast<std::uint64_t>(x);
  }
  std::uint64_t k = 0;
  for (std::uint64_t i = 0; i < n; ++i) k += sample_bernoulli(g, p) ? 1 : 0;
  return k;
}

std::size_t sample_discrete(Xoshiro256& g, const std::vector<double>& weights) {
  double total = 0;
  for (double w : weights) {
    if (w < 0) throw std::invalid_argument("sample_discrete: negative weight");
    total += w;
  }
  if (total <= 0) throw std::invalid_argument("sample_discrete: all weights zero");
  double target = g.uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0) return i;
  }
  return weights.size() - 1;  // numerical edge: land on the last bin
}

std::uint64_t sample_thermal(Xoshiro256& g, double mu) {
  if (mu < 0) throw std::invalid_argument("sample_thermal: negative mean");
  if (mu == 0) return 0;
  // Geometric with success probability 1/(1+mu), supported on {0,1,2,...}.
  const double q = mu / (1.0 + mu);  // P(n >= k+1 | n >= k)
  std::uint64_t n = 0;
  while (g.uniform() < q && n < 10000) ++n;
  return n;
}

}  // namespace qfc::rng
