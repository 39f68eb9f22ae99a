#include "qfc/quantum/fock.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace qfc::quantum {

using linalg::cplx;
using linalg::CMat;

CMat annihilation_matrix(std::size_t dim) {
  if (dim < 2) throw std::invalid_argument("annihilation_matrix: dim must be >= 2");
  CMat a(dim, dim);
  for (std::size_t n = 1; n < dim; ++n)
    a(n - 1, n) = cplx(std::sqrt(static_cast<double>(n)), 0);
  return a;
}

CMat creation_matrix(std::size_t dim) { return annihilation_matrix(dim).adjoint(); }

CMat number_matrix(std::size_t dim) {
  CMat n(dim, dim);
  for (std::size_t k = 0; k < dim; ++k) n(k, k) = cplx(static_cast<double>(k), 0);
  return n;
}

TwoModeSqueezedVacuum::TwoModeSqueezedVacuum(double mean_pairs) : mu_(mean_pairs) {
  if (mean_pairs < 0)
    throw std::invalid_argument("TwoModeSqueezedVacuum: negative mean pair number");
  // Keep the neglected tail below ~1e-12: P(n>N) = x^{N+1}.
  const double x = mu_ / (1.0 + mu_);
  std::size_t n = 32;
  if (x > 0) {
    const double needed = std::ceil(-12.0 * std::log(10.0) / std::log(x));
    n = static_cast<std::size_t>(std::clamp(needed, 32.0, 4096.0));
  }
  truncation_ = n;
}

double TwoModeSqueezedVacuum::squeezing_parameter_r() const {
  return std::asinh(std::sqrt(mu_));
}

double TwoModeSqueezedVacuum::pair_number_probability(std::size_t n) const {
  if (mu_ == 0) return n == 0 ? 1.0 : 0.0;
  const double x = mu_ / (1.0 + mu_);
  return std::pow(x, static_cast<double>(n)) / (1.0 + mu_);
}

double TwoModeSqueezedVacuum::heralded_g2(double eta) const {
  if (eta <= 0 || eta > 1)
    throw std::invalid_argument("heralded_g2: efficiency must be in (0,1]");
  if (mu_ == 0) return 0.0;
  // Herald click probability on n idler photons: 1 − (1−η)ⁿ.
  double norm = 0, mean_n = 0, mean_nn1 = 0;
  for (std::size_t n = 0; n <= truncation_; ++n) {
    const double p = pair_number_probability(n) *
                     (1.0 - std::pow(1.0 - eta, static_cast<double>(n)));
    norm += p;
    mean_n += p * static_cast<double>(n);
    mean_nn1 += p * static_cast<double>(n) * static_cast<double>(n - 1);
  }
  if (norm <= 0) return 0.0;
  mean_n /= norm;
  mean_nn1 /= norm;
  if (mean_n <= 0) return 0.0;
  return mean_nn1 / (mean_n * mean_n);
}

double TwoModeSqueezedVacuum::multi_pair_fraction(double eta) const {
  if (eta <= 0 || eta > 1)
    throw std::invalid_argument("multi_pair_fraction: efficiency must be in (0,1]");
  if (mu_ == 0) return 0.0;
  double heralded = 0, heralded_multi = 0;
  for (std::size_t n = 1; n <= truncation_; ++n) {
    const double p = pair_number_probability(n) *
                     (1.0 - std::pow(1.0 - eta, static_cast<double>(n)));
    heralded += p;
    if (n >= 2) heralded_multi += p;
  }
  return heralded > 0 ? heralded_multi / heralded : 0.0;
}

double TwoModeSqueezedVacuum::statistical_car_limit() const {
  if (mu_ <= 0) return std::numeric_limits<double>::infinity();
  return 1.0 + 1.0 / mu_;
}

}  // namespace qfc::quantum
