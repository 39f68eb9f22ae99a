#include "qfc/qudit/operators.hpp"

#include <cmath>
#include <stdexcept>

#include "qfc/photonics/constants.hpp"

namespace qfc::qudit {

using linalg::cplx;
using linalg::CMat;

namespace {

void check_dim(std::size_t d, const char* who) {
  if (d < 2 || d > 64) throw std::invalid_argument(std::string(who) + ": need 2 <= d <= 64");
}

cplx omega_power(std::size_t d, std::size_t exponent) {
  const double theta =
      2.0 * photonics::pi * static_cast<double>(exponent % d) / static_cast<double>(d);
  return cplx(std::cos(theta), std::sin(theta));
}

}  // namespace

CMat shift_operator(std::size_t d) {
  check_dim(d, "shift_operator");
  CMat x(d, d);
  for (std::size_t j = 0; j < d; ++j) x((j + 1) % d, j) = cplx(1, 0);
  return x;
}

CMat clock_operator(std::size_t d) {
  check_dim(d, "clock_operator");
  CMat z(d, d);
  for (std::size_t j = 0; j < d; ++j) z(j, j) = omega_power(d, j);
  return z;
}

CMat weyl_operator(std::size_t d, std::size_t a, std::size_t b) {
  check_dim(d, "weyl_operator");
  // (X^a Z^b)|j⟩ = ω^{bj} |j+a mod d⟩ — build directly instead of
  // multiplying a matrix powers chain.
  CMat w(d, d);
  for (std::size_t j = 0; j < d; ++j) w((j + a) % d, j) = omega_power(d, b * j);
  return w;
}

std::vector<CMat> gell_mann_basis(std::size_t d) {
  check_dim(d, "gell_mann_basis");
  std::vector<CMat> basis;
  basis.reserve(d * d - 1);
  // Symmetric: E_jk + E_kj for j < k.
  for (std::size_t j = 0; j < d; ++j)
    for (std::size_t k = j + 1; k < d; ++k) {
      CMat m(d, d);
      m(j, k) = cplx(1, 0);
      m(k, j) = cplx(1, 0);
      basis.push_back(std::move(m));
    }
  // Antisymmetric: −i(E_jk − E_kj) for j < k.
  for (std::size_t j = 0; j < d; ++j)
    for (std::size_t k = j + 1; k < d; ++k) {
      CMat m(d, d);
      m(j, k) = cplx(0, -1);
      m(k, j) = cplx(0, 1);
      basis.push_back(std::move(m));
    }
  // Diagonal: sqrt(2/(l(l+1))) (Σ_{j<l} E_jj − l E_ll) for l = 1..d−1.
  for (std::size_t l = 1; l < d; ++l) {
    CMat m(d, d);
    const double norm = std::sqrt(2.0 / (static_cast<double>(l) * static_cast<double>(l + 1)));
    for (std::size_t j = 0; j < l; ++j) m(j, j) = cplx(norm, 0);
    m(l, l) = cplx(-norm * static_cast<double>(l), 0);
    basis.push_back(std::move(m));
  }
  return basis;
}

linalg::RVec bloch_vector(const CMat& rho) {
  rho.require_square("bloch_vector");
  const std::size_t d = rho.rows();
  const auto basis = gell_mann_basis(d);
  linalg::RVec r;
  r.reserve(basis.size());
  for (const auto& lambda : basis)
    r.push_back(0.5 * std::real(linalg::trace_product(rho, lambda)));
  return r;
}

}  // namespace qfc::qudit
