#include "qfc/tomo/tomography.hpp"

#include <cmath>
#include <map>
#include <stdexcept>

#include "qfc/linalg/error.hpp"
#include "qfc/linalg/matrix_functions.hpp"
#include "qfc/photonics/constants.hpp"
#include "qfc/quantum/measures.hpp"
#include "qfc/quantum/pauli.hpp"
#include "qfc/rng/distributions.hpp"

namespace qfc::tomo {

using linalg::cplx;
using linalg::CMat;
using linalg::CVec;

std::vector<MeasurementSetting> all_settings(std::size_t num_qubits) {
  if (num_qubits == 0 || num_qubits > 8)
    throw std::invalid_argument("all_settings: unsupported qubit count");
  std::vector<MeasurementSetting> out;
  std::size_t total = 1;
  for (std::size_t i = 0; i < num_qubits; ++i) total *= 3;
  out.reserve(total);
  const char bases[3] = {'X', 'Y', 'Z'};
  for (std::size_t idx = 0; idx < total; ++idx) {
    std::string s(num_qubits, 'X');
    std::size_t rem = idx;
    for (std::size_t q = num_qubits; q-- > 0;) {
      s[q] = bases[rem % 3];
      rem /= 3;
    }
    out.push_back(MeasurementSetting{std::move(s)});
  }
  return out;
}

namespace {

/// Single-qubit eigenstate of basis b with sign (+1 for outcome bit 0).
CVec basis_eigenstate(char basis, int sign, double phase_error_rad) {
  switch (basis) {
    case 'X': return quantum::xy_eigenstate(0.0 + phase_error_rad, sign);
    case 'Y':
      return quantum::xy_eigenstate(photonics::pi / 2.0 + phase_error_rad, sign);
    case 'Z': {
      CVec v(2, cplx(0, 0));
      v[sign > 0 ? 0 : 1] = cplx(1, 0);
      return v;
    }
    default: throw std::invalid_argument("basis_eigenstate: basis must be X, Y or Z");
  }
}

CVec setting_outcome_state(const MeasurementSetting& s, std::size_t outcome,
                           const std::vector<double>& phase_errors) {
  const std::size_t n = s.width();
  if (outcome >= (std::size_t{1} << n))
    throw std::out_of_range("outcome_state: outcome out of range");
  CVec state{cplx(1, 0)};
  for (std::size_t q = 0; q < n; ++q) {
    const int bit = (outcome >> (n - 1 - q)) & 1;
    const double err = phase_errors.empty() ? 0.0 : phase_errors[q];
    state = linalg::kron(state, basis_eigenstate(s.bases[q], bit ? -1 : +1, err));
  }
  return state;
}

}  // namespace

CVec outcome_state(const MeasurementSetting& s, std::size_t outcome) {
  return setting_outcome_state(s, outcome, {});
}

CMat outcome_projector(const MeasurementSetting& s, std::size_t outcome) {
  const CVec v = outcome_state(s, outcome);
  return linalg::outer(v, v);
}

std::uint64_t SettingCounts::total() const {
  std::uint64_t t = 0;
  for (auto c : counts) t += c;
  return t;
}

std::vector<SettingCounts> simulate_counts(const quantum::DensityMatrix& rho,
                                           double shots_per_setting,
                                           const NoiseKnobs& noise, rng::Xoshiro256& g) {
  if (shots_per_setting <= 0)
    throw std::invalid_argument("simulate_counts: shots_per_setting <= 0");
  const std::size_t n = rho.num_particles();
  if (rho.dims() != quantum::qubit_dims(n))
    throw std::invalid_argument("simulate_counts: need a qubit register");
  const std::size_t num_outcomes = std::size_t{1} << n;

  std::vector<SettingCounts> out;
  for (const auto& s : all_settings(n)) {
    // Systematic analyzer phase error per qubit, fixed within the setting.
    std::vector<double> errs(n, 0.0);
    if (noise.analyzer_phase_rms_rad > 0)
      for (auto& e : errs) e = rng::sample_normal(g, 0.0, noise.analyzer_phase_rms_rad);

    SettingCounts sc;
    sc.setting = s;
    sc.counts.resize(num_outcomes);
    for (std::size_t o = 0; o < num_outcomes; ++o) {
      // Born probability ⟨ψ|ρ|ψ⟩ (the pure-state fidelity), clipped to [0, 1].
      const double p =
          quantum::fidelity(rho.matrix(), setting_outcome_state(s, o, errs));
      const double mean = shots_per_setting * p + noise.accidentals_per_outcome;
      sc.counts[o] = rng::sample_poisson(g, mean);
    }
    out.push_back(std::move(sc));
  }
  return out;
}

namespace {

std::size_t checked_num_qubits(const std::vector<SettingCounts>& data) {
  if (data.empty()) throw std::invalid_argument("tomography: empty data");
  const std::size_t n = data.front().setting.width();
  for (const auto& d : data) {
    if (d.setting.width() != n)
      throw std::invalid_argument("tomography: inconsistent setting widths");
    if (d.counts.size() != (std::size_t{1} << n))
      throw std::invalid_argument("tomography: wrong outcome count");
  }
  return n;
}

}  // namespace

CMat linear_inversion(const std::vector<SettingCounts>& data) {
  const std::size_t n = checked_num_qubits(data);
  const std::size_t dim = std::size_t{1} << n;

  std::map<std::string, const SettingCounts*> by_setting;
  for (const auto& d : data) by_setting[d.setting.bases] = &d;

  CMat rho(dim, dim);
  // Identity term.
  for (std::size_t i = 0; i < dim; ++i) rho(i, i) = cplx(1.0, 0);

  // Enumerate all 4^n Pauli strings except the all-identity one.
  std::size_t total = 1;
  for (std::size_t i = 0; i < n; ++i) total *= 4;
  const char letters[4] = {'I', 'X', 'Y', 'Z'};

  for (std::size_t idx = 1; idx < total; ++idx) {
    std::string pstr(n, 'I');
    std::size_t rem = idx;
    for (std::size_t q = n; q-- > 0;) {
      pstr[q] = letters[rem % 4];
      rem /= 4;
    }
    // Compatible setting: replace I by Z.
    std::string setting = pstr;
    for (auto& c : setting)
      if (c == 'I') c = 'Z';
    const auto it = by_setting.find(setting);
    if (it == by_setting.end())
      throw std::invalid_argument("linear_inversion: missing setting " + setting);
    const SettingCounts& sc = *it->second;
    const double tot = static_cast<double>(sc.total());
    if (tot <= 0) continue;

    double expectation = 0;
    for (std::size_t o = 0; o < sc.counts.size(); ++o) {
      int sign = 1;
      for (std::size_t q = 0; q < n; ++q) {
        if (pstr[q] == 'I') continue;
        if ((o >> (n - 1 - q)) & 1) sign = -sign;
      }
      expectation += sign * static_cast<double>(sc.counts[o]);
    }
    expectation /= tot;

    CMat term = quantum::pauli_string(pstr);
    term *= cplx(expectation, 0);
    rho += term;
  }

  rho *= cplx(1.0 / static_cast<double>(dim), 0);
  return rho;
}

namespace {

/// p_t = Re ψ_t†ρψ_t for every packed term: row t of B = Φ·ρ is ψ_t†ρ, and
/// its product with ψ_t = conj(row t of Φ) is the probability. `b` is the
/// caller's workspace for B.
void term_probabilities(const CMat& phi, const CMat& rho, CMat& b, linalg::RVec& p) {
  multiply_into(phi, rho, b);
  const std::size_t dim = phi.cols();
  const cplx* bt = b.data();
  const cplx* ft = phi.data();
  for (std::size_t t = 0; t < p.size(); ++t, bt += dim, ft += dim) {
    double s = 0;
    for (std::size_t j = 0; j < dim; ++j)
      s += bt[j].real() * ft[j].real() + bt[j].imag() * ft[j].imag();
    p[t] = s;
  }
}

}  // namespace

RrrResult rrr_reconstruct(const std::vector<ProjectorTerm>& terms,
                          const CMat& seed, const MleOptions& opts) {
  seed.require_square("rrr_reconstruct");
  const std::size_t dim = seed.rows();
  double grand_total = 0;
  std::size_t num_active = 0;
  for (const auto& t : terms) {
    if (t.state.size() != dim)
      throw std::invalid_argument("rrr_reconstruct: state vector length != seed dim");
    if (t.count < 0)
      throw std::invalid_argument(
          "rrr_reconstruct: negative count (background-subtracted data is not "
          "valid RρR input)");
    grand_total += t.count;
    if (t.count > 0) ++num_active;
  }
  if (grand_total <= 0) throw std::invalid_argument("rrr_reconstruct: no counts");

  // Pack the terms that carry counts once: Φ (row t = ψ_t†) and Ψ = Φ†.
  CMat phi(num_active, dim);
  linalg::RVec counts;
  counts.reserve(num_active);
  for (const auto& t : terms) {
    if (t.count <= 0) continue;
    cplx* row = phi.data() + counts.size() * dim;
    for (std::size_t j = 0; j < dim; ++j) row[j] = std::conj(t.state[j]);
    counts.push_back(t.count);
  }
  const CMat psi = phi.adjoint();

  // Mix a little identity into the seed so no projector starts at exactly
  // zero probability.
  CMat rho = seed;
  {
    CMat eye = CMat::identity(dim);
    eye *= cplx(1e-3 / static_cast<double>(dim), 0);
    rho *= cplx(1.0 - 1e-3, 0);
    rho += eye;
  }

  RrrResult res;
  linalg::RVec p(num_active);
  // Term-sized (T x dim) workspaces, reused by every iteration so the loop
  // allocates nothing: at T ~ 10^3 each is ~300 KB, where a per-iteration
  // allocation's cost depends on the allocator's mmap/trim thresholds,
  // which other work in the process moves.
  CMat b, phi_w;
  for (int it = 0; it < opts.max_iterations; ++it) {
    // R = Σ_t w_t |ψ_t⟩⟨ψ_t| = Ψ·diag(w)·Φ with w_t = c_t / (N p_t).
    term_probabilities(phi, rho, b, p);
    phi_w = phi;
    for (std::size_t t = 0; t < num_active; ++t) {
      const double w = counts[t] / (grand_total * std::max(1e-12, p[t]));
      cplx* row = phi_w.data() + t * dim;
      for (std::size_t j = 0; j < dim; ++j) row[j] *= w;
    }
    const CMat r = psi * phi_w;
    CMat next = r * rho * r;
    const cplx tr = next.trace();
    if (std::abs(tr) < 1e-300)
      throw qfc::NumericalError("rrr_reconstruct: degenerate iterate");
    next *= cplx(1.0, 0) / tr;

    CMat diff = next;
    diff -= rho;
    res.final_update_norm = diff.frobenius_norm();
    rho = std::move(next);
    res.iterations = it + 1;
    if (res.final_update_norm < opts.convergence_tol) {
      res.converged = true;
      break;
    }
  }

  // Final cleanup: enforce exact Hermiticity/PSD within tolerance.
  rho = linalg::project_to_density_matrix(rho);
  term_probabilities(phi, rho, b, p);
  double ll = 0;
  for (std::size_t t = 0; t < num_active; ++t)
    ll += counts[t] * std::log(std::max(1e-300, p[t]));
  res.log_likelihood = ll;
  res.rho = std::move(rho);
  return res;
}

MleResult maximum_likelihood(const std::vector<SettingCounts>& data,
                             const MleOptions& opts) {
  const std::size_t n = checked_num_qubits(data);

  std::vector<ProjectorTerm> terms;
  for (const auto& d : data)
    for (std::size_t o = 0; o < d.counts.size(); ++o) {
      if (d.counts[o] == 0) continue;
      terms.push_back(
          ProjectorTerm{outcome_state(d.setting, o), static_cast<double>(d.counts[o])});
    }

  // Seed: physical projection of the linear-inversion estimate.
  const CMat seed = linalg::project_to_density_matrix(linear_inversion(data));
  RrrResult core = rrr_reconstruct(terms, seed, opts);

  MleResult res{quantum::DensityMatrix(std::move(core.rho), quantum::qubit_dims(n), 1e-6),
                core.iterations, core.converged, core.log_likelihood,
                core.final_update_norm};
  return res;
}

}  // namespace qfc::tomo
