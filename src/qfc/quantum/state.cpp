#include "qfc/quantum/state.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

#include "qfc/linalg/hermitian_eig.hpp"

namespace qfc::quantum {

std::size_t total_dim(const Dims& dims) {
  if (dims.empty()) throw std::invalid_argument("total_dim: no particles");
  std::size_t d = 1;
  for (std::size_t dk : dims) {
    if (dk < 2) throw std::invalid_argument("total_dim: particle dimension < 2");
    if (d > 4096 / dk) throw std::invalid_argument("total_dim: register too large");
    d *= dk;
  }
  return d;
}

namespace {

/// Dimension of everything to the right of particle p (the index stride of
/// particle p's digit).
std::size_t stride_after(const Dims& dims, std::size_t p) {
  std::size_t s = 1;
  for (std::size_t q = p + 1; q < dims.size(); ++q) s *= dims[q];
  return s;
}

Dims concat(const Dims& a, const Dims& b) {
  Dims out = a;
  out.insert(out.end(), b.begin(), b.end());
  return out;
}

}  // namespace

StateVector::StateVector(Dims dims)
    : dims_(std::move(dims)), amps_(total_dim(dims_), cplx(0, 0)) {
  amps_[0] = cplx(1, 0);
}

StateVector::StateVector(CVec amplitudes, Dims dims)
    : dims_(std::move(dims)), amps_(std::move(amplitudes)) {
  if (amps_.size() != total_dim(dims_))
    throw std::invalid_argument("StateVector: amplitude size does not match dims");
  linalg::vnormalize(amps_);
}

// floor(log2 n) qubits: any n that is not 2^k with k >= 1 fails the size
// check (n <= 1 leaves no particles).
StateVector::StateVector(CVec amplitudes)
    : StateVector(amplitudes, qubit_dims(std::bit_width(amplitudes.size() | 1) - 1)) {}

StateVector StateVector::tensor(const StateVector& other) const {
  return StateVector(linalg::kron(amps_, other.amps_), concat(dims_, other.dims_));
}

double StateVector::overlap_probability(const StateVector& other) const {
  if (dim() != other.dim())
    throw std::invalid_argument("StateVector::overlap_probability: dim mismatch");
  return std::norm(linalg::vdot(amps_, other.amps_));
}

StateVector StateVector::apply_local(const CMat& u, std::size_t particle) const {
  if (particle >= dims_.size())
    throw std::out_of_range("StateVector::apply_local: particle out of range");
  const std::size_t dp = dims_[particle];
  if (u.rows() != dp || u.cols() != dp)
    throw std::invalid_argument(
        "StateVector::apply_local: operator does not match particle dim");

  const std::size_t post = stride_after(dims_, particle);
  const std::size_t block = dp * post;  // span of one iteration over particle's digit
  CVec out(amps_.size(), cplx(0, 0));
  for (std::size_t base = 0; base < amps_.size(); base += block)
    for (std::size_t r = 0; r < post; ++r)
      for (std::size_t i = 0; i < dp; ++i) {
        cplx s(0, 0);
        for (std::size_t j = 0; j < dp; ++j) s += u(i, j) * amps_[base + j * post + r];
        out[base + i * post + r] = s;
      }
  return StateVector(std::move(out), dims_);
}

double StateVector::probability(std::size_t basis_index) const {
  return std::norm(amps_.at(basis_index));
}

DensityMatrix::DensityMatrix(Dims dims)
    : dims_(std::move(dims)), rho_(CMat::identity(total_dim(dims_))) {
  rho_ *= cplx(1.0 / static_cast<double>(dim()), 0);
}

DensityMatrix::DensityMatrix(const StateVector& psi)
    : dims_(psi.dims()), rho_(linalg::outer(psi.amplitudes(), psi.amplitudes())) {}

DensityMatrix::DensityMatrix(CMat rho, Dims dims, double psd_tol)
    : dims_(std::move(dims)), rho_(std::move(rho)) {
  rho_.require_square("DensityMatrix");
  if (rho_.rows() != total_dim(dims_))
    throw std::invalid_argument("DensityMatrix: matrix size does not match dims");
  if (!linalg::is_hermitian(rho_, 1e-8))
    throw std::invalid_argument("DensityMatrix: not Hermitian");
  const double tr = std::real(rho_.trace());
  if (std::abs(tr - 1.0) > 1e-6)
    throw std::invalid_argument("DensityMatrix: trace != 1");
  const auto evals = linalg::hermitian_eigenvalues(rho_);
  for (double v : evals)
    if (v < -psd_tol) throw std::invalid_argument("DensityMatrix: not positive semidefinite");
}

cplx DensityMatrix::expectation(const CMat& observable) const {
  if (observable.rows() != dim() || observable.cols() != dim())
    throw std::invalid_argument("DensityMatrix::expectation: dim mismatch");
  // O(dim²) trace of the product — this is the inner loop of every
  // probability evaluation in the CHSH, CGLMP and MUB layers.
  return linalg::trace_product(rho_, observable);
}

double DensityMatrix::probability(const CMat& projector) const {
  const double p = std::real(expectation(projector));
  return std::min(1.0, std::max(0.0, p));
}

DensityMatrix DensityMatrix::tensor(const DensityMatrix& other) const {
  DensityMatrix out;
  out.rho_ = linalg::kron(rho_, other.rho_);
  out.dims_ = concat(dims_, other.dims_);
  return out;
}

DensityMatrix DensityMatrix::partial_trace_keep(const std::vector<std::size_t>& keep) const {
  if (keep.empty())
    throw std::invalid_argument("partial_trace_keep: must keep at least one particle");
  for (std::size_t i = 0; i < keep.size(); ++i) {
    if (keep[i] >= dims_.size())
      throw std::out_of_range("partial_trace_keep: bad particle");
    if (i > 0 && keep[i] <= keep[i - 1])
      throw std::invalid_argument("partial_trace_keep: particles must be strictly ascending");
  }

  std::vector<std::size_t> traced;
  for (std::size_t q = 0; q < dims_.size(); ++q) {
    bool kept = false;
    for (std::size_t kq : keep) kept |= (kq == q);
    if (!kept) traced.push_back(q);
  }

  Dims kept_dims, traced_dims;
  for (std::size_t q : keep) kept_dims.push_back(dims_[q]);
  for (std::size_t q : traced) traced_dims.push_back(dims_[q]);
  std::size_t out_dim = 1, tr_dim = 1;
  for (std::size_t d : kept_dims) out_dim *= d;
  for (std::size_t d : traced_dims) tr_dim *= d;

  // Precompute per-particle strides in the full register.
  std::vector<std::size_t> strides(dims_.size());
  for (std::size_t q = 0; q < dims_.size(); ++q) strides[q] = stride_after(dims_, q);

  // Full-register index from (kept digits, traced digits) mixed-radix values.
  const auto make_index = [&](std::size_t kept_val, std::size_t traced_val) {
    std::size_t idx = 0;
    for (std::size_t i = kept_dims.size(); i-- > 0;) {
      idx += (kept_val % kept_dims[i]) * strides[keep[i]];
      kept_val /= kept_dims[i];
    }
    for (std::size_t i = traced_dims.size(); i-- > 0;) {
      idx += (traced_val % traced_dims[i]) * strides[traced[i]];
      traced_val /= traced_dims[i];
    }
    return idx;
  };

  CMat out(out_dim, out_dim);
  for (std::size_t a = 0; a < out_dim; ++a)
    for (std::size_t b = 0; b < out_dim; ++b) {
      cplx s(0, 0);
      for (std::size_t t = 0; t < tr_dim; ++t)
        s += rho_(make_index(a, t), make_index(b, t));
      out(a, b) = s;
    }

  DensityMatrix res;
  res.rho_ = std::move(out);
  res.dims_ = std::move(kept_dims);
  return res;
}

DensityMatrix DensityMatrix::mix(const DensityMatrix& other, double p) const {
  if (p < 0 || p > 1) throw std::invalid_argument("DensityMatrix::mix: p outside [0,1]");
  if (dim() != other.dim()) throw std::invalid_argument("DensityMatrix::mix: dim mismatch");
  DensityMatrix out;
  out.dims_ = dims_;
  out.rho_ = rho_ * cplx(1 - p, 0) + other.rho_ * cplx(p, 0);
  return out;
}

}  // namespace qfc::quantum
