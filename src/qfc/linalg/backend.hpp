#pragma once

/// \file backend.hpp
/// Kernel layer of the dense linear algebra every layer above bottoms out
/// in: Schmidt purity in `sfwm`, the qudit CGLMP/MUB stack,
/// `tomo::rrr_reconstruct`, and `quantum::measures`. Mat<T>::operator*,
/// kron(), hermitian_eig(), svd() and the spectral matrix functions call
/// the Blocked kernels directly: cache-blocked GEMM with SIMD
/// micro-kernels, and round-robin ("chess tournament") parallel Jacobi eig /
/// one-sided Jacobi SVD on the process-wide parallel::shared_pool(), sized
/// by parallel::set_threads / QFC_THREADS (see src/qfc/parallel/README.md).
/// Every rotation round partitions the matrix into disjoint row/column
/// pairs, so the task-to-thread assignment cannot change any floating-point
/// operation order: results are bitwise identical for every thread count
/// (the same determinism contract as detect::EventEngine).
///
/// The naive single-threaded Reference kernels stay as the parity and
/// bench baseline, and reference_gemm / reference_kron are the Blocked
/// kernels' below-cutoff fallbacks. See src/qfc/linalg/README.md.

#include <cstdint>

#include "qfc/linalg/hermitian_eig.hpp"
#include "qfc/linalg/matrix.hpp"
#include "qfc/linalg/svd.hpp"

namespace qfc::linalg {

/// Options forwarded to the Hermitian eigensolver kernels.
struct EigOptions {
  int max_sweeps = 64;
  bool want_vectors = true;
};

/// SIMD policy of the Blocked kernels (see src/qfc/linalg/README.md).
/// Vector micro-kernels (AVX2 on x86-64, runtime-dispatched) are used when
/// the request is on AND the CPU supports them; the scalar fallback is
/// always compiled in. Initial request comes from QFC_LINALG_SIMD
/// ("off"/"0"/"false"/"scalar" disable; anything else, or unset, enables).
/// Rotation/kron kernels replicate the scalar complex arithmetic exactly
/// (mul/addsub, no FMA), so eig and kron are bitwise identical across SIMD
/// modes; the planar-FMA GEMM and the vectorized SVD Gram reductions are
/// relaxed (1e-10 parity across modes). Thread-count invariance is bitwise
/// within any fixed mode.
void set_simd_enabled(bool on);
/// True when the vector path is active (requested AND CPU-supported).
bool simd_enabled();
/// The raw on/off request, ignoring CPU support (for save/restore).
bool simd_request();

namespace detail {

/// Complex Jacobi rotation parameters (c real, sp = sin·phase) for a pivot
/// with diagonal entries app/aqq and off-diagonal apq of magnitude mag > 0.
/// Single shared formula: the Reference and Blocked solvers zero their
/// pivots with exactly the same arithmetic, which is what the 1e-10 parity
/// contract between them leans on.
struct JacobiParams {
  double c = 1.0;
  cplx sp{0, 0};
};
JacobiParams jacobi_params(double app, double aqq, cplx apq, double mag);

/// Sum of squared magnitudes of strictly off-diagonal elements.
double off_diag_norm2(const CMat& a);

/// Nominal flop count of an m x k by k x n product (2mkn real; 4x for
/// complex). Feeds the `linalg.<reference|blocked>.gemm.flops` obs counters.
std::uint64_t gemm_flops(std::size_t m, std::size_t k, std::size_t n, bool is_complex);

/// Nominal flop count of a kron with `out_elems` output elements (one
/// multiply per element; 6 real flops for complex). Feeds the
/// `linalg.<reference|blocked>.kron.flops` obs counters.
std::uint64_t kron_flops(std::size_t out_elems, bool is_complex);

/// Convergence threshold on off_diag_norm2 for an n x n Hermitian matrix of
/// Frobenius norm `scale`.
double jacobi_stop_threshold(double scale, std::size_t n);

// Reference kernels: the original naive loops, kept as the parity and bench
// baseline; reference_gemm / reference_kron are also the small-dimension
// fallbacks of the Blocked kernels.
void reference_gemm(const RMat& a, const RMat& b, RMat& c);
void reference_gemm(const CMat& a, const CMat& b, CMat& c);
EigResult reference_hermitian_eig(const CMat& a, const EigOptions& opt);
SvdResult reference_svd(const CMat& a, int max_sweeps);
void reference_kron(const RMat& a, const RMat& b, RMat& out);
void reference_kron(const CMat& a, const CMat& b, CMat& out);
/// Triple-loop V·diag(d)·V†, the test reference for the spectral-function
/// rebuild.
CMat reference_scaled_congruence(const CMat& v, const RVec& d);

// Blocked kernels (blocked_backend.cpp).
void blocked_gemm(const RMat& a, const RMat& b, RMat& c);
void blocked_gemm(const CMat& a, const CMat& b, CMat& c);
EigResult blocked_hermitian_eig(const CMat& a, const EigOptions& opt);
SvdResult blocked_svd(const CMat& a, int max_sweeps);
void blocked_kron(const RMat& a, const RMat& b, RMat& out);
void blocked_kron(const CMat& a, const CMat& b, CMat& out);

/// Shared eig finalization: read the (real) diagonal of the rotated matrix,
/// sort descending, permute the accumulated eigenvector columns alongside.
EigResult finalize_eig(const CMat& diagonalized, const CMat& vectors, bool want_vectors);

}  // namespace detail

}  // namespace qfc::linalg
