"""Reduced density objects of a pure hybrid state.

Tracing out the continuous factor leaves the overlap matrix h acting on
C^n; tracing out the discrete factor leaves an integral operator with
kernel f(p, p') = sum_chi phi_chi(p) conj(phi_chi(p')).  Both share the
same non-zero spectrum, which carries all the entanglement content; the
Schmidt construction below makes the shared modes explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StructureError, UnsupportedError
from .linalg import hermitian_eigensystem
from .overlaps import OverlapMatrix, overlap_matrix
from .states import HybridState, WaveComponent, combine_components

RANK_TOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a reduced density matrix, sorted descending.

    Validated to lie in [-1e-10, 1+1e-10] with unit sum (within 1e-10),
    then clamped to [0, 1]; NaN fails both gates."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float).reshape(-1)
        if vals.size == 0:
            raise DomainError("empty spectrum")
        if not (np.min(vals) >= -1e-10 and np.max(vals) <= 1.0 + 1e-10):
            raise DomainError(f"eigenvalues outside [0,1]: {vals}")
        if not abs(np.sum(vals) - 1.0) <= 1e-10:
            raise DomainError(f"eigenvalues must sum to 1, got {float(np.sum(vals))!r}")
        vals = np.clip(vals, 0.0, 1.0)
        vals = np.sort(vals)[::-1].copy()
        vals.setflags(write=False)
        object.__setattr__(self, "eigenvalues", vals)

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class SchmidtData:
    """Schmidt form of a pure hybrid state.

    coefficients: the shared spectrum; discrete_modes: all n orthonormal
    eigenvectors of h (columns); continuous_modes: the matched continuous
    wave functions for eigenvalues above the rank tolerance.
    """

    coefficients: Spectrum
    discrete_modes: np.ndarray
    continuous_modes: tuple[WaveComponent, ...]


def reduced_spin_density(state: HybridState) -> OverlapMatrix:
    """Reduced density matrix of the discrete factor.  For pure states this
    is the overlap matrix itself."""
    return overlap_matrix(state)


def spectrum(rho) -> Spectrum:
    """Eigenvalues of a reduced density matrix, descending.

    Accepts an OverlapMatrix or a raw Hermitian array, and reuses the
    eigenvalues its validation computed: the cancellation-free closed form
    for n = 2, the cyclic Jacobi eigensolver for larger n.
    """
    if not isinstance(rho, OverlapMatrix):
        rho = OverlapMatrix(rho)
    return Spectrum(rho.eigenvalues)


def kernel_matrix(state: HybridState, points) -> np.ndarray:
    """Kernel f(p, p') = sum_chi phi_chi(p) conj(phi_chi(p')) of the
    reduced continuous density operator, sampled on an (N, d) array of
    momenta: F[i, j] = f(points[i], points[j]).

    Each component is evaluated once on all N points.  Real and imaginary
    parts accumulate separately, in component order, as a*c - b*d and
    a*d + b*c for phi(p) = a + ib and conj(phi(p')) = c + id: a complex
    array product may fuse these into FMAs, which leaves the diagonal an
    imaginary part of order 1e-19 instead of exactly 0.
    """
    pts = np.array(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != state.d:
        raise StructureError(f"points must be an (N, {state.d}) array, got shape {pts.shape}")
    out = np.zeros((pts.shape[0], pts.shape[0]), dtype=complex)
    for comp in state.components:
        vals = comp.eval_many(pts)
        a, b = vals.real, vals.imag
        d = -b
        out.real += np.multiply.outer(a, a) - np.multiply.outer(b, d)
        out.imag += np.multiply.outer(a, d) + np.multiply.outer(b, a)
    return out


def kernel_eval(state: HybridState, p, p2) -> complex:
    """Kernel f(p, p') at one pair of momenta; see ``kernel_matrix``."""
    pa = np.array(p, dtype=float).reshape(-1)
    pb = np.array(p2, dtype=float).reshape(-1)
    if pa.shape[0] != state.d or pb.shape[0] != state.d:
        raise StructureError(f"momentum vectors must have length {state.d}")
    return complex(kernel_matrix(state, np.stack([pa, pb]))[0, 1])


def schmidt_decomposition(state: HybridState) -> SchmidtData:
    """Diagonalize h = U Lambda U^dagger and build the continuous Schmidt
    modes psi_i = lambda_i^{-1/2} sum_chi conj(U_{chi,i}) phi_chi for every
    eigenvalue above the rank tolerance."""
    return _schmidt_from(state, overlap_matrix(state))


def _schmidt_from(state: HybridState, rho: OverlapMatrix) -> SchmidtData:
    """Schmidt form of ``state`` from its overlap matrix ``rho``, with the
    eigensystem its validation computed when there is one (n >= 3)."""
    if rho.eigenvectors is None:
        values, vectors = hermitian_eigensystem(rho.matrix)
        vectors.setflags(write=False)
    else:
        values, vectors = rho.eigenvalues, rho.eigenvectors
    coefficients = Spectrum(values)
    modes: list[WaveComponent] = []
    for i, lam in enumerate(coefficients.eigenvalues):
        if lam <= RANK_TOL:
            continue
        weights = np.conj(vectors[:, i]) / np.sqrt(lam)
        modes.append(combine_components(weights, state.components))
    return SchmidtData(coefficients, vectors, tuple(modes))


def _poly_eval(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(t)
    for c in coeffs[::-1]:
        out = out * t + c
    return out


def trace_function_check(state: HybridState, poly) -> tuple[float, float]:
    """Evaluate Tr g(rho) on both reduced sides for a polynomial g.

    ``poly`` lists real coefficients in ascending powers, constant term
    first; the constant term must be zero (on the continuous side its
    trace diverges), otherwise UnsupportedError.  Returns (lhs, rhs): lhs
    sums g over the discrete-side spectrum, rhs sums g over the Schmidt
    coefficients, i.e. the non-zero spectrum shared with the continuous
    side.
    """
    coeffs = np.array(poly, dtype=float).reshape(-1)
    if coeffs.size and coeffs[0] != 0.0:
        raise UnsupportedError(
            "constant term is not supported: its trace diverges on the continuous side"
        )
    rho = reduced_spin_density(state)
    lam_s = spectrum(rho).eigenvalues
    lhs = float(np.sum(_poly_eval(coeffs, lam_s)))
    sd = _schmidt_from(state, rho)
    lam_shared = sd.coefficients.eigenvalues
    lam_shared = lam_shared[lam_shared > RANK_TOL]
    rhs = float(np.sum(_poly_eval(coeffs, lam_shared)))
    return lhs, rhs
