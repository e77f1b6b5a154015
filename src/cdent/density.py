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
from .linalg import _eigensystem
from .overlaps import OverlapMatrix, dictionary_overlap_matrix, overlap_matrix
from .states import HybridState, WaveComponent, _component_values, combine_components

RANK_TOL = 1e-10
_FLOAT64 = np.dtype(np.float64)


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a reduced density matrix, sorted descending.

    Validated to lie in [-1e-10, 1+1e-10] with unit sum (within 1e-10),
    then clamped to [0, 1]; NaN fails both gates.  A frozen 1-D float64
    array, as ``OverlapMatrix`` keeps its eigenvalues, is kept as it is."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        vals = self.eigenvalues
        if not (type(vals) is np.ndarray and vals.dtype is _FLOAT64 and vals.ndim == 1
                and not vals.flags.writeable):
            vals = np.array(vals, dtype=float).reshape(-1)
        listed = vals.tolist()  # scalar gates: cheaper than numpy reductions on a few values
        if not listed:
            raise DomainError("empty spectrum")
        kept, top = True, 1.0  # in (0, 1] and descending: clip and sort would leave vals as it is
        for x in listed:
            if not -1e-10 <= x <= 1.0 + 1e-10:
                raise DomainError(f"eigenvalues outside [0,1]: {vals}")
            kept = kept and 0.0 < x <= top
            top = x
        if not abs(sum(listed) - 1.0) <= 1e-10:
            raise DomainError(f"eigenvalues must sum to 1, got {sum(listed)!r}")
        if not kept:
            vals = np.sort(vals.clip(0.0, 1.0))[::-1].copy()
        vals.setflags(write=False)
        self.__dict__["eigenvalues"] = vals  # frozen: past __setattr__

    @property
    def n(self) -> int:
        return self.eigenvalues.shape[0]

    # entropy and purity are computed on first use, once, and kept in the
    # instance dict (functools.cached_property would take a lock on 3.11)

    @property
    def entropy_bits(self) -> float:
        """-sum lambda log2 lambda in bits, with 0 log 0 = 0.  np.add.reduce
        is np.sum without its Python wrapper: the same sum, in numpy's order."""
        value = self.__dict__.get("_entropy_bits")
        if value is None:
            lam = self.eigenvalues
            if not lam[-1] > 0.0:  # descending and clamped: drop the zeros
                lam = lam[lam > 0.0]
            # +0.0 normalizes -0.0
            value = self.__dict__["_entropy_bits"] = float(-np.add.reduce(lam * np.log2(lam))) + 0.0
        return value

    @property
    def purity(self) -> float:
        """sum lambda^2 = Tr rho^2."""
        value = self.__dict__.get("_purity")
        if value is None:
            lam = self.eigenvalues
            value = self.__dict__["_purity"] = float(np.add.reduce(lam * lam))
        return value


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


def spectrum(rho) -> Spectrum:
    """Eigenvalues of a reduced density matrix, descending.

    Accepts an OverlapMatrix or a raw Hermitian array, and reuses the
    eigenvalues its validation computed: the cancellation-free closed form
    for n = 2, the LAPACK solve ``linalg._eigensystem`` for larger n.
    """
    if not isinstance(rho, OverlapMatrix):
        rho = OverlapMatrix(rho)
    return Spectrum(rho.eigenvalues)


def kernel_matrix(state: HybridState, points) -> np.ndarray:
    """Kernel f(p, p') = sum_chi phi_chi(p) conj(phi_chi(p')) of the
    reduced continuous density operator, sampled on an (N, d) array of
    momenta: F[i, j] = f(points[i], points[j]).

    One ``_component_values`` call evaluates each distinct packet and each
    Hermite frame once.  Real and imaginary parts are formed and summed
    apart, in component order, as a a' + b b' and b a' - a b' for phi(p) =
    a + ib and phi(p') = a' + ib' (a*c - b*d and a*d + b*c for conj(phi(p'))
    = c + id): a complex array product may fuse these into FMAs, which
    leaves the diagonal an imaginary part of order 1e-19, not exactly 0.
    """
    pts = np.array(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != state.d:
        raise StructureError(f"points must be an (N, {state.d}) array, got shape {pts.shape}")
    ab = np.array(_component_values(state.components, pts)).view(float).reshape(state.n, len(pts), 1, 2)  # (a, b) at p
    ab2 = ab.swapaxes(1, 2)  # (a', b') at p'
    same, cross = ab * ab2, ab[..., ::-1] * ab2  # (a a', b b') and (b a', a b')
    terms = np.empty(same.shape)  # (re, im) of each component's term
    np.add(same[..., 0], same[..., 1], out=terms[..., 0])
    np.subtract(cross[..., 0], cross[..., 1], out=terms[..., 1])
    out = np.zeros(terms.shape[1:])
    for term in terms:
        out += term
    return out.view(complex)[..., 0]  # the (N, N, 2) floats as (N, N) complex


def schmidt_decomposition(state: HybridState) -> SchmidtData:
    """Diagonalize h = U Lambda U^dagger and build the continuous Schmidt
    modes psi_i = lambda_i^{-1/2} sum_chi conj(U_{chi,i}) phi_chi for every
    eigenvalue above the rank tolerance."""
    return _schmidt_from(state, overlap_matrix(state))


def _schmidt_from(state: HybridState, rho: OverlapMatrix) -> SchmidtData:
    """Schmidt form of ``state`` from its overlap matrix ``rho``: for every
    n the coefficients are ``spectrum(rho)``; the vectors are rho's for
    n >= 3 and, for n <= 2, those of one solve of the gated ``rho.matrix``."""
    vectors = rho.eigenvectors
    if vectors is None:
        vectors = _eigensystem(rho.matrix)[1]
        vectors.setflags(write=False)
    coefficients = spectrum(rho)
    modes = tuple(
        combine_components(np.conj(vectors[:, i]) / np.sqrt(lam), state.components)
        for i, lam in enumerate(coefficients.eigenvalues) if lam > RANK_TOL
    )
    return SchmidtData(coefficients, vectors, modes)


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
    sums g over the discrete-side spectrum; rhs is Tr g of the continuous
    side sum_i lambda_i |psi_i><psi_i| rebuilt from the Schmidt modes,
    sum_k c_k Tr((Lambda M)^k) with Lambda the coefficients above the rank
    tolerance and M the modes' exact Gram matrix, so it reads the modes.
    """
    coeffs = np.array(poly, dtype=float).reshape(-1)
    if coeffs.size and coeffs[0] != 0.0:
        raise UnsupportedError(
            "constant term is not supported: its trace diverges on the continuous side"
        )
    sd = _schmidt_from(state, overlap_matrix(state))
    lam = sd.coefficients.eigenvalues  # the discrete-side spectrum, spectrum(rho)
    lhs = float(np.sum(_poly_eval(coeffs, lam)))
    lam_m = lam[lam > RANK_TOL][:, None] * dictionary_overlap_matrix(sd.continuous_modes)
    rhs = sum(c * np.trace(np.linalg.matrix_power(lam_m, k)).real for k, c in enumerate(coeffs[1:], 1))
    return lhs, float(rhs)
