"""Tensor-product Gauss-Hermite quadrature: the certification oracle.

``quadrature_overlap`` integrates a(p) conj(b(p)) by sampling the integrand
pointwise on affine Gauss-Hermite grids, one grid per pair of primitive
pieces.  It shares nothing with the closed forms of ``cdent.overlaps`` but
the component types and their ``eval_many``, so the tests use it as the
independent reference for every exact overlap.  Not collected by pytest
(no ``test_`` prefix); test modules import it by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from cdent.errors import DomainError, StructureError, UnsupportedError
from cdent.states import ComponentSum, GaussianSum, GaussianTerm, HermiteExpansion

MAX_TENSOR_DIM = 4
_LOG_FLOAT_MAX = math.log(np.finfo(float).max)


@lru_cache(maxsize=8)
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    # scaled weights w*exp(x^2): quadrature of a bare integrand f is
    # sum w_j e^{x_j^2} f(x_j); O(1) per node for n <= ~180, overflowing
    # to inf or nan from 372 nodes (QuadratureSpec rejects those)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        nodes, weights = np.polynomial.hermite.hermgauss(n)
        return nodes, weights * np.exp(nodes**2)


@dataclass(frozen=True)
class QuadratureSpec:
    """Tensor-product Gauss-Hermite settings of the quadrature oracle.

    Each piece pair is integrated on a grid centered on the integrand's
    envelope peak and scaled to the combined width; phased Gaussian pairs
    additionally tilt the integration contour into the complex plane by
    -arg(A)/2, which turns the chirped integrand into exp(-t^2) times a
    slow factor (legitimate by Cauchy's theorem: the integrand is entire
    with Gaussian decay inside the sector).  Node counts whose scaled
    weights w exp(x^2) overflow (372 and up) are rejected.
    """

    nodes_per_axis: int = 64

    def __post_init__(self):
        if int(self.nodes_per_axis) < 2:
            raise DomainError("nodes_per_axis must be >= 2")
        n = int(self.nodes_per_axis)
        object.__setattr__(self, "nodes_per_axis", n)
        # every node has x^2 < 2n + 1, so exp(x^2) cannot overflow while
        # 2n + 1 <= log(float max) ~ 709.8; only larger rules are computed
        if 2 * n + 1 > _LOG_FLOAT_MAX and not np.all(np.isfinite(_hermgauss(n)[1])):
            raise DomainError(f"{n} nodes per axis overflow the scaled Gauss-Hermite weights")


DEFAULT_QUADRATURE = QuadratureSpec()


def _conjugate_term(t: GaussianTerm) -> GaussianTerm:
    """Term whose values are the complex conjugate of ``t`` (real p)."""
    return GaussianTerm(np.conj(t.amplitude), t.center, t.width, -t.linear_phase, -t.quad_phase)


def _primitive_pieces(comp) -> list[tuple[complex, object]]:
    """Split a component into weighted primitives (GaussianTerm or whole
    HermiteExpansion); quadrature then works pair-by-pair by bilinearity."""
    if isinstance(comp, GaussianSum):
        return [(1.0 + 0.0j, t) for t in comp.terms]
    if isinstance(comp, HermiteExpansion):
        return [(1.0 + 0.0j, comp)]
    if isinstance(comp, ComponentSum):
        out: list[tuple[complex, object]] = []
        for w, part in comp.parts:
            out.extend((w * w2, p) for w2, p in _primitive_pieces(part))
        return out
    raise StructureError(f"unknown component type {type(comp).__name__}")


def _envelope(piece) -> tuple[np.ndarray, float]:
    """(center, envelope precision gamma) with |piece| ~ exp(-gamma(p-c)^2)."""
    if isinstance(piece, GaussianTerm):
        return piece.center, 2.0 / piece.width**2
    # Hermite: Gaussian factor exp(-(p-k0)^2/(2 s^2))
    return piece.origin, 0.5 / piece.gaussian_std**2


def _tensor_grid(nodes: np.ndarray, d: int) -> np.ndarray:
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def _tensor_weights(w: np.ndarray, d: int) -> np.ndarray:
    out = w
    for _ in range(d - 1):
        out = np.multiply.outer(out, w)
    return out.ravel()


def _quad_gaussian_pair(t1: GaussianTerm, t2: GaussianTerm, spec: QuadratureSpec) -> complex:
    """Gauss-Hermite integration of a phased Gaussian pair on the tilted,
    saddle-centered contour p_i(t) = mu_i + e^{i phi} alpha t."""
    d = t1.dimension
    n = spec.nodes_per_axis
    nodes, wts = _hermgauss(n)
    g1 = 2.0 / t1.width**2
    g2 = 2.0 / t2.width**2
    t2c = _conjugate_term(t2)

    a_coef = g1 + g2 - 1j * (t1.quad_phase - t2.quad_phase)
    b_vec = (
        2.0 * g1 * t1.center
        + 2.0 * g2 * t2.center
        - 1j * (t1.linear_phase - t2.linear_phase)
    )
    mu = (b_vec / (2.0 * a_coef)).real
    alpha = 1.0 / np.sqrt(abs(a_coef))
    rot = np.exp(-0.5j * np.angle(a_coef))

    step = rot * alpha
    if d >= MAX_TENSOR_DIM:
        # chunk the leading axis to bound memory
        sub = _tensor_grid(nodes, d - 1)
        wsub = _tensor_weights(wts, d - 1)
        total = 0.0 + 0.0j
        for i in range(n):
            pts = np.empty((sub.shape[0], d), dtype=complex)
            pts[:, 0] = mu[0] + step * nodes[i]
            pts[:, 1:] = mu[1:] + step * sub
            total += wts[i] * np.sum(wsub * (t1.eval_many(pts) * t2c.eval_many(pts)))
        return complex(step**d * total)
    pts = mu[None, :] + step * _tensor_grid(nodes, d)
    weights = _tensor_weights(wts, d)
    vals = t1.eval_many(pts) * t2c.eval_many(pts)
    return complex(step**d * np.sum(weights * vals))


def _quad_general_pair(p1, p2, spec: QuadratureSpec) -> complex:
    """Real-line tensor Gauss-Hermite for pairs involving a Hermite
    expansion (no quadratic phases there, so no contour tilt is needed)."""
    d = p1.dimension if isinstance(p1, HermiteExpansion) else p1.center.shape[0]
    n = spec.nodes_per_axis
    nodes, wts = _hermgauss(n)
    c1, g1 = _envelope(p1)
    c2, g2 = _envelope(p2)
    mu = (g1 * c1 + g2 * c2) / (g1 + g2)
    alpha = 1.0 / np.sqrt(g1 + g2)

    total = 0.0 + 0.0j
    if d >= MAX_TENSOR_DIM:
        # chunk the leading axis to bound memory
        sub = _tensor_grid(nodes, d - 1)
        wsub = _tensor_weights(wts, d - 1)
        for i in range(n):
            pts = np.empty((sub.shape[0], d))
            pts[:, 0] = mu[0] + alpha * nodes[i]
            pts[:, 1:] = mu[1:] + alpha * sub
            total += wts[i] * np.sum(wsub * (p1.eval_many(pts) * np.conj(p2.eval_many(pts))))
    else:
        pts = mu[None, :] + alpha * _tensor_grid(nodes, d)
        weights = _tensor_weights(wts, d)
        total = np.sum(weights * (p1.eval_many(pts) * np.conj(p2.eval_many(pts))))
    return complex(alpha**d * total)


def quadrature_overlap(a, b, spec: QuadratureSpec = DEFAULT_QUADRATURE) -> complex:
    """integral a(p) conj(b(p)) d^d p by numerical quadrature.

    Components are split bilinearly into primitive pieces and every piece
    pair is integrated on its own affine Gauss-Hermite grid.  Independent
    of the closed forms (only pointwise integrand samples are used);
    converges to them as nodes_per_axis grows.
    """
    if a.dimension != b.dimension:
        raise StructureError("components disagree on dimension")
    if a.dimension > MAX_TENSOR_DIM:
        raise UnsupportedError(
            f"tensor-grid quadrature supports d <= {MAX_TENSOR_DIM}, got d={a.dimension}"
        )
    total = 0.0 + 0.0j
    for wa, pa in _primitive_pieces(a):
        for wb, pb in _primitive_pieces(b):
            w = wa * np.conj(wb)
            if isinstance(pa, GaussianTerm) and isinstance(pb, GaussianTerm):
                total += w * _quad_gaussian_pair(pa, pb, spec)
            else:
                total += w * _quad_general_pair(pa, pb, spec)
    return complex(total)
