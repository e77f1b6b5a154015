"""Overlap integrals h_{chi,chi'} = integral phi_chi conj(phi_chi').

Two independent routes:

* closed forms, used by everything downstream: Gaussian sums go through a
  shared packet dictionary (``dictionary_overlap_matrix``), Hermite
  expansions on one frame through their coefficient inner product, and
  every pair involving a Hermite expansion on a frame of its own through
  exact per-axis tables (``_hermite_overlap``);
* ``quadrature_overlap``, a tensor-product Gauss-Hermite integrator that
  only ever samples the integrand pointwise, kept as the certification
  oracle for the closed forms.

Packet dictionary.  The GaussianSum components of a state are written over
their distinct packets u_1..u_P (packets equal up to amplitude are one
entry), phi_chi = sum_p C[chi, p] u_p, so that

    h = C G C^dagger,    G[p, q] = integral u_p conj(u_q).

After k frame changes each component carries 2^k terms but the state only
a few distinct packets, so G costs one closed-form evaluation per distinct
packet pair instead of one per term pair.

Closed form for two unit-amplitude phased Gaussian packets (gamma_i =
2/sigma_i^2, bilinear dot products), written about the midpoint
m = (k1 + k2)/2 of the two centers with Delta = k1 - k2:

    A  = gamma1 + gamma2 - i(beta1 - beta2)          (Re A > 0)
    b' = (gamma1 - gamma2) Delta - i(a1 - a2) + 2i(beta1 - beta2) m
    log G = (d/4) log(4 gamma1 gamma2) - (d/2) log A + b'.b'/(4A)
            - (gamma1 + gamma2)|Delta|^2/4 + i(beta1 - beta2)|m|^2
            - i(a1 - a2).m

with log A on the principal branch, single-valued because Re A > 0.
Nothing of size gamma|k|^2 cancels, so the overlap keeps its accuracy
wherever the packets sit (large centers, boosts, masses), and swapping the
two packets conjugates every term exactly.

Hermite route.  Hermite modes and Gaussian packets both factor per axis
(|p|^2 = sum p_i^2), and a packet of width sigma is mode 0 of the frame
(scale sigma, origin at its center) times its phases.  On one axis the
integrand of mode m of a phased frame (s1 = sigma1/2, center k1, linear
phase a1, quadratic phase beta1) against mode n of a Hermite frame
(s2, origin k2) is, in u = p - k2 with delta = k1 - k2 and
g_i = 1/(2 s_i^2),

    h_m((u - delta)/s1) h_n(u/s2) exp(-A u^2 + B u + C) / sqrt(s1 s2)
    A = g1 + g2 - i beta1                            (Re A > 0)
    B = 2 g1 delta + i(2 beta1 k2 - a1)
    C = -g1 delta^2 + i(beta1 k2 - a1) k2

with h_m the polynomial part of the orthonormal Hermite function.  On the
contour u = u* + t/sqrt(A) through the complex saddle u* = B/(2A) (Cauchy:
the integrand is entire with Gaussian decay) the integral is
exp(C + B^2/(4A))/sqrt(A) times exp(-t^2) against a polynomial of degree
m + n, which Gauss-Hermite integrates exactly with ceil((m + n + 1)/2)
nodes.  Written about the Hermite origin, A, B, the saddle and the real
part of the exponent are unchanged when packet, origin and phases move
together, so |overlap| stays accurate at large centers and boosts, and
a chirped packet far from the origin gives its true, vanishing overlap.
The d-dimensional overlap is the coefficient sum of products of the
per-axis tables.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, StructureError, UnsupportedError
from .linalg import hermitian_eigenvalues, two_level_eigenvalues
from .states import (
    ComponentSum,
    GaussianSum,
    GaussianTerm,
    HermiteExpansion,
    HybridState,
    WaveComponent,
    _hermite_table,
    require_unit_norm,
)

MAX_TENSOR_DIM = 4
_PI_QUARTER = np.pi ** (-0.25)
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


def _packet(t: GaussianTerm) -> tuple[float, float, list[float], list[float]]:
    """(gamma, quad_phase, center, linear_phase) of a packet as Python
    floats, the form ``_log_unit_overlap`` reads."""
    return 2.0 / t.width**2, t.quad_phase, t.center.tolist(), t.linear_phase.tolist()


def _log_unit_overlap(p1: tuple, p2: tuple) -> complex:
    """log integral u1 conj(u2) d^d p of two unit-amplitude packets given
    as ``_packet`` tuples, in the midpoint form of the module docstring.

    Scalar arithmetic throughout: for the few axes and the small Gram
    matrices met here it is faster than numpy on tiny arrays."""
    g1, beta1, k1, a1 = p1
    g2, beta2, k2, a2 = p2
    dg = g1 - g2
    dbeta = beta1 - beta2
    bb_re = bb_im = dd = mm = am = 0.0
    for x1, x2, y1, y2 in zip(k1, k2, a1, a2):
        delta = x1 - x2
        mid = 0.5 * (x1 + x2)
        da = y1 - y2
        b_re = dg * delta
        b_im = 2.0 * dbeta * mid - da
        bb_re += b_re * b_re - b_im * b_im
        bb_im += b_re * b_im
        dd += delta * delta
        mm += mid * mid
        am += da * mid
    d = len(k1)
    a_coef = complex(g1 + g2, -dbeta)
    return (
        0.25 * d * math.log(4.0 * g1 * g2)
        - 0.5 * d * cmath.log(a_coef)
        + complex(bb_re, 2.0 * bb_im) / (4.0 * a_coef)
        + complex(-0.25 * (g1 + g2) * dd, dbeta * mm - am)
    )


def gaussian_term_overlap(t1: GaussianTerm, t2: GaussianTerm, d: int | None = None) -> complex:
    """integral t1(p) conj(t2(p)) d^d p, exactly.

    For phase-free unit-amplitude packets this reduces to
    (2 s1 s2/(s1^2+s2^2))^(d/2) exp(-2 q^2/(s1^2+s2^2)) with q = |k1-k2|.
    """
    if d is None:
        d = t1.dimension
    if t1.dimension != d or t2.dimension != d:
        raise StructureError("terms disagree on dimension")
    if not (t1.width > 0.0 and t2.width > 0.0):
        raise DomainError("widths must be positive")
    amp = t1.amplitude * t2.amplitude.conjugate()
    return amp * cmath.exp(_log_unit_overlap(_packet(t1), _packet(t2)))


def dictionary_overlap_matrix(components: Sequence[GaussianSum]) -> np.ndarray:
    """h[i, j] = integral phi_i conj(phi_j) d^d p for GaussianSum components
    of one dimension, as h = C G C^dagger over their shared packet
    dictionary (see the module docstring).

    Terms whose width, quadratic phase, center and linear phase are equal
    bit for bit are one dictionary entry; row i of C, kept sparse, sums the
    amplitudes component i puts on each entry.  G is filled on its upper
    triangle, one closed-form evaluation per distinct packet pair, and
    mirrored by conjugation; so is h, which is Hermitian by construction.
    """
    index: dict[tuple, int] = {}
    packets: list[tuple] = []
    rows: list[dict[int, complex]] = []
    for comp in components:
        row: dict[int, complex] = {}
        for t in comp.terms:
            key = (t.width, t.quad_phase, t.center.tobytes(), t.linear_phase.tobytes())
            p = index.get(key)
            if p is None:
                p = index[key] = len(packets)
                packets.append(_packet(t))
            row[p] = row.get(p, 0.0) + t.amplitude
        rows.append(row)
    gram = [[0j] * len(packets) for _ in packets]
    for p, u in enumerate(packets):
        for q in range(p, len(packets)):
            val = cmath.exp(_log_unit_overlap(u, packets[q]))
            gram[p][q] = val
            gram[q][p] = val.conjugate()
    # scalar sums with the coefficient product formed first: swapping two
    # single-packet components then conjugates their entry exactly, as the
    # term-pair sum did (numpy's array complex multiply may fuse into FMA
    # and leave c conj(c) with a rounding-size imaginary part)
    n = len(rows)
    h = np.empty((n, n), dtype=complex)
    for i, row_i in enumerate(rows):
        for j in range(i, n):
            total = 0j
            for p, cp in row_i.items():
                g_row = gram[p]
                for q, cq in rows[j].items():
                    total += cp * cq.conjugate() * g_row[q]
            h[j, i] = total.conjugate()
            # a self-overlap is real: drop its rounding-size imaginary part
            h[i, j] = total if j > i else total.real
    return h


@lru_cache(maxsize=16)
def _gauss_hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(n)


def _axis_table(s1, k1, a1, beta1, m1, s2, k2, m2) -> list[list[complex]]:
    """T[m][n] = integral phi_m(p) psi_n(p) dp on one axis, m <= m1,
    n <= m2: phi_m = psi_m((p-k1)/s1) exp(-i a1 p + i beta1 p^2)/sqrt(s1)
    and psi_n = psi_n((p-k2)/s2)/sqrt(s2) (real on the real line), by
    Gauss-Hermite on the complex-saddle contour of the module docstring."""
    g1 = 0.5 / (s1 * s1)
    delta = k1 - k2
    a_coef = complex(g1 + 0.5 / (s2 * s2), -beta1)
    b_coef = complex(2.0 * g1 * delta, 2.0 * beta1 * k2 - a1)
    log_c = complex(-g1 * delta * delta, (beta1 * k2 - a1) * k2)
    root = cmath.sqrt(a_coef)
    nodes, weights = _gauss_hermite_rule((m1 + m2) // 2 + 1)
    u = b_coef / (2.0 * a_coef) + nodes / root
    poly1 = _hermite_table(m1, (u - delta) / s1, _PI_QUARTER)
    poly2 = _hermite_table(m2, u / s2, _PI_QUARTER)
    scale = cmath.exp(log_c + b_coef * b_coef / (4.0 * a_coef)) / (root * math.sqrt(s1 * s2))
    return (scale * ((poly1 * weights) @ poly2.T)).tolist()


def _axis_orders(coefficients) -> list[int]:
    return [max(col) for col in zip(*coefficients)]


def _frame_overlap(s1, origin, linear, beta, coefficients, b: HermiteExpansion) -> complex:
    """integral a conj(b) d^d p for a = sum_idx c_idx prod_i phi_{idx_i}
    on the phased frame (s1, origin, linear, beta), as the coefficient sum
    of products of per-axis tables."""
    orders_a = _axis_orders(coefficients)
    orders_b = _axis_orders(b.coefficients)
    s2 = b.gaussian_std
    tables = [
        _axis_table(s1, k1, a1, beta, m1, s2, k2, m2)
        for k1, a1, m1, k2, m2 in zip(
            origin.tolist(), linear.tolist(), orders_a, b.origin.tolist(), orders_b
        )
    ]
    total = 0j
    for idx_a, ca in coefficients.items():
        for idx_b, cb in b.coefficients.items():
            term = ca * cb.conjugate()
            for table, m, n in zip(tables, idx_a, idx_b):
                term *= table[m][n]
            total += term
    return total


def _hermite_overlap(a: GaussianSum | HermiteExpansion, b: HermiteExpansion) -> complex:
    """integral a conj(b) d^d p, exactly, for a Hermite expansion b; each
    packet of a enters as mode 0 of its own phased frame."""
    if isinstance(a, HermiteExpansion):
        return _frame_overlap(
            a.gaussian_std, a.origin, np.zeros(a.dimension), 0.0, a.coefficients, b
        )
    ground = (0,) * a.dimension
    total = 0j
    for t in a.terms:
        total += _frame_overlap(
            0.5 * t.width, t.center, t.linear_phase, t.quad_phase, {ground: t.amplitude}, b
        )
    return total


def _primitive_pieces(comp: WaveComponent) -> list[tuple[complex, object]]:
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
    t2c = t2.conjugate_term()

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


def quadrature_overlap(
    a: WaveComponent, b: WaveComponent, spec: QuadratureSpec = DEFAULT_QUADRATURE
) -> complex:
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


def component_overlap(a: WaveComponent, b: WaveComponent) -> complex:
    """integral a(p) conj(b(p)) d^d p, exactly.

    Gaussian x Gaussian goes through the packet dictionary of the pair;
    Hermite x Hermite on a shared frame is the coefficient inner product;
    every other pair with a Hermite expansion goes through the per-axis
    Hermite route, and ComponentSums by bilinearity.
    """
    if a.dimension != b.dimension:
        raise StructureError("components disagree on dimension")
    if isinstance(a, GaussianSum) and isinstance(b, GaussianSum):
        return complex(dictionary_overlap_matrix((a, b))[0, 1])
    if isinstance(a, HermiteExpansion) and isinstance(b, HermiteExpansion) and a.same_frame(b):
        total = 0.0 + 0.0j
        for idx, c in a.coefficients.items():
            c2 = b.coefficients.get(idx)
            if c2 is not None:
                total += c * np.conj(c2)
        return complex(total)
    if isinstance(a, ComponentSum) or isinstance(b, ComponentSum):
        pa = a.parts if isinstance(a, ComponentSum) else ((1.0 + 0.0j, a),)
        pb = b.parts if isinstance(b, ComponentSum) else ((1.0 + 0.0j, b),)
        total = 0.0 + 0.0j
        for wa, ca in pa:
            for wb, cb in pb:
                total += wa * np.conj(wb) * component_overlap(ca, cb)
        return complex(total)
    if isinstance(b, HermiteExpansion):
        return _hermite_overlap(a, b)
    return _hermite_overlap(b, a).conjugate()


def component_norm_sq(comp: WaveComponent) -> float:
    """Exact squared L2 norm of one component."""
    if isinstance(comp, HermiteExpansion):
        return float(sum(abs(c) ** 2 for c in comp.coefficients.values()))
    if isinstance(comp, GaussianSum):
        return float(dictionary_overlap_matrix((comp,))[0, 0].real)
    return float(component_overlap(comp, comp).real)


def state_inner(a: HybridState, b: HybridState) -> complex:
    """sum_chi integral a_chi(p) conj(b_chi(p)) d^d p."""
    if a.n != b.n or a.d != b.d:
        raise StructureError("states disagree on (n, d)")
    return complex(
        sum(component_overlap(ca, cb) for ca, cb in zip(a.components, b.components))
    )


@dataclass(frozen=True)
class OverlapMatrix:
    """The n x n Hermitian matrix h of component overlaps; for a pure state
    this is the reduced density matrix of the discrete factor.

    Construction validates: hermiticity (within 1e-10, then symmetrized
    exactly), unit trace within 1e-10, Cauchy-Schwarz |h_ij|^2 <= h_ii h_jj
    + 1e-12, and positive semidefiniteness down to eigenvalue -1e-10.
    Together these bound every off-diagonal magnitude by 1/2 (up to the
    tolerances): |h_ij|^2 <= h_ii h_jj <= ((h_ii + h_jj)/2)^2 <= 1/4.
    The eigenvalues of that last check are kept, descending, in
    ``eigenvalues``: the two-level closed form for n = 2, the Jacobi
    eigensolver for n >= 3.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        n = m.shape[0]
        if m.ndim != 2 or m.shape != (n, n):
            raise DomainError(f"expected a square matrix, got shape {m.shape}")
        if np.max(np.abs(m - m.conj().T)) > 1e-10:
            raise DomainError("overlap matrix is not Hermitian within 1e-10")
        m = 0.5 * (m + m.conj().T)
        trace = float(np.trace(m).real)
        if abs(trace - 1.0) > 1e-10:
            raise DomainError(f"trace must be 1, got {trace!r}")
        diag = m.diagonal().real
        for i in range(n):
            for j in range(i + 1, n):
                if abs(m[i, j]) ** 2 > diag[i] * diag[j] + 1e-12:
                    raise DomainError(f"Cauchy-Schwarz violated at ({i},{j})")
        if n == 1:
            values = diag.copy()
        elif n == 2:
            values = two_level_eigenvalues(m)
        else:
            values = hermitian_eigenvalues(m)
        if values[-1] < -1e-10:
            raise DomainError("overlap matrix is not positive semidefinite")
        m.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigenvalues", values)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def overlap_matrix(state: HybridState) -> OverlapMatrix:
    """Assemble h_{chi,chi'} = component_overlap(phi_chi, phi_chi') for a
    normalized state, in one pass: all-Gaussian states through their shared
    packet dictionary, others entry by entry (upper triangle computed,
    mirrored by conjugation).  The norm precondition is read from the
    trace, which is the squared norm of the state."""
    comps = state.components
    if all(isinstance(c, GaussianSum) for c in comps):
        h = dictionary_overlap_matrix(comps)
    else:
        n = state.n
        h = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i, n):
                val = component_overlap(comps[i], comps[j])
                h[i, j] = val
                if j > i:
                    h[j, i] = np.conj(val)
    require_unit_norm(float(np.sqrt(np.trace(h).real)))
    return OverlapMatrix(h)
