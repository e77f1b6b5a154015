"""Overlap integrals h_{chi,chi'} = integral phi_chi conj(phi_chi').

One exact route, ``dictionary_overlap_matrix``.  The components of a state
are written over one dictionary of functions u_1..u_P by the one builder,
``states._Dictionary``, which ``states.combine_components`` also uses:

* phased Gaussian packets, packets equal up to amplitude being one entry;
* Hermite modes, one multi-index on one frame, frames equal bit for bit in
  scale and origin (up to the sign of zero) being one frame.

With phi_chi = sum_p C[chi, p] u_p (the parts of a ComponentSum enter the
row of C through their weights),

    h = C G C^dagger,    G[p, q] = integral u_p conj(u_q),

and G is filled once per unordered pair of entries, then mirrored by
conjugation:

* two packets: the closed form below;
* two modes on one frame: orthonormal, G = delta;
* every other pair: a product of per-axis Hermite tables, each computed
  once per distinct pair of (packet or frame, frame), up to the frame's
  largest mode on each axis.

A state file may repeat a packet within and across components; G costs one
evaluation per distinct pair, not one per term pair.  Frame changes and
Schmidt modes hold each packet or mode once (the same builder).  This is the
bookkeeping of expansions over a non-orthogonal basis with overlap matrix G
(Szabo & Ostlund, Modern Quantum Chemistry, ch. 3).  The test suite
certifies every route against tensor-product quadrature
(``tests/quadrature_oracle.py``).

Packet pairs.  For two unit-amplitude phased Gaussian packets (gamma_i =
2/sigma_i^2, bilinear dot products) with Delta = k1 - k2, written about the
center of their product envelope

    w = (gamma1 k1 + gamma2 k2)/(gamma1 + gamma2)
      = (k1 + k2)/2 + (gamma1 - gamma2) Delta / (2(gamma1 + gamma2)):

    A = gamma1 + gamma2 - i(beta1 - beta2)           (Re A > 0)
    c = 2(beta1 - beta2) w - (a1 - a2)               (real)
    log G = (d/4) log(4 gamma1 gamma2) - (d/2) log A - c.c/(4A)
            - gamma1 gamma2 |Delta|^2/(gamma1 + gamma2)
            + i(beta1 - beta2)|w|^2 - i(a1 - a2).w

with log A on the principal branch, single-valued because Re A > 0.  After
the prefactor both real terms, -Re(c.c/(4A)) and the Delta term, are
<= 0, so nothing of size gamma|k|^2 cancels, however unequal the widths:
the overlap keeps its accuracy wherever the packets sit (large centers,
boosts, masses) and for any pair of widths in range, and swapping the two
packets conjugates every term exactly.  For equal widths w is the midpoint
and gamma1 gamma2/(gamma1 + gamma2) is exactly (gamma1 + gamma2)/4.

Hermite tables.  Hermite modes and Gaussian packets both factor per axis
(|p|^2 = sum p_i^2), and a packet of width sigma is mode 0 of the frame
(scale sigma, origin at its center) times its phases.  On one axis the
integrand of mode m of a phased frame (s1 = sigma1/2, center k1, linear
phase a1, quadratic phase beta1) against mode n of a Hermite frame
(s2, origin k2) is, in u = p - k2 with delta = k1 - k2, g_i = 1/(2 s_i^2),
the envelope center u_w = g1 delta/(g1 + g2) and K = k2 + u_w,

    h_m((u - delta)/s1) h_n(u/s2)
        exp(-A (u - u_w)^2 + i c (u - u_w) + E) / sqrt(s1 s2)
    A = g1 + g2 - i beta1                            (Re A > 0)
    c = 2 beta1 K - a1
    E = -g1 g2 delta^2/(g1 + g2) + i(beta1 K - a1) K

with h_m the polynomial part of the orthonormal Hermite function.  On the
contour u = u_w + ic/(2A) + t/sqrt(A) through the complex saddle (Cauchy:
the integrand is entire with Gaussian decay) the integral is
exp(E - c^2/(4A))/sqrt(A) times exp(-t^2) against a polynomial of degree
m + n, which Gauss-Hermite integrates exactly with ceil((m + n + 1)/2)
nodes.  The real part of the exponent is a sum of terms <= 0, and the
polynomial arguments are formed from the offsets of u_w to either center,
-g2 delta/(g1 + g2) and g1 delta/(g1 + g2), so nothing cancels however
unequal the two scales.  Written about the Hermite origin, A, the saddle
and the real part of the exponent are unchanged when packet, origin and
phases move together, so |overlap| stays accurate at large centers and
boosts, and a chirped packet far from the origin gives its true, vanishing
overlap.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, StructureError
from .linalg import hermitian_eigensystem, two_level_eigenvalues
from .states import (
    GaussianTerm,
    HybridState,
    WaveComponent,
    _Dictionary,
    _hermite_table,
    require_unit_norm,
)

_PI_QUARTER = np.pi ** (-0.25)


def _packet(t: GaussianTerm) -> tuple[float, float, list[float], list[float]]:
    """(gamma, quad_phase, center, linear_phase) of a packet as Python
    floats, the form ``_log_unit_overlap`` reads."""
    return 2.0 / t.width**2, t.quad_phase, t.center.tolist(), t.linear_phase.tolist()


def _log_unit_overlap(p1: tuple, p2: tuple) -> complex:
    """log integral u1 conj(u2) d^d p of two unit-amplitude packets given
    as ``_packet`` tuples, in the envelope-center form of the module
    docstring.

    Scalar arithmetic throughout: for the few axes and the small Gram
    matrices met here it is faster than numpy on tiny arrays."""
    g1, beta1, k1, a1 = p1
    g2, beta2, k2, a2 = p2
    g_sum = g1 + g2
    shift = 0.5 * (g1 - g2) / g_sum
    dbeta = beta1 - beta2
    cc = dd = ww = aw = 0.0
    for x1, x2, y1, y2 in zip(k1, k2, a1, a2):
        delta = x1 - x2
        w = 0.5 * (x1 + x2)
        if shift:  # equal widths: w is the midpoint
            w += shift * delta
        da = y1 - y2
        c = 2.0 * dbeta * w - da
        cc += c * c
        dd += delta * delta
        # terms with an exactly zero prefactor are skipped: far out,
        # w * w overflows and 0 * inf would make the overlap nan
        if dbeta:
            ww += w * w
        if da:
            aw += da * w
    d = len(k1)
    a_coef = complex(g_sum, -dbeta)
    # g1 g2/(g1 + g2) as lo (hi/(g1 + g2)): symmetric in the two packets,
    # no overflow, and exactly (g1 + g2)/4 for equal widths
    lo, hi = (g1, g2) if g1 <= g2 else (g2, g1)
    return (
        0.25 * d * math.log(4.0 * g1 * g2)
        - 0.5 * d * cmath.log(a_coef)
        - cc / (4.0 * a_coef)
        + complex(-lo * (hi / g_sum) * dd, dbeta * ww - aw)
    )


def gaussian_term_overlap(t1: GaussianTerm, t2: GaussianTerm) -> complex:
    """integral t1(p) conj(t2(p)) d^d p, exactly.

    For phase-free unit-amplitude packets this reduces to
    (2 s1 s2/(s1^2+s2^2))^(d/2) exp(-2 q^2/(s1^2+s2^2)) with q = |k1-k2|.
    """
    if t1.dimension != t2.dimension:
        raise StructureError("terms disagree on dimension")
    amp = t1.amplitude * t2.amplitude.conjugate()
    return amp * cmath.exp(_log_unit_overlap(_packet(t1), _packet(t2)))


def dictionary_overlap_matrix(components: Sequence[WaveComponent]) -> np.ndarray:
    """h[i, j] = integral phi_i conj(phi_j) d^d p for components of one
    dimension, as h = C G C^dagger over their shared dictionary of packets
    and Hermite modes (see the module docstring).

    Row i of C, kept sparse, is the ``_Dictionary`` row of component i; G
    is filled up front (``_gram``).  h is filled on its upper triangle and
    mirrored by conjugation, so it is Hermitian by construction.
    """
    dictionary = _Dictionary()
    rows = [dictionary.row(((None, comp),)) for comp in components]
    gram = _gram(dictionary)

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


def _gram(dictionary: _Dictionary) -> list[list[complex]]:
    """G as a list of rows indexed by entry number, each unordered pair
    filled once and mirrored by conjugation: the closed form for packet
    pairs, delta on each frame, and per-axis tables, one set per pair of
    (packet or frame, frame), for the rest."""
    size = len(dictionary.index)
    gram = [[0j] * size for _ in range(size)]
    packets = [(p, _packet(t), t) for p, t in dictionary.packets]
    frames = [  # s, origin, top mode per axis, (entry, multi-index)
        (first.gaussian_std, first.origin.tolist(), [max(m) for m in zip(*(idx for _, idx in modes))], modes)
        for first, modes in dictionary.frames.values()
    ]
    for i, (p, u, _) in enumerate(packets):
        g_row = gram[p]
        for q, v, _ in packets[i:]:
            try:
                val = cmath.exp(_log_unit_overlap(u, v))
            except ValueError:  # cmath refuses an infinite phase: |center| ~ 1e154 and unequal chirps
                raise DomainError("packet overlap phase is not finite") from None
            g_row[q] = val
            gram[q][p] = val.conjugate()
    for f, (s, origin, top, modes) in enumerate(frames):
        for p, _ in modes:
            gram[p][p] = 1.0 + 0.0j
        for p, _, t in packets:
            tables = [
                _axis_table(0.5 * t.width, k1, a1, t.quad_phase, 0, s, k2, m2)
                for k1, a1, k2, m2 in zip(t.center.tolist(), t.linear_phase.tolist(), origin, top)
            ]
            _fill_pairs(gram, tables, [(p, (0,) * len(top))], modes)
        for s2, origin2, top2, modes2 in frames[f + 1:]:
            tables = [
                _axis_table(s, k1, 0.0, 0.0, m1, s2, k2, m2)
                for k1, m1, k2, m2 in zip(origin, top, origin2, top2)
            ]
            _fill_pairs(gram, tables, modes, modes2)
    return gram


def _fill_pairs(gram: list[list[complex]], tables: list, left: list, right: list) -> None:
    """G[p, q] = prod_axis tables[axis][m][n] for every entry (p, m) of
    ``left`` and (q, n) of ``right``, and G[q, p] its conjugate."""
    for p, m in left:
        g_row = gram[p]
        for q, n in right:
            val = math.prod(table[i][j] for table, i, j in zip(tables, m, n))
            g_row[q] = val
            gram[q][p] = val.conjugate()


@lru_cache(maxsize=16)
def _gauss_hermite_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(n)


def _axis_table(s1, k1, a1, beta1, m1, s2, k2, m2) -> list[list[complex]]:
    """T[m][n] = integral phi_m(p) psi_n(p) dp on one axis, m <= m1,
    n <= m2: phi_m = psi_m((p-k1)/s1) exp(-i a1 p + i beta1 p^2)/sqrt(s1)
    and psi_n = psi_n((p-k2)/s2)/sqrt(s2) (real on the real line), by
    Gauss-Hermite on the complex-saddle contour of the module docstring."""
    g1 = 0.5 / (s1 * s1)
    g2 = 0.5 / (s2 * s2)
    g_sum = g1 + g2
    delta = k1 - k2
    u_w = (g1 / g_sum) * delta
    center = k2 + u_w
    c = 2.0 * beta1 * center - a1
    a_coef = complex(g_sum, -beta1)
    root = cmath.sqrt(a_coef)
    lo, hi = (g1, g2) if g1 <= g2 else (g2, g1)
    log_e = complex(-lo * (hi / g_sum) * delta * delta, (beta1 * center - a1) * center)
    scale = cmath.exp(log_e - c * c / (4.0 * a_coef)) / (root * math.sqrt(s1 * s2))
    if scale == 0.0:
        # the envelope underflows, while far from the centers the
        # polynomials may overflow and turn 0 * inf into nan
        return [[0j] * (m2 + 1) for _ in range(m1 + 1)]
    nodes, weights = _gauss_hermite_rule((m1 + m2) // 2 + 1)
    t = 0.5j * c / a_coef + nodes / root  # contour points less u_w
    poly1 = _hermite_table(m1, (t - (g2 / g_sum) * delta) / s1, _PI_QUARTER)
    poly2 = _hermite_table(m2, (t + u_w) / s2, _PI_QUARTER)
    return (scale * ((poly1 * weights) @ poly2.T)).tolist()


def component_overlap(a: WaveComponent, b: WaveComponent) -> complex:
    """integral a(p) conj(b(p)) d^d p, exactly, over the dictionary of the
    pair."""
    if a.dimension != b.dimension:
        raise StructureError("components disagree on dimension")
    return complex(dictionary_overlap_matrix((a, b))[0, 1])


def component_norm_sq(comp: WaveComponent) -> float:
    """Exact squared L2 norm of one component."""
    return float(dictionary_overlap_matrix((comp,))[0, 0].real)


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

    Construction validates: finite entries, hermiticity (within 1e-10,
    then symmetrized exactly), unit trace within 1e-10, Cauchy-Schwarz
    |h_ij|^2 <= h_ii h_jj + 1e-12, and positive semidefiniteness down to
    eigenvalue -1e-10; every gate is written so that NaN fails it.
    Together these bound every off-diagonal magnitude by 1/2 (up to the
    tolerances): |h_ij|^2 <= h_ii h_jj <= ((h_ii + h_jj)/2)^2 <= 1/4.
    The eigenvalues of that last check are kept, descending, in
    ``eigenvalues``: the two-level closed form for n = 2, the Jacobi
    eigensolver for n >= 3, whose eigenvectors are kept in
    ``eigenvectors`` (None for n <= 2).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray | None = field(init=False, repr=False, compare=False)

    @np.errstate(over="ignore", invalid="ignore")  # the gates refuse what overflows
    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        n = m.shape[0]
        if m.ndim != 2 or m.shape != (n, n):
            raise DomainError(f"expected a square matrix, got shape {m.shape}")
        # a non-finite entry makes the deviation nan or inf
        if not np.max(np.abs(m - m.conj().T)) <= 1e-10:
            if not np.all(np.isfinite(m)):
                raise DomainError("overlap matrix entries must be finite")
            raise DomainError("overlap matrix is not Hermitian within 1e-10")
        m = 0.5 * (m + m.conj().T)
        trace = float(np.trace(m).real)
        if not abs(trace - 1.0) <= 1e-10:
            raise DomainError(f"trace must be 1, got {trace!r}")
        diag = m.diagonal().real
        for i in range(n):
            for j in range(i + 1, n):
                if not abs(m[i, j]) ** 2 <= diag[i] * diag[j] + 1e-12:
                    raise DomainError(f"Cauchy-Schwarz violated at ({i},{j})")
        vectors = None
        if n == 1:
            values = diag.copy()
        elif n == 2:
            values = two_level_eigenvalues(m)
        else:
            values, vectors = hermitian_eigensystem(m)
            vectors.setflags(write=False)
        if not values[-1] >= -1e-10:
            raise DomainError("overlap matrix is not positive semidefinite")
        m.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "eigenvectors", vectors)

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def overlap_matrix(state: HybridState) -> OverlapMatrix:
    """Assemble h_{chi,chi'} = integral phi_chi conj(phi_chi') for a
    normalized state in one pass over its dictionary.  The norm
    precondition is read from the trace, which is the squared norm of the
    state."""
    h = dictionary_overlap_matrix(state.components)
    require_unit_norm(float(np.sqrt(np.trace(h).real)))
    return OverlapMatrix(h)
