"""Overlap integrals h_{chi,chi'} = integral phi_chi conj(phi_chi').

One exact route, ``dictionary_overlap_matrix``; ``OverlapMatrix`` gates and
solves h by ``linalg._gate_and_solve``.  The components of a state are
written over one dictionary of functions u_1..u_P by the one builder,
``states._Dictionary``, which ``states.combine_components`` also uses:

* phased Gaussian packets, terms of one ``states._packet_key`` being one entry;
* Hermite modes, one multi-index on one frame, frames equal bit for bit in
  scale and origin (up to the sign of zero) being one frame.

With phi_chi = sum_p C[chi, p] u_p (the parts of a ComponentSum enter the
row of C through their weights),

    h = C G C^dagger,    G[p, q] = integral u_p conj(u_q),

and ``_gram``, the one builder of G (also of frame changes and sweep rows),
fills it once per unordered pair of entries, mirrored by conjugation:

* a packet with itself: the closed form of a packet of its width at the
  origin (``_self_overlap``), once per width within one library call;
* two packets: the closed form below;
* two modes on one frame: orthonormal, G = delta;
* every other pair: a product of per-axis Hermite tables, each computed
  once per distinct pair of (phased frame, Hermite frame), a packet being
  mode 0 of its phased frame, up to the frame's largest mode on each axis.

A state file may repeat a packet within and across components; G costs one
evaluation per distinct pair, not one per term pair.  Frame changes and
Schmidt modes hold each packet or mode once (the same keying).  This is the
bookkeeping of expansions over a non-orthogonal basis with overlap matrix G
(Szabo & Ostlund, Modern Quantum Chemistry, ch. 3).  The test suite
certifies every route against a per-axis contour quadrature on the
state-file schema (``tests/quadrature_oracle.py``).

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
from .linalg import _gate_and_solve
from .states import (
    GaussianTerm,
    HybridState,
    WaveComponent,
    _Dictionary,
    _hermite_table,
    _packet,
    _trace_norm,
    require_unit_norm,
)

_PI_QUARTER = np.pi ** (-0.25)
_INF = math.inf


def _log_unit_overlap(p1: tuple, p2: tuple) -> complex:
    """log integral u1 conj(u2) d^d p of two unit-amplitude packets given
    as ``states._packet`` records, in the envelope-center form of the
    module docstring.

    Scalar arithmetic throughout: for the few axes and the small Gram
    matrices met here it is faster than numpy on tiny arrays."""
    k1, width1, a1, beta1 = p1
    k2, width2, a2, beta2 = p2
    g1 = 2.0 / width1**2
    g2 = 2.0 / width2**2
    g_sum = g1 + g2
    shift = 0.5 * (g1 - g2) / g_sum
    dbeta = beta1 - beta2
    cc = dd = ww = aw = 0.0
    for x1, x2, y1, y2 in zip(k1, k2, a1, a2):
        delta = x1 - x2
        w = 0.5 * (x1 + x2)
        if abs(w) == _INF:  # far out the sum overflows: halve first
            w = 0.5 * x1 + 0.5 * x2
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
    a_log = a_coef
    if not 2.0**-64 <= g_sum < 2.0**63:
        # widths far from 1: the prefactor's two logarithms are taken of
        # gamma1, gamma2 and A scaled by one power of two, so they stay small
        s = math.ldexp(1.0, -math.frexp(g_sum)[1])
        g1, g2, a_log = g1 * s, g2 * s, complex(g_sum * s, -dbeta * s)
    log_g = (
        0.25 * d * math.log(4.0 * g1 * g2)
        - 0.5 * d * cmath.log(a_log)
        - cc / (4.0 * a_coef)
        + complex(-lo * (hi / g_sum) * dd, dbeta * ww - aw)
    )
    if dd == _INF and log_g != log_g:  # |Delta|^2 overflows, G is 0, and 0 * inf made it nan
        return complex(-_INF, 0.0)
    return log_g


def _self_overlap(width: float, d: int) -> complex:
    """G_pp of a packet of ``width`` in d dimensions, as ``_gram`` stores it.

    Paired with itself a packet has Delta = 0 and no phase differences, so
    c = 0 and log G = (d/4) log 4 gamma^2 - (d/2) log 2 gamma: center and
    phases drop out bit for bit, and a phase-free packet at the origin
    gives the value.  The stored entry is the conjugate of the exp, which
    the mirror assignment writes last."""
    u = ([0.0] * d, width, [0.0] * d, 0.0)
    return cmath.exp(_log_unit_overlap(u, u)).conjugate()


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
    is filled up front (``_gram``), and h on its upper triangle, mirrored by
    conjugation (``_sandwich``), so it is Hermitian by construction.
    """
    h = _overlap_rows(_keyed(components))
    return np.array(h, dtype=complex).reshape(len(h), len(h))


def _keyed(components: Sequence[WaveComponent]) -> tuple[_Dictionary, list[dict[int, complex]]]:
    """Components of one dimension keyed once: their ``_Dictionary`` and
    their rows of C over it."""
    if len({comp.dimension for comp in components}) > 1:
        raise StructureError("components disagree on dimension")
    dictionary = _Dictionary()
    return dictionary, [dictionary.row(((None, comp),)) for comp in components]


def _overlap_rows(keyed: tuple, selfs: dict | None = None) -> list[list[complex]]:
    """``dictionary_overlap_matrix`` of ``_keyed`` components as rows of
    Python complex; ``selfs`` as in ``_gram``."""
    dictionary, rows = keyed
    return _sandwich(rows, _gram(dictionary.packets, dictionary.frames.values(), selfs))


def _sandwich(rows: list[dict[int, complex]], gram: list[list[complex]]) -> list[list[complex]]:
    """h = C G C^dagger as rows of Python complex for rows of C as {entry:
    coefficient}, the upper triangle mirrored by conjugation.  The product
    c conj(c') comes first, so swapping two single-packet components
    conjugates their entry exactly (numpy may fuse it into an FMA)."""
    n = len(rows)
    h = [[0j] * n for _ in range(n)]
    for i, row_i in enumerate(rows):
        for j in range(i, n):
            total = 0j
            for p, cp in row_i.items():
                g_row = gram[p]
                for q, cq in rows[j].items():
                    total += cp * cq.conjugate() * g_row[q]
            h[j][i] = total.conjugate()
            # a self-overlap is real: drop its rounding-size imaginary part
            h[i][j] = total if j > i else complex(total.real)
    return h


def _gram(packets: list, frames=(), selfs: dict | None = None) -> list[list[complex]]:
    """G as a list of rows indexed by entry number, for packets given as
    (entry, ``states._packet`` record) and Hermite frames as (first
    expansion, [(entry, multi-index)]), each unordered pair filled once and
    mirrored by conjugation: the closed form for packet pairs, delta on each
    frame, and per-axis tables for the rest, one set per pair of (phased
    frame, Hermite frame), a packet entering as mode 0 of its phased frame.

    The packet diagonal takes one ``_self_overlap`` per distinct width from
    ``selfs`` ({width: G_pp} at one d), filled as needed; a caller passes
    one dict to every G of one library call, and no further."""
    size = len(packets) + sum(len(modes) for _, modes in frames) if frames else len(packets)
    gram = [[0j] * size for _ in range(size)]
    if selfs is None:
        selfs = {}
    for i, (p, u) in enumerate(packets):
        g_row = gram[p]
        val = selfs.get(width := u[1])
        if val is None:
            val = selfs[width] = _self_overlap(width, len(u[0]))
        g_row[p] = val
        for q, v in packets[i + 1:]:
            try:
                val = cmath.exp(_log_unit_overlap(u, v))
            except ValueError:  # cmath refuses an infinite phase: |center| ~ 1e154 and unequal chirps
                raise DomainError("packet overlap phase is not finite") from None
            g_row[q] = val
            gram[q][p] = val.conjugate()
    if not frames:
        return gram
    hermite = []  # s, origin, linear phase, quad phase, top mode per axis, [(entry, multi-index)]
    for first, modes in frames:
        hermite.append((first.gaussian_std, first.origin.tolist(), [0.0] * first.dimension, 0.0,
                        [max(m) for m in zip(*(idx for _, idx in modes))], modes))
        for p, _ in modes:
            gram[p][p] = 1.0 + 0.0j
    phased = [(0.5 * width, center, linear, quad, [0] * len(center), [(p, (0,) * len(center))])
              for p, (center, width, linear, quad) in packets] + hermite
    for f, (s1, origin1, linear, quad, top1, left) in enumerate(phased):
        for s2, origin2, _, _, top2, right in hermite[max(0, f + 1 - len(packets)):]:
            tables = [
                _axis_table(s1, k1, a1, quad, m1, s2, k2, m2)
                for k1, a1, m1, k2, m2 in zip(origin1, linear, top1, origin2, top2)
            ]
            for p, m in left:
                g_row = gram[p]
                for q, n in right:
                    val = math.prod(table[i][j] for table, i, j in zip(tables, m, n))
                    g_row[q] = val
                    gram[q][p] = val.conjugate()
    return gram


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


@dataclass(frozen=True)
class OverlapMatrix:
    """The n x n Hermitian matrix h of component overlaps; for a pure state
    this is the reduced density matrix of the discrete factor.

    Construction is ``linalg._gate_and_solve`` on a batch of one: Hermitian,
    unit trace, Cauchy-Schwarz, PSD, eigenvalues in [0, 1] summing to 1
    (within the tolerances), NaN failing each; so |h_ij|^2 <= h_ii h_jj <=
    ((h_ii + h_jj)/2)^2 <= 1/4.  ``matrix`` is the symmetrized h;
    ``eigenvalues``, descending, are those of the PSD gate, for n >= 3 the
    solve's own frozen view, whose eigenvectors ``eigenvectors`` keeps
    (None for n <= 2).
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        [(rows, values, vectors, _)] = _gate_and_solve((self.matrix,))
        m, values = np.array(rows, dtype=complex), np.asarray(values)  # for n >= 3 the solve's own view
        for a in (m, values) if vectors is None else (m, values, vectors):
            a.setflags(write=False)
        self.__dict__.update(matrix=m, eigenvalues=values, eigenvectors=vectors)  # frozen: past __setattr__

    @property
    def n(self) -> int:
        return self.matrix.shape[0]


def overlap_matrix(state: HybridState) -> OverlapMatrix:
    """Assemble h_{chi,chi'} = integral phi_chi conj(phi_chi') for a
    normalized state in one pass over its dictionary; its trace, the squared
    norm, passes the norm gate first."""
    require_unit_norm(_trace_norm(h := _overlap_rows(_keyed(state.components))))
    return OverlapMatrix(h)
