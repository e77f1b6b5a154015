"""Per-axis contour quadrature on the state-file schema: the certification oracle.

``quadrature_overlap(a, b)`` is the integral of a(p) conj(b(p)) over R^d for
two components in the form of schema version 1: the dicts that
``stateio.component_to_dict`` writes (a ``gaussian_sum`` or a ``hermite``
entry of a state file), or a formal sum given as a list of (weight, dict)
pairs.  It reads nothing but those numbers and imports nothing from cdent,
so no fault of the library reaches both sides of a check.

Every primitive, a packet term or one multi-index of a Hermite expansion,
is a product over the axes of factors

    h_m((p-k)/s) / sqrt(s) * exp(-(p-k)^2/(2 s^2) - i a p + i beta p^2),

where h_m is the polynomial part of the orthonormal Hermite function
psi_m(u) = h_m(u) exp(-u^2/2).  A packet of width sigma is m = 0 with
s = sigma/2 (its prefactor (pi sigma^2/4)^(-1/4) is h_0/sqrt(s)); a mode
has the frame's s = scale/2 and origin k, and a = beta = 0.  So a pair
overlap is a product of d integrals of a polynomial P times a Gaussian.
Written about the pair's real envelope center c, p = c + q, the integrand
is P exp(-A q^2 + B q + C), and shifting the real line onto the saddle
contour q = mu + t/sqrt(A), mu = B/(2A) (Cauchy: the integrand is entire
and decays inside the sector) gives

    exp(B^2/(4A) + C) / sqrt(A) * sum_j w_j P(c + mu + t_j/sqrt(A))

with the Gauss-Hermite rule (t_j, w_j) of floor(deg P / 2) + 1 nodes,
exact for P's degree m1 + m2: the input sets the node count.  Forming the
exponent about c rather than p = 0 keeps its rounding from growing with
g |k|^2.  Not collected by pytest (no ``test_`` prefix); test modules
import it by name.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np

_PI_QUARTER = math.pi**-0.25


@lru_cache(maxsize=None)
def _hermgauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.hermite.hermgauss(n)


def _hermite(m: int, u: np.ndarray) -> np.ndarray:
    """h_m(u) by the normalized three-term recurrence, at complex points u."""
    prev, cur = np.zeros_like(u), np.full_like(u, _PI_QUARTER)
    for j in range(m):
        prev, cur = cur, math.sqrt(2.0 / (j + 1)) * u * cur - math.sqrt(j / (j + 1)) * prev
    return cur


def _primitives(comp) -> list[tuple[complex, list[tuple]]]:
    """(weight, axis factors) of each primitive; a factor is (s, k, a, beta, m)."""
    if isinstance(comp, list):
        return [(w * v, axes) for w, part in comp for v, axes in _primitives(part)]
    if comp["type"] == "gaussian_sum":
        return [(complex(*t["amplitude"]),
                 [(0.5 * t["width"], k, a, t.get("quad_phase", 0.0), 0)
                  for k, a in zip(t["center"], t.get("linear_phase") or [0.0] * len(t["center"]))])
                for t in comp["terms"]]
    s = 0.5 * comp["scale"]
    return [(complex(*c["value"]), [(s, k, 0.0, 0.0, m) for k, m in zip(comp["origin"], c["index"])])
            for c in comp["coefficients"]]


def _axis(f1: tuple, f2: tuple) -> complex:
    """The integral of f1(p) conj(f2(p)) over the real line, on the saddle contour."""
    (s1, k1, a1, b1, m1), (s2, k2, a2, b2, m2) = f1, f2
    g1, g2 = 0.5 / s1**2, 0.5 / s2**2
    c = (g1 * k1 + g2 * k2) / (g1 + g2)
    big_a = complex(g1 + g2, b2 - b1)
    big_b = complex(2.0 * (g1 * (k1 - c) + g2 * (k2 - c)), (a2 - 2.0 * b2 * c) - (a1 - 2.0 * b1 * c))
    big_c = complex(-g1 * (k1 - c) ** 2 - g2 * (k2 - c) ** 2, (a2 - a1) * c + (b1 - b2) * c * c)
    t, w = _hermgauss((m1 + m2) // 2 + 1)
    root = cmath.sqrt(big_a)
    q = big_b / (2.0 * big_a) + t / root
    poly = _hermite(m1, (q + (c - k1)) / s1) * _hermite(m2, (q + (c - k2)) / s2)
    return cmath.exp(big_b * big_b / (4.0 * big_a) + big_c) / (root * math.sqrt(s1 * s2)) * complex(w @ poly)


def quadrature_overlap(a, b) -> complex:
    """The integral of a(p) conj(b(p)) d^d p: over each pair of primitives,
    w_a conj(w_b) times the product of the per-axis contour integrals."""
    total = 0j
    for wa, axes_a in _primitives(a):
        for wb, axes_b in _primitives(b):
            if len(axes_a) != len(axes_b):
                raise ValueError("components disagree on dimension")
            total += wa * wb.conjugate() * math.prod(_axis(x, y) for x, y in zip(axes_a, axes_b))
    return total
