"""Named two-level state families and parameter sweeps.

``beam_pair`` builds the separated-Gaussian family (small overlap from
disjoint momentum support); ``shape_pair`` builds the orthogonal-mode
family (zero overlap from cancellation on shared support).  Sweep rows are
beam pairs built as no state: each row keys its two packet records with
``states._packet_key`` and shares one packet Gram G from ``overlaps._gram``
between the norm (from G's diagonal, whose entries the sweep computes once
per width) and h = C G C^dagger, which still passes the
``OverlapMatrix`` gates and the 2x2 eigensolve, so the closed form
``measures.gaussian_pair_eigenvalues`` stays a checker, never the producer.
``sweep_csv`` writes the rows through ``stateio.fill_floats``, the one
float rule of every CLI output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import spectrum
from .errors import DegenerateStateError, DomainError
from .measures import _unit_weights
from .overlaps import _gram, _normalized_overlap_matrix, _sandwich
from .stateio import fill_floats
from .states import GaussianSum, GaussianTerm, HermiteExpansion, HybridState, normalize
from .states import _check_width, _finite_amplitude, _inverse_norm, _packet_key


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: the varied parameter, the pipeline overlap modulus
    and the derived spectrum quantities."""

    parameter: str
    value: float
    abs_x: float
    lambda_plus: float
    lambda_minus: float
    entropy_bits: float
    purity: float

    def __post_init__(self):
        if not abs(self.lambda_plus + self.lambda_minus - 1.0) <= 1e-10:
            raise DomainError("lambda_plus + lambda_minus must be 1")
        if not self.lambda_plus >= self.lambda_minus - 1e-12:
            raise DomainError("lambda_plus must be the larger eigenvalue")


def sweep_csv(rows: list[SweepRow]) -> str:
    """Sweep rows as CSV text: a header naming the varied parameter, then
    one line per row, written by ``stateio.fill_floats``."""
    header = f"{rows[0].parameter},abs_x,lambda_plus,lambda_minus,entropy_bits,purity\n"
    fields = [v for r in rows for v in (r.value, r.abs_x, r.lambda_plus, r.lambda_minus, r.entropy_bits, r.purity)]
    return header + fill_floats("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g\n" * len(rows), fields)


def beam_pair(c0, c1, k0, k1, s0: float, s1: float) -> HybridState:
    """n=2, d=3 state with one Gaussian packet per level: amplitudes c0, c1,
    centers k0, k1, widths s0, s1, no phases."""
    _unit_weights(c0, c1)
    k0 = np.array(k0, dtype=float).reshape(-1)
    k1 = np.array(k1, dtype=float).reshape(-1)
    if k0.shape != (3,) or k1.shape != (3,):
        raise DomainError("centers must be 3-vectors")
    return normalize(
        HybridState(
            (
                GaussianSum((GaussianTerm(c0, k0, s0),)),
                GaussianSum((GaussianTerm(c1, k1, s1),)),
            )
        )
    )


def _as_multi_index(m, d: int) -> tuple[int, ...]:
    if isinstance(m, (tuple, list, np.ndarray)):
        idx = tuple(int(v) for v in m)
        if len(idx) != d:
            raise DomainError(f"multi-index {idx} does not match dimension {d}")
        return idx
    # scalar shorthand: excite the last axis
    return (0,) * (d - 1) + (int(m),)


def shape_pair(c0, c1, m0, m1, scale: float = 1.0, origin=None) -> HybridState:
    """n=2 state whose components are two distinct Hermite modes on one
    frame: exactly orthogonal components, so h is diagonal."""
    _unit_weights(c0, c1)
    if origin is None:
        origin = np.zeros(3)
    origin = np.array(origin, dtype=float).reshape(-1)
    d = origin.shape[0]
    i0 = _as_multi_index(m0, d)
    i1 = _as_multi_index(m1, d)
    if i0 == i1:
        raise DegenerateStateError(
            f"modes must differ, got {i0} twice (that is maximal overlap, not shape-like)"
        )
    return normalize(
        HybridState(
            (
                HermiteExpansion(scale, origin, {i0: complex(c0)}),
                HermiteExpansion(scale, origin, {i1: complex(c1)}),
            )
        )
    )


_ORIGIN = [0.0, 0.0, 0.0]


def _beam_rows(parameter: str, c0, c1, sigma0: float, points) -> list[SweepRow]:
    """Rows of the phase-free beam pair of packets (sigma0, center 0) and
    (width, center) per (value, center, width) of ``points``, checked as by
    ``beam_pair``: the two packet records keyed by ``_packet_key``, and one
    G giving both the norm and h = C G C^dagger, as on a ``beam_pair`` state."""
    rows = []
    selfs = {}  # G_pp per width, for this sweep's G
    for value, center, width in points:
        if not rows:  # row-independent checks and products, after the first value's check
            _unit_weights(c0, c1)
            sigma0 = float(sigma0)
            _check_width(sigma0, "width")
            key0 = _packet_key(record0 := (_ORIGIN, sigma0, _ORIGIN, 0.0))
            c0, c1 = complex(c0), complex(c1)
            c0c1 = c0 * np.conj(c1)
            weighted = abs(c0c1) > 1e-15
            w0, w1 = c0 * c0.conjugate(), c1 * c1.conjugate()
        width = float(width)
        _check_width(width, "width")
        packets = [(0, record0)]
        record1 = (center, width, _ORIGIN, 0.0)
        if width != sigma0 or _packet_key(record1) != key0:  # a key starts with the width
            packets.append((1, record1))
        p1 = len(packets) - 1
        gram = _gram(packets, (), selfs)
        # the norm from G's diagonal: the trace of C G C^dagger summed as
        # ``_trace_norm`` sums it; math.sqrt rounds as np.sqrt does, and the
        # sum is >= 0 or nan
        factor = _inverse_norm(math.sqrt((w0 * gram[0][0]).real + (w1 * gram[p1][p1]).real))
        scaled = [{0: _finite_amplitude(c0 * factor)}, {p1: _finite_amplitude(c1 * factor)}]
        h = _normalized_overlap_matrix(_sandwich(scaled, gram))
        s = spectrum(h)
        # degenerate weights: the unit-amplitude packet overlap, G_01 (G_00 if merged)
        abs_x = float(abs(h.matrix[0, 1] / c0c1)) if weighted else abs(gram[0][p1])
        rows.append(SweepRow(parameter, value, abs_x, *s.eigenvalues.tolist(), s.entropy_bits, s.purity))
    return rows


def sweep_q(c0, c1, sigma: float, q_values) -> list[SweepRow]:
    """Rows for equal-width packets with center separation q along z:
    k0 = 0, k1 = q zhat, widths sigma.  The overlap modulus follows
    exp(-q^2/sigma^2)."""
    if not sigma > 0.0:
        raise DomainError("sigma must be positive")

    def points():
        for q in q_values:
            q = float(q)
            if not math.isfinite(q) or q < 0.0:
                raise DomainError(f"q values must be finite and >= 0, got {q}")
            yield q, [0.0, 0.0, q], sigma

    return _beam_rows("q", c0, c1, sigma, points())


def sweep_width_ratio(c0, c1, sigma0: float, ratios) -> list[SweepRow]:
    """Rows for coincident centers and widths (sigma0, ratio * sigma0):
    the overlap modulus is (2 r / (1 + r^2))^(3/2)."""
    if not sigma0 > 0.0:
        raise DomainError("sigma0 must be positive")

    def points():
        for r in ratios:
            r = float(r)
            if not math.isfinite(r) or r <= 0.0:
                raise DomainError(f"ratios must be finite and > 0, got {r}")
            yield r, _ORIGIN, r * sigma0

    return _beam_rows("ratio", c0, c1, sigma0, points())
