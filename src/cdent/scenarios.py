"""Named two-level state families and parameter sweeps.

``beam_pair`` builds the separated-Gaussian family (small overlap from
disjoint momentum support); ``shape_pair`` builds the orthogonal-mode
family (zero overlap from cancellation on shared support).  Sweeps drive
each row through the full overlap/eigensolve pipeline so the closed-form
eigenvalue formula acts as a checker, never as the producer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import spectrum
from .errors import DegenerateStateError, DomainError, PreconditionError
from .measures import purity as _purity
from .measures import von_neumann_entropy
from .overlaps import gaussian_term_overlap, overlap_matrix
from .stateio import fmt_float
from .states import GaussianSum, GaussianTerm, HermiteExpansion, HybridState, normalize


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
    one line per row in 17-significant-digit form."""
    lines = [f"{rows[0].parameter},abs_x,lambda_plus,lambda_minus,entropy_bits,purity"]
    for r in rows:
        lines.append(
            ",".join(
                fmt_float(v)
                for v in (r.value, r.abs_x, r.lambda_plus, r.lambda_minus, r.entropy_bits, r.purity)
            )
        )
    return "\n".join(lines) + "\n"


def _check_weights(c0: complex, c1: complex) -> None:
    total = abs(c0) ** 2 + abs(c1) ** 2
    if not abs(total - 1.0) <= 1e-9:
        raise PreconditionError(f"|c0|^2 + |c1|^2 must be 1, got {total!r}")


def beam_pair(c0, c1, k0, k1, s0: float, s1: float) -> HybridState:
    """n=2, d=3 state with one Gaussian packet per level: amplitudes c0, c1,
    centers k0, k1, widths s0, s1, no phases."""
    _check_weights(c0, c1)
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
    _check_weights(c0, c1)
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


def _pipeline_row(
    parameter: str,
    value: float,
    state: HybridState,
    c0: complex,
    c1: complex,
) -> SweepRow:
    h = overlap_matrix(state)
    s = spectrum(h)
    lam = s.eigenvalues
    c0c1 = c0 * np.conj(c1)
    if abs(c0c1) > 1e-15:
        abs_x = float(abs(h.matrix[0, 1] / c0c1))
    else:
        # degenerate weights: fall back to the unit-amplitude packet overlap
        t0, t1 = (c.terms[0]._with_amplitude(1.0) for c in state.components)
        abs_x = float(abs(gaussian_term_overlap(t0, t1)))
    return SweepRow(
        parameter=parameter,
        value=float(value),
        abs_x=abs_x,
        lambda_plus=float(lam[0]),
        lambda_minus=float(lam[1]),
        entropy_bits=von_neumann_entropy(s),
        purity=_purity(s),
    )


def sweep_q(
    c0,
    c1,
    sigma: float,
    q_values,
) -> list[SweepRow]:
    """Rows for equal-width packets with center separation q along z:
    k0 = 0, k1 = q zhat, widths sigma.  The overlap modulus follows
    exp(-q^2/sigma^2); each row is computed through the full pipeline."""
    if not sigma > 0.0:
        raise DomainError("sigma must be positive")
    rows = []
    for q in q_values:
        q = float(q)
        if not np.isfinite(q) or q < 0.0:
            raise DomainError(f"q values must be finite and >= 0, got {q}")
        state = beam_pair(c0, c1, np.zeros(3), np.array([0.0, 0.0, q]), sigma, sigma)
        rows.append(_pipeline_row("q", q, state, complex(c0), complex(c1)))
    return rows


def sweep_width_ratio(
    c0,
    c1,
    sigma0: float,
    ratios,
) -> list[SweepRow]:
    """Rows for coincident centers and widths (sigma0, ratio * sigma0):
    the overlap modulus is (2 r / (1 + r^2))^(3/2)."""
    if not sigma0 > 0.0:
        raise DomainError("sigma0 must be positive")
    rows = []
    for r in ratios:
        r = float(r)
        if not np.isfinite(r) or r <= 0.0:
            raise DomainError(f"ratios must be finite and > 0, got {r}")
        state = beam_pair(c0, c1, np.zeros(3), np.zeros(3), sigma0, r * sigma0)
        rows.append(_pipeline_row("ratio", r, state, complex(c0), complex(c1)))
    return rows
