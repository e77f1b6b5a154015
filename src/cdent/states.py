"""Hybrid discrete-continuous pure states.

A state is a vector in C^n tensor L^2(R^d), stored as n component wave
functions over d momentum dimensions.  Components belong to parametric
families with exact overlap integrals:

* ``GaussianSum`` -- a finite sum of phased Gaussian packets,
* ``HermiteExpansion`` -- a truncated expansion in orthonormal Hermite
  modes sharing one scale and origin,
* ``ComponentSum`` -- a formal linear combination of the above (produced
  internally, e.g. by Schmidt modes of mixed-representation states).

One builder, ``_Dictionary``, writes linear combinations of components as
amplitudes over packets and Hermite modes, and alone decides which terms
are one entry: ``overlaps`` reads its rows as C in h = C G C^dagger, and
``combine_components`` holds each packet or mode once, whatever the mix.

Width convention: a packet of ``width`` sigma centered at k has amplitude
proportional to exp(-2(p-k)^2 / sigma^2), so two equal-width packets whose
centers are separated by q overlap by exp(-q^2/sigma^2).  Equivalently the
underlying Gaussian standard deviation is sigma/2 per axis.  The same rule
applies to ``HermiteExpansion``: mode 0 at scale sigma equals the unit
Gaussian packet of width sigma.  Natural units, hbar = 1.

Widths and scales lie in [WIDTH_MIN, WIDTH_MAX] = [1e-76, 1e76].  There
gamma = 2/sigma^2 lies in [2e-152, 2e152], so every product of two of them
that an overlap forms (4 gamma1 gamma2 of two packets, the Gaussian factors
of a Hermite table) stays finite and nonzero for any pair of packets and
frames.  Hermite multi-index entries lie in [0, HERMITE_INDEX_MAX] = [0, 256].
The constructors refuse anything outside.

Everything here is an immutable value; all operations are pure functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import DegenerateStateError, DomainError, PreconditionError, StructureError

NORM_TOL = 1e-12         # guaranteed after normalize()
NORM_PRECONDITION = 1e-9  # gate for operations that require a normalized state
WIDTH_MIN = 1e-76        # range of packet widths and Hermite scales
WIDTH_MAX = 1e76
HERMITE_INDEX_MAX = 256  # a mode pair then needs <= 257 Gauss-Hermite nodes; numpy's rule is finite to 374


def _check_width(value: float, name: str) -> None:
    if not 0.0 < value < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {value}")
    if not WIDTH_MIN <= value <= WIDTH_MAX:
        raise DomainError(f"{name} must be in [{WIDTH_MIN:g}, {WIDTH_MAX:g}], got {value}")


def _frozen_vector(x, d: int | None = None, name: str = "vector") -> np.ndarray:
    v = np.array(x, dtype=float).reshape(-1)
    if d is not None and v.shape != (d,):
        raise StructureError(f"{name} must have length {d}, got {v.shape[0]}")
    if not all(map(math.isfinite, v.tolist())):
        raise DomainError(f"{name} must be finite, got {v.tolist()}")
    v.setflags(write=False)
    return v


@dataclass(frozen=True)
class GaussianTerm:
    """One phased Gaussian packet.

    amplitude * (pi sigma^2 / 4)^(-d/4)
        * exp(-2|p-center|^2/sigma^2)
        * exp(-i linear_phase . p) * exp(i quad_phase |p|^2)

    The prefactor makes the squared L2 norm equal |amplitude|^2; the phase
    factors do not change the norm.
    """

    amplitude: complex
    center: np.ndarray
    width: float
    linear_phase: np.ndarray | None = None
    quad_phase: float = 0.0

    def __post_init__(self):
        center = _frozen_vector(self.center, name="center")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "amplitude", complex(self.amplitude))
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "quad_phase", float(self.quad_phase))
        if not cmath.isfinite(self.amplitude):
            raise DomainError(f"amplitude must be finite, got {self.amplitude}")
        _check_width(self.width, "width")
        if not math.isfinite(self.quad_phase):
            raise DomainError(f"quad_phase must be finite, got {self.quad_phase}")
        if self.linear_phase is None:
            lp = np.zeros(center.shape[0])
            lp.setflags(write=False)
            object.__setattr__(self, "linear_phase", lp)
        else:
            object.__setattr__(
                self,
                "linear_phase",
                _frozen_vector(self.linear_phase, center.shape[0], "linear_phase"),
            )

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def scaled(self, factor: complex) -> "GaussianTerm":
        """The same packet with amplitude * factor."""
        return self._with_amplitude(self.amplitude * factor)

    def _with_amplitude(self, amplitude: complex) -> "GaussianTerm":
        """The same packet with a new amplitude, checked, since a product or
        sum of finite numbers can be infinite; the other fields are shared."""
        amplitude = complex(amplitude)
        if not cmath.isfinite(amplitude):
            raise DomainError(f"amplitude must be finite, got {amplitude}")
        term = object.__new__(GaussianTerm)
        term.__dict__.update(self.__dict__, amplitude=amplitude)
        return term

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Values at an (N, d) array of points (complex points allowed;
        the expression is the analytic continuation).  Exactly 0 where the
        envelope exp(-2|p-center|^2/sigma^2) underflows."""
        gamma = 2.0 / self.width**2
        # far out |p|^2 overflows and the phases turn 0*inf into nan; a
        # narrow packet in high dimension peaks above the float range, and
        # its prefactor is inf (numpy's power, where Python's would raise)
        with np.errstate(over="ignore", invalid="ignore"):
            pref = np.float64(2.0 * gamma / np.pi) ** (0.25 * self.dimension)
            dp = pts - self.center
            envelope = -gamma * np.sum(dp * dp, axis=-1)
            expo = (
                envelope
                - 1j * (pts @ self.linear_phase)
                + 1j * self.quad_phase * np.sum(pts * pts, axis=-1)
            )
            vals = self.amplitude * pref * np.exp(expo)
        return np.where(np.exp(envelope.real) == 0.0, 0.0, vals)


def _packet_key(t: GaussianTerm) -> tuple:
    """Terms with equal keys are one packet up to amplitude (bit-equal fields)."""
    return (t.width, t.quad_phase, t.center.tobytes(), t.linear_phase.tobytes())


@dataclass(frozen=True)
class GaussianSum:
    """A wave-function component: finite sum of phased Gaussian packets."""

    terms: tuple[GaussianTerm, ...]

    def __post_init__(self):
        terms = tuple(self.terms)
        if not terms:
            raise StructureError("GaussianSum needs at least one term")
        d = terms[0].dimension
        for t in terms:
            if t.dimension != d:
                raise StructureError("all terms of a component must share one dimension")
        object.__setattr__(self, "terms", terms)

    @property
    def dimension(self) -> int:
        return self.terms[0].dimension

    def scaled(self, factor: complex) -> "GaussianSum":
        return GaussianSum(tuple(t.scaled(factor) for t in self.terms))

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        out = self.terms[0].eval_many(pts)
        for t in self.terms[1:]:
            out = out + t.eval_many(pts)
        return out


def _hermite_table(mmax: int, u: np.ndarray, ground) -> np.ndarray:
    """Rows m = 0..mmax of the orthonormal Hermite recurrence started from
    ``ground``: psi_m(u) for ground = pi^(-1/4) exp(-u^2/2), and the
    polynomial parts h_m(u) = psi_m(u) exp(u^2/2) for ground = pi^(-1/4).

    Recurrence: psi_{m+1} = sqrt(2/(m+1)) u psi_m - sqrt(m/(m+1)) psi_{m-1}.
    Works elementwise on arrays (complex u allowed).
    """
    table = np.empty((mmax + 1,) + u.shape, dtype=complex)
    table[0] = ground
    if mmax >= 1:
        table[1] = np.sqrt(2.0) * u * table[0]
    for m in range(1, mmax):
        table[m + 1] = np.sqrt(2.0 / (m + 1)) * u * table[m] - np.sqrt(m / (m + 1)) * table[m - 1]
    return table


@dataclass(frozen=True)
class HermiteExpansion:
    """Component expanded in orthonormal Hermite modes.

    Basis functions factor per axis: products of psi_m((p_i - origin_i)/s)
    with s = scale/2 (see the module width convention), normalized so the
    squared L2 norm equals the squared norm of the coefficient vector.
    Coefficients map d-dimensional multi-indices to complex numbers.
    """

    scale: float
    origin: np.ndarray
    coefficients: Mapping[tuple[int, ...], complex]

    def __post_init__(self):
        object.__setattr__(self, "scale", float(self.scale))
        _check_width(self.scale, "scale")
        origin = _frozen_vector(self.origin, name="origin")
        object.__setattr__(self, "origin", origin)
        d = origin.shape[0]
        coeffs: dict[tuple[int, ...], complex] = {}
        for key, val in dict(self.coefficients).items():
            idx = tuple(int(m) for m in (key if isinstance(key, (tuple, list)) else (key,)))
            if len(idx) != d:
                raise StructureError(f"multi-index {idx} does not match dimension {d}")
            if any(m < 0 for m in idx):
                raise StructureError(f"multi-index {idx} has a negative entry")
            if any(m > HERMITE_INDEX_MAX for m in idx):
                raise DomainError(f"multi-index {idx} has an entry above {HERMITE_INDEX_MAX}")
            val = complex(val)
            if not cmath.isfinite(val):
                raise DomainError(f"coefficient {idx} must be finite, got {val}")
            coeffs[idx] = coeffs.get(idx, 0.0) + val
        if not coeffs:
            raise StructureError("HermiteExpansion needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def dimension(self) -> int:
        return self.origin.shape[0]

    @property
    def gaussian_std(self) -> float:
        return 0.5 * self.scale

    def scaled(self, factor: complex) -> "HermiteExpansion":
        return HermiteExpansion(
            self.scale, self.origin, {k: v * factor for k, v in self.coefficients.items()}
        )

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Values at an (N, d) array of real points.  Exactly 0 where the
        envelope exp(-u^2/2) underflows on some axis."""
        s = self.gaussian_std
        mmax = max(max(idx) for idx in self.coefficients)
        # far out u^2 overflows and the recurrence turns 0*inf into nan
        with np.errstate(over="ignore", invalid="ignore"):
            u = (pts - self.origin) / s
            envelope = np.exp(-0.5 * u * u)
            table = _hermite_table(mmax, u, np.pi ** (-0.25) * envelope)  # (mmax+1, N, d)
        out = np.zeros(pts.shape[0], dtype=complex)
        for idx, c in self.coefficients.items():
            factor = table[idx[0], :, 0].copy()
            for axis in range(1, len(idx)):
                factor *= table[idx[axis], :, axis]
            out += c * factor
        with np.errstate(over="ignore", invalid="ignore"):
            out = out * np.float64(s) ** (-0.5 * self.dimension)
        return np.where(np.any(envelope == 0.0, axis=-1), 0.0, out)


@dataclass(frozen=True)
class ComponentSum:
    """Formal linear combination of components; overlaps stay exact by
    bilinearity.  Produced by Schmidt modes of mixed-representation states."""

    parts: tuple[tuple[complex, "WaveComponent"], ...]

    def __post_init__(self):
        flat: list[tuple[complex, WaveComponent]] = []
        for weight, comp in self.parts:
            w = complex(weight)
            if isinstance(comp, ComponentSum):
                flat.extend((w * w2, c2) for w2, c2 in comp.parts)
            else:
                flat.append((w, comp))
        if not flat:
            raise StructureError("ComponentSum needs at least one part")
        d = flat[0][1].dimension
        for _, comp in flat:
            if comp.dimension != d:
                raise StructureError("all parts of a component must share one dimension")
        object.__setattr__(self, "parts", tuple(flat))

    @property
    def dimension(self) -> int:
        return self.parts[0][1].dimension

    def scaled(self, factor: complex) -> "ComponentSum":
        return ComponentSum(tuple((w * factor, c) for w, c in self.parts))

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        out = np.zeros(pts.shape[0], dtype=complex)
        for w, comp in self.parts:
            out += w * comp.eval_many(pts)
        return out


WaveComponent = Union[GaussianSum, HermiteExpansion, ComponentSum]


class _Dictionary:
    """The packets and Hermite modes a set of components is written over,
    numbered in order of first appearance.  Terms with one ``_packet_key``
    are one packet; modes are one when their multi-index and frame are, and
    frames are one when scale and origin bits are (origins -0.0 and 0.0 too)."""

    def __init__(self):
        self.index: dict[tuple, int] = {}  # packet key or (frame key, multi-index) -> entry
        self.packets: list[tuple[int, GaussianTerm]] = []  # (entry, first term)
        # frame key -> (first expansion on the frame, [(entry, multi-index)])
        self.frames: dict[tuple, tuple[HermiteExpansion, list]] = {}

    def row(self, weighted) -> dict[int, complex]:
        """{entry: amplitude} of the sum of w * component over (w, component)
        pairs, w None taking the amplitudes as they are, a ComponentSum's
        parts entering through their weights; amplitudes sum in term order."""
        row: dict[int, complex] = {}
        for w, comp in weighted:
            for w2, part in comp.parts if isinstance(comp, ComponentSum) else ((None, comp),):
                weight = w if w2 is None else w2 if w is None else w * w2
                if isinstance(part, GaussianSum):
                    entries = ((_packet_key(t), t.amplitude, t) for t in part.terms)
                    found = self.packets
                else:
                    frame = (part.scale, (part.origin + 0.0).tobytes())  # + 0.0: -0.0 is 0.0
                    entries = (((frame, idx), c, idx) for idx, c in part.coefficients.items())
                    found = self.frames.setdefault(frame, (part, []))[1]
                for key, amp, item in entries:
                    p = self.index.get(key)
                    if p is None:
                        p = self.index[key] = len(self.index)
                        found.append((p, item))
                    amp = amp if weight is None else amp * weight
                    row[p] = amp if (prev := row.get(p)) is None else prev + amp
        return row


def combine_components(weights, components) -> WaveComponent:
    """Linear combination of components over one ``_Dictionary`` row, so each
    packet or mode is held once: one GaussianSum of the packets and one
    HermiteExpansion per frame, or, if there are several, their ComponentSum."""
    pairs = [(complex(w), c) for w, c in zip(weights, components) if w != 0.0]
    if not pairs:
        pairs = [(complex(weights[0]), components[0])]
    dictionary = _Dictionary()
    row = dictionary.row(pairs)
    parts: list[WaveComponent] = []
    if dictionary.packets:
        parts.append(GaussianSum(tuple(t._with_amplitude(row[p]) for p, t in dictionary.packets)))
    for first, modes in dictionary.frames.values():
        parts.append(HermiteExpansion(first.scale, first.origin, {idx: row[p] for p, idx in modes}))
    return parts[0] if len(parts) == 1 else ComponentSum(tuple((1.0, part) for part in parts))


@dataclass(frozen=True)
class HybridState:
    """Pure state on C^n tensor L^2(R^d): one wave component per discrete
    level chi = 0..n-1.  The spin-component eigenvalue attached to level chi
    is (n-1)/2 - chi."""

    components: tuple[WaveComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise StructureError("state needs at least one component")
        d = comps[0].dimension
        for c in comps:
            if c.dimension != d:
                raise StructureError(
                    f"components disagree on dimension: {c.dimension} != {d}"
                )
        object.__setattr__(self, "components", comps)

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def d(self) -> int:
        return self.components[0].dimension


def norm(state: HybridState) -> float:
    """sqrt(sum_chi integral |phi_chi|^2), via the exact overlaps of
    ``overlaps.component_norm_sq``."""
    from . import overlaps  # deferred: overlaps imports the types above

    total = 0.0
    for comp in state.components:
        total += overlaps.component_norm_sq(comp)
    return float(np.sqrt(total))


def normalize(state: HybridState) -> HybridState:
    """Same state scaled to unit norm.  Raises DegenerateStateError on a
    zero-norm state."""
    n = norm(state)
    if n < 1e-300:
        raise DegenerateStateError("cannot normalize a zero-norm state")
    factor = 1.0 / n
    return HybridState(tuple(c.scaled(factor) for c in state.components))


def require_unit_norm(value: float) -> None:
    """Raise PreconditionError unless a state norm lies within
    NORM_PRECONDITION of 1 (NaN fails too)."""
    dev = abs(value - 1.0)
    if not dev <= NORM_PRECONDITION:
        raise PreconditionError(f"state is not normalized: |norm-1| = {dev:.3e} > {NORM_PRECONDITION:g}")


def check_normalized(state: HybridState) -> None:
    require_unit_norm(norm(state))


def evaluate(state: HybridState, chi: int, p) -> complex:
    """Pointwise value phi_chi(p)."""
    chi = int(chi)
    if not 0 <= chi < state.n:
        raise StructureError(f"component index {chi} out of range for n={state.n}")
    pt = np.array(p, dtype=float).reshape(-1)
    if pt.shape[0] != state.d:
        raise StructureError(f"momentum vector has length {pt.shape[0]}, expected {state.d}")
    return complex(state.components[chi].eval_many(pt[None, :])[0])


def spin_expectation(state: HybridState) -> float:
    """Expectation of the discrete level observable with eigenvalues
    (n-1)/2 - chi, from the diagonal overlaps.  Requires a normalized state."""
    from . import overlaps

    check_normalized(state)
    n = state.n
    total = 0.0
    for chi, comp in enumerate(state.components):
        total += ((n - 1) / 2.0 - chi) * overlaps.component_norm_sq(comp)
    return total
