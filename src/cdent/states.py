"""Hybrid discrete-continuous pure states.

A state is a vector in C^n tensor L^2(R^d), stored as n component wave
functions over d momentum dimensions.  Components belong to parametric
families with exact overlap integrals:

* ``GaussianSum`` -- a finite sum of phased Gaussian packets,
* ``HermiteExpansion`` -- a truncated expansion in orthonormal Hermite
  modes sharing one scale and origin,
* ``ComponentSum`` -- a formal linear combination of the above (produced
  internally, e.g. by Schmidt modes of mixed-representation states).

A packet is a ``_packet`` record, and ``_packet_key`` alone decides when two
are one (``_frame_key`` for Hermite frames): the builder ``_Dictionary``, frame
changes, sweep rows and the evaluator ``_component_values`` key with it.
``_Dictionary`` writes components as amplitudes over packets and Hermite
modes: ``overlaps`` reads its rows as C in h = C G C^dagger, and
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
from array import array
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from .errors import DegenerateStateError, DomainError, PreconditionError, StructureError

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


def _frozen(values: list[float]) -> np.ndarray:
    """A read-only vector of checked floats."""
    v = np.array(values, dtype=float)
    v.setflags(write=False)
    return v


def _finite_amplitude(amplitude: complex) -> complex:
    amplitude = complex(amplitude)
    if not cmath.isfinite(amplitude):
        raise DomainError(f"amplitude must be finite, got {amplitude}")
    return amplitude


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
        object.__setattr__(self, "amplitude", _finite_amplitude(self.amplitude))
        object.__setattr__(self, "width", float(self.width))
        object.__setattr__(self, "quad_phase", float(self.quad_phase))
        _check_width(self.width, "width")
        if not math.isfinite(self.quad_phase):
            raise DomainError(f"quad_phase must be finite, got {self.quad_phase}")
        linear = [0.0] * center.shape[0] if self.linear_phase is None else self.linear_phase
        object.__setattr__(self, "linear_phase", _frozen_vector(linear, center.shape[0], "linear_phase"))

    @property
    def dimension(self) -> int:
        return self.center.shape[0]

    def scaled(self, factor: complex) -> "GaussianTerm":
        """The same packet with amplitude * factor."""
        return self._with_amplitude(self.amplitude * factor)

    @classmethod
    def _checked(cls, amplitude: complex, center: list[float], width: float,
                 linear_phase: list[float] | None, quad_phase: float) -> "GaussianTerm":
        """A term of fields checked as ``__post_init__`` checks them (Python
        numbers, vectors as lists of d floats), built without a second
        check, as ``_with_amplitude`` builds its term."""
        term = object.__new__(cls)
        linear = [0.0] * len(center) if linear_phase is None else linear_phase
        term.__dict__.update(amplitude=amplitude, center=_frozen(center), width=width,
                             linear_phase=_frozen(linear), quad_phase=quad_phase)
        return term

    def _with_amplitude(self, amplitude: complex) -> "GaussianTerm":
        """The same packet with a new amplitude, checked, since a product or
        sum of finite numbers can be infinite; the other fields are shared."""
        term = object.__new__(GaussianTerm)
        term.__dict__.update(self.__dict__, amplitude=_finite_amplitude(amplitude))
        return term

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Values at an (N, d) array of points, as ``_component_values`` gives them."""
        return _component_values((GaussianSum((self,)),), pts)[0]


def _packet(t: GaussianTerm) -> tuple[list[float], float, list[float], float]:
    """The packet record (center, width, linear_phase, quad_phase) of a term
    in Python floats: its fields after the amplitude, so
    ``GaussianTerm(amplitude, *record)`` rebuilds the term."""
    return t.center.tolist(), t.width, t.linear_phase.tolist(), t.quad_phase


def _packet_key(record: tuple) -> tuple:
    """Records with equal keys are one packet: bit-equal center and linear
    phase (-0.0 and 0.0 differ), equal width and quad phase."""
    center, width, linear, quad = record
    return width, quad, array("d", center + linear).tobytes()


def _frame_key(expansion: HermiteExpansion) -> tuple:
    """Equal keys, one frame: equal scale, origin bits equal up to the sign of zero."""
    return expansion.scale, (expansion.origin + 0.0).tobytes()


@dataclass(frozen=True)
class GaussianSum:
    """A wave-function component: finite sum of phased Gaussian packets, each evaluated once."""

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
        """Values at an (N, d) array of points, as ``_component_values`` gives them."""
        return _component_values((self,), pts)[0]


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

    @classmethod
    def _checked(cls, scale: float, origin: list[float],
                 coefficients: dict[tuple[int, ...], complex]) -> "HermiteExpansion":
        """An expansion of fields checked as ``__post_init__`` checks them,
        with distinct multi-indices, built without a second check.  Each
        value is summed into 0.0 as there, so zero signs come out the same."""
        expansion = object.__new__(cls)
        expansion.__dict__.update(scale=scale, origin=_frozen(origin),
                                  coefficients={idx: 0.0 + c for idx, c in coefficients.items()})
        return expansion

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
        """Values at an (N, d) array of real points, as ``_component_values`` gives them."""
        return _component_values((self,), pts)[0]


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


def _component_values(components, pts: np.ndarray) -> list[np.ndarray]:
    """Each component's values at an (N, d) array of points (complex points
    allowed for packets: the expression is the analytic continuation).

    Each distinct packet (``_packet_key``) is evaluated once, in one
    ``_packet_pass``; a term is (amplitude * prefactor) * E_p, exactly 0 where
    its envelope underflows, and a component sums its terms in order.  Each
    Hermite frame (``_frame_key``) builds one table up to its largest mode, as
    row m does not depend on the top; an expansion is exactly 0 where
    exp(-u^2/2) underflows on some axis.  A ComponentSum evaluates itself.
    """
    packets: dict[tuple, tuple] = {}  # packet key -> (row of the packet pass, record)
    terms, rows = [], []  # every GaussianSum term and its packet's row
    frames, plan = {}, []  # frame key -> [top mode, first expansion, table, zeros]; per component
    for comp in components:
        if isinstance(comp, GaussianSum):
            plan.append(slice(len(terms), len(terms) + len(comp.terms)))
            rows += [packets.setdefault(_packet_key(r), (len(packets), r))[0] for r in map(_packet, comp.terms)]
            terms += comp.terms
        elif isinstance(comp, HermiteExpansion):
            plan.append(frame := frames.setdefault(_frame_key(comp), [0, comp]))
            frame[0] = max(frame[0], max(max(idx) for idx in comp.coefficients))
        else:
            plan.append(None)
    values = []
    # far out |p|^2 and u^2 overflow and 0*inf is nan; a narrow packet in high d
    # peaks above the float range: its prefactor is inf (numpy's power; Python's raises)
    with np.errstate(over="ignore", invalid="ignore"):
        if packets:
            exps, under, prefs = _packet_pass([record for _, record in packets.values()], pts)
            term_values = np.array([t.amplitude * prefs[p] for t, p in zip(terms, rows)])[:, None] * exps[rows]
            if under.any():
                term_values[under[rows]] = 0.0
        for frame in frames.values():
            u = (pts - frame[1].origin) / frame[1].gaussian_std
            envelope = np.exp(-0.5 * u * u)
            frame += [_hermite_table(frame[0], u, np.pi ** (-0.25) * envelope), np.any(envelope == 0.0, axis=-1)]
        for comp, entry in zip(components, plan):
            if isinstance(comp, GaussianSum):
                first, *rest = term_values[entry]
                out = sum(rest, first)  # left to right, in term order
            elif isinstance(comp, HermiteExpansion):
                _, _, table, zeros = entry  # table: (top + 1, N, d)
                out = np.zeros(pts.shape[0], dtype=complex)
                for idx, c in comp.coefficients.items():
                    factor = table[idx[0], :, 0].copy()
                    for axis in range(1, len(idx)):
                        factor *= table[idx[axis], :, axis]
                    out += c * factor
                out = np.where(zeros, 0.0, out * np.float64(comp.gaussian_std) ** (-0.5 * comp.dimension))
            else:
                out = comp.eval_many(pts)
            values.append(out)
    return values


def _packet_pass(records: list[tuple], pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """E_p = exp(-gamma |p-center|^2 - i linear_phase . p + i quad_phase |p|^2),
    gamma = 2/sigma^2, of P packet records at N points as a (P, N) array, the
    mask where the envelope underflows, and each prefactor (2 gamma/pi)^(d/4)
    as a numpy float64.  Scalars are formed per packet and broadcast; all else is
    elementwise, so no value depends on the batch (a matmul's dot products may)."""
    centers, widths, linears, quads = zip(*records)
    gammas = [2.0 / width**2 for width in widths]
    dp = pts - np.array(centers)[:, None, :]
    envelope = np.array([-gamma for gamma in gammas])[:, None] * np.add.reduce(dp * dp, axis=-1)
    expo = (envelope - 1j * np.add.reduce(pts * np.array(linears)[:, None, :], axis=-1)
            + np.array([1j * quad for quad in quads])[:, None] * np.add.reduce(pts * pts, axis=-1))
    prefs = [np.float64(2.0 * gamma / np.pi) ** (0.25 * len(centers[0])) for gamma in gammas]
    return np.exp(expo), np.exp(envelope.real) == 0.0, prefs


class _Dictionary:
    """The packets and Hermite modes a set of components is written over,
    numbered in order of first appearance.  Terms with one ``_packet_key``
    are one packet; modes are one when their multi-index and ``_frame_key``
    are."""

    def __init__(self):
        self.index: dict[tuple, int] = {}  # packet key or (frame key, multi-index) -> entry
        self.packets: list[tuple[int, tuple]] = []  # (entry, ``_packet`` record of the first term)
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
                    entries = ((_packet_key(r), t.amplitude, r) for t, r in zip(part.terms, map(_packet, part.terms)))
                    found = self.packets
                else:
                    frame = _frame_key(part)
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
        parts.append(GaussianSum(tuple(GaussianTerm(row[p], *record) for p, record in dictionary.packets)))
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
    """sqrt(sum_chi integral |phi_chi|^2), the root of the real trace of
    ``overlaps.dictionary_overlap_matrix``, summed in component order."""
    from . import overlaps  # deferred: overlaps imports the types above

    return _trace_norm(overlaps._overlap_rows(overlaps._keyed(state.components)))


def _trace_norm(h) -> float:
    """sqrt of the real trace of h (array or rows, summed in row order); nan below 0."""
    trace = sum(row[i].real for i, row in enumerate(h))
    return math.sqrt(trace) if trace >= 0.0 else math.nan


def normalize(state: HybridState) -> HybridState:
    """Same state scaled to unit norm.  Raises DegenerateStateError on a
    zero-norm state."""
    factor = _inverse_norm(norm(state))
    return HybridState(tuple(c.scaled(factor) for c in state.components))


def _inverse_norm(n: float) -> float:
    if not n >= 1e-300:  # nan too
        raise DegenerateStateError("cannot normalize a zero-norm state")
    return 1.0 / n


def require_unit_norm(value: float) -> None:
    """Raise PreconditionError unless a state norm lies within
    NORM_PRECONDITION of 1 (NaN fails too)."""
    dev = abs(value - 1.0)
    if not dev <= NORM_PRECONDITION:
        raise PreconditionError(f"state is not normalized: |norm-1| = {dev:.3e} > {NORM_PRECONDITION:g}")


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

    h = overlaps.dictionary_overlap_matrix(state.components)
    require_unit_norm(_trace_norm(h))
    return sum(((state.n - 1) / 2.0 - chi) * w for chi, w in enumerate(h.diagonal().real.tolist()))
