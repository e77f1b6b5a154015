"""Projective Galilean action on hybrid states and invariance checks.

A frame change g = (time_shift b, translation a, boost velocity v,
rotation R) acts on the momentum basis as

    |p, chi>  ->  exp(i(m a.v/2 - a.p + b p^2/(2m)))  D(R) |Rp + mv, chi'>

i.e. a spin-1/2 unitary tensor a momentum-space unitary.  On wave
functions the phased-Gaussian family is closed under this action: centers
map to R k + m v, widths are untouched, the translation lands in the
linear phase, the time shift adds b/(2m) to the quadratic phase, and the
rotation mixes the two components through D(R).  A state is keyed once into
its P distinct packet records and rows C over them (``states._Dictionary``);
a frame change moves the P records, sets C' = D C diag(e^{i phi}) with phi
the scalar phase of each packet, and merges records of one ``_packet_key``,
so no component holds more terms than the state has distinct packets.  The
scalar phase does not depend on the discrete index, so every h_{chi,chi'}
transforms by conjugation with D(R) alone, which is what makes the reduced
spectrum frame-independent.  ``invariance_report`` keys the state once, for
its h and the packets every sample moves, and runs a sample on Python floats
from the draw through D(R) and the move, without building a state:
``overlaps._gram`` recomputes G of the moved packets from the closed form,
the check's independent leg, and h = C' G C'^dagger passes every gate of
``overlap_matrix``.

Rotations are unit quaternions (w, x, y, z); the sign picks the SU(2)
lift of the double cover.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .density import spectrum
from .errors import DomainError, PreconditionError, UnsupportedError
from .overlaps import OverlapMatrix, _gram, _keyed, _normalized_overlap_matrix, _overlap_rows, _sandwich
from .states import GaussianSum, GaussianTerm, HybridState, _frozen, _packet_key


@dataclass(frozen=True)
class PhysicalParams:
    """Particle constants in natural units; only the mass enters."""

    mass: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "mass", float(self.mass))
        if not 0.0 < self.mass < np.inf:
            raise DomainError(f"mass must be positive and finite, got {self.mass}")


@dataclass(frozen=True)
class SpinRotation:
    """A 2x2 SU(2) matrix acting on the two-level factor."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise DomainError(f"expected a 2x2 matrix, got {m.shape}")
        _require_su2(m.tolist())
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def _require_su2(rows: list[list[complex]]) -> list[list[complex]]:
    """2x2 rows of Python complex once unitary with unit determinant within
    1e-12, else DomainError (Python scalars: an overflow is inf, not a warning)."""
    (a, b), (c, d) = rows
    upper = (a * a.conjugate() + b * b.conjugate() - 1.0, a * c.conjugate() + b * d.conjugate(),
             c * c.conjugate() + d * d.conjugate() - 1.0)
    if not all(math.hypot(x.real, x.imag) <= 1e-12 for x in upper):
        raise DomainError("matrix is not unitary within 1e-12")
    if not abs(a * d - b * c - 1.0) <= 1e-12:
        raise DomainError("matrix determinant must be 1 (SU(2))")
    return rows


@dataclass(frozen=True)
class GalileanElement:
    """(b, a, v, R): time shift, space translation, boost, rotation."""

    time_shift: float = 0.0
    translation: np.ndarray | None = None
    boost_velocity: np.ndarray | None = None
    rotation: np.ndarray | None = None  # unit quaternion (w, x, y, z)

    def __post_init__(self):
        b = float(self.time_shift)
        a, v, q = (default if val is None else np.array(val, dtype=float).reshape(-1).tolist()
                   for val, default in ((self.translation, [0.0] * 3), (self.boost_velocity, [0.0] * 3),
                                        (self.rotation, [1.0, 0.0, 0.0, 0.0])))
        _require_element(b, a, v, q)
        self.__dict__.update(time_shift=b, translation=_frozen(a), boost_velocity=_frozen(v),
                             rotation=_frozen(q))  # frozen: past __setattr__

    def params_dict(self) -> dict:
        vectors = list(self.translation), list(self.boost_velocity), list(self.rotation)
        return dict(zip(_FIELDS, (self.time_shift, *vectors)))


_FIELDS = ("time_shift", "translation", "boost_velocity", "rotation")


def _require_element(b: float, a: list[float], v: list[float], q: list[float]) -> None:
    """DomainError unless (b, a, v, q) in Python floats is a frame change: finite
    b, a, v and q, q of norm 1 within 1e-12 (an overflowing |q|^2 is inf)."""
    if not math.isfinite(b):
        raise DomainError(f"time_shift must be finite, got {b}")
    for name, x, size in (("translation", a, 3), ("boost_velocity", v, 3), ("rotation", q, 4)):
        if len(x) != size:
            raise DomainError(f"{name} must be a 3-vector" if size == 3
                              else "rotation must be a quaternion (w, x, y, z)")
        if not all(map(math.isfinite, x)):
            raise DomainError(f"{name} must be finite, got {x}")
    deviation = abs(sum(x * x for x in q) - 1.0)
    if not deviation <= 1e-12:
        raise DomainError(f"quaternion norm deviates from 1 by {deviation:.2e}")


def quaternion_product(q2: np.ndarray, q1: np.ndarray) -> np.ndarray:
    w2, x2, y2, z2 = q2
    w1, x1, y1, z1 = q1
    return np.array(
        [
            w2 * w1 - x2 * x1 - y2 * y1 - z2 * z1,
            w2 * x1 + x2 * w1 + y2 * z1 - z2 * y1,
            w2 * y1 - x2 * z1 + y2 * w1 + z2 * x1,
            w2 * z1 + x2 * y1 - y2 * x1 + z2 * w1,
        ]
    )


def quaternion_from_axis_angle(axis, angle: float) -> np.ndarray:
    ax = np.array(axis, dtype=float).reshape(-1)
    nrm = np.linalg.norm(ax)
    if nrm == 0.0:
        raise DomainError("rotation axis must be nonzero")
    ax = ax / nrm
    half = 0.5 * angle
    return np.concatenate(([np.cos(half)], np.sin(half) * ax))


def rotation_matrix(q: np.ndarray) -> np.ndarray:
    """SO(3) matrix of a unit quaternion."""
    return np.array(_rotation_rows(q))


def _rotation_rows(q) -> list[list[float]]:
    w, x, y, z = q
    return [
        [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
        [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
        [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
    ]


def su2_from_rotation(q) -> SpinRotation:
    """SU(2) matrix cos(theta/2) I - i sin(theta/2) (axis . sigma) of a
    unit quaternion; the quaternion sign carries the double cover."""
    q = np.array(q, dtype=float).reshape(-1).tolist()
    if len(q) != 4 or not abs(sum(x * x for x in q) - 1.0) <= 1e-12:
        raise DomainError("expected a unit quaternion (w, x, y, z)")
    return SpinRotation(_su2_rows(q))


def _su2_rows(q: list[float]) -> list[list[complex]]:
    """``su2_from_rotation`` of a unit quaternion's floats, as rows, ungated."""
    w, x, y, z = q
    return [[w - 1j * z, -1j * x - y], [-1j * x + y, w + 1j * z]]


def compose(second: GalileanElement, first: GalileanElement) -> GalileanElement:
    """Element equivalent (up to a global phase) to applying ``first`` then
    ``second``.  Derived from the wave-function action; verified against
    sequential application in the test suite."""
    r1t = rotation_matrix(first.rotation).T
    return GalileanElement(
        time_shift=first.time_shift + second.time_shift,
        translation=first.translation
        + r1t @ (second.translation - second.time_shift * first.boost_velocity),
        boost_velocity=second.boost_velocity
        + rotation_matrix(second.rotation) @ first.boost_velocity,
        rotation=quaternion_product(second.rotation, first.rotation),
    )


def apply_galilean(
    state: HybridState, g: GalileanElement, params: PhysicalParams = PhysicalParams()
) -> HybridState:
    """Transformed state, exactly, within the phased-Gaussian family.

    Requires d = 3, n = 2 and GaussianSum components, the family closed
    under the action; any other state raises UnsupportedError, and so does
    ``invariance_report``, which moves the same packets.
    """
    _require_movable(state)
    dictionary, rows = _keyed(state.components)
    frame = g.time_shift, g.translation.tolist(), g.boost_velocity.tolist(), g.rotation.tolist()
    moved, rows = _move(dictionary.packets, rows, frame, _require_su2(_su2_rows(frame[3])), params.mass)
    return HybridState(tuple(
        GaussianSum(tuple(GaussianTerm(amplitude, *moved[q]) for q, amplitude in row.items()))
        for row in rows
    ))


def _require_movable(state: HybridState) -> None:
    """UnsupportedError unless the action keeps ``state`` in its family."""
    if state.d != 3:
        raise UnsupportedError(f"the Galilean action needs d = 3, got d = {state.d}")
    if state.n != 2:
        raise UnsupportedError(f"the spin-1/2 action needs n = 2, got n = {state.n}")
    for comp in state.components:
        if not isinstance(comp, GaussianSum):
            raise UnsupportedError(f"only GaussianSum components transform exactly; got {type(comp).__name__}")


def _move(packets: list, rows: list, frame: tuple, dmat: list, m: float) -> tuple[list, list]:
    """The frame change (b, a, v, q) with D(R) rows ``dmat`` at mass m on the
    packets and rows of C of a ``_keyed`` state, in Python scalars (which
    overflow to inf, not to a warning): each packet moved once, C' = D C
    diag(e^{i phi}) in term order, dropping exactly-zero D weights, and moved
    packets with one ``_packet_key`` merged."""
    b, a, v, q = frame
    rot = _rotation_rows(q)
    # the scalar phase exp(i(m a.v/2 - a.p + b p^2/(2m))) pushed through the
    # substitution p -> R^T(p - m v), collected per power of p
    vv = _dot(v, v)
    phase_base = 0.5 * m * _dot(a, v) + m * _dot(_turn(rot, a), v) + 0.5 * b * m * vv
    index, merged, factors = {}, [], []  # packet key -> (entry, moved packet); per input packet
    for _, (center, width, linear, quad) in packets:
        phase = phase_base + m * _dot(_turn(rot, linear), v) + quad * m * m * vv
        if not math.isfinite(phase):
            raise DomainError(
                f"the phase of the frame change with time_shift {b!r}, translation "
                f"{a} and boost_velocity {v} is not finite at mass {m!r}"
            )
        center = [x + m * y for x, y in zip(_turn(rot, center), v)]
        shifted = _turn(rot, [x + y for x, y in zip(linear, a)])
        linear = [x + (b + 2.0 * m * quad) * y for x, y in zip(shifted, v)]
        quad = quad + 0.5 * b / m
        if not all(map(math.isfinite, center + linear + [quad])):
            GaussianTerm(1.0, center, width, linear, quad)  # refuses the field in its own words
        record = center, width, linear, quad
        merged.append(index.setdefault(_packet_key(record), (len(index), record))[0])
        factors.append(cmath.exp(1j * phase))
    out: list[dict[int, complex]] = [{}, {}]
    for row, d_row in zip(out, dmat):
        for weight, c_row in zip(d_row, rows):
            for p, c in c_row.items() if weight != 0.0 else ():
                q, amp = merged[p], c * factors[p] * weight
                row[q] = amp if (prev := row.get(q)) is None else prev + amp
    return [packet for _, packet in index.values()], out


def _dot(x: list[float], y: list[float]) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _turn(rot: list[list[float]], x: list[float]) -> list[float]:
    """R x, each entry summed as ``_dot`` sums it."""
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = rot
    x0, x1, x2 = x
    return [a0 * x0 + a1 * x1 + a2 * x2, b0 * x0 + b1 * x1 + b2 * x2, c0 * x0 + c1 * x1 + c2 * x2]


def random_elements(samples: int, seed: int) -> list[GalileanElement]:
    """Deterministic sample of group elements: |a|, |v|, |b| <= 5 and
    Haar-uniform rotations."""
    return [GalileanElement(*frame) for frame in _draws(samples, seed)]


def _draws(samples: int, seed: int):
    """``random_elements``' draws, ungated: (b, a, v, q) as a float and lists.
    ``samples < 1`` is refused on the call.  Draws are made lazily, in blocks
    of 32: one draw between two samples took ~5 µs more on a 2-vCPU x86-64 VM."""
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    return (draw for start in range(0, samples, 32) for draw in [_draw(rng) for _ in range(min(32, samples - start))])


def _draw(rng) -> tuple:
    # rng.uniform(lo, hi) is lo + (hi - lo) * rng.random(), np.linalg.norm(x) is sqrt(x.dot(x))
    b = -5.0 + 10.0 * rng.random()
    vecs = []
    for _ in range(2):
        direction = rng.normal(size=3)
        length = math.sqrt(direction.dot(direction))
        scale, (x, y, z) = 5.0 * rng.random(), direction.tolist()
        vecs.append([scale * (x / length), scale * (y / length), scale * (z / length)])
    q = rng.normal(size=4)
    length = math.sqrt(q.dot(q))
    return b, vecs[0], vecs[1], [x / length for x in q.tolist()]


def _moved_overlap_matrix(packets: list, rows: list, frame: tuple, dmat: list, m: float,
                          selfs: dict | None = None) -> OverlapMatrix:
    """overlap_matrix of a ``_move``, with no state built and G of the moved
    packets recomputed by ``_gram``.  A frame change keeps every width, so
    the diagonal may come from ``selfs``, the state's own G_pp per width."""
    moved, moved_rows = _move(packets, rows, frame, dmat, m)
    return _normalized_overlap_matrix(_sandwich(moved_rows, _gram(list(enumerate(moved)), (), selfs)))


@dataclass(frozen=True)
class InvarianceReport:
    """Worst-case deviations over a deterministic sample of frame changes."""

    samples: int
    seed: int
    max_spectrum_deviation: float
    max_conjugation_deviation: float
    worst_spectrum_element: dict
    worst_conjugation_element: dict


def invariance_report(
    state: HybridState,
    samples: int,
    seed: int,
    params: PhysicalParams = PhysicalParams(),
) -> InvarianceReport:
    """Apply ``samples`` seeded random frame changes and report the largest
    spectrum deviation and the largest deviation of the transformed reduced
    matrix from D rho D^dagger."""
    selfs = {}  # G_pp per width, for the state and every moved copy of it
    keyed = _keyed(state.components)  # the one keying: the base h, then the packets every sample moves
    rho = _normalized_overlap_matrix(_overlap_rows(keyed, selfs))  # overlap_matrix(state)
    lam = spectrum(rho).eigenvalues.tolist()
    h0 = rho.matrix.tolist()
    draws = _draws(samples, seed)
    _require_movable(state)
    dictionary, rows = keyed
    worst_s = worst_c = None  # (deviation, draw): the first of equal maxima, as max keeps
    for frame in draws:  # Python floats from the draw to the move
        _require_element(*frame)
        dmat = _require_su2(_su2_rows(frame[3]))  # D rho D^dagger below in Python scalars
        rho2 = _moved_overlap_matrix(dictionary.packets, rows, frame, dmat, params.mass, selfs)
        dev_s = max(abs(x - y) for x, y in zip(spectrum(rho2).eigenvalues.tolist(), lam))
        d_h0 = [[r0 * h0[0][j] + r1 * h0[1][j] for j in (0, 1)] for r0, r1 in dmat]
        dev_c = max(abs(x - (y0 * r0.conjugate() + y1 * r1.conjugate()))
                    for h_row, (y0, y1) in zip(rho2.matrix.tolist(), d_h0) for x, (r0, r1) in zip(h_row, dmat))
        if worst_s is None or dev_s > worst_s[0]:
            worst_s = dev_s, frame
        if worst_c is None or dev_c > worst_c[0]:
            worst_c = dev_c, frame
    # the worst draws' floats passed _require_element: the report takes them as they are
    return InvarianceReport(samples, seed, worst_s[0], worst_c[0], *(dict(zip(_FIELDS, w)) for _, w in (worst_s, worst_c)))
