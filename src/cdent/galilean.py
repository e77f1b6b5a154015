"""Projective Galilean action on hybrid states and invariance checks.

A frame change g = (time_shift b, translation a, boost velocity v,
rotation R) acts on the momentum basis as

    |p, chi>  ->  exp(i(m a.v/2 - a.p + b p^2/(2m)))  D(R) |Rp + mv, chi'>

i.e. a spin-1/2 unitary tensor a momentum-space unitary.  On wave
functions the phased-Gaussian family is closed under this action: centers
map to R k + m v, widths are untouched, the translation lands in the
linear phase, the time shift adds b/(2m) to the quadratic phase, and the
rotation mixes the two components through D(R), summing equal packets, so
no component holds more terms than the state has distinct packets.  The
scalar phase does not depend on the discrete index, so every overlap
h_{chi,chi'} transforms by conjugation with D(R) alone, which is what makes
the reduced spectrum frame-independent.

Rotations are unit quaternions (w, x, y, z); the sign picks the SU(2)
lift of the double cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .density import spectrum
from .errors import DomainError, PreconditionError, UnsupportedError
from .overlaps import overlap_matrix
from .states import GaussianSum, GaussianTerm, HybridState, combine_components


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

    @np.errstate(over="ignore", invalid="ignore")  # non-finite entries fail the gates
    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise DomainError(f"expected a 2x2 matrix, got {m.shape}")
        if not np.max(np.abs(m @ m.conj().T - np.eye(2))) <= 1e-12:
            raise DomainError("matrix is not unitary within 1e-12")
        if not abs(np.linalg.det(m) - 1.0) <= 1e-12:
            raise DomainError("matrix determinant must be 1 (SU(2))")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class GalileanElement:
    """(b, a, v, R): time shift, space translation, boost, rotation."""

    time_shift: float = 0.0
    translation: np.ndarray | None = None
    boost_velocity: np.ndarray | None = None
    rotation: np.ndarray | None = None  # unit quaternion (w, x, y, z)

    @np.errstate(over="ignore")  # an overflowing quaternion norm fails its gate
    def __post_init__(self):
        object.__setattr__(self, "time_shift", float(self.time_shift))
        if not math.isfinite(self.time_shift):
            raise DomainError(f"time_shift must be finite, got {self.time_shift}")
        for name, val in (("translation", self.translation), ("boost_velocity", self.boost_velocity)):
            v = np.zeros(3) if val is None else np.array(val, dtype=float).reshape(-1)
            if v.shape != (3,):
                raise DomainError(f"{name} must be a 3-vector")
            if not all(map(math.isfinite, v.tolist())):
                raise DomainError(f"{name} must be finite, got {v.tolist()}")
            v.setflags(write=False)
            object.__setattr__(self, name, v)
        q = np.array([1.0, 0.0, 0.0, 0.0]) if self.rotation is None else np.array(
            self.rotation, dtype=float
        ).reshape(-1)
        if q.shape != (4,):
            raise DomainError("rotation must be a quaternion (w, x, y, z)")
        if not all(map(math.isfinite, q.tolist())):
            raise DomainError(f"rotation must be finite, got {q.tolist()}")
        if not abs(np.dot(q, q) - 1.0) <= 1e-12:
            raise DomainError(f"quaternion norm deviates from 1 by {abs(np.dot(q,q)-1):.2e}")
        q.setflags(write=False)
        object.__setattr__(self, "rotation", q)

    def params_dict(self) -> dict:
        return {
            "time_shift": self.time_shift,
            "translation": list(self.translation),
            "boost_velocity": list(self.boost_velocity),
            "rotation": list(self.rotation),
        }

    @cached_property
    def _su2(self) -> np.ndarray:
        """D(R), built once per element for the action and the checks."""
        return su2_from_rotation(self.rotation).matrix


IDENTITY_ELEMENT = GalileanElement()


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
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def su2_from_rotation(q) -> SpinRotation:
    """SU(2) matrix cos(theta/2) I - i sin(theta/2) (axis . sigma) of a
    unit quaternion; the quaternion sign carries the double cover."""
    q = np.array(q, dtype=float).reshape(-1)
    if q.shape != (4,) or not abs(np.dot(q, q) - 1.0) <= 1e-12:
        raise DomainError("expected a unit quaternion (w, x, y, z)")
    w, x, y, z = q
    return SpinRotation(
        np.array(
            [
                [w - 1j * z, -1j * x - y],
                [-1j * x + y, w + 1j * z],
            ]
        )
    )


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

    Requires d = 3, n = 2 and GaussianSum components (the family closed
    under the action); Hermite states are checked through the conjugation
    law instead of being transformed.
    """
    if state.d != 3:
        raise UnsupportedError(f"the Galilean action needs d = 3, got d = {state.d}")
    if state.n != 2:
        raise UnsupportedError(f"the spin-1/2 action needs n = 2, got n = {state.n}")
    for comp in state.components:
        if not isinstance(comp, GaussianSum):
            raise UnsupportedError(
                "only GaussianSum components transform exactly; "
                f"got {type(comp).__name__}"
            )

    m = params.mass
    rot = rotation_matrix(g.rotation)
    dmat = g._su2
    a, v, b = g.translation, g.boost_velocity, g.time_shift
    rot_a = rot @ a

    def transform_term(t: GaussianTerm) -> GaussianTerm:
        # scalar phase exp(i(m a.v/2 - a.p + b p^2/(2m))) pushed through the
        # substitution p -> R^T(p - m v), collected per power of p
        phase0 = (
            0.5 * m * np.dot(a, v)
            + m * np.dot(rot_a, v)
            + 0.5 * b * m * np.dot(v, v)
            + m * np.dot(rot @ t.linear_phase, v)
            + t.quad_phase * m * m * np.dot(v, v)
        )
        if not math.isfinite(phase0):
            raise DomainError(
                f"the phase of the frame change with time_shift {b!r}, translation "
                f"{a.tolist()} and boost_velocity {v.tolist()} is not finite at mass {m!r}"
            )
        return GaussianTerm(
            amplitude=t.amplitude * np.exp(1j * phase0),
            center=rot @ t.center + m * v,
            width=t.width,
            linear_phase=rot @ (t.linear_phase + a) + (b + 2.0 * m * t.quad_phase) * v,
            quad_phase=t.quad_phase + 0.5 * b / m,
        )

    with np.errstate(over="ignore", invalid="ignore"):  # the phase check and GaussianTerm refuse overflow
        moved = [GaussianSum(tuple(map(transform_term, comp.terms))) for comp in state.components]
    return HybridState(tuple(combine_components(dmat[row], moved) for row in range(2)))


def random_elements(samples: int, seed: int) -> list[GalileanElement]:
    """Deterministic sample of group elements: |a|, |v|, |b| <= 5 and
    Haar-uniform rotations."""
    if samples < 1:
        raise PreconditionError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(samples):
        b = rng.uniform(-5.0, 5.0)
        vecs = []
        for _ in range(2):
            direction = rng.normal(size=3)
            direction /= np.linalg.norm(direction)
            vecs.append(rng.uniform(0.0, 5.0) * direction)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        out.append(GalileanElement(b, vecs[0], vecs[1], q))
    return out


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
    rho = overlap_matrix(state)
    lam = spectrum(rho).eigenvalues
    worst_spec = (-1.0, IDENTITY_ELEMENT)
    worst_conj = (-1.0, IDENTITY_ELEMENT)
    for g in random_elements(samples, seed):
        moved = apply_galilean(state, g, params)
        rho2 = overlap_matrix(moved)
        lam2 = spectrum(rho2).eigenvalues
        dev_s = float(np.max(np.abs(lam2 - lam)))
        dmat = g._su2
        dev_c = float(np.max(np.abs(rho2.matrix - dmat @ rho.matrix @ dmat.conj().T)))
        if dev_s > worst_spec[0]:
            worst_spec = (dev_s, g)
        if dev_c > worst_conj[0]:
            worst_conj = (dev_c, g)
    return InvarianceReport(
        samples=samples,
        seed=seed,
        max_spectrum_deviation=worst_spec[0],
        max_conjugation_deviation=worst_conj[0],
        worst_spectrum_element=worst_spec[1].params_dict(),
        worst_conjugation_element=worst_conj[1].params_dict(),
    )
