"""SU(2) lifts, the group action on states, and frame independence."""

import numpy as np
import pytest

from cdent.density import schmidt_decomposition, spectrum
from cdent.errors import DomainError, PreconditionError, UnsupportedError
from cdent.galilean import (
    GalileanElement,
    PhysicalParams,
    SpinRotation,
    apply_galilean,
    compose,
    invariance_report,
    quaternion_from_axis_angle,
    quaternion_product,
    random_elements,
    rotation_matrix,
    su2_from_rotation,
)
from cdent.overlaps import overlap_matrix, state_inner
from cdent.scenarios import beam_pair, shape_pair
from cdent.states import GaussianSum, GaussianTerm, HybridState, norm, spin_expectation
from conftest import EQUAL, ZHAT, random_gaussian_component
from quadrature_oracle import QuadratureSpec, quadrature_overlap


def su2_oracle(axis, angle):
    """Independent route: eigendecomposition exponential of -i(angle/2) n.sigma."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    n = np.asarray(axis, dtype=float)
    n = n / np.linalg.norm(n)
    h = n[0] * sx + n[1] * sy + n[2] * sz
    w, v = np.linalg.eigh(h)
    return v @ np.diag(np.exp(-0.5j * angle * w)) @ v.conj().T


def two_level_gaussian_state(rng, **kwargs):
    comps = tuple(random_gaussian_component(rng, 3, **kwargs) for _ in range(2))
    from cdent.states import normalize

    return normalize(HybridState(comps))


class TestSpinRotation:
    def test_identity(self):
        d = su2_from_rotation([1.0, 0.0, 0.0, 0.0]).matrix
        assert np.array_equal(d, np.eye(2))

    def test_double_cover(self):
        q = quaternion_from_axis_angle([0.3, -0.5, 0.8], 2.0 * np.pi)
        d = su2_from_rotation(q).matrix
        assert np.max(np.abs(d + np.eye(2))) < 1e-12

    def test_pi_about_z(self):
        q = quaternion_from_axis_angle([0, 0, 1], np.pi)
        d = su2_from_rotation(q).matrix
        assert np.max(np.abs(d - np.diag([-1j, 1j]))) < 1e-12
        assert np.max(np.abs(d - su2_oracle([0, 0, 1], np.pi))) < 1e-12

    def test_matches_exponential_oracle(self, rng):
        for _ in range(25):
            axis = rng.normal(size=3)
            angle = rng.uniform(-2 * np.pi, 2 * np.pi)
            d = su2_from_rotation(quaternion_from_axis_angle(axis, angle)).matrix
            assert np.max(np.abs(d - su2_oracle(axis, angle))) < 1e-12

    def test_homomorphism(self, rng):
        for _ in range(20):
            q1 = rng.normal(size=4)
            q1 /= np.linalg.norm(q1)
            q2 = rng.normal(size=4)
            q2 /= np.linalg.norm(q2)
            lhs = su2_from_rotation(quaternion_product(q2, q1)).matrix
            rhs = su2_from_rotation(q2).matrix @ su2_from_rotation(q1).matrix
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_rotation_matrix_consistent_with_quaternion_sandwich(self, rng):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        r = rotation_matrix(q)
        assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-12
        v = rng.normal(size=3)
        qv = np.concatenate(([0.0], v))
        qc = q * np.array([1.0, -1.0, -1.0, -1.0])
        sandwich = quaternion_product(quaternion_product(q, qv), qc)[1:]
        assert np.max(np.abs(r @ v - sandwich)) < 1e-12

    def test_non_unit_quaternion_rejected(self):
        with pytest.raises(DomainError):
            su2_from_rotation([1.0, 1.0, 0.0, 0.0])

    @pytest.mark.parametrize("q", [[np.nan, 0.0, 0.0, 0.0], [1.0, np.nan, 0.0, 0.0]])
    def test_nan_quaternion_rejected(self, q):
        # was: a NaN matrix
        with pytest.raises(DomainError, match="unit quaternion"):
            su2_from_rotation(q)

    @pytest.mark.parametrize("matrix", [[[np.nan, 0.0], [0.0, np.nan]], [[np.inf, 0.0], [0.0, 1.0]]])
    def test_non_finite_matrix_is_not_unitary(self, matrix):
        with pytest.raises(DomainError, match="not unitary"):
            SpinRotation(matrix)

    def test_nan_determinant_rejected(self, monkeypatch):
        # a finite unitary matrix has a finite determinant, so the gate is
        # handed a NaN one directly
        monkeypatch.setattr(np.linalg, "det", lambda m: np.nan)
        with pytest.raises(DomainError, match="determinant"):
            SpinRotation(np.eye(2))


@pytest.mark.parametrize("mass", [0.0, -1.0, np.nan, np.inf])
def test_mass_must_be_positive_and_finite(mass):
    with pytest.raises(DomainError, match="mass must be positive and finite"):
        PhysicalParams(mass)


class TestApplyGalilean:
    def test_identity_element_is_exact(self, rng):
        state = two_level_gaussian_state(rng)
        moved = apply_galilean(state, GalileanElement())
        for c1, c2 in zip(state.components, moved.components):
            for t1, t2 in zip(c1.terms, c2.terms):
                assert t1.amplitude == t2.amplitude
                assert np.array_equal(t1.center, t2.center)
                assert np.array_equal(t1.linear_phase, t2.linear_phase)
                assert t1.quad_phase == t2.quad_phase

    def test_pure_boost_shifts_centers_and_fixes_h(self, rng):
        state = two_level_gaussian_state(rng)
        params = PhysicalParams(mass=2.0)
        v = np.array([0.4, -0.7, 0.2])
        moved = apply_galilean(state, GalileanElement(boost_velocity=v), params)
        for c1, c2 in zip(state.components, moved.components):
            for t1, t2 in zip(c1.terms, c2.terms):
                assert np.max(np.abs(t2.center - (t1.center + params.mass * v))) < 1e-14
        h0 = overlap_matrix(state).matrix
        h1 = overlap_matrix(moved).matrix
        assert np.max(np.abs(h1 - h0)) < 1e-10

    def test_pi_rotation_flips_polarization(self):
        state = beam_pair(1.0, 0.0, ZHAT, ZHAT, 1.0, 1.0)
        assert spin_expectation(state) == pytest.approx(0.5, abs=1e-12)
        g = GalileanElement(rotation=quaternion_from_axis_angle([1, 0, 0], np.pi))
        moved = apply_galilean(state, g)
        assert spin_expectation(moved) == pytest.approx(-0.5, abs=1e-12)
        # spectrum unchanged, and the 2x2 conjugation oracle agrees
        h0 = overlap_matrix(state).matrix
        h1 = overlap_matrix(moved).matrix
        d = su2_from_rotation(g.rotation).matrix
        assert np.max(np.abs(h1 - d @ h0 @ d.conj().T)) < 1e-12
        assert np.max(np.abs(spectrum(overlap_matrix(moved)).eigenvalues - spectrum(overlap_matrix(state)).eigenvalues)) < 1e-12

    def test_unitarity(self, rng):
        state = two_level_gaussian_state(rng)
        for g in random_elements(10, seed=11):
            assert abs(norm(apply_galilean(state, g)) - 1.0) < 1e-10

    def test_transformed_overlaps_confirmed_by_quadrature(self, rng):
        # independent check that the pushed-through phases are right: the
        # transformed components' overlap via numerical integration
        state = beam_pair(EQUAL, EQUAL, np.zeros(3), ZHAT, 1.0, 1.4)
        g = GalileanElement(0.7, [0.5, -0.3, 0.2], [0.3, 0.1, -0.4],
                            quaternion_from_axis_angle([0.2, 1.0, -0.5], 1.1))
        moved = apply_galilean(state, g, PhysicalParams(1.7))
        spec = QuadratureSpec(64)
        a, b = moved.components
        from cdent.overlaps import component_overlap

        assert component_overlap(a, b) == pytest.approx(quadrature_overlap(a, b, spec), abs=1e-8)
        assert component_overlap(a, a) == pytest.approx(quadrature_overlap(a, a, spec), abs=1e-8)

    def test_composition_up_to_global_phase(self, rng):
        state = two_level_gaussian_state(rng)
        params = PhysicalParams(1.2)
        for g1, g2 in zip(random_elements(6, seed=3), random_elements(6, seed=4)):
            seq = apply_galilean(apply_galilean(state, g1, params), g2, params)
            direct = apply_galilean(state, compose(g2, g1), params)
            assert abs(abs(state_inner(seq, direct)) - 1.0) < 1e-9
            hs = overlap_matrix(seq).matrix
            hd = overlap_matrix(direct).matrix
            assert np.max(np.abs(hs - hd)) < 1e-9

    def test_ten_changes_keep_the_packet_count(self):
        # concatenating the mixed terms would leave 1024 per component here
        state = beam_pair(EQUAL, EQUAL, np.zeros(3), ZHAT, 1.0, 1.0)
        h0 = overlap_matrix(state).matrix
        dmat = np.eye(2)
        for g in random_elements(10, seed=21):
            state = apply_galilean(state, g, PhysicalParams(1.5))
            dmat = su2_from_rotation(g.rotation).matrix @ dmat
            assert all(len(c.terms) <= 2 for c in state.components)
        h = overlap_matrix(state).matrix
        assert np.max(np.abs(h - dmat @ h0 @ dmat.conj().T)) < 1e-12
        modes = schmidt_decomposition(state).continuous_modes
        assert len(modes) == 2 and all(len(m.terms) <= 2 for m in modes)

    def test_wrong_dimension_rejected(self):
        state = HybridState(
            (
                GaussianSum((GaussianTerm(1.0, [0.0], 1.0),)),
                GaussianSum((GaussianTerm(0.0, [0.0], 1.0),)),
            )
        )
        with pytest.raises(UnsupportedError):
            apply_galilean(state, GalileanElement())

    def test_hermite_representation_rejected(self):
        state = shape_pair(EQUAL, EQUAL, 0, 1)
        with pytest.raises(UnsupportedError):
            apply_galilean(state, GalileanElement())

    def test_wrong_level_count_rejected(self):
        c = 1 / np.sqrt(3)
        comps = tuple(
            GaussianSum((GaussianTerm(c, 40.0 * i * ZHAT, 1.0),)) for i in range(3)
        )
        with pytest.raises(UnsupportedError):
            apply_galilean(HybridState(comps), GalileanElement())

    def test_quaternion_norm_validated(self):
        with pytest.raises(DomainError):
            GalileanElement(rotation=[1.0, 0.1, 0.0, 0.0])

    @pytest.mark.parametrize("field, kwargs", [
        ("time_shift", {"time_shift": np.nan}),
        ("translation", {"translation": [0.0, np.nan, 0.0]}),
        ("boost_velocity", {"boost_velocity": [np.inf, 0.0, 0.0]}),
        ("rotation", {"rotation": [np.nan, 0.0, 0.0, 0.0]}),
    ])
    def test_non_finite_fields_refused(self, field, kwargs):
        with pytest.raises(DomainError, match=f"{field} must be finite"):
            GalileanElement(**kwargs)

    def test_quaternion_norm_gate_refuses_overflow(self):
        # |q|^2 overflows to inf
        with pytest.raises(DomainError, match="quaternion norm deviates"):
            GalileanElement(rotation=[1e200, 0.0, 0.0, 0.0])

    def test_overflowing_center_is_refused_without_a_warning(self):
        # a pure boost leaves the phase of a phase-free packet at 0, while
        # m v overflows; the suite turns a numpy warning into a failure
        state = beam_pair(EQUAL, EQUAL, np.zeros(3), ZHAT, 1.0, 1.0)
        boost = GalileanElement(boost_velocity=[5.0, 0.0, 0.0])
        with pytest.raises(DomainError, match="center must be finite"):
            apply_galilean(state, boost, PhysicalParams(1e308))


class TestInvarianceReport:
    def test_separable_state(self):
        state = beam_pair(EQUAL, EQUAL, ZHAT, ZHAT, 1.0, 1.0)
        rep = invariance_report(state, samples=20, seed=9)
        assert rep.max_spectrum_deviation < 1e-9

    def test_maximal_beam_pair(self):
        state = beam_pair(EQUAL, EQUAL, np.zeros(3), 10.0 * ZHAT, 1.0, 1.0)
        rep = invariance_report(state, samples=50, seed=10)
        assert rep.max_spectrum_deviation < 1e-9
        assert rep.max_conjugation_deviation < 1e-9

    @pytest.mark.parametrize("mass", [1.0, 100.0, 1e4])
    def test_invariant_at_large_masses(self, mass):
        # seed 7 draws the frames (samples 18 and 2) on which boosted centers
        # of size m|v| once broke the closed-form overlap at masses 100 and 1e4
        state = beam_pair(EQUAL, EQUAL, np.zeros(3), ZHAT, 1.0, 1.0)
        rep = invariance_report(state, samples=20, seed=7, params=PhysicalParams(mass))
        assert rep.max_spectrum_deviation < 1e-9
        assert rep.max_conjugation_deviation < 1e-9

    def test_rotation_free_elements_leave_h_fixed(self, rng):
        state = two_level_gaussian_state(rng)
        h0 = overlap_matrix(state).matrix
        inner_rng = np.random.default_rng(77)
        for _ in range(5):
            g = GalileanElement(
                inner_rng.uniform(-5, 5),
                inner_rng.uniform(-3, 3, 3),
                inner_rng.uniform(-3, 3, 3),
                None,
            )
            h1 = overlap_matrix(apply_galilean(state, g)).matrix
            assert np.max(np.abs(h1 - h0)) < 1e-10

    def test_deterministic_for_fixed_seed(self):
        state = beam_pair(EQUAL, EQUAL, np.zeros(3), ZHAT, 1.0, 1.0)
        r1 = invariance_report(state, samples=8, seed=123)
        r2 = invariance_report(state, samples=8, seed=123)
        assert r1 == r2

    def test_preconditions(self):
        state = beam_pair(EQUAL, EQUAL, np.zeros(3), ZHAT, 1.0, 1.0)
        with pytest.raises(PreconditionError):
            invariance_report(state, samples=0, seed=1)
        unnorm = HybridState(
            (
                GaussianSum((GaussianTerm(0.5, np.zeros(3), 1.0),)),
                GaussianSum((GaussianTerm(0.5, ZHAT, 1.0),)),
            )
        )
        with pytest.raises(PreconditionError):
            invariance_report(unnorm, samples=2, seed=1)
