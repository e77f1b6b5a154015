"""Closed-form overlaps, the quadrature oracle, and the overlap matrix."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdent import overlaps
from cdent.density import schmidt_decomposition
from cdent.errors import DomainError, PreconditionError, StructureError
from cdent.galilean import GalileanElement, apply_galilean, su2_from_rotation
from cdent.linalg import hermitian_eigensystem
from cdent.overlaps import (
    OverlapMatrix,
    dictionary_overlap_matrix,
    gaussian_term_overlap,
    overlap_matrix,
)
from cdent.scenarios import beam_pair
from cdent.states import (
    ComponentSum,
    GaussianSum,
    GaussianTerm,
    HermiteExpansion,
    HybridState,
    norm,
    normalize,
)
from conftest import as_schema, random_gaussian_component, random_hermite_component, random_state
from quadrature_oracle import quadrature_overlap


def unit_term(center, width, d=3, **kw):
    return GaussianTerm(1.0, np.asarray(center, dtype=float) * np.ones(d) if np.isscalar(center) else center, width, **kw)


class TestGaussianTermOverlap:
    def test_self_overlap_is_one(self):
        t = GaussianTerm(1.0, [0.2, -0.3, 0.5], 1.4, [0.3, 0.0, -0.2], 0.4)
        assert gaussian_term_overlap(t, t) == pytest.approx(1.0, abs=1e-13)

    def test_equal_widths_separated_by_one_width(self):
        t0 = GaussianTerm(1.0, [0, 0, 0], 1.0)
        t1 = GaussianTerm(1.0, [0, 0, 1.0], 1.0)
        val = gaussian_term_overlap(t0, t1)
        assert val == pytest.approx(np.exp(-1.0), abs=1e-12)
        quad = quadrature_overlap(as_schema(GaussianSum((t0,))), as_schema(GaussianSum((t1,))))
        assert val == pytest.approx(quad, abs=1e-10)

    def test_width_ratio_two_at_zero_separation(self):
        t0 = GaussianTerm(1.0, [0, 0, 0], 2.0)
        t1 = GaussianTerm(1.0, [0, 0, 0], 1.0)
        val = gaussian_term_overlap(t0, t1)
        assert val == pytest.approx((4.0 / 5.0) ** 1.5, abs=1e-12)
        quad = quadrature_overlap(as_schema(GaussianSum((t0,))), as_schema(GaussianSum((t1,))))
        assert val == pytest.approx(quad, abs=1e-10)

    def test_quadratic_phase_decoheres(self):
        t0 = GaussianTerm(1.0, [0.5], 1.0, quad_phase=0.6)
        t1 = GaussianTerm(1.0, [0.5], 1.0, quad_phase=-0.6)
        val = gaussian_term_overlap(t0, t1)
        assert abs(val) < 1.0
        quad = quadrature_overlap(as_schema(GaussianSum((t0,))), as_schema(GaussianSum((t1,))))
        assert val == pytest.approx(quad, abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(StructureError):
            gaussian_term_overlap(GaussianTerm(1, [0], 1), GaussianTerm(1, [0, 0], 1))

    def test_nonpositive_width_unconstructible(self):
        with pytest.raises(DomainError):
            GaussianTerm(1.0, [0.0], -0.5)

    @settings(max_examples=80, deadline=None)
    @given(
        k1=st.floats(-6, 6),
        k2=st.floats(-6, 6),
        w1=st.floats(0.2, 5.0),
        w2=st.floats(0.2, 5.0),
        a=st.floats(-3, 3),
        beta=st.floats(-1, 1),
    )
    def test_modulus_bounded_by_amplitude_product(self, k1, k2, w1, w2, a, beta):
        t1 = GaussianTerm(1.0, [k1], w1, [a], beta)
        t2 = GaussianTerm(1.0, [k2], w2, [-a], -beta)
        assert abs(gaussian_term_overlap(t1, t2)) <= 1.0 + 1e-12

    def test_oracle_agreement_randomized(self, rng):
        # the certification suite at full size lives in the acceptance tests
        worst = 0.0
        for _ in range(40):
            d = int(rng.integers(1, 4))
            mk = lambda: GaussianTerm(
                rng.normal() + 1j * rng.normal(),
                rng.uniform(-5, 5, d),
                rng.uniform(0.25, 4.0),
                rng.uniform(-3, 3, d),
                rng.uniform(-1, 1),
            )
            a, b = mk(), mk()
            closed = gaussian_term_overlap(a, b)
            quad = quadrature_overlap(as_schema(GaussianSum((a,))), as_schema(GaussianSum((b,))))
            worst = max(worst, abs(closed - quad))
        assert worst < 1e-8


class TestComponentOverlap:
    def test_normalized_self_overlap(self):
        comp = normalize(HybridState((GaussianSum((GaussianTerm(2.0, [0.1], 1.0),)),))).components[0]
        assert dictionary_overlap_matrix((comp, comp))[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_hermite_modes_orthogonal(self):
        h0 = HermiteExpansion(1.0, [0.0], {(0,): 1.0})
        h1 = HermiteExpansion(1.0, [0.0], {(1,): 1.0})
        assert dictionary_overlap_matrix((h0, h1))[0, 1] == pytest.approx(0.0, abs=1e-14)

    def test_gaussian_equals_mode_zero_hermite(self):
        # width-1 packet and the mode-0 Hermite function at scale 1 are the
        # same function; the cross-representation path goes through the
        # per-axis Hermite tables
        g = GaussianSum((GaussianTerm(1.0, [0.0], 1.0),))
        h = HermiteExpansion(1.0, [0.0], {(0,): 1.0})
        assert dictionary_overlap_matrix((g, h))[0, 1] == pytest.approx(1.0, abs=1e-10)

    def test_conjugate_symmetry_closed_and_quadrature(self):
        g = GaussianSum((GaussianTerm(0.8 + 0.6j, [0.4], 1.2, [0.5], 0.2),))
        g2 = GaussianSum((GaussianTerm(0.3 - 0.2j, [-0.8], 0.9, [-1.0], -0.4),))
        h = HermiteExpansion(1.5, [-0.2], {(1,): 0.6, (3,): 0.8j})
        for a, b in ((g, g), (g, g2), (g, h)):
            ab = dictionary_overlap_matrix((a, b))[0, 1]
            ba = dictionary_overlap_matrix((b, a))[0, 1]
            assert ab == pytest.approx(np.conj(ba), abs=0.0)
        # the oracle's saddle-contour quadrature satisfies the same symmetry
        ab = quadrature_overlap(as_schema(g), as_schema(g2))
        ba = quadrature_overlap(as_schema(g2), as_schema(g))
        assert ab == pytest.approx(np.conj(ba), abs=0.0)

    def test_same_frame_hermite_inner_product(self):
        a = HermiteExpansion(1.3, [0.1], {(0,): 0.6, (2,): 0.8})
        b = HermiteExpansion(1.3, [0.1], {(2,): 1.0})
        assert dictionary_overlap_matrix((a, b))[0, 1] == pytest.approx(0.8, abs=1e-14)

    def test_dimension_mismatch_rejected(self):
        a = GaussianSum((GaussianTerm(1.0, [0.0], 1.0),))
        b = HermiteExpansion(1.0, [0.0, 0.0], {(0, 0): 1.0})
        with pytest.raises(StructureError, match="components disagree on dimension"):
            dictionary_overlap_matrix((a, b))


class TestQuadratureOverlap:
    def test_converges_to_reference_beam_overlap(self):
        t0 = GaussianTerm(1.0, [0, 0, 0], 1.0)
        t1 = GaussianTerm(1.0, [0, 0, 1.0], 1.0)
        quad = quadrature_overlap(as_schema(GaussianSum((t0,))), as_schema(GaussianSum((t1,))))
        assert quad == pytest.approx(np.exp(-1.0), abs=1e-10)

    def test_self_overlap(self):
        comp = GaussianSum((GaussianTerm(1.0, [0.3, -0.4], 1.1, [0.2, 0.1], -0.3),))
        assert quadrature_overlap(as_schema(comp), as_schema(comp)) == pytest.approx(1.0, abs=1e-12)

    def test_hermite_orthonormality(self):
        h3 = HermiteExpansion(1.0, [0.0], {(3,): 1.0})
        h4 = HermiteExpansion(1.0, [0.0], {(4,): 1.0})
        # different objects with equal frames still satisfy orthonormality
        assert quadrature_overlap(as_schema(h3), as_schema(h3)) == pytest.approx(1.0, abs=1e-10)
        assert quadrature_overlap(as_schema(h3), as_schema(h4)) == pytest.approx(0.0, abs=1e-10)

    def test_six_dimensional_agreement(self, rng):
        # the oracle integrates axis by axis, so d = 6 costs six 1-D rules
        for _ in range(4):
            g = random_gaussian_component(rng, 6)
            h = random_hermite_component(rng, 6)
            exact = dictionary_overlap_matrix((g, h, g))
            assert abs(quadrature_overlap(as_schema(g), as_schema(h)) - exact[0, 1]) < 1e-12
            assert abs(quadrature_overlap(as_schema(g), as_schema(g)) - exact[0, 0]) < 1e-12


class TestOverlapMatrix:
    @pytest.mark.parametrize("lam", [1e-70, 1.0, 1e70])
    def test_beam_pair_is_scale_invariant(self, lam):
        # widths and centers multiplied together: every overlap stays put
        k0, k1 = np.array([0.1, -0.2, 0.0]), np.array([0.3, 0.1, 0.9])
        ref = overlap_matrix(beam_pair(0.6, 0.8j, k0, k1, 1.1, 0.8)).matrix
        h = overlap_matrix(beam_pair(0.6, 0.8j, lam * k0, lam * k1, lam * 1.1, lam * 0.8)).matrix
        assert abs(ref[0, 1]) > 0.1
        assert np.max(np.abs(h - ref)) < 1e-12

    def test_separable_state_rank_one(self):
        shared = GaussianSum(
            (GaussianTerm(0.8, [0.0], 1.0), GaussianTerm(0.6, [1.0], 2.0, [0.3], 0.1))
        )
        c = np.array([0.6, -0.8j])
        state = normalize(HybridState(tuple(shared.scaled(ci) for ci in c)))
        h = overlap_matrix(state).matrix
        cn = c / np.linalg.norm(c)
        assert np.max(np.abs(h - np.outer(cn, np.conj(cn)))) < 1e-10
        eigs = hermitian_eigensystem(h)[0]
        assert eigs[1] < 1e-10

    def test_orthogonal_equal_weight_is_maximally_mixed(self):
        c = 1 / np.sqrt(2)
        state = HybridState(
            (
                GaussianSum((GaussianTerm(c, [-60.0], 1.0),)),
                GaussianSum((GaussianTerm(c, [60.0], 1.0),)),
            )
        )
        h = overlap_matrix(state).matrix
        assert np.max(np.abs(h - 0.5 * np.eye(2))) < 1e-12

    def test_identical_packets_give_constant_matrix(self):
        c = 1 / np.sqrt(2)
        comp = GaussianSum((GaussianTerm(c, [0.0], 1.0),))
        state = HybridState((comp, comp))
        h = overlap_matrix(state).matrix
        assert np.max(np.abs(h - 0.5 * np.ones((2, 2)))) < 1e-12

    def test_precondition_normalized(self):
        state = HybridState((GaussianSum((GaussianTerm(0.7, [0.0], 1.0),)),))
        with pytest.raises(PreconditionError):
            overlap_matrix(state)

    def test_invariants_on_random_states(self, rng):
        for _ in range(30):
            state = random_state(rng)
            h = overlap_matrix(state).matrix
            n = state.n
            assert np.max(np.abs(h - h.conj().T)) == 0.0
            assert abs(np.trace(h).real - 1.0) < 1e-10
            diag = h.diagonal().real
            for i in range(n):
                for j in range(i + 1, n):
                    assert abs(h[i, j]) ** 2 <= diag[i] * diag[j] + 1e-12
                    assert abs(h[i, j]) <= 0.5 + 1e-12
            assert hermitian_eigensystem(h)[0][-1] > -1e-10

    def test_keeps_the_eigensystem_of_its_psd_check(self, rng):
        # n >= 3: the eigensolve's eigenvectors, bit for bit; n <= 2 uses
        # closed forms and keeps none
        for n in (1, 2, 3, 5):
            rho = overlap_matrix(random_state(rng, n=n))
            if n <= 2:
                assert rho.eigenvectors is None
                continue
            values, vectors = hermitian_eigensystem(rho.matrix)
            assert rho.eigenvalues.tobytes() == values.tobytes()
            assert rho.eigenvectors.tobytes() == vectors.tobytes()
            assert not rho.eigenvectors.flags.writeable

    def test_validation_rejects_bad_matrices(self):
        with pytest.raises(DomainError):
            OverlapMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))  # not Hermitian
        with pytest.raises(DomainError):
            OverlapMatrix(np.array([[0.7, 0.0], [0.0, 0.7]]))  # trace != 1
        with pytest.raises(DomainError):
            OverlapMatrix(np.array([[0.5, 0.6], [0.6, 0.5]]))  # Cauchy-Schwarz

    def test_finiteness_gate_refuses_nan_and_inf(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="entries must be finite"):
                OverlapMatrix(np.array([[bad, 0.0], [0.0, bad]]))

    def test_hermiticity_gate_refuses_an_overflowing_difference(self):
        with pytest.raises(DomainError, match="not Hermitian"):
            OverlapMatrix(np.array([[0.5, 1e308], [-1e308, 0.5]]))

    def test_trace_gate_refuses_nan(self):
        # finite entries whose symmetrized diagonal overflows to inf and
        # -inf: the trace is nan
        with pytest.raises(DomainError, match="trace must be 1, got nan"):
            OverlapMatrix(np.array([[1e308, 0.0], [0.0, -1e308]]))

    def test_cauchy_schwarz_gate_refuses_an_overflowing_entry(self):
        with pytest.raises(DomainError, match=r"Cauchy-Schwarz violated at \(0,1\)"):
            OverlapMatrix(np.array([[0.5, 1e308], [1e308, 0.5]]))

    def test_psd_gate_refuses_nan_eigenvalues(self, monkeypatch):
        monkeypatch.setattr(overlaps, "two_level_eigenvalues", lambda m: np.array([np.nan, np.nan]))
        with pytest.raises(DomainError, match="not positive semidefinite"):
            OverlapMatrix(np.array([[0.5, 0.1], [0.1, 0.5]]))

    def test_state_inner_matches_norm(self, rng):
        # sum over chi of each component's overlap with itself
        state = random_state(rng, n=2, d=1)
        inner = sum(dictionary_overlap_matrix((c, c))[0, 1] for c in state.components)
        assert inner.real == pytest.approx(1.0, abs=1e-10)


def term_pair_reference(components) -> np.ndarray:
    """h by the plain double loop over term pairs."""
    n = len(components)
    h = np.zeros((n, n), dtype=complex)
    for i, a in enumerate(components):
        for j, b in enumerate(components):
            for t1 in a.terms:
                for t2 in b.terms:
                    h[i, j] += gaussian_term_overlap(t1, t2)
    return h


class TestPacketDictionary:
    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.data())
    def test_self_overlap_depends_on_width_and_dimension_alone(self, data):
        # Delta = 0 and no phase difference: center and phases drop out of
        # G_pp bit for bit, wherever the packet sits
        d = data.draw(st.integers(1, 5))
        width = min(max(10.0 ** data.draw(st.floats(-76.0, 76.0)), 1e-76), 1e76)
        finite = st.floats(-1e308, 1e308)
        vectors = st.lists(finite, min_size=d, max_size=d)
        u = (data.draw(vectors), width, data.draw(vectors), data.draw(finite))
        expected = cmath.exp(overlaps._log_unit_overlap(u, u)).conjugate()
        got = overlaps._self_overlap(width, d)
        assert cmath.isfinite(got) and repr(got) == repr(expected)

    def test_matches_term_pair_loop_with_repeated_packets(self, rng):
        for _ in range(60):
            d = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            # a small pool, drawn with replacement, repeats packets within
            # and across components
            pool = [
                (rng.uniform(-3, 3, d), rng.uniform(0.5, 2.5), rng.uniform(-1.5, 1.5, d),
                 rng.uniform(-0.5, 0.5))
                for _ in range(int(rng.integers(1, 4)))
            ]
            comps = []
            for _ in range(n):
                picks = rng.integers(0, len(pool), int(rng.integers(1, 6)))
                comps.append(GaussianSum(tuple(
                    GaussianTerm(rng.normal() + 1j * rng.normal(), *pool[k]) for k in picks
                )))
            got = dictionary_overlap_matrix(comps)
            ref = term_pair_reference(comps)
            assert np.max(np.abs(got - ref)) < 1e-12
            assert np.max(np.abs(got - got.conj().T)) == 0.0

    def test_composed_frame_changes_conjugate_h(self, rng):
        base = normalize(HybridState(tuple(
            GaussianSum((GaussianTerm(rng.normal() + 1j * rng.normal(), rng.uniform(-2, 2, 3),
                                      rng.uniform(0.7, 1.5), rng.uniform(-1, 1, 3), rng.uniform(-0.3, 0.3)),))
            for _ in range(2)
        )))
        h0 = overlap_matrix(base).matrix
        state, dmat = base, np.eye(2)
        for k in range(1, 6):
            q = rng.normal(size=4)
            g = GalileanElement(rng.uniform(-1, 1), rng.normal(size=3), 0.5 * rng.normal(size=3), q / np.linalg.norm(q))
            state = apply_galilean(state, g)
            dmat = su2_from_rotation(g.rotation).matrix @ dmat
            # equal packets merge: never more terms than the 2 packets
            assert all(len(c.terms) <= 2 for c in state.components)
            h = overlap_matrix(state).matrix
            assert np.max(np.abs(h - dmat @ h0 @ dmat.conj().T)) < 1e-12

    def test_translation_of_all_centers(self, rng):
        # every value is dyadic so the shifted centers and phases are exact:
        # shifting all centers by K (one shared quadratic phase beta, linear
        # phases moved by 2 beta K) multiplies h_ij by exp(-i(a_i - a_j).K)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            beta = rng.integers(-8, 9) / 16.0
            lin = [rng.integers(-96, 97, d) / 64.0 for _ in range(2)]
            terms = [
                [(rng.normal() + 1j * rng.normal(), rng.integers(-4096, 4097, d) / 1024.0, rng.uniform(0.5, 2.5))
                 for _ in range(int(rng.integers(1, 3)))]
                for _ in range(2)
            ]
            scale = 1.0 / norm(shifted_state(terms, lin, beta, np.zeros(d)))
            terms = [[(scale * amp, k, w) for amp, k, w in comp] for comp in terms]
            h0 = overlap_matrix(shifted_state(terms, lin, beta, np.zeros(d))).matrix
            for size in (1e2, 1e4, 1e6):
                direction = rng.normal(size=d)
                shift = np.round(size * direction / np.linalg.norm(direction))
                phase = np.exp(-1j * np.dot(lin[0] - lin[1], shift))
                expected = h0 * np.array([[1.0, phase], [np.conj(phase), 1.0]])
                h = overlap_matrix(shifted_state(terms, lin, beta, shift)).matrix
                assert np.max(np.abs(h - expected)) < 1e-10


def shifted_state(terms, lin, beta, shift) -> HybridState:
    """Component i: packets (amplitude, center + shift, width) with linear
    phase lin[i] + 2 beta shift and quadratic phase beta."""
    return HybridState(tuple(
        GaussianSum(tuple(GaussianTerm(amp, k + shift, w, a + 2.0 * beta * shift, beta) for amp, k, w in comp))
        for comp, a in zip(terms, lin)
    ))


def two_frame_state(rng, n, d) -> HybridState:
    """Normalized n-level state cycling through a two-term phased packet
    sum and expansions on two frames."""
    frames = [(rng.uniform(0.7, 1.6), rng.uniform(-1.0, 1.0, d)) for _ in range(2)]
    comps = []
    for chi in range(n):
        if chi % 3 == 0:
            comps.append(random_gaussian_component(rng, d, max_terms=2))
        else:
            h = random_hermite_component(rng, d)
            comps.append(HermiteExpansion(*frames[chi % 3 - 1], h.coefficients))
    return normalize(HybridState(tuple(comps)))


def dyadic_packet(rng, d):
    """A unit-amplitude phased packet whose parameters are all dyadic, so
    shifted copies are exact."""
    return GaussianTerm(
        1.0,
        rng.integers(-64, 65, d) / 64.0,
        rng.integers(24, 49) / 32.0,
        rng.integers(-48, 49, d) / 32.0,
        rng.integers(-8, 9) / 16.0,
    )


def dyadic_hermite(rng, d):
    coeffs = {
        tuple(int(m) for m in rng.integers(0, 4, d)): complex(rng.normal(), rng.normal())
        for _ in range(int(rng.integers(1, 4)))
    }
    return HermiteExpansion(rng.integers(24, 49) / 32.0, rng.integers(-64, 65, d) / 64.0, coeffs)


class TestHermiteRoute:
    """Gaussian x Hermite and cross-frame Hermite x Hermite overlaps through
    the exact per-axis tables."""

    def test_matches_quadrature_oracle_on_random_mixed_pairs(self, rng):
        # 300 pairs, each pair kind at d = 1, 2 and 3 alike
        worst = 0.0
        for trial in range(300):
            d = 1 + trial // 3 % 3
            g = random_gaussian_component(rng, d)
            h1, h2 = random_hermite_component(rng, d), random_hermite_component(rng, d)
            a, b = ((g, h1), (h1, g), (h1, h2))[trial % 3]
            worst = max(worst, abs(dictionary_overlap_matrix((a, b))[0, 1] - quadrature_overlap(as_schema(a), as_schema(b))))
        # whole states with two frames next to multi-term packets and their
        # Schmidt modes (ComponentSums over every part), entry by entry
        for n, d in ((6, 1), (4, 1), (3, 2), (6, 2), (3, 3)):
            state = two_frame_state(rng, n, d)
            sets = [state.components, schmidt_decomposition(state).continuous_modes]
            assert all(isinstance(m, ComponentSum) for m in sets[-1])
            for comps in sets:
                h = dictionary_overlap_matrix(comps)
                for i, a in enumerate(comps):
                    for j in range(i, len(comps)):
                        worst = max(worst, abs(h[i, j] - quadrature_overlap(as_schema(a), as_schema(comps[j]))))
        assert worst < 1e-12

    def test_one_table_set_per_packet_or_frame_and_frame(self, rng, monkeypatch):
        # the bench's mixed layout at n = 6, d = 2: a phased packet on each
        # even level, an expansion on one shared frame on each odd level.
        # Tables per axis: 3 packets x 1 frame, not 9 packet-expansion
        # component pairs
        calls = []
        table = overlaps._axis_table
        monkeypatch.setattr(overlaps, "_axis_table", lambda *args: calls.append(args) or table(*args))
        d = 2
        frame = (1.1, rng.uniform(-0.3, 0.3, d))
        comps = []
        for chi in range(6):
            if chi % 2 == 0:
                comps.append(GaussianSum((GaussianTerm(rng.normal() + 1j * rng.normal(), rng.uniform(-0.5, 0.5, d),
                                                       rng.uniform(0.9, 1.4), rng.uniform(-0.3, 0.3, d)),)))
            else:
                comps.append(HermiteExpansion(*frame, {(chi % 3, 1): 0.6, (0, chi % 3): 0.8j}))
        state = normalize(HybridState(tuple(comps)))
        calls.clear()
        overlap_matrix(state)
        assert len(calls) == 6
        # each table reaches the frame's largest mode on its axis
        assert sorted(args[-1] for args in calls) == [2, 2, 2, 2, 2, 2]

    def test_joint_translation_keeps_modulus(self, rng):
        # shifting packet centers and Hermite origins by K, with the packet's
        # linear phase moved by 2 beta K, changes an overlap by a phase only
        for _ in range(20):
            d = int(rng.integers(1, 4))
            t = dyadic_packet(rng, d)
            h1, h2 = dyadic_hermite(rng, d), dyadic_hermite(rng, d)
            pairs = ((GaussianSum((t,)), h1), (h1, h2))
            base = [abs(dictionary_overlap_matrix((a, b))[0, 1]) for a, b in pairs]
            for size, tol in ((1e2, 1e-10), (1e4, 1e-10), (1e6, 1e-9)):
                direction = rng.normal(size=d)
                shift = np.round(size * direction / np.linalg.norm(direction))
                moved_t = GaussianTerm(1.0, t.center + shift, t.width,
                                       t.linear_phase + 2.0 * t.quad_phase * shift, t.quad_phase)
                moved = [HermiteExpansion(h.scale, h.origin + shift, h.coefficients) for h in (h1, h2)]
                got = [abs(dictionary_overlap_matrix((GaussianSum((moved_t,)), moved[0]))[0, 1]),
                       abs(dictionary_overlap_matrix((moved[0], moved[1]))[0, 1])]
                assert max(abs(x - y) for x, y in zip(got, base)) < tol


class TestWidthRatios:
    """Packets and frames whose widths differ by up to 1e60: the real part
    of every exponent is formed without cancellation."""

    @pytest.mark.parametrize("ratio", [1e-60, 1e-30, 1e-8, 0.5, 1e8, 1e30, 1e60])
    def test_packet_pair_matches_the_phase_free_formula(self, ratio):
        # (2 s1 s2/(s1^2+s2^2))^(d/2) exp(-2 q^2/(s1^2+s2^2)), q of the
        # order of the wider packet
        s1, s2 = 1.3, 1.3 * ratio
        k1, k2 = np.array([0.1, -0.2, 0.3]), np.array([0.1, -0.2, 0.3]) + 0.4 * max(s1, s2)
        expected = np.exp(1.5 * np.log(2 * s1 * s2 / (s1**2 + s2**2))
                          - 2 * np.sum((k1 - k2) ** 2) / (s1**2 + s2**2))
        val = gaussian_term_overlap(GaussianTerm(1.0, k1, s1), GaussianTerm(1.0, k2, s2))
        assert expected > 1e-100
        assert val == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("ratio", [1e-60, 1e-30, 1e-8, 0.5, 1e8, 1e30, 1e60])
    def test_packet_and_frame_routes_agree(self, ratio):
        # mode 0 of a frame is the unit packet of the same width, so the
        # closed form, the packet x frame table and the frame x frame table
        # give one overlap
        s1, s2 = 1.3, 1.3 * ratio
        k1, k2 = [-0.3 * max(s1, s2), 0.1 * min(s1, s2)], [0.0, 0.0]  # chirp about k2
        narrow = GaussianSum((GaussianTerm(1.0, k1, s1),))
        chirped = GaussianSum((GaussianTerm(1.0, k2, s2, [0.2 / s2, -0.1 / s2], 0.3 / s2**2),))
        frame1 = HermiteExpansion(s1, k1, {(0, 0): 1.0})
        frame2 = HermiteExpansion(s2, k2, {(0, 0): 1.0})
        wide = GaussianSum((GaussianTerm(1.0, k2, s2),))
        packet = dictionary_overlap_matrix((narrow, wide))[0, 1]
        assert abs(packet) > 1e-100
        assert dictionary_overlap_matrix((frame1, wide))[0, 1] == pytest.approx(packet, rel=1e-12)
        assert dictionary_overlap_matrix((frame1, frame2))[0, 1] == pytest.approx(packet, rel=1e-12)
        assert dictionary_overlap_matrix((narrow, frame2))[0, 1] == pytest.approx(packet, rel=1e-12)
        phased = dictionary_overlap_matrix((frame1, chirped))[0, 1]
        assert abs(phased) > 1e-100
        assert dictionary_overlap_matrix((narrow, chirped))[0, 1] == pytest.approx(phased, rel=1e-12)
