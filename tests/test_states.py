"""State construction, norms, evaluation, and the spin-component expectation."""

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdent.errors import DegenerateStateError, DomainError, PreconditionError, StructureError
from cdent.overlaps import dictionary_overlap_matrix
from cdent.states import (
    HERMITE_INDEX_MAX,
    WIDTH_MAX,
    WIDTH_MIN,
    ComponentSum,
    GaussianSum,
    GaussianTerm,
    HermiteExpansion,
    HybridState,
    combine_components,
    evaluate,
    norm,
    normalize,
    spin_expectation,
)
from conftest import as_schema, random_gaussian_component, random_state
from quadrature_oracle import quadrature_overlap


def packet(amp, center, width, d=1, **kw):
    return GaussianSum((GaussianTerm(amp, np.full(d, float(center)), width, **kw),))


class TestNorm:
    def test_single_unit_amplitude(self):
        state = HybridState((packet(1.0, 0.0, 1.0),))
        assert norm(state) == pytest.approx(1.0, abs=1e-14)

    def test_pythagorean_far_packets(self):
        state = HybridState((packet(0.6, -50.0, 1.0), packet(0.8, 50.0, 1.0)))
        assert norm(state) == pytest.approx(1.0, abs=1e-12)

    def test_coherent_doubling_of_identical_terms(self):
        # two identical terms of amplitude 0.5 add coherently to amplitude 1
        t = GaussianTerm(0.5, [0.0], 1.0)
        comp = GaussianSum((t, t))
        state = HybridState((comp,))
        assert norm(state) == pytest.approx(1.0, abs=1e-12)
        # independent check: quadrature of |phi|^2
        quad = quadrature_overlap(as_schema(comp), as_schema(comp)).real
        assert quad == pytest.approx(1.0, abs=1e-10)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(StructureError):
            HybridState((packet(1.0, 0.0, 1.0, d=1), packet(1.0, 0.0, 1.0, d=2)))

    def test_hermite_norm_is_coefficient_norm(self):
        comp = HermiteExpansion(1.3, [0.2, -0.1], {(0, 1): 0.6, (2, 3): 0.8j})
        assert norm(HybridState((comp,))) == pytest.approx(1.0, abs=1e-14)

    def test_closed_form_matches_quadrature_on_random_sums(self, rng):
        for _ in range(25):
            d = int(rng.integers(1, 3))
            comp = random_gaussian_component(
                rng, d, max_terms=3, width_range=(0.1, 10.0), center_scale=10.0,
                phase_scale=1.0, quad_scale=0.3,
            )
            state = HybridState((comp,))
            analytic = norm(state) ** 2
            numeric = quadrature_overlap(as_schema(comp), as_schema(comp)).real
            assert analytic == pytest.approx(numeric, abs=1e-10)


class TestNormalize:
    def test_idempotent(self):
        state = normalize(HybridState((packet(2.0, 0.0, 1.0),)))
        again = normalize(state)
        assert norm(state) == pytest.approx(1.0, abs=1e-12)
        a = state.components[0].terms[0].amplitude
        b = again.components[0].terms[0].amplitude
        assert a == pytest.approx(b, abs=1e-14)

    def test_equal_amplitudes_on_orthogonal_packets(self):
        state = normalize(HybridState((packet(1.0, -80.0, 1.0), packet(1.0, 80.0, 1.0))))
        for comp in state.components:
            assert abs(comp.terms[0].amplitude) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_three_four_five(self):
        state = normalize(HybridState((packet(3.0, -80.0, 1.0), packet(4.0, 80.0, 1.0))))
        assert abs(state.components[0].terms[0].amplitude) == pytest.approx(0.6, abs=1e-12)
        assert abs(state.components[1].terms[0].amplitude) == pytest.approx(0.8, abs=1e-12)

    def test_zero_norm_rejected(self):
        with pytest.raises(DegenerateStateError):
            normalize(HybridState((packet(0.0, 0.0, 1.0),)))

    def test_squared_norm_rounding_below_zero(self):
        # three nearly coincident packets whose amplitudes sum to zero: the
        # trace of h rounds to about -8.9e-16, so the norm is nan, silently,
        # and normalize refuses it as a zero-norm state
        terms = tuple(GaussianTerm(a, [k], 1.0) for a, k in
                      ((-0.36 - 0.8j, 8e-10), (-1.9 + 1.08j, -8.5e-9), (2.26 - 0.28j, -5.1e-9)))
        state = HybridState((GaussianSum(terms),))
        assert dictionary_overlap_matrix(state.components)[0, 0].real < 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(norm(state))
            with pytest.raises(DegenerateStateError, match="zero-norm"):
                normalize(state)

    def test_random_states_normalize_to_unit(self, rng):
        for _ in range(20):
            state = random_state(rng)
            assert abs(norm(state) - 1.0) < 1e-12


class TestEvaluate:
    def test_peak_of_unit_std_packet(self):
        # width 2 means Gaussian std 1, so the normalized peak is pi^(-1/4)
        state = HybridState((packet(1.0, 0.0, 2.0),))
        assert evaluate(state, 0, [0.0]) == pytest.approx(np.pi ** -0.25, abs=1e-12)

    def test_peak_matches_quadrature_normalized_height(self):
        # oracle: rescale by the numerically integrated norm, then the peak
        # of a width-sigma packet must be (pi (sigma/2)^2)^(-1/4)
        sigma = 1.0
        comp = packet(1.0, 0.0, sigma).terms
        comp = GaussianSum(comp)
        nrm = np.sqrt(quadrature_overlap(as_schema(comp), as_schema(comp)).real)
        peak = comp.eval_many(np.zeros((1, 1)))[0] / nrm
        assert peak.real == pytest.approx((np.pi * (sigma / 2) ** 2) ** -0.25, abs=1e-10)

    def test_even_symmetry(self):
        state = HybridState((packet(1.0, 0.0, 1.0),))
        p = 0.73
        assert evaluate(state, 0, [p]) == pytest.approx(evaluate(state, 0, [-p]), abs=1e-14)

    def test_odd_hermite_mode_vanishes_at_origin(self):
        comp = HermiteExpansion(1.0, [0.4], {(1,): 1.0})
        state = HybridState((comp,))
        assert evaluate(state, 0, [0.4]) == pytest.approx(0.0, abs=1e-14)

    def test_index_and_dimension_errors(self):
        state = HybridState((packet(1.0, 0.0, 1.0),))
        with pytest.raises(StructureError):
            evaluate(state, 1, [0.0])
        with pytest.raises(StructureError):
            evaluate(state, 0, [0.0, 0.0])

    @settings(max_examples=40, deadline=None)
    @given(scale=st.floats(-3, 3), imag=st.floats(-3, 3))
    def test_linear_in_amplitude(self, scale, imag):
        factor = complex(scale, imag)
        base = packet(0.7 - 0.2j, 0.4, 1.3, quad_phase=0.2)
        scaled = base.scaled(factor)
        p = np.array([[0.31]])
        assert scaled.eval_many(p)[0] == pytest.approx(factor * base.eval_many(p)[0], abs=1e-12)

    def test_zero_where_the_envelope_underflows(self):
        # |p|^2 overflows from |p| ~ 1.3e154 (u^2 for Hermite near 1e308),
        # where the phases and the recurrence would turn 0*inf into nan
        gauss = GaussianSum((GaussianTerm(0.6 + 0.2j, [0.5, -0.3], 1.1, [0.4, 0.2], 0.3),))
        herm = HermiteExpansion(0.9, [0.2, 0.1], {(0, 3): 0.5, (2, 1): 0.7j})
        pts = np.array([[1e155, 0.0], [0.0, -1e200], [1e308, 1e308], [-40.0, 0.0], [0.3, -0.2]])
        for comp in (gauss, herm):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                vals = comp.eval_many(pts)
            assert np.array_equal(vals[:4], np.zeros(4))
            assert vals[4] == comp.eval_many(pts[4:])[0] != 0.0

    def test_component_sum_evaluates_linearly(self):
        g = packet(0.5, 0.0, 1.0)
        h = HermiteExpansion(1.0, [0.0], {(2,): 0.5})
        cs = ComponentSum(((0.3 + 0.1j, g), (0.7j, h)))
        p = np.array([[0.11]])
        expected = (0.3 + 0.1j) * g.eval_many(p)[0] + 0.7j * h.eval_many(p)[0]
        assert cs.eval_many(p)[0] == pytest.approx(expected, abs=1e-14)


class TestSpinExpectation:
    def test_balanced_two_level(self):
        c = 1 / np.sqrt(2)
        state = HybridState((packet(c, -60.0, 1.0), packet(c, 60.0, 1.0)))
        assert spin_expectation(state) == pytest.approx(0.0, abs=1e-12)

    def test_polarized(self):
        state = HybridState((packet(1.0, 0.0, 1.0), packet(0.0, 0.0, 1.0)))
        assert spin_expectation(state) == pytest.approx(0.5, abs=1e-12)

    def test_three_levels_symmetric(self):
        c = 1 / np.sqrt(3)
        comps = tuple(packet(c, 60.0 * (i - 1), 1.0) for i in range(3))
        assert spin_expectation(HybridState(comps)) == pytest.approx(0.0, abs=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(PreconditionError):
            spin_expectation(HybridState((packet(0.5, 0.0, 1.0),)))

    def test_one_norm_per_component(self, monkeypatch):
        # the norm gate and the expectation read the diagonal of one h
        from cdent import overlaps

        calls = []
        matrix = overlaps.dictionary_overlap_matrix
        monkeypatch.setattr(overlaps, "dictionary_overlap_matrix", lambda comps: calls.append(1) or matrix(comps))
        c = 1 / np.sqrt(2)
        assert spin_expectation(HybridState((packet(c, -60.0, 1.0), packet(c, 60.0, 1.0)))) == 0.0
        assert len(calls) == 1

    def test_within_spin_range(self, rng):
        for _ in range(15):
            state = random_state(rng)
            val = spin_expectation(state)
            bound = (state.n - 1) / 2 + 1e-12
            assert -bound <= val <= bound


class TestConstruction:
    def test_width_must_be_positive(self):
        with pytest.raises(DomainError):
            GaussianTerm(1.0, [0.0], 0.0)
        with pytest.raises(DomainError):
            GaussianTerm(1.0, [0.0], -1.0)

    def test_hermite_scale_must_be_positive(self):
        with pytest.raises(DomainError):
            HermiteExpansion(0.0, [0.0], {(0,): 1.0})

    @pytest.mark.parametrize("field, value", [
        ("amplitude", complex(np.nan, 0.0)),
        ("amplitude", complex(0.0, -np.inf)),
        ("center", [0.0, np.nan]),
        ("width", np.inf),
        ("linear_phase", [np.inf, 0.0]),
        ("quad_phase", np.nan),
    ])
    def test_gaussian_parameters_must_be_finite(self, field, value):
        args = {"amplitude": 1.0, "center": [0.0, 0.0], "width": 1.0,
                "linear_phase": [0.0, 0.0], "quad_phase": 0.0, field: value}
        with pytest.raises(DomainError, match=f"{field} must be"):
            GaussianTerm(**args)

    @pytest.mark.parametrize("field, scale, origin, value", [
        ("scale", np.inf, [0.0], 1.0),
        ("origin", 1.0, [np.nan], 1.0),
        ("coefficient", 1.0, [0.0], complex(np.inf, 0.0)),
        ("coefficient", 1.0, [0.0], complex(0.0, np.nan)),
    ])
    def test_hermite_parameters_must_be_finite(self, field, scale, origin, value):
        with pytest.raises(DomainError, match=field):
            HermiteExpansion(scale, origin, {(1,): value})

    @pytest.mark.parametrize("value", [WIDTH_MIN, WIDTH_MAX])
    def test_width_and_scale_range_is_closed(self, value):
        assert GaussianTerm(1.0, [0.0], value).width == value
        assert HermiteExpansion(value, [0.0], {(0,): 1.0}).scale == value

    @pytest.mark.parametrize("value", [
        np.nextafter(WIDTH_MIN, 0.0), np.nextafter(WIDTH_MAX, np.inf), 1e-200, 1e200,
    ])
    def test_width_and_scale_beyond_the_range(self, value):
        with pytest.raises(DomainError, match=r"width must be in \[1e-76, 1e\+76\]"):
            GaussianTerm(1.0, [0.0], value)
        with pytest.raises(DomainError, match=r"scale must be in \[1e-76, 1e\+76\]"):
            HermiteExpansion(value, [0.0], {(0,): 1.0})

    def test_scaled_equals_the_constructor_bit_for_bit(self, rng):
        def bits(z):
            return struct.pack("<dd", z.real, z.imag)

        for _ in range(200):
            d = int(rng.integers(1, 4))
            term = GaussianTerm(
                complex(*rng.normal(size=2)) * 10.0 ** rng.integers(-5, 5),
                rng.normal(size=d) * 10.0 ** rng.integers(-3, 3),
                10.0 ** rng.uniform(-3, 3),
                rng.normal(size=d) if rng.random() < 0.7 else None,
                float(rng.normal()),
            )
            factor = [complex(*rng.normal(size=2)), float(rng.normal()), np.float64(rng.normal()),
                      np.complex128(complex(*rng.normal(size=2))), -0.0][int(rng.integers(5))]
            fast = term.scaled(factor)
            ref = GaussianTerm(term.amplitude * factor, term.center, term.width,
                               term.linear_phase, term.quad_phase)
            assert type(fast.amplitude) is complex
            assert bits(fast.amplitude) == bits(ref.amplitude)
            for name in ("center", "linear_phase"):
                a, b = getattr(fast, name), getattr(ref, name)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
            assert struct.pack("<d", fast.width) == struct.pack("<d", ref.width)
            assert struct.pack("<d", fast.quad_phase) == struct.pack("<d", ref.quad_phase)
            assert fast.__dict__.keys() == ref.__dict__.keys()

    def test_scaled_refuses_an_overflowing_amplitude(self):
        with pytest.raises(DomainError, match="amplitude must be finite"):
            GaussianTerm(1e10, [0.0], 1.0).scaled(1e300)
        with pytest.raises(DomainError, match="amplitude must be finite"):
            GaussianTerm(1e10j, [0.0], 1.0).scaled(np.float64(1e300))

    def test_hermite_index_dimension_checked(self):
        with pytest.raises(StructureError):
            HermiteExpansion(1.0, [0.0, 0.0], {(1,): 1.0})
        with pytest.raises(StructureError):
            HermiteExpansion(1.0, [0.0], {(-1,): 1.0})

    def test_hermite_index_has_an_upper_bound(self):
        assert HermiteExpansion(1.0, [0.0, 0.0], {(0, HERMITE_INDEX_MAX): 1.0}).coefficients
        for index in ((HERMITE_INDEX_MAX + 1, 0), (0, 10**20)):
            with pytest.raises(DomainError, match=f"entry above {HERMITE_INDEX_MAX}"):
                HermiteExpansion(1.0, [0.0, 0.0], {index: 1.0})

    def test_terms_share_dimension(self):
        with pytest.raises(StructureError):
            GaussianSum((GaussianTerm(1.0, [0.0], 1.0), GaussianTerm(1.0, [0.0, 0.0], 1.0)))

    def test_combine_components_merges_gaussians(self):
        a = packet(1.0, -1.0, 1.0)
        b = packet(1.0, 1.0, 2.0)
        merged = combine_components([0.5, 0.5j], [a, b])
        assert isinstance(merged, GaussianSum)
        assert len(merged.terms) == 2
        assert merged.terms[1].amplitude == pytest.approx(0.5j)

    def test_combine_components_sums_equal_packets_in_term_order(self, rng):
        def term(amp, k, **kw):
            return GaussianTerm(amp, [k, 0.5], 1.2, [0.25, -1.0], 0.125, **kw)

        a = GaussianSum((term(0.3 + 0.1j, 0.0), term(-0.7j, 1.0), term(1.1, 0.0)))
        b = GaussianSum((term(0.2, 2.0), term(0.9 - 0.4j, 1.0), term(-0.5, 0.0)))
        w = [complex(*rng.normal(size=2)) for _ in range(2)]
        merged = combine_components(w, [a, b])
        # packets in order of first appearance; amplitudes summed term by term
        assert [t.center[0] for t in merged.terms] == [0.0, 1.0, 2.0]
        expected = [
            ((0.3 + 0.1j) * w[0] + 1.1 * w[0]) + -0.5 * w[1],
            -0.7j * w[0] + (0.9 - 0.4j) * w[1],
            0.2 * w[1],
        ]
        assert [t.amplitude for t in merged.terms] == expected
        # equal up to amplitude means bit-equal: -0.0 is another center
        assert len(combine_components([1.0, 1.0], [packet(1.0, 0.0, 1.0), packet(1.0, -0.0, 1.0)]).terms) == 2

    def test_combine_components_merges_same_frame_hermite(self):
        a = HermiteExpansion(1.0, [0.0], {(0,): 1.0})
        b = HermiteExpansion(1.0, [0.0], {(0,): 1.0, (2,): 1.0})
        merged = combine_components([1.0, -1.0], [a, b])
        assert isinstance(merged, HermiteExpansion)
        assert merged.coefficients[(0,)] == pytest.approx(0.0)
        assert merged.coefficients[(2,)] == pytest.approx(-1.0)

    def test_combine_components_mixed_becomes_sum(self):
        a = packet(1.0, 0.0, 1.0)
        b = HermiteExpansion(1.0, [0.0], {(1,): 1.0})
        merged = combine_components([0.6, 0.8], [a, b])
        assert isinstance(merged, ComponentSum)

    def test_combine_components_holds_each_packet_and_mode_once_in_a_mix(self):
        # one merged part per family and frame, in unit weights; origins
        # -0.0 and 0.0 are one frame, another scale is another frame
        g1 = GaussianSum((GaussianTerm(0.5, [1.0], 1.0), GaussianTerm(0.25j, [2.0], 1.0)))
        g2 = GaussianSum((GaussianTerm(-1.0, [2.0], 1.0),))
        e1 = HermiteExpansion(1.5, [0.0], {(0,): 1.0, (2,): 0.5})
        e2 = HermiteExpansion(1.5, [-0.0], {(2,): 2.0})
        e3 = HermiteExpansion(0.7, [0.0], {(1,): 1.0})
        w = [0.5, 2.0, 1j, -1.0, 0.25]
        comps = [g1, e1, g2, e2, e3]
        merged = combine_components(w, comps)
        assert isinstance(merged, ComponentSum)
        assert [weight for weight, _ in merged.parts] == [1.0, 1.0, 1.0]
        gauss, frame, other = (part for _, part in merged.parts)
        assert [t.center[0] for t in gauss.terms] == [1.0, 2.0]
        assert [t.amplitude for t in gauss.terms] == [0.5 * 0.5, 0.25j * 0.5 + -1.0 * 1j]
        assert (frame.scale, frame.origin.tobytes()) == (1.5, e1.origin.tobytes())
        assert frame.coefficients == {(0,): 2.0, (2,): 0.5 * 2.0 + 2.0 * -1.0}
        assert other.coefficients == {(1,): 0.25}
        # the same function: bilinear overlaps against the unmerged sum
        probe = ComponentSum(((1.0, GaussianSum((GaussianTerm(1.0, [1.5], 1.2, [0.3], 0.1),))), (1.0, e3)))
        unmerged = ComponentSum(tuple(zip(w, comps)))
        for other_side in (probe, merged):
            assert dictionary_overlap_matrix((merged, other_side))[0, 1] == pytest.approx(
                dictionary_overlap_matrix((unmerged, other_side))[0, 1], abs=1e-13
            )

    def test_combine_components_merges_component_sum_parts(self):
        a = packet(1.0, 0.0, 1.0)
        e = HermiteExpansion(1.0, [0.0], {(1,): 1.0})
        mixed = combine_components([0.6, 0.8], [a, e])
        again = combine_components([1.0, 1.0], [mixed, mixed])
        assert [(w, type(c)) for w, c in again.parts] == [(1.0, GaussianSum), (1.0, HermiteExpansion)]
        assert again.parts[0][1].terms[0].amplitude == 1.2
        assert again.parts[1][1].coefficients == {(1,): 1.6}
