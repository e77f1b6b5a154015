"""Beam-like and shape-like state families and their parameter sweeps."""

import numpy as np
import pytest

from cdent.density import Spectrum, spectrum
from cdent.errors import DegenerateStateError, DomainError, PreconditionError
from cdent.galilean import quaternion_from_axis_angle, rotation_matrix
from cdent.measures import gaussian_pair_eigenvalues, von_neumann_entropy
from cdent.overlaps import overlap_matrix
from cdent.scenarios import SweepRow, beam_pair, shape_pair, sweep_q, sweep_width_ratio
from cdent.states import GaussianSum, GaussianTerm, norm
from conftest import EQUAL, ZHAT, random_weights
from quadrature_oracle import QuadratureSpec, quadrature_overlap

LAM_PLUS = 0.6839397205857212
ENTROPY_E1 = 0.9000455915235352


class TestBeamPair:
    def test_identical_packets_are_separable(self):
        state = beam_pair(EQUAL, EQUAL, ZHAT, ZHAT, 1.0, 1.0)
        h = overlap_matrix(state)
        assert von_neumann_entropy(spectrum(h)) < 1e-10

    def test_far_separation_nearly_maximal(self):
        state = beam_pair(EQUAL, EQUAL, np.zeros(3), 10.0 * ZHAT, 1.0, 1.0)
        h = overlap_matrix(state)
        assert von_neumann_entropy(spectrum(h)) > 0.999

    def test_polarized(self):
        state = beam_pair(1.0, 0.0, np.zeros(3), ZHAT, 1.0, 1.0)
        lam = spectrum(overlap_matrix(state)).eigenvalues
        assert np.allclose(lam, [1.0, 0.0], atol=1e-12)

    def test_normalization_precondition(self):
        with pytest.raises(PreconditionError):
            beam_pair(1.0, 1.0, np.zeros(3), ZHAT, 1.0, 1.0)

    def test_constructed_state_is_normalized(self):
        state = beam_pair(0.6, 0.8j, np.zeros(3), 2.0 * ZHAT, 0.7, 1.9)
        assert abs(norm(state) - 1.0) < 1e-12


class TestShapePair:
    def test_equal_weights_give_one_bit(self):
        state = shape_pair(EQUAL, EQUAL, 0, 1)
        assert von_neumann_entropy(spectrum(overlap_matrix(state))) == pytest.approx(1.0, abs=1e-9)

    def test_unequal_weights_give_diagonal_h(self):
        state = shape_pair(0.6, 0.8, 0, 1)
        h = overlap_matrix(state).matrix
        assert abs(h[0, 1]) < 1e-12
        lam = spectrum(overlap_matrix(state)).eigenvalues
        assert np.allclose(lam, [0.64, 0.36], atol=1e-12)

    def test_mode_choice_does_not_matter(self):
        state = shape_pair(EQUAL, EQUAL, 2, 3)
        assert von_neumann_entropy(spectrum(overlap_matrix(state))) == pytest.approx(1.0, abs=1e-9)

    def test_explicit_multi_indices(self):
        state = shape_pair(EQUAL, EQUAL, (0, 1, 0), (1, 0, 0), scale=1.3, origin=np.zeros(3))
        h = overlap_matrix(state).matrix
        assert abs(h[0, 1]) < 1e-12

    def test_coincident_modes_rejected(self):
        with pytest.raises(DegenerateStateError):
            shape_pair(EQUAL, EQUAL, 1, 1)

    def test_off_diagonal_small_even_via_quadrature(self):
        state = shape_pair(EQUAL, EQUAL, 0, 1)
        val = quadrature_overlap(state.components[0], state.components[1], QuadratureSpec(64))
        assert abs(val) < 1e-12


class TestSweepQ:
    def test_zero_separation_row(self):
        rows = sweep_q(EQUAL, EQUAL, 1.0, [0.0])
        row = rows[0]
        assert row.abs_x == pytest.approx(1.0, abs=1e-12)
        assert row.entropy_bits == pytest.approx(0.0, abs=1e-10)

    def test_one_sigma_row(self):
        row = sweep_q(EQUAL, EQUAL, 1.0, [1.0])[0]
        assert row.abs_x == pytest.approx(np.exp(-1.0), abs=1e-12)
        assert row.lambda_plus == pytest.approx(LAM_PLUS, abs=1e-10)
        assert row.entropy_bits == pytest.approx(ENTROPY_E1, abs=1e-10)
        assert row.entropy_bits == pytest.approx(0.900, abs=1e-3)

    def test_overlap_follows_exponential_law(self):
        sigma = 1.7
        qs = [0.0, 0.5 * sigma, sigma, 2 * sigma, 4 * sigma]
        for row in sweep_q(EQUAL, EQUAL, sigma, qs):
            assert row.abs_x == pytest.approx(np.exp(-row.value**2 / sigma**2), abs=1e-10)

    def test_entropy_monotone_in_separation(self):
        rows = sweep_q(EQUAL, EQUAL, 1.0, np.linspace(0.0, 5.0, 21))
        for a, b in zip(rows, rows[1:]):
            assert b.entropy_bits >= a.entropy_bits - 1e-12

    def test_rows_match_closed_form(self, rng):
        for _ in range(10):
            c0, c1 = random_weights(rng)
            sigma = rng.uniform(0.4, 3.0)
            qs = rng.uniform(0.0, 4.0, 4)
            for row in sweep_q(c0, c1, sigma, qs):
                lp, lm = gaussian_pair_eigenvalues(c0, c1, row.abs_x)
                assert row.lambda_plus == pytest.approx(lp, abs=1e-10)
                assert row.lambda_minus == pytest.approx(lm, abs=1e-10)

    def test_direction_invariance(self, rng):
        # the separation direction is a convention; any unit vector gives the
        # same rows as the default z direction
        sigma, q = 1.3, 0.9
        baseline = sweep_q(EQUAL, EQUAL, sigma, [q])[0]
        direction = rotation_matrix(quaternion_from_axis_angle(rng.normal(size=3), 1.2)) @ ZHAT
        state = beam_pair(EQUAL, EQUAL, np.zeros(3), q * direction, sigma, sigma)
        lam = spectrum(overlap_matrix(state)).eigenvalues
        assert lam[0] == pytest.approx(baseline.lambda_plus, abs=1e-10)
        assert von_neumann_entropy(lam) == pytest.approx(baseline.entropy_bits, abs=1e-10)

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            sweep_q(EQUAL, EQUAL, -1.0, [0.0])
        with pytest.raises(DomainError):
            sweep_q(EQUAL, EQUAL, 1.0, [-0.5])


class TestSweepWidthRatio:
    def test_unit_ratio_row(self):
        row = sweep_width_ratio(EQUAL, EQUAL, 1.0, [1.0])[0]
        assert row.abs_x == pytest.approx(1.0, abs=1e-12)
        assert row.entropy_bits == pytest.approx(0.0, abs=1e-10)

    def test_ratio_two_matches_quadrature_oracle(self):
        row = sweep_width_ratio(EQUAL, EQUAL, 1.0, [2.0])[0]
        assert row.abs_x == pytest.approx((4.0 / 5.0) ** 1.5, abs=1e-12)
        t0 = GaussianTerm(1.0, np.zeros(3), 1.0)
        t1 = GaussianTerm(1.0, np.zeros(3), 2.0)
        quad = quadrature_overlap(GaussianSum((t0,)), GaussianSum((t1,)), QuadratureSpec(64))
        assert row.abs_x == pytest.approx(abs(quad), abs=1e-10)

    def test_ratio_formula(self):
        for row in sweep_width_ratio(EQUAL, EQUAL, 1.4, [0.5, 1.0, 2.0, 5.0]):
            r = row.value
            assert row.abs_x == pytest.approx((2 * r / (1 + r * r)) ** 1.5, abs=1e-10)

    def test_extreme_ratio_highly_entangled(self):
        row = sweep_width_ratio(EQUAL, EQUAL, 1.0, [100.0])[0]
        assert row.entropy_bits > 0.95

    def test_entropy_monotone_in_log_ratio(self):
        ratios = np.geomspace(1.0, 50.0, 15)
        rows = sweep_width_ratio(EQUAL, EQUAL, 1.0, ratios)
        for a, b in zip(rows, rows[1:]):
            assert b.entropy_bits >= a.entropy_bits - 1e-12

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(DomainError):
            sweep_width_ratio(EQUAL, EQUAL, 1.0, [0.0])


class TestSweepRowInvariants:
    def test_one_spectrum_per_row(self, monkeypatch):
        # entropy and purity read the row's Spectrum instead of wrapping its
        # eigenvalues in new ones
        built = []
        post_init = Spectrum.__post_init__
        monkeypatch.setattr(Spectrum, "__post_init__", lambda self: built.append(1) or post_init(self))
        rows = sweep_q(0.6, 0.8j, 1.0, np.linspace(0.0, 3.0, 7))
        rows += sweep_width_ratio(EQUAL, EQUAL, 1.0, [0.5, 1.0, 2.0])
        assert len(built) == len(rows) == 10


    def test_eigenvalues_sum_to_one_and_ordered(self, rng):
        c0, c1 = random_weights(rng)
        for row in sweep_q(c0, c1, 1.0, [0.0, 0.7, 2.4]):
            assert row.lambda_plus + row.lambda_minus == pytest.approx(1.0, abs=1e-10)
            assert row.lambda_plus >= row.lambda_minus

    def test_sum_gate_refuses_nan(self):
        for lp, lm in ((np.nan, 0.5), (0.5, np.nan), (np.nan, np.nan)):
            with pytest.raises(DomainError, match="lambda_plus \\+ lambda_minus must be 1"):
                SweepRow("q", 0.0, 0.5, lp, lm, 1.0, 0.5)

    def test_order_gate(self):
        with pytest.raises(DomainError, match="lambda_plus must be the larger"):
            SweepRow("q", 0.0, 0.5, 0.25, 0.75, 0.8, 0.6)
