"""Beam-like and shape-like state families and their parameter sweeps."""

import numpy as np
import pytest

from cdent import density, linalg, overlaps, scenarios, states
from cdent.density import Spectrum, spectrum
from cdent.errors import DegenerateStateError, DomainError, PreconditionError
from cdent.galilean import quaternion_from_axis_angle, rotation_matrix
from cdent.measures import gaussian_pair_eigenvalues, purity, von_neumann_entropy
from cdent.overlaps import OverlapMatrix, gaussian_term_overlap, overlap_matrix
from cdent.scenarios import SweepRow, beam_pair, shape_pair, sweep_csv, sweep_q, sweep_width_ratio
from cdent.stateio import fmt_float
from cdent.states import GaussianSum, GaussianTerm, norm
from conftest import EQUAL, ZHAT, as_schema, random_weights
from quadrature_oracle import quadrature_overlap

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
        val = quadrature_overlap(as_schema(state.components[0]), as_schema(state.components[1]))
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
        quad = quadrature_overlap(as_schema(GaussianSum((t0,))), as_schema(GaussianSum((t1,))))
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
        # each row passes the gate function of Spectrum once, and a sweep
        # makes one np.hypot call (its two-level roots) and one np.log2 call
        # (its entropies) through the functions OverlapMatrix and Spectrum
        # call; no OverlapMatrix or Spectrum is built
        calls = dict.fromkeys(("gate", "roots", "measures", "hypot", "log2", "built"), 0)

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(linalg, "_gated_spectrum", counting("gate", linalg._gated_spectrum))
        monkeypatch.setattr(linalg, "two_level_eigenvalues", counting("roots", linalg.two_level_eigenvalues))
        monkeypatch.setattr(scenarios, "_entropy_purity", counting("measures", density._entropy_purity))
        monkeypatch.setattr(np, "hypot", counting("hypot", np.hypot))
        monkeypatch.setattr(np, "log2", counting("log2", np.log2))
        for cls in (Spectrum, OverlapMatrix):
            monkeypatch.setattr(cls, "__post_init__", counting("built", cls.__post_init__))
        rows = sweep_q(0.6, 0.8j, 1.0, np.linspace(0.0, 3.0, 37))
        assert calls == {"gate": 37, "roots": 1, "measures": 1, "hypot": 1, "log2": 1, "built": 0}
        rows += sweep_width_ratio(EQUAL, EQUAL, 1.0, [0.5, 1.0, 2.0])
        assert len(rows) == 40
        assert calls == {"gate": 40, "roots": 2, "measures": 2, "hypot": 2, "log2": 2, "built": 0}

    def test_one_packet_gram_per_row(self, monkeypatch):
        # the norm and h share one G, whose diagonal is computed once per
        # width per sweep: sweep-q costs one closed form per row with two
        # packets, plus one; sweep-width at most two per row, plus one; and
        # no state is built
        calls, built = [], []
        log_overlap = overlaps._log_unit_overlap
        post_init = states.HybridState.__post_init__
        monkeypatch.setattr(overlaps, "_log_unit_overlap", lambda u, v: calls.append(1) or log_overlap(u, v))
        monkeypatch.setattr(states.HybridState, "__post_init__", lambda self: built.append(1) or post_init(self))
        rows = sweep_q(0.6, 0.8j, 1.0, np.linspace(0.0, 3.0, 7))
        assert len(rows) == 7
        assert len(calls) == 6 + 1  # at q = 0 the two packets are one
        calls.clear()
        rows = sweep_width_ratio(EQUAL, EQUAL, 1.0, [0.5, 1.0, 2.0, 0.5])
        assert len(rows) == 4
        assert len(calls) == 1 + 2 + 0 + 2 + 1 <= 2 * len(rows) + 1  # ratio 0.5 again: its G_pp is known
        assert built == []

    def test_rows_match_the_state_pipeline_bit_for_bit(self):
        # every field equals the row built through beam_pair, overlap_matrix
        # and spectrum, with the unit-amplitude term overlap for degenerate
        # weights; the draws cover one merged packet (q = 0 at equal widths,
        # ratio 1), c1 = 0 and an overlap that underflows to 0 (q = 1e300)
        def reference(parameter, value, state, c0, c1):
            h = overlap_matrix(state)
            s = spectrum(h)
            c0c1 = c0 * np.conj(c1)
            if abs(c0c1) > 1e-15:
                abs_x = float(abs(h.matrix[0, 1] / c0c1))
            else:
                t0, t1 = (c.terms[0]._with_amplitude(1.0) for c in state.components)
                abs_x = float(abs(gaussian_term_overlap(t0, t1)))
            lam = s.eigenvalues
            return SweepRow(parameter, float(value), abs_x, float(lam[0]), float(lam[1]),
                            von_neumann_entropy(s), purity(s))

        rng = np.random.default_rng(2024)
        draws = 0
        for i in range(120):
            c0, c1 = (1.0, 0.0) if i % 10 == 0 else random_weights(rng)
            sigma = 10.0 ** rng.uniform(-2.0, 2.0)
            qs = [0.0, rng.uniform(0.0, 4.0) * sigma, 10.0 ** rng.uniform(0.0, 300.0), 1e300]
            ratios = [1.0, rng.uniform(0.1, 10.0), 10.0 ** rng.uniform(-3.0, 3.0)]
            if i % 4 == 0:
                # sweeps past one 8-lane vector, with a merged packet and a
                # zero eigenvalue mid-batch (q = 0, ratio exactly 1.0); c1 = 0
                # at i = 0, 20, ...
                qs += [*(rng.uniform(0.0, 4.0, 20) * sigma), 0.0, *(sigma * 10.0 ** rng.uniform(-3.0, 3.0, 14))]
                ratios += [*rng.uniform(0.1, 1.0, 16), 1.0, *(10.0 ** rng.uniform(-3.0, 3.0, 17))]
            rows = sweep_q(c0, c1, sigma, qs) + sweep_width_ratio(c0, c1, sigma, ratios)
            expected = [
                reference("q", q, beam_pair(c0, c1, np.zeros(3), q * ZHAT, sigma, sigma), complex(c0), complex(c1))
                for q in qs
            ] + [
                reference("ratio", r, beam_pair(c0, c1, np.zeros(3), np.zeros(3), sigma, r * sigma),
                          complex(c0), complex(c1))
                for r in ratios
            ]
            for row, ref in zip(rows, expected, strict=True):
                assert row == ref
                draws += 1
        assert draws == 120 * 7 + 30 * (35 + 34)
        assert sweep_q(1.0, 0.0, 1.0, [1e300])[0].abs_x == 0.0

    def test_checks_in_beam_pair_order(self):
        # the first value, then the weights, then the widths
        with pytest.raises(DomainError, match="q values"):
            sweep_q(1.0, 1.0, 1e80, [-1.0])
        with pytest.raises(PreconditionError):
            sweep_width_ratio(1.0, 1.0, 1e80, [1.0, -1.0])
        with pytest.raises(DomainError, match="got 1e\\+80"):
            sweep_width_ratio(1.0, 0.0, 1e80, [1e-10])
        with pytest.raises(DomainError, match="got 1e\\+90"):
            sweep_width_ratio(1.0, 0.0, 1.0, [1.0, 1e90, -1.0])
        assert sweep_q(1.0, 1.0, 1.0, []) == []

    @pytest.mark.parametrize("bad, match", [
        ([np.nan, np.nan], "not positive semidefinite"),
        ([0.7, 0.7], "must sum to 1"),
    ])
    def test_batched_gates_of_earlier_rows_raise_first(self, monkeypatch, bad, match):
        # the PSD and spectrum gates run once per sweep, but a row that fails
        # a per-row check still raises after the batched gates of the rows
        # before it, and before those of the rows after it
        original = linalg.two_level_eigenvalues

        def roots_with(row):
            def roots(ms):
                return [bad if i == row else lam for i, lam in enumerate(original(ms))]
            return roots

        monkeypatch.setattr(linalg, "two_level_eigenvalues", roots_with(0))
        with pytest.raises(DomainError, match=match):
            sweep_width_ratio(1.0, 0.0, 1.0, [2.0, 3.0, 1e90])
        with pytest.raises(DomainError, match=match):
            sweep_q(0.6, 0.8, 1.0, [1.0, 2.0, -1.0])
        with pytest.raises(DomainError, match=match):
            sweep_q(0.6, 0.8, 1.0, [1.0, 2.0, 3.0])
        monkeypatch.setattr(linalg, "two_level_eigenvalues", roots_with(2))
        with pytest.raises(DomainError, match="got 1e\\+90"):
            sweep_width_ratio(1.0, 0.0, 1.0, [2.0, 1e90, 3.0])
        with pytest.raises(DomainError, match="q values"):
            sweep_q(0.6, 0.8, 1.0, [1.0, -1.0, 3.0])
        with pytest.raises(DomainError, match=match):
            sweep_q(0.6, 0.8, 1.0, [1.0, 2.0, 3.0, -1.0])
        assert sweep_q(1.0, 1.0, 1.0, []) == []

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


class TestSweepCsv:
    """One finiteness check, then one template per row: the bytes of one
    fmt_float call per value, and fmt_float's error at the first
    non-finite value in row order."""

    @staticmethod
    def reference(rows) -> str:
        lines = [f"{rows[0].parameter},abs_x,lambda_plus,lambda_minus,entropy_bits,purity"]
        for r in rows:
            values = (r.value, r.abs_x, r.lambda_plus, r.lambda_minus, r.entropy_bits, r.purity)
            lines.append(",".join(fmt_float(v) for v in values))
        return "\n".join(lines) + "\n"

    def test_bytes_match_one_fmt_float_call_per_value(self, rng):
        for _ in range(20):
            c0, c1 = random_weights(rng)
            rows = sweep_q(c0, c1, rng.uniform(0.3, 3.0), np.linspace(0.0, rng.uniform(1.0, 9.0), 31))
            assert sweep_csv(rows) == self.reference(rows)
            rows = sweep_width_ratio(c0, c1, rng.uniform(0.3, 3.0), np.geomspace(0.01, 100.0, 17))
            assert sweep_csv(rows) == self.reference(rows)
        edge = [SweepRow("q", -0.0, 5e-324, 1.0, 0.0, 0.0, 1.0),
                SweepRow("q", 1.7976931348623157e308, np.float64(0.1), 0.5, 0.5, 1.0, 0.5),
                SweepRow("q", 3, 0, 1, 0, 0, 1)]
        assert sweep_csv(edge) == self.reference(edge)
        assert sweep_csv(edge).splitlines()[1:] == [
            "-0,4.9406564584124654e-324,1,0,0,1",
            "1.7976931348623157e+308,0.10000000000000001,0.5,0.5,1,0.5",
            "3,0,1,0,0,1",
        ]

    @pytest.mark.parametrize("bad, shown", [
        ((1, "abs_x", np.nan), "nan"),
        ((1, "abs_x", np.inf), "inf"),
        ((0, "purity", -np.inf), "-inf"),
        ((2, "value", np.nan), "nan"),
    ])
    def test_first_non_finite_value_in_row_order_is_refused(self, bad, shown):
        # SweepRow gates its eigenvalues but not abs_x, so a built row can carry
        # any value there; a later row's non-finite value is not the one named
        fields = [dict(parameter="q", value=float(i), abs_x=0.5, lambda_plus=0.75, lambda_minus=0.25,
                       entropy_bits=0.8, purity=0.6) for i in range(3)]
        row, field, value = bad
        fields[row][field] = value
        fields[2]["abs_x"] = np.inf if shown == "nan" else np.nan
        rows = [SweepRow(**f) for f in fields]
        for render in (sweep_csv, self.reference):
            with pytest.raises(DomainError, match=f"^cannot write the non-finite number {shown}$"):
                render(rows)
