"""Entanglement measures and the closed-form Gaussian-pair spectrum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdent import measures
from cdent.density import Spectrum, spectrum
from cdent.errors import DomainError, PreconditionError
from cdent.measures import (
    ENTANGLED,
    MAXIMAL,
    SEPARABLE,
    EntanglementReport,
    entanglement_report,
    gaussian_pair_eigenvalues,
    purity,
    schmidt_rank,
    von_neumann_entropy,
)
from cdent.overlaps import OverlapMatrix, gaussian_term_overlap, overlap_matrix
from cdent.scenarios import beam_pair
from cdent.states import GaussianTerm
from conftest import EQUAL, random_weights

LAM_PLUS = 0.6839397205857212
LAM_MINUS = 0.31606027941427883
ENTROPY_E1 = 0.9000455915235352
PURITY_E1 = 0.5676676416183063


class TestEntropy:
    def test_pure(self):
        assert von_neumann_entropy([1.0, 0.0]) == 0.0

    def test_balanced(self):
        assert von_neumann_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-14)

    def test_intermediate_value(self):
        h = von_neumann_entropy([LAM_PLUS, LAM_MINUS])
        assert h == pytest.approx(ENTROPY_E1, abs=1e-12)
        assert h == pytest.approx(0.900, abs=1e-3)

    def test_invalid_spectrum_rejected(self):
        with pytest.raises(DomainError):
            von_neumann_entropy([0.9, 0.9])

    @settings(max_examples=60, deadline=None)
    @given(w=st.floats(1e-6, 1.0 - 1e-6))
    def test_bounded_by_log2_n(self, w):
        h = von_neumann_entropy([w, 1.0 - w])
        assert -1e-12 <= h <= 1.0 + 1e-12


class TestPurity:
    def test_pure(self):
        assert purity([1.0, 0.0]) == 1.0

    def test_balanced(self):
        assert purity([0.5, 0.5]) == pytest.approx(0.5, abs=1e-14)

    def test_intermediate(self):
        assert purity([LAM_PLUS, LAM_MINUS]) == pytest.approx(PURITY_E1, abs=1e-12)

    def test_entropy_purity_consistency(self):
        # both must rank the same states: higher purity, lower entropy
        spectra = [[0.5, 0.5], [LAM_PLUS, LAM_MINUS], [0.9, 0.1], [1.0, 0.0]]
        purities = [purity(s) for s in spectra]
        entropies = [von_neumann_entropy(s) for s in spectra]
        assert purities == sorted(purities)
        assert entropies == sorted(entropies, reverse=True)


class TestGaussianPairEigenvalues:
    def test_maximal(self):
        lp, lm = gaussian_pair_eigenvalues(EQUAL, EQUAL, 0.0)
        assert (lp, lm) == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_polarized_any_overlap(self):
        lp, lm = gaussian_pair_eigenvalues(1.0, 0.0, 0.37 + 0.1j)
        assert (lp, lm) == pytest.approx((1.0, 0.0), abs=1e-14)

    def test_equal_weight_reduces_to_half_plus_half_absx(self):
        lp, lm = gaussian_pair_eigenvalues(EQUAL, EQUAL, np.exp(-1.0))
        assert lp == pytest.approx(LAM_PLUS, abs=1e-12)
        assert lm == pytest.approx(LAM_MINUS, abs=1e-12)

    def test_preconditions(self):
        with pytest.raises(PreconditionError):
            gaussian_pair_eigenvalues(1.0, 1.0, 0.0)
        with pytest.raises(PreconditionError):
            gaussian_pair_eigenvalues(EQUAL, EQUAL, 1.5)

    @pytest.mark.parametrize("args", [(np.nan, 0.5, 0.3), (0.6, 0.8, np.nan)])
    def test_nan_fails_the_preconditions(self, args):
        # was: (nan, nan)
        with pytest.raises(PreconditionError):
            gaussian_pair_eigenvalues(*args)

    @settings(max_examples=60, deadline=None)
    @given(w=st.floats(0.0, 1.0), ax=st.floats(0.0, 1.0))
    def test_valid_spectrum_everywhere(self, w, ax):
        lp, lm = gaussian_pair_eigenvalues(np.sqrt(w), np.sqrt(1 - w), ax)
        assert lp + lm == pytest.approx(1.0, abs=1e-12)
        assert 0.0 - 1e-12 <= lm <= lp <= 1.0 + 1e-12


def label(h) -> str:
    return entanglement_report(OverlapMatrix(h)).classification


class TestClassify:
    def test_rank_one(self):
        assert label(np.diag([1.0, 0.0])) == SEPARABLE

    def test_maximally_mixed(self):
        for n in (2, 3, 4):
            assert label(np.eye(n) / n) == MAXIMAL

    def test_intermediate(self):
        h = np.array([[0.5, np.exp(-1) / 2], [np.exp(-1) / 2, 0.5]])
        assert label(h) == ENTANGLED

    def test_tolerance_is_adjustable(self):
        # the report labels at CLASSIFY_TOL = 1e-9; the rule behind it
        # takes its tolerance as an argument
        h = np.array([[0.5 + 1e-6, 0.0], [0.0, 0.5 - 1e-6]])
        assert label(h) == ENTANGLED
        lam = spectrum(OverlapMatrix(h)).eigenvalues
        assert measures._classify_spectrum(lam, 1e-9) == ENTANGLED
        assert measures._classify_spectrum(lam, 1e-4) == MAXIMAL


class TestEndToEnd:
    def test_pipeline_matches_closed_form_on_random_beam_pairs(self, rng):
        for _ in range(50):
            c0, c1 = random_weights(rng)
            k0 = rng.uniform(-4, 4, 3)
            k1 = rng.uniform(-4, 4, 3)
            s0, s1 = rng.uniform(0.4, 3.0, 2)
            state = beam_pair(c0, c1, k0, k1, s0, s1)
            lam = spectrum(overlap_matrix(state)).eigenvalues
            x = gaussian_term_overlap(GaussianTerm(1.0, k0, s0), GaussianTerm(1.0, k1, s1))
            lp, lm = gaussian_pair_eigenvalues(c0, c1, x)
            assert lam[0] == pytest.approx(lp, abs=1e-10)
            assert lam[1] == pytest.approx(lm, abs=1e-10)

    def test_entropy_monotone_in_overlap(self):
        for w in (0.5, 0.3):
            c0, c1 = np.sqrt(w), np.sqrt(1 - w)
            entropies = [
                von_neumann_entropy(gaussian_pair_eigenvalues(c0, c1, ax))
                for ax in np.linspace(0.0, 1.0, 11)
            ]
            for a, b in zip(entropies, entropies[1:]):
                assert b <= a + 1e-12

    def test_maximal_entropy_needs_balance_and_zero_overlap(self):
        assert von_neumann_entropy(gaussian_pair_eigenvalues(EQUAL, EQUAL, 0.0)) == pytest.approx(
            1.0, abs=1e-10
        )
        off_balance = gaussian_pair_eigenvalues(np.sqrt(0.6), np.sqrt(0.4), 0.0)
        assert von_neumann_entropy(off_balance) < 1.0 - 1e-3
        with_overlap = gaussian_pair_eigenvalues(EQUAL, EQUAL, 0.1)
        assert von_neumann_entropy(with_overlap) < 1.0 - 1e-3


class TestReport:
    def test_report_fields_consistent(self):
        h = np.array([[0.5, np.exp(-1) / 2], [np.exp(-1) / 2, 0.5]])
        rep = entanglement_report(OverlapMatrix(h))
        assert rep.entropy_bits == pytest.approx(ENTROPY_E1, abs=1e-10)
        assert rep.purity == pytest.approx(PURITY_E1, abs=1e-10)
        assert rep.schmidt_rank == 2
        assert rep.classification == ENTANGLED

    def test_report_rejects_inconsistent_fields(self):
        s = Spectrum([0.5, 0.5])
        with pytest.raises(DomainError):
            EntanglementReport(s, entropy_bits=0.2, purity=0.5, schmidt_rank=2, classification=MAXIMAL)
        with pytest.raises(DomainError):
            EntanglementReport(s, entropy_bits=1.0, purity=0.9, schmidt_rank=2, classification=MAXIMAL)
        with pytest.raises(DomainError):
            EntanglementReport(s, entropy_bits=1.0, purity=0.5, schmidt_rank=2, classification=SEPARABLE)

    def test_report_refuses_nan_purity(self):
        with pytest.raises(DomainError, match="purity inconsistent"):
            EntanglementReport(Spectrum([0.5, 0.5]), entropy_bits=1.0, purity=np.nan,
                               schmidt_rank=2, classification=MAXIMAL)

    def test_report_entropy_gate_refuses_nan(self, monkeypatch):
        # the range gate stops a NaN entropy field; this gate must also stop
        # a NaN reference value
        monkeypatch.setattr(measures, "von_neumann_entropy", lambda s: np.nan)
        with pytest.raises(DomainError, match="entropy inconsistent"):
            EntanglementReport(Spectrum([0.5, 0.5]), entropy_bits=1.0, purity=0.5,
                               schmidt_rank=2, classification=MAXIMAL)

    def test_report_refuses_a_nan_matrix(self):
        # was: entropy 0.0, Schmidt rank 0 and "entangled"
        with pytest.raises(DomainError, match="entries must be finite"):
            entanglement_report(np.array([[np.nan, 0.0], [0.0, np.nan]]))

    def test_schmidt_rank_counts_significant_eigenvalues(self):
        assert schmidt_rank([1.0, 0.0]) == 1
        assert schmidt_rank([0.5, 0.5]) == 2


def parity_spectra() -> list[list[float]]:
    """Derandomized unit-sum spectra, n = 1..16: random weights, exact
    zeros, exact 1.0, subnormal entries, degenerate pairs, tiny negative
    rounding residues (clamped by Spectrum) and the maximally mixed one."""
    rng = np.random.default_rng(20240519)
    spectra = []
    for n in range(1, 17):
        uniform = [1.0 / n] * n
        pure = [1.0] + [0.0] * (n - 1)
        spectra += [uniform, pure, list(reversed(pure))]
        for _ in range(6):
            w = rng.exponential(size=n) ** rng.uniform(0.5, 4.0)
            spectra.append((w / w.sum()).tolist())
        if n >= 2:
            w = rng.exponential(size=n)
            w[rng.integers(n)] = 0.0
            w[0] = w[-1]  # a degenerate pair
            lam = (w / w.sum()).tolist()
            spectra.append(lam)
            spectra.append([5e-324 if x == 0.0 else x for x in lam])  # a subnormal eigenvalue
            spectra.append([1.0 - 1e-12] + [1e-12 / (n - 1)] * (n - 1))
            spectra.append([0.5, 0.5 - 1e-11] + [1e-11 / (n - 2)] * (n - 2) if n > 2 else [0.5, 0.5])
            spectra.append([1.0] + [-1e-11] + [0.0] * (n - 2))
    return spectra


class TestMeasureParity:
    """The measures equal numpy forms of their definitions bit for bit, on
    the Spectrum's (clamped, descending) eigenvalues."""

    @staticmethod
    def reference(lam: np.ndarray) -> tuple:
        pos = lam[lam > 0.0]
        entropy = float(-np.sum(pos * np.log2(pos))) + 0.0
        purity_ = float(np.sum(lam * lam))
        rank = int(np.sum(lam > 1e-10))
        n = lam.shape[0]
        if lam[0] > 1.0 - 1e-9:
            label = SEPARABLE
        elif np.max(np.abs(lam - 1.0 / n)) < 1e-9:
            label = MAXIMAL
        else:
            label = ENTANGLED
        return entropy.hex(), purity_.hex(), rank, label

    def test_measures_match_numpy_forms_bit_for_bit(self):
        spectra = parity_spectra()
        assert len(spectra) == 16 * 9 + 15 * 5
        for values in spectra:
            s = Spectrum(values)
            expected = self.reference(s.eigenvalues)
            got = (von_neumann_entropy(s).hex(), purity(s).hex(), schmidt_rank(s),
                   measures._classify_spectrum(s.eigenvalues.tolist(), measures.CLASSIFY_TOL))
            assert got == expected, values
            # a list is wrapped in a Spectrum first: the same values
            assert (von_neumann_entropy(values).hex(), purity(values).hex(), schmidt_rank(values)) == expected[:3]
            report = EntanglementReport(s, von_neumann_entropy(s), purity(s), schmidt_rank(s), expected[3])
            assert (report.entropy_bits.hex(), report.purity.hex(), report.schmidt_rank,
                    report.classification) == expected
