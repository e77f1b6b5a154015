"""Reduced density matrices, spectra, the continuous kernel, Schmidt modes,
and the shared-spectrum trace identity."""

import numpy as np
import pytest

from cdent import density, linalg
from cdent.density import (
    RANK_TOL,
    Spectrum,
    kernel_matrix,
    schmidt_decomposition,
    spectrum,
    trace_function_check,
)
from cdent.errors import DomainError, StructureError, UnsupportedError
from cdent.linalg import _eigensystem, require_hermitian
from cdent.measures import entanglement_report
from cdent.overlaps import OverlapMatrix, dictionary_overlap_matrix, overlap_matrix
from cdent.states import GaussianSum, GaussianTerm, HybridState, combine_components
from conftest import EQUAL, random_gaussian_state, random_state

# frozen via the 2x2 closed form, cross-checked with the eigensolver
LAM_PLUS = 0.6839397205857212
LAM_MINUS = 0.31606027941427883
PURITY_E1 = 0.5676676416183063


def packet(amp, center, width, d=1):
    return GaussianSum((GaussianTerm(amp, np.full(d, float(center)), width),))


def beam_state_with_x(absx: float):
    """Equal-weight pair of unit-width packets with |overlap| = absx."""
    q = np.sqrt(-np.log(absx)) if absx > 0 else 60.0
    return HybridState((packet(EQUAL, 0.0, 1.0), packet(EQUAL, q, 1.0)))


class TestReducedSpinDensity:
    def test_separable_is_rank_one_projector(self):
        shared = GaussianSum((GaussianTerm(1.0, [0.0], 1.0),))
        state = HybridState((shared.scaled(0.6), shared.scaled(0.8j)))
        rho = overlap_matrix(state).matrix
        expected = np.outer([0.6, 0.8j], np.conj([0.6, 0.8j]))
        assert np.max(np.abs(rho - expected)) < 1e-12

    def test_equal_weight_orthogonal_is_maximally_mixed(self):
        state = beam_state_with_x(0.0)
        rho = overlap_matrix(state).matrix
        assert np.max(np.abs(rho - 0.5 * np.eye(2))) < 1e-12

    def test_polarized(self):
        state = HybridState((packet(1.0, 0.0, 1.0), packet(0.0, 0.0, 1.0)))
        rho = overlap_matrix(state).matrix
        assert np.max(np.abs(rho - np.diag([1.0, 0.0]))) < 1e-14


class TestSpectrum:
    def test_maximally_mixed(self):
        s = spectrum(OverlapMatrix(0.5 * np.eye(2)))
        assert np.allclose(s.eigenvalues, [0.5, 0.5], atol=1e-14)

    def test_rank_one(self):
        s = spectrum(OverlapMatrix(np.diag([1.0, 0.0])))
        assert np.allclose(s.eigenvalues, [1.0, 0.0], atol=1e-14)

    def test_off_diagonal_half_exp_minus_one(self):
        h = np.array([[0.5, np.exp(-1) / 2], [np.exp(-1) / 2, 0.5]])
        s = spectrum(OverlapMatrix(h))
        assert s.eigenvalues[0] == pytest.approx(LAM_PLUS, abs=1e-12)
        assert s.eigenvalues[1] == pytest.approx(LAM_MINUS, abs=1e-12)
        # independent route: general eigensolver
        assert np.max(np.abs(s.eigenvalues - np.linalg.eigvalsh(h)[::-1])) < 1e-12

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            spectrum(np.array([[0.5, 0.2], [0.1, 0.5]]))

    def test_sum_message_prints_a_plain_float(self):
        with pytest.raises(DomainError, match=r"must sum to 1, got 1\.1$"):
            Spectrum(np.array([0.5, 0.6]))

    def test_closed_form_matches_eigensolvers_on_random_matrices(self, rng):
        # 500 random valid 2x2 reduced matrices: closed form vs naive form vs LAPACK
        for _ in range(500):
            w = rng.uniform(0.02, 0.98)
            mag_cap = min(np.sqrt(w * (1.0 - w)), 1.0 / np.sqrt(2.0))
            mag = rng.uniform(0.0, 0.999 * mag_cap)
            z = mag * np.exp(1j * rng.uniform(0, 2 * np.pi))
            h = np.array([[w, z], [np.conj(z), 1.0 - w]])
            lam = spectrum(OverlapMatrix(h)).eigenvalues
            naive = 0.5 + np.sqrt(max(0.25 - (w * (1 - w) - mag * mag), 0.0)) * np.array([1.0, -1.0])
            assert np.max(np.abs(lam - naive)) < 1e-12
            assert np.max(np.abs(lam - _eigensystem(require_hermitian(h))[0])) < 1e-12
            assert np.max(np.abs(lam - np.linalg.eigvalsh(h)[::-1])) < 1e-12

    def test_determinant_quantity_bounded_on_random_states(self, rng):
        for _ in range(60):
            state = random_state(rng, n=2, d=int(rng.integers(1, 3)))
            h = overlap_matrix(state).matrix
            q = h[0, 0].real * h[1, 1].real - abs(h[0, 1]) ** 2
            assert -1e-12 <= q <= 0.25 + 1e-12

    def test_spectrum_validation(self):
        with pytest.raises(DomainError):
            Spectrum([0.7, 0.7])
        with pytest.raises(DomainError):
            Spectrum([1.2, -0.2])
        s = Spectrum([0.3, 0.7])
        assert s.eigenvalues[0] == 0.7  # sorted descending

    def test_range_gate_refuses_nan(self):
        with pytest.raises(DomainError, match="outside"):
            Spectrum([np.nan, np.nan])
        with pytest.raises(DomainError, match="outside"):
            Spectrum([0.5, np.nan])

    def test_entropy_takes_the_log_of_a_kept_array_as_it_is(self):
        # a frozen float64 array is kept as it is, as OverlapMatrix's n >= 3
        # eigenvalues (a reversed view) are; np.log2 may round a reversed
        # array differently from a contiguous one, so the entropy takes the
        # log of the kept array itself, as numpy's form below does
        rng = np.random.default_rng(7)
        for _ in range(20000):
            w = rng.exponential(size=3)
            vals = np.sort(w / w.sum())[::-1]
            vals.setflags(write=False)
            s = Spectrum(vals)
            assert s.eigenvalues is vals
            assert s.entropy_bits.hex() == (float(-np.add.reduce(vals * np.log2(vals))) + 0.0).hex()

    def test_nan_matrix_has_no_spectrum(self):
        with pytest.raises(DomainError, match="entries must be finite"):
            spectrum(np.array([[np.nan, 0.0], [0.0, np.nan]]))


class TestKernel:
    def test_diagonal_real_nonnegative(self, rng):
        state = random_state(rng, d=1)
        for p in (-0.7, 0.0, 1.3):
            val = kernel_matrix(state, [[p], [p]])[0, 1]
            assert abs(val.imag) < 1e-14
            assert val.real >= -1e-14

    def test_hermitian_in_arguments(self, rng):
        state = random_state(rng, d=2)
        a, b = [0.3, -0.2], [-0.5, 0.9]
        assert kernel_matrix(state, [a, b])[0, 1] == pytest.approx(np.conj(kernel_matrix(state, [b, a])[0, 1]), abs=0.0)

    def test_single_component_rank_one_peak(self):
        # width-2 packet has Gaussian std 1; f(0,0) is the squared peak pi^(-1/2)
        state = HybridState((packet(1.0, 0.0, 2.0),))
        assert kernel_matrix(state, [[0.0], [0.0]])[0, 1] == pytest.approx(np.pi ** -0.5, abs=1e-12)
        # rank-1 factorization f(p,p') = phi(p) conj(phi(p'))
        from cdent.states import evaluate

        p, p2 = [0.4], [-1.1]
        assert kernel_matrix(state, [p, p2])[0, 1] == pytest.approx(
            evaluate(state, 0, p) * np.conj(evaluate(state, 0, p2)), abs=1e-14
        )

    def test_sampled_kernel_matrix_psd(self, rng):
        state = random_state(rng, d=1)
        pts = [[-1.5], [-0.4], [0.0], [0.8], [2.1]]
        m = np.array([[kernel_matrix(state, [a, b])[0, 1] for b in pts] for a in pts])
        assert np.min(np.linalg.eigvalsh(m)) > -1e-9

    def test_dimension_mismatch(self, rng):
        state = random_state(rng, d=2)
        with pytest.raises(StructureError):
            kernel_matrix(state, [[0.0], [0.0]])

    def test_matrix_entries_are_pair_values(self, rng):
        state = random_state(rng, d=2)
        pts = rng.normal(size=(6, 2))
        f = kernel_matrix(state, pts)
        assert f.shape == (6, 6)
        for i in range(6):
            for j in range(6):
                assert f[i, j] == kernel_matrix(state, pts[[i, j]])[0, 1]
        # exactly Hermitian, with an exactly real diagonal
        assert np.array_equal(f, f.conj().T)
        with pytest.raises(StructureError):
            kernel_matrix(state, pts[:, :1])
        with pytest.raises(StructureError):
            kernel_matrix(state, pts[0])


class TestSchmidt:
    def test_separable_single_coefficient(self):
        shared = GaussianSum((GaussianTerm(1.0, [0.0], 1.0),))
        state = HybridState((shared.scaled(0.6), shared.scaled(0.8)))
        sd = schmidt_decomposition(state)
        assert sd.coefficients.eigenvalues[0] == pytest.approx(1.0, abs=1e-12)
        assert len(sd.continuous_modes) == 1

    def test_orthogonal_equal_weight_recovers_packets(self):
        state = beam_state_with_x(0.0)
        sd = schmidt_decomposition(state)
        assert np.allclose(sd.coefficients.eigenvalues, [0.5, 0.5], atol=1e-12)
        # continuous modes coincide with the original packets up to phase
        mode_overlaps = np.array(
            [
                [abs(dictionary_overlap_matrix((m, c.scaled(np.sqrt(2.0))))[0, 1]) for c in state.components]
                for m in sd.continuous_modes
            ]
        )
        assert np.allclose(np.sort(mode_overlaps.ravel()), [0, 0, 1, 1], atol=1e-10)

    def test_intermediate_overlap_coefficients(self):
        state = beam_state_with_x(np.exp(-1.0))
        sd = schmidt_decomposition(state)
        assert sd.coefficients.eigenvalues[0] == pytest.approx(LAM_PLUS, abs=1e-10)
        assert sd.coefficients.eigenvalues[1] == pytest.approx(LAM_MINUS, abs=1e-10)

    def test_modes_orthonormal_and_discrete_modes_unitary(self, rng):
        for _ in range(8):
            state = random_state(rng, d=1)
            sd = schmidt_decomposition(state)
            u = sd.discrete_modes
            assert np.max(np.abs(u.conj().T @ u - np.eye(state.n))) < 1e-10
            k = len(sd.continuous_modes)
            gram = np.array(
                [
                    [dictionary_overlap_matrix((sd.continuous_modes[i], sd.continuous_modes[j]))[0, 1]
                     for j in range(k)]
                    for i in range(k)
                ]
            )
            assert np.max(np.abs(gram - np.eye(k))) < 1e-8

    def test_reconstruction_reproduces_overlap_matrix(self, rng):
        for _ in range(6):
            state = random_state(rng, d=1)
            sd = schmidt_decomposition(state)
            lam = sd.coefficients.eigenvalues
            keep = [i for i, v in enumerate(lam) if v > RANK_TOL]
            comps = []
            for chi in range(state.n):
                weights = [np.sqrt(lam[i]) * sd.discrete_modes[chi, i] for i in keep]
                comps.append(combine_components(weights, list(sd.continuous_modes)))
            rebuilt = HybridState(tuple(comps))
            h0 = overlap_matrix(state).matrix
            h1 = overlap_matrix(rebuilt).matrix
            assert np.max(np.abs(h0 - h1)) < 1e-8

    def test_rank_deficient_returns_fewer_modes(self):
        state = HybridState((packet(1.0, 0.0, 1.0), packet(0.0, 0.0, 1.0)))
        sd = schmidt_decomposition(state)
        assert len(sd.continuous_modes) == 1
        assert sd.discrete_modes.shape == (2, 2)

    @pytest.mark.parametrize("hermite_fraction", [0.0, 1.0, 0.5], ids=["gaussian", "hermite", "mixed"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_coefficients_are_the_reported_spectrum_byte_for_byte(self, n, hermite_fraction):
        # n = 2 too: the closed-form spectrum, not a second solve's
        rng = np.random.default_rng([n, int(2 * hermite_fraction)])
        for _ in range(10):
            state = random_state(rng, n=n, hermite_fraction=hermite_fraction)
            coefficients = schmidt_decomposition(state).coefficients.eigenvalues
            assert coefficients.tobytes() == spectrum(overlap_matrix(state)).eigenvalues.tobytes()


class TestOneGateOneSolve:
    """Each matrix passes the shared finite/Hermitian gate once and is
    diagonalized once, whichever of the gated entry points it takes."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"gate": 0, "solve": 0}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        gate = counting("gate", linalg.require_hermitian)
        solve = counting("solve", linalg._eigensystem)
        monkeypatch.setattr(linalg, "require_hermitian", gate)
        for module in (linalg, density):
            monkeypatch.setattr(module, "_eigensystem", solve)
        return calls

    def test_report_of_a_three_level_state(self, rng, calls):
        entanglement_report(overlap_matrix(random_state(rng, n=3)))
        assert calls == {"gate": 1, "solve": 1}

    def test_schmidt_form_of_a_two_level_state(self, rng, calls):
        schmidt_decomposition(random_state(rng, n=2))
        assert calls == {"gate": 1, "solve": 1}

    def test_public_eigensystem_gates_and_solves_once(self, rng, calls):
        # OverlapMatrix(m) is the public eigensystem of a density matrix m
        OverlapMatrix(overlap_matrix(random_state(rng, n=4)).matrix)
        assert calls == {"gate": 2, "solve": 2}  # the overlap matrix's, then its own


class TestTraceFunction:
    def test_purity_of_maximally_mixed(self):
        state = beam_state_with_x(0.0)
        lhs, rhs = trace_function_check(state, [0.0, 0.0, 1.0])
        assert lhs == pytest.approx(0.5, abs=1e-12)
        assert rhs == pytest.approx(0.5, abs=1e-12)

    def test_identity_polynomial_traces_to_one(self, rng):
        state = random_state(rng, d=1)
        lhs, rhs = trace_function_check(state, [0.0, 1.0])
        assert lhs == pytest.approx(1.0, abs=1e-10)
        assert rhs == pytest.approx(1.0, abs=1e-10)

    def test_purity_at_exp_minus_one_overlap(self):
        state = beam_state_with_x(np.exp(-1.0))
        lhs, rhs = trace_function_check(state, [0.0, 0.0, 1.0])
        assert lhs == pytest.approx(PURITY_E1, abs=1e-10)
        assert rhs == pytest.approx(PURITY_E1, abs=1e-10)

    def test_constant_term_rejected(self, rng):
        state = random_state(rng, d=1)
        with pytest.raises(UnsupportedError):
            trace_function_check(state, [1.0, 1.0])

    def test_sides_agree_on_random_states(self, rng):
        polys = ([0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0])
        for _ in range(10):
            state = random_state(rng, d=1)
            for poly in polys:
                lhs, rhs = trace_function_check(state, poly)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_builds_h_once_and_solves_once(self, rng, monkeypatch):
        # n = 3: the one eigensolve of the OverlapMatrix PSD check also
        # gives the Schmidt eigensystem
        calls = {"overlap_matrix": 0, "eigensystem": 0}

        def counting(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(density, "overlap_matrix", counting("overlap_matrix", density.overlap_matrix))
        solve = counting("eigensystem", linalg._eigensystem)
        monkeypatch.setattr(linalg, "_eigensystem", solve)
        monkeypatch.setattr(density, "_eigensystem", solve)
        state = random_gaussian_state(rng, n=3, d=2)
        lhs, rhs = trace_function_check(state, [0.0, 0.0, 1.0])
        assert lhs == pytest.approx(rhs, abs=1e-12)
        assert calls == {"overlap_matrix": 1, "eigensystem": 1}
