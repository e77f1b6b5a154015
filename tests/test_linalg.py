"""The Jacobi eigensolver against LAPACK and against defining properties."""

import numpy as np
import pytest

from cdent import linalg
from cdent.errors import DomainError
from cdent.linalg import hermitian_eigensystem


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


class TestJacobi:
    def test_matches_lapack_on_random_matrices(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            a = random_hermitian(rng, n)
            vals = hermitian_eigensystem(a)[0]
            ref = np.linalg.eigvalsh(a)[::-1]
            assert np.max(np.abs(vals - ref)) < 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_eigenvector_residual_and_orthonormality(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            a = random_hermitian(rng, n)
            vals, vecs = hermitian_eigensystem(a)
            assert np.max(np.abs(a @ vecs - vecs * vals)) < 1e-12 * max(1.0, np.max(np.abs(vals)))
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) < 1e-12

    def test_rank_one_matrix_exact(self):
        h = np.array([[0.36, 0.48j], [-0.48j, 0.64]])
        vals = hermitian_eigensystem(h)[0]
        assert vals[0] == pytest.approx(1.0, abs=1e-14)
        assert vals[1] == pytest.approx(0.0, abs=1e-14)

    def test_deterministic_output(self, rng):
        a = random_hermitian(rng, 4)
        v1 = hermitian_eigensystem(a)
        v2 = hermitian_eigensystem(a)
        assert np.array_equal(v1[0], v2[0])
        assert np.array_equal(v1[1], v2[1])

    def test_phase_convention(self, rng):
        a = random_hermitian(rng, 3)
        _, vecs = hermitian_eigensystem(a)
        for i in range(3):
            lead = vecs[np.argmax(np.abs(vecs[:, i]) > 1e-12), i]
            first = vecs[:, i][np.abs(vecs[:, i]) > 1e-12][0]
            assert abs(first.imag) < 1e-13
            assert first.real > 0

    def test_degenerate_spectrum(self):
        vals, vecs = hermitian_eigensystem(0.25 * np.eye(4))
        assert np.allclose(vals, 0.25)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) < 1e-14

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            hermitian_eigensystem(np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(DomainError):
            hermitian_eigensystem(np.ones((2, 3)))

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="non-finite"):
                hermitian_eigensystem(np.array([[bad, 0.3], [0.3, 2.0]]))

    def test_zero_tolerance_never_divides_zero_by_zero(self):
        # an exactly diagonal matrix is converged at tol = 0: its zero
        # pivots are skipped, not normalized 0/0
        vals, vecs = hermitian_eigensystem(np.diag([1.0, 3.0, 2.0]), tol=0.0)
        assert vals.tolist() == [3.0, 2.0, 1.0]
        assert np.all(np.isfinite(vecs))
        # rotations leave rounding-size off-diagonals that never reach 0:
        # that is reported, not returned as nan
        with pytest.raises(DomainError, match="did not converge"):
            hermitian_eigensystem(np.array([[1.0, 0.3], [0.3, 2.0]]), tol=0.0)

    def test_raises_after_max_sweeps(self, rng, monkeypatch):
        a = random_hermitian(rng, 5)
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        with pytest.raises(DomainError, match="did not converge in 1 sweeps"):
            hermitian_eigensystem(a)
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 60)
        assert np.max(np.abs(hermitian_eigensystem(a)[0] - np.linalg.eigvalsh(a)[::-1])) < 1e-12

    def test_stopping_test_is_relative_to_the_matrix_norm(self):
        # 16 x 16 with Frobenius norm 500: rotations bring the off-diagonal
        # norm down to about 1e-13, which an absolute 1e-14 never accepts
        rng = np.random.default_rng(0)
        z = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        a = z + z.conj().T
        a *= 500.0 / np.linalg.norm(a)
        vals, vecs = hermitian_eigensystem(a)
        assert np.max(np.abs(vals - np.linalg.eigvalsh(a)[::-1])) < 1e-12 * 500.0
        assert np.max(np.abs(a @ vecs - vecs * vals)) < 1e-12 * 500.0
