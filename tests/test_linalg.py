"""The Jacobi eigensolver against LAPACK and against defining properties."""

import numpy as np
import pytest

from cdent import linalg
from cdent.errors import DomainError
from cdent.linalg import hermitian_eigensystem, two_level_eigenvalues


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
        # rotations shrink a 2 x 2 pivot's rounding residue to exactly 0
        for m in (np.array([[1.0, 0.3], [0.3, 2.0]]), np.array([[1.0, 0.3 + 0.1j], [0.3 - 0.1j, 2.0]])):
            vals = hermitian_eigensystem(m, tol=0.0)[0]
            assert np.max(np.abs(vals - two_level_eigenvalues(m))) <= 4.5e-16
        # a pivot 1e-310 times the diagonal gap: tau overflows, t = 0, and
        # no rotation can reach 0; that is reported, not returned as nan
        with pytest.raises(DomainError, match="did not converge"):
            hermitian_eigensystem(np.array([[0.0, 1e-150], [1e-150, 1e160]]), tol=0.0)

    def test_raises_after_max_sweeps(self, rng, monkeypatch):
        a = random_hermitian(rng, 5)
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
        with pytest.raises(DomainError, match="did not converge in 1 sweeps"):
            hermitian_eigensystem(a)
        monkeypatch.setattr(linalg, "_MAX_SWEEPS", 60)
        assert np.max(np.abs(hermitian_eigensystem(a)[0] - np.linalg.eigvalsh(a)[::-1])) < 1e-12

    def test_entries_beyond_the_square_root_of_the_float_range(self, rng):
        # the off-diagonal norm is formed without squaring entries, so it
        # stays finite and the solve converges at 1e200
        a = 1e200 * random_hermitian(rng, 4)
        vals, vecs = hermitian_eigensystem(a)
        ref = np.linalg.eigvalsh(a)[::-1]
        assert np.max(np.abs(vals - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) < 1e-12

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(DomainError, match=r"non-empty matrix, got shape \(0, 0\)"):
            hermitian_eigensystem(np.zeros((0, 0)))

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


def density_matrix(rng, kind, n):
    """A unit-trace density matrix Q diag(lam) Q^H of one spectral kind."""
    if kind == "full rank":
        lam = rng.uniform(0.1, 1.0, n)
    elif kind == "rank deficient":  # fewer distinct functions than levels
        lam = np.concatenate([rng.uniform(0.1, 1.0, n // 2), np.zeros(n - n // 2)])
    elif kind == "degenerate block":
        lam = np.concatenate([np.full(3, 0.3), rng.uniform(0.1, 1.0, n - 3)])
    elif kind == "near-degenerate cluster":
        lam = np.concatenate([0.2 + 1e-12 * np.arange(3), rng.uniform(0.1, 1.0, n - 3)])
    else:  # exactly diagonal
        lam = rng.uniform(0.0, 1.0, n)
        return np.diag(lam / lam.sum()).astype(complex)
    lam = rng.permutation(lam) / lam.sum()
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    a = (q * lam) @ q.conj().T
    return 0.5 * (a + a.conj().T)


KINDS = ("full rank", "rank deficient", "degenerate block", "near-degenerate cluster", "diagonal")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(3, 17))
def test_density_matrices_up_to_sixteen_levels(kind, n):
    a = density_matrix(np.random.default_rng([n, KINDS.index(kind)]), kind, n)
    vals, vecs = hermitian_eigensystem(a)
    assert np.max(np.abs(vals - np.linalg.eigvalsh(a)[::-1])) <= 1e-14
    assert np.linalg.norm(a @ vecs - vecs * vals) <= 1e-13
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= 1e-13
    for i in range(n):
        first = vecs[:, i][np.abs(vecs[:, i]) > 1e-12][0]
        assert abs(first.imag) < 1e-13 and first.real > 0
    again = hermitian_eigensystem(a)
    assert np.array_equal(vals, again[0]) and np.array_equal(vecs, again[1])
