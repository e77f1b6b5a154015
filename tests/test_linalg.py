"""The Hermitian gate and eigensolver against matrices of known spectrum
and against defining properties: residual, orthonormality and
reconstruction."""

import numpy as np
import pytest

from cdent.errors import DomainError
from cdent.linalg import _eigensystem, require_hermitian


def eigensystem(a):
    """``require_hermitian`` on ``a``, then ``_eigensystem`` of 0.5 (a + a^H),
    halved first so entries near the float limit stay finite."""
    m = np.array(a, dtype=complex)
    require_hermitian(m)
    return _eigensystem(0.5 * m + 0.5 * m.conj().T)


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (a + a.conj().T)


def built_from(rng, lam):
    """The Hermitian matrix Q diag(lam) Q^H for a random unitary Q."""
    n = len(lam)
    q = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    a = (q * lam) @ q.conj().T
    return 0.5 * (a + a.conj().T)


def assert_eigensystem(a, vals, vecs, tol):
    """Residual, orthonormality and reconstruction V Lambda V^H, each
    within ``tol`` in the Frobenius norm."""
    n = a.shape[0]
    assert np.linalg.norm(a @ vecs - vecs * vals) <= tol
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(n)) <= tol
    assert np.linalg.norm((vecs * vals) @ vecs.conj().T - a) <= tol


class TestJacobi:
    def test_recovers_the_spectrum_of_random_matrices(self, rng):
        for _ in range(60):
            n = int(rng.integers(2, 7))
            lam = rng.normal(size=n)
            vals = eigensystem(built_from(rng, lam))[0]
            assert np.max(np.abs(vals - np.sort(lam)[::-1])) < 1e-12 * max(1.0, np.max(np.abs(lam)))

    def test_eigenvector_residual_and_orthonormality(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 6))
            a = random_hermitian(rng, n)
            vals, vecs = eigensystem(a)
            assert np.max(np.abs(a @ vecs - vecs * vals)) < 1e-12 * max(1.0, np.max(np.abs(vals)))
            assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) < 1e-12
            assert np.max(np.abs((vecs * vals) @ vecs.conj().T - a)) < 1e-12 * max(1.0, np.max(np.abs(vals)))

    def test_rank_one_matrix_exact(self):
        h = np.array([[0.36, 0.48j], [-0.48j, 0.64]])
        vals = eigensystem(h)[0]
        assert vals[0] == pytest.approx(1.0, abs=1e-14)
        assert vals[1] == pytest.approx(0.0, abs=1e-14)

    def test_deterministic_output(self, rng):
        a = random_hermitian(rng, 4)
        v1 = eigensystem(a)
        v2 = eigensystem(a)
        assert np.array_equal(v1[0], v2[0])
        assert np.array_equal(v1[1], v2[1])

    def test_phase_convention(self, rng):
        a = random_hermitian(rng, 3)
        _, vecs = eigensystem(a)
        for i in range(3):
            first = vecs[:, i][np.abs(vecs[:, i]) > 1e-12][0]
            assert abs(first.imag) < 1e-13
            assert first.real > 0

    def test_degenerate_spectrum(self):
        vals, vecs = eigensystem(0.25 * np.eye(4))
        assert np.allclose(vals, 0.25)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) < 1e-14

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            eigensystem(np.array([[1.0, 2.0], [0.5, 1.0]]))
        with pytest.raises(DomainError):
            eigensystem(np.ones((2, 3)))

    def test_rejects_non_finite_entries(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(DomainError, match="non-finite"):
                eigensystem(np.array([[bad, 0.3], [0.3, 2.0]]))

    def test_diagonal_and_extreme_pivot_matrices(self):
        # an exactly diagonal matrix gives its diagonal back, descending
        vals, vecs = eigensystem(np.diag([1.0, 3.0, 2.0]))
        assert vals.tolist() == [3.0, 2.0, 1.0]
        assert np.array_equal(np.abs(vecs), np.eye(3)[:, [1, 2, 0]])
        # a pivot 1e-310 times the diagonal gap still gives finite output
        vals, vecs = eigensystem(np.array([[0.0, 1e-150], [1e-150, 1e160]]))
        assert np.all(np.isfinite(vals)) and np.all(np.isfinite(vecs))
        assert vals[0] == 1e160 and abs(vals[1]) <= 1e-300

    def test_solver_failure_is_a_domain_error(self, rng, monkeypatch):
        def fail(m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(DomainError, match="did not converge"):
            eigensystem(random_hermitian(rng, 5))

    def test_entries_beyond_the_square_root_of_the_float_range(self, rng):
        # at 1e200 every entry squared overflows; the gates form no squares
        # and the solve scales, so values and vectors stay accurate
        lam = 1e200 * rng.normal(size=4)
        a = built_from(rng, lam)
        vals, vecs = eigensystem(a)
        assert np.max(np.abs(vals - np.sort(lam)[::-1])) <= 1e-14 * np.max(np.abs(lam))
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(4))) < 1e-12
        # an entry whose modulus exceeds the float range is refused, not
        # solved to nan, whether the matrix is Hermitian or not
        z = 1.7e308 + 1.7e308j
        with pytest.raises(DomainError, match="non-finite eigenvalues"):
            eigensystem(np.array([[0.0, z], [np.conj(z), 0.0]]))
        with pytest.raises(DomainError, match="not Hermitian"):
            eigensystem(np.array([[0.0, z], [0.0, 0.0]]))

    def test_rejects_an_empty_matrix(self):
        with pytest.raises(DomainError, match=r"non-empty matrix, got shape \(0, 0\)"):
            eigensystem(np.zeros((0, 0)))

    def test_stopping_test_is_relative_to_the_matrix_norm(self):
        # 16 x 16 with Frobenius norm 500: the solve's error is relative to
        # the norm, about 1e-13 here, which an absolute 1e-14 never accepts
        rng = np.random.default_rng(0)
        lam = rng.normal(size=16)
        lam *= 500.0 / np.linalg.norm(lam)
        a = built_from(rng, lam)
        vals, vecs = eigensystem(a)
        assert np.max(np.abs(vals - np.sort(lam)[::-1])) < 1e-12 * 500.0
        assert np.max(np.abs(a @ vecs - vecs * vals)) < 1e-12 * 500.0


def density_matrix(rng, kind, n):
    """A unit-trace density matrix Q diag(lam) Q^H of one spectral kind and
    the spectrum lam it was built from."""
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
        lam /= lam.sum()
        return np.diag(lam).astype(complex), lam
    lam = rng.permutation(lam) / lam.sum()
    return built_from(rng, lam), lam


KINDS = ("full rank", "rank deficient", "degenerate block", "near-degenerate cluster", "diagonal")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", range(3, 17))
def test_density_matrices_up_to_sixteen_levels(kind, n):
    a, lam = density_matrix(np.random.default_rng([n, KINDS.index(kind)]), kind, n)
    vals, vecs = eigensystem(a)
    assert np.max(np.abs(vals - np.sort(lam)[::-1])) <= 1e-14
    assert_eigensystem(a, vals, vecs, 1e-13)
    for i in range(n):
        first = vecs[:, i][np.abs(vecs[:, i]) > 1e-12][0]
        assert abs(first.imag) < 1e-13 and first.real > 0
    again = eigensystem(a)
    assert np.array_equal(vals, again[0]) and np.array_equal(vecs, again[1])
