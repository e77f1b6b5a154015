"""Self-contained Hermitian eigensolver for the small dense matrices that
appear as reduced density matrices (n <= ~8).

Cyclic complex Jacobi rotations; deterministic sweep order, deterministic
eigenvector phases.  numpy's LAPACK wrapper is used only as an independent
cross-check in the test suite.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

_OFFDIAG_TOL = 1e-14
_MAX_SWEEPS = 60
_TINY = np.finfo(float).tiny


def _offdiag_norm(a: np.ndarray) -> float:
    n = a.shape[0]
    mask = ~np.eye(n, dtype=bool)
    return float(np.sqrt(np.sum(np.abs(a[mask]) ** 2)))


def two_level_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a 2 x 2 Hermitian matrix.

    trace/2 +- sqrt(((m00-m11)/2)^2 + |m01|^2): for a unit-trace matrix this
    is algebraically 1/2 +- sqrt(1/4 - det), but written as a sum of
    non-negative terms so nothing cancels; the naive form loses half the
    mantissa to sqrt amplification near the degenerate point."""
    half_tr = 0.5 * (m[0, 0].real + m[1, 1].real)
    root = np.hypot(0.5 * (m[0, 0].real - m[1, 1].real), abs(m[0, 1]))
    return np.array([half_tr + root, half_tr - root])


def hermitian_eigensystem(
    matrix: np.ndarray, tol: float = _OFFDIAG_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Returns ``(values, vectors)`` with ``vectors[:, i]`` the eigenvector of
    ``values[i]``.  Each eigenvector is phase-fixed so its first entry of
    magnitude above 1e-12 is real positive, which makes degenerate subspaces
    come out deterministically for identical inputs.  The stopping test is
    relative: iteration ends once the off-diagonal norm is at most
    ``tol * max(1, ||A||_F)``, which is ``tol`` itself for a unit-trace
    density matrix (||A||_F <= 1).  Raises DomainError on non-finite
    entries and when the off-diagonal norm is still above that bound after
    ``_MAX_SWEEPS`` sweeps.
    """
    a = np.array(matrix, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise DomainError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("matrix has non-finite entries")
    if _offdiag_norm(a - a.conj().T) > 1e-10 or np.max(np.abs(a.imag.diagonal())) > 1e-10:
        raise DomainError("matrix is not Hermitian within 1e-10")
    a = 0.5 * (a + a.conj().T)  # symmetrize roundoff away
    tol = tol * max(1.0, float(np.linalg.norm(a)))

    v = np.eye(n, dtype=complex)
    sweeps = 0
    while not _offdiag_norm(a) <= tol:
        if sweeps == _MAX_SWEEPS:
            raise DomainError(
                f"Jacobi eigensolver did not converge in {_MAX_SWEEPS} sweeps "
                f"(off-diagonal norm {_offdiag_norm(a):.3e} > {tol:g})"
            )
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p, q]
                # zero and subnormal pivots are skipped whatever tol is:
                # normalizing them to a phase would divide 0/0 or overflow
                if abs(g) <= max(tol / (n * n), _TINY):
                    continue
                phase = g / abs(g)
                tau = (a[q, q].real - a[p, p].real) / (2.0 * abs(g))
                # smaller-magnitude root of t^2 + 2*tau*t - 1 = 0
                sign = 1.0 if tau >= 0.0 else -1.0
                t = sign / (abs(tau) + np.hypot(1.0, tau))
                c = 1.0 / np.hypot(1.0, t)
                s = t * c
                u = np.eye(n, dtype=complex)
                u[p, p] = c
                u[p, q] = s * phase
                u[q, p] = -s * np.conj(phase)
                u[q, q] = c
                a = u.conj().T @ a @ u
                v = v @ u

    values = a.diagonal().real.copy()
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vectors = v[:, order]
    for i in range(n):
        col = vectors[:, i]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size:
            w = col[nz[0]]
            vectors[:, i] = col * (np.conj(w) / abs(w))
    return values, vectors
