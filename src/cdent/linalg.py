"""Self-contained Hermitian eigensolver for the small dense matrices that
appear as reduced density matrices (n <= ~16).

Cyclic complex Jacobi rotations; deterministic sweep order, deterministic
eigenvector phases.  Each rotation updates two rows and two columns in
scalar arithmetic, O(n) per rotation: at these sizes numpy's per-call
overhead costs more than the arithmetic.  numpy's LAPACK wrapper is used
only as an independent cross-check in the test suite.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError

_OFFDIAG_TOL = 1e-14
_MAX_SWEEPS = 60
_TINY = np.finfo(float).tiny


def _offdiag_norm(upper) -> float:
    """Off-diagonal Frobenius norm of a (skew-)Hermitian matrix from its strict upper triangle."""
    return math.sqrt(2.0) * math.hypot(*map(abs, upper))  # hypot: no overflow to inf


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
    m = np.array(matrix, dtype=complex)
    n = m.shape[0]
    if m.shape != (n, n):
        raise DomainError(f"expected a square matrix, got shape {m.shape}")
    if n == 0:
        raise DomainError("expected a non-empty matrix, got shape (0, 0)")
    a = m.tolist()
    if not all(map(cmath.isfinite, sum(a, []))):
        raise DomainError("matrix has non-finite entries")
    upper = [(p, q) for p in range(n) for q in range(p + 1, n)]
    if (_offdiag_norm(a[p][q] - a[q][p].conjugate() for p, q in upper) > 1e-10
            or max(abs(row[p].imag) for p, row in enumerate(a)) > 1e-10):
        raise DomainError("matrix is not Hermitian within 1e-10")
    # symmetrize roundoff away; rotations below keep A exactly Hermitian
    for p, row in enumerate(a):
        row[p] = complex(row[p].real)
    for p, q in upper:
        a[p][q] = 0.5 * (a[p][q] + a[q][p].conjugate())
        a[q][p] = a[p][q].conjugate()
    tol = tol * max(1.0, math.hypot(*map(abs, sum(a, []))))  # hypot: no overflow to inf
    # zero and subnormal pivots are skipped whatever tol is: normalizing
    # them to a phase would divide 0/0 or overflow
    floor = max(tol / (n * n), _TINY)

    v = np.eye(n, dtype=complex).tolist()  # columns of V
    sweeps = 0
    while not _offdiag_norm(a[p][q] for p, q in upper) <= tol:
        if sweeps == _MAX_SWEEPS:
            raise DomainError(
                f"Jacobi eigensolver did not converge in {_MAX_SWEEPS} sweeps "
                f"(off-diagonal norm {_offdiag_norm(a[p][q] for p, q in upper):.3e} > {tol:g})"
            )
        sweeps += 1
        for p, q in upper:
            rp, rq = a[p], a[q]
            g = rp[q]
            if abs(g) <= floor:
                continue
            tau = (rq[q].real - rp[p].real) / (2.0 * abs(g))
            # smaller-magnitude root of t^2 + 2*tau*t - 1 = 0
            sign = 1.0 if tau >= 0.0 else -1.0
            t = sign / (abs(tau) + math.hypot(1.0, tau))
            c = 1.0 / math.hypot(1.0, t)
            u = t * c * (g / abs(g))  # U = I but U[p,p] = U[q,q] = c, U[p,q] = u = -conj(U[q,p])
            ub = u.conjugate()
            # the pivot block U^H B U, from B U
            bpp, bqp = rp[p] * c - g * ub, rq[p] * c - rq[q] * ub
            bpq, bqq = rp[p] * u + g * c, rq[p] * u + rq[q] * c
            # columns p and q of A U, mirrored into rows p and q of U^H A U
            for k, row in enumerate(a):
                if k != p and k != q:
                    x, y = row[p], row[q]
                    row[p] = xp = x * c - y * ub
                    row[q] = xq = x * u + y * c
                    rp[k], rq[k] = xp.conjugate(), xq.conjugate()
            rp[p], rq[q] = c * bpp - u * bqp, ub * bpq + c * bqq
            rp[q] = c * bpq - u * bqq
            rq[p] = rp[q].conjugate()
            v[p], v[q] = ([x * c - y * ub for x, y in zip(v[p], v[q])],
                          [x * u + y * c for x, y in zip(v[p], v[q])])

    diagonal = [row[p].real for p, row in enumerate(a)]
    order = sorted(range(n), key=lambda j: -diagonal[j])  # stable: ties keep index order
    columns = []
    for j in order:
        w = next(z for z in v[j] if abs(z) > 1e-12)  # a unit column has one
        f = w.conjugate() / abs(w)
        columns.append([z * f for z in v[j]])
    return np.array([diagonal[j] for j in order]), np.array(columns, dtype=complex).T.copy()
