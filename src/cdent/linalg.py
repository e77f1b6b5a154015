"""Hermitian eigensolver for the small dense matrices that appear as
reduced density matrices (n <= ~16).

One LAPACK solve (``numpy.linalg.eigh``) behind the gates every caller
relies on: finite, square, non-empty and Hermitian within 1e-10.  Its
error is a few ulps times ||A||, so the residual ||A V - V Lambda|| and
the orthonormality ||V^H V - I|| stay near 1e-15 for a density matrix;
every gate applied to the eigenvalues downstream is absolute and far
above that.  Eigenvalues come out descending, eigenvector phases fixed.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError


def two_level_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a 2 x 2 Hermitian matrix.

    trace/2 +- sqrt(((m00-m11)/2)^2 + |m01|^2): for a unit-trace matrix this
    is algebraically 1/2 +- sqrt(1/4 - det), but written as a sum of
    non-negative terms so nothing cancels; the naive form loses half the
    mantissa to sqrt amplification near the degenerate point."""
    half_tr = 0.5 * (m[0, 0].real + m[1, 1].real)
    root = np.hypot(0.5 * (m[0, 0].real - m[1, 1].real), abs(m[0, 1]))
    return np.array([half_tr + root, half_tr - root])


def hermitian_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Returns ``(values, vectors)`` with ``vectors[:, i]`` the eigenvector of
    ``values[i]``.  Each eigenvector is phase-fixed so its first entry of
    magnitude above 1e-12 is real positive, which makes degenerate subspaces
    come out deterministically for identical inputs.  Raises DomainError on
    a non-square, empty, non-finite or non-Hermitian matrix, when LAPACK
    reports that the solve did not converge, and when it returns non-finite
    eigenvalues (an entry whose modulus exceeds the float range).
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
    # deviation from A^H in Python scalars, with hypot over real and imaginary
    # parts: no overflow to inf, and no OverflowError from abs()
    dev = [a[p][q] - a[q][p].conjugate() for p in range(n) for q in range(p + 1, n)]
    deviation = math.hypot(*(z.real for z in dev), *(z.imag for z in dev))
    if math.sqrt(2.0) * deviation > 1e-10 or max(abs(row[p].imag) for p, row in enumerate(a)) > 1e-10:
        raise DomainError("matrix is not Hermitian within 1e-10")
    # symmetrize roundoff away; halving first keeps entries near the float
    # limit finite, and an exactly Hermitian matrix comes out unchanged
    m = 0.5 * m + 0.5 * m.conj().T
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"eigensolver failed: {exc}") from None
    if not np.isfinite(values).all():  # LAPACK's norm of A overflows past the float range
        raise DomainError("eigensolver returned non-finite eigenvalues")
    values, vectors = values[::-1], vectors[:, ::-1]
    lead = vectors[np.argmax(np.abs(vectors) > 1e-12, axis=0), range(n)]  # a unit column has one
    return values, vectors * (lead.conj() / np.abs(lead))
