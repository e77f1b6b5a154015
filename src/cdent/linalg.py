"""Hermitian gate and eigensolver for the small dense matrices that appear
as reduced density matrices (n <= ~16).

``require_hermitian`` is the one finite/Hermitian gate.  ``OverlapMatrix``
and ``hermitian_eigensystem`` call it once and pass the symmetrized matrix
to ``_eigensystem``: one LAPACK solve (``numpy.linalg.eigh``), no gate.  Its
error is a few ulps times ||A||, so ||A V - V Lambda|| and ||V^H V - I||
stay near 1e-15 for a density matrix, far below every (absolute) gate on
the eigenvalues downstream.  Eigenvalues descend, eigenvector phases fixed.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError


def two_level_eigenvalues(ms) -> list[list[float]]:
    """Descending eigenvalues [plus, minus] in Python floats of each 2 x 2
    Hermitian matrix (array or rows) of ``ms``; one matrix is a batch of one.

    trace/2 +- sqrt(((m00-m11)/2)^2 + |m01|^2): for a unit-trace matrix this
    is algebraically 1/2 +- sqrt(1/4 - det), but written as a sum of
    non-negative terms so nothing cancels; the naive form loses half the
    mantissa to sqrt amplification near the degenerate point.  One np.hypot
    call (math.hypot may round differently): same bits at any batch size."""
    halves, offsets, moduli = [], [], []
    for (m00, m01), (_, m11) in ms:
        halves.append(0.5 * (m00.real + m11.real))
        offsets.append(0.5 * (m00.real - m11.real))
        moduli.append(abs(m01))
    return [[half + root, half - root] for half, root in zip(halves, np.hypot(offsets, moduli).tolist())]


def require_hermitian(m) -> list[list[complex]]:
    """``m`` (array or rows) as rows of Python complex once it is square,
    non-empty, finite and Hermitian entry by entry, |a_ij - conj(a_ji)| <=
    1e-10 for i <= j; DomainError otherwise.  Square rows of Python complex
    are taken as they are, anything else through one array.  On Python
    scalars, with hypot: nothing overflows to a warning or an error, and
    NaN fails."""
    a = m
    if not _complex_rows(a):
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DomainError(f"expected a square matrix, got shape {m.shape}")
        if m.shape[0] == 0:
            raise DomainError("expected a non-empty matrix, got shape (0, 0)")
        a = m.tolist()
    n = len(a)
    for i, row in enumerate(a):
        for j in range(i, n):
            if not math.hypot((z := row[j] - a[j][i].conjugate()).real, z.imag) <= 1e-10:
                if not all(map(cmath.isfinite, sum(a, []))):
                    raise DomainError("matrix has non-finite entries: entries must be finite")
                raise DomainError("matrix is not Hermitian within 1e-10")
    return a


def _complex_rows(m) -> bool:
    """Whether ``m`` is a non-empty square list of lists of Python complex
    (plain loops: on a 2 x 2 they cost a third of generator expressions)."""
    if type(m) is not list or not m:
        return False
    n = len(m)
    for row in m:
        if type(row) is not list or len(row) != n:
            return False
        for z in row:
            if type(z) is not complex:
                return False
    return True


def hermitian_eigensystem(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Returns ``(values, vectors)`` with ``vectors[:, i]`` the eigenvector of
    ``values[i]``, phase-fixed so its first entry of magnitude above 1e-12
    is real positive: identical inputs give identical degenerate subspaces.
    Raises DomainError on a matrix that ``require_hermitian`` refuses, when
    LAPACK reports that the solve did not converge, and on non-finite
    eigenvalues (an entry whose modulus exceeds the float range).
    """
    m = np.array(matrix, dtype=complex)
    require_hermitian(m)
    # symmetrize roundoff away; halving first keeps entries near the float
    # limit finite, and an exactly Hermitian matrix comes out unchanged
    return _eigensystem(0.5 * m + 0.5 * m.conj().T)


def _eigensystem(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``hermitian_eigensystem`` of an exactly Hermitian matrix that passed
    ``require_hermitian``, without gating it again."""
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"eigensolver failed: {exc}") from None
    if not np.isfinite(values).all():  # LAPACK's norm of A overflows past the float range
        raise DomainError("eigensolver returned non-finite eigenvalues")
    values, vectors = values[::-1], vectors[:, ::-1]
    lead = vectors[np.argmax(np.abs(vectors) > 1e-12, axis=0), range(m.shape[0])]  # a unit column has one
    return values, vectors * (lead.conj() / np.abs(lead))
