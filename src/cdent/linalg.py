"""The one gate-and-solve path of every overlap matrix h (n <= ~16).

``_gate_and_solve`` alone sequences the gates: ``OverlapMatrix`` passes it a
batch of one h, a sweep its rows and ``galilean-check`` each block of 32
samples.  ``_eigensystem`` is one LAPACK solve (``numpy.linalg.eigh``), no
gate.  Its error is a few ulps times ||A||, so ||A V - V Lambda|| and
||V^H V - I|| stay near 1e-15 for a density matrix, far below every
(absolute) gate on the eigenvalues downstream.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError


def _gate_and_solve(hs) -> list[tuple]:
    """(symmetrized rows, eigenvalues as the PSD gate saw them, eigenvectors
    or None for n <= 2, gated spectrum) of each h (array or rows) of ``hs``.

    ``_symmetrized`` gates each h as it is drawn.  Once ``hs`` ends or raises,
    a ``finally`` makes one ``two_level_eigenvalues`` batch, then per h in
    order one ``_eigensystem`` if n >= 3, the PSD gate (last eigenvalue >=
    -1e-10) and ``_gated_spectrum``: the first failing h gives the error,
    over later ones and over the exception that stopped ``hs``."""
    rows, out = [], []
    try:
        for h in hs:
            rows.append(_symmetrized(h))
    finally:
        pairs = [a for a in rows if len(a) == 2]
        roots = iter(two_level_eigenvalues(pairs) if pairs else ())
        for a in rows:
            vectors = None
            if len(a) == 2:
                values = next(roots)
            elif len(a) == 1:
                values = [a[0][0].real]
            else:
                values, vectors = _eigensystem(a)
            if not values[-1] >= -1e-10:  # NaN fails
                raise DomainError("overlap matrix is not positive semidefinite")
            out.append((a, values, vectors, _gated_spectrum(values if vectors is None else values.tolist())))
    return out


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


def _symmetrized(matrix) -> list[list[complex]]:
    """The rows of 0.5 (m + m^H) as numpy forms them, zero signs included,
    once ``matrix`` (array or rows) passes ``require_hermitian``, unit trace
    within 1e-10 and Cauchy-Schwarz |h_ij|^2 <= h_ii h_jj + 1e-12 on Python
    scalars (which overflow to inf, not to a warning; NaN fails)."""
    a = require_hermitian(matrix)
    rows, diag = [], []  # plain loops: on a 2 x 2 they cost three quarters of comprehensions
    for i, row in enumerate(a):
        rows.append(sym_row := [0j] * len(a))
        sym_row[i] = ((x := row[i]) + x.conjugate()) * (0.5 + 0j)
        diag.append(0.5 * (x.real + x.real))
    trace = sum(diag)
    if not abs(trace - 1.0) <= 1e-10:
        raise DomainError(f"trace must be 1, got {trace!r}")
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            z = a[i][j] + a[j][i].conjugate()
            size = 0.5 * math.hypot(z.real, z.imag)
            if not size * size <= diag[i] * diag[j] + 1e-12:
                raise DomainError(f"Cauchy-Schwarz violated at ({i},{j})")
            rows[i][j] = z * (0.5 + 0j)
            rows[j][i] = (a[j][i] + a[i][j].conjugate()) * (0.5 + 0j)
    return rows


def _eigensystem(m) -> tuple[np.ndarray, np.ndarray]:
    """(values descending, vectors) of an exactly Hermitian matrix (array or
    rows), ungated: ``vectors[:, i]`` belongs to ``values[i]``, its first
    entry above 1e-12 made real positive, so identical inputs give identical
    degenerate subspaces.  DomainError if LAPACK does not converge or the
    eigenvalues are not finite (an entry beyond the float range)."""
    try:
        values, vectors = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise DomainError(f"eigensolver failed: {exc}") from None
    if not np.isfinite(values).all():  # LAPACK's norm of A overflows past the float range
        raise DomainError("eigensolver returned non-finite eigenvalues")
    values, vectors = values[::-1], vectors[:, ::-1]
    lead = vectors[np.argmax(np.abs(vectors) > 1e-12, axis=0), range(len(m))]  # a unit column has one
    return values, vectors * (lead.conj() / np.abs(lead))


def _gated_spectrum(listed: list[float]) -> list[float]:
    """The spectrum gates on eigenvalues in Python floats: each in [-1e-10,
    1+1e-10], unit sum within 1e-10, NaN failing both.  Returns ``listed``
    if in (0, 1] and descending, else its clipped values sorted descending."""
    if not listed:
        raise DomainError("empty spectrum")
    kept, top = True, 1.0
    for x in listed:
        if not -1e-10 <= x <= 1.0 + 1e-10:
            raise DomainError(f"eigenvalues outside [0,1]: {np.array(listed)}")
        kept = kept and 0.0 < x <= top
        top = x
    if not abs(sum(listed) - 1.0) <= 1e-10:
        raise DomainError(f"eigenvalues must sum to 1, got {sum(listed)!r}")
    return listed if kept else np.sort(np.clip(listed, 0.0, 1.0))[::-1].tolist()
