"""Entanglement measures on reduced spectra, and the closed-form
predictions for a pair of Gaussian packets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .density import RANK_TOL, Spectrum, spectrum
from .errors import DomainError, PreconditionError
from .overlaps import OverlapMatrix

CLASSIFY_TOL = 1e-9

SEPARABLE = "separable"
ENTANGLED = "entangled"
MAXIMAL = "maximal"


def _as_spectrum(s) -> Spectrum:
    return s if isinstance(s, Spectrum) else Spectrum(np.asarray(s, dtype=float))


def von_neumann_entropy(s) -> float:
    """-sum lambda log2 lambda in bits, with 0 log 0 = 0."""
    return _as_spectrum(s).entropy_bits


def purity(s) -> float:
    """sum lambda^2 = Tr rho^2."""
    return _as_spectrum(s).purity


def schmidt_rank(s) -> int:
    """Number of eigenvalues above RANK_TOL."""
    return sum(x > RANK_TOL for x in _as_spectrum(s).eigenvalues.tolist())


def _unit_weights(c0: complex, c1: complex) -> tuple[float, float]:
    """(|c0|^2, |c1|^2), once their sum is 1 within 1e-9 (NaN fails)."""
    w0 = abs(c0) ** 2
    w1 = abs(c1) ** 2
    if not abs(w0 + w1 - 1.0) <= 1e-9:
        raise PreconditionError(f"|c0|^2 + |c1|^2 must be 1, got {w0 + w1!r}")
    return w0, w1


def gaussian_pair_eigenvalues(c0: complex, c1: complex, x: complex) -> tuple[float, float]:
    """Closed-form reduced spectrum for a two-level state whose components
    are single packets with amplitudes c0, c1 and unit-amplitude overlap x:

        lambda_pm = 1/2 +- sqrt(1/4 - |c0|^2 |c1|^2 (1 - |x|^2))

    For equal weights |c0|^2 = |c1|^2 = 1/2 this is 1/2 +- |x|/2.
    """
    w0, w1 = _unit_weights(c0, c1)
    ax = abs(x)
    if not ax <= 1.0 + 1e-12:
        raise PreconditionError(f"|x| must be <= 1, got {ax!r}")
    ax = min(ax, 1.0)
    # 1/4 - w0 w1 (1 - |x|^2) rewritten as ((w0-w1)/2)^2 + w0 w1 |x|^2,
    # identical under w0 + w1 = 1 but free of the cancellation that would
    # amplify a last-ulp weight residue through the square root
    disc = (0.5 * (w0 - w1)) ** 2 + w0 * w1 * ax * ax
    root = math.sqrt(disc)
    return 0.5 + root, 0.5 - root


def _classify_spectrum(lam, tol: float) -> str:
    """'separable' when rank one within tol, 'maximal' when within tol of
    the maximally mixed spectrum, else 'entangled'.  ``lam`` lists the
    eigenvalues, descending."""
    n = len(lam)
    if lam[0] > 1.0 - tol:
        return SEPARABLE
    if max(abs(x - 1.0 / n) for x in lam) < tol:
        return MAXIMAL
    return ENTANGLED


@dataclass(frozen=True)
class EntanglementReport:
    """Spectrum plus the derived scalar measures, self-validating."""

    spectrum: Spectrum
    entropy_bits: float
    purity: float
    schmidt_rank: int
    classification: str

    def __post_init__(self):
        s = self.spectrum
        if not -1e-10 <= self.entropy_bits <= float(np.log2(s.n)) + 1e-10:
            raise DomainError(f"entropy {self.entropy_bits} outside [0, log2 {s.n}]")
        # the measures read the spectrum's own entropy and purity, computed once
        if not abs(self.entropy_bits - von_neumann_entropy(s)) <= 1e-10:
            raise DomainError("entropy inconsistent with spectrum")
        if not abs(self.purity - purity(s)) <= 1e-12:
            raise DomainError("purity inconsistent with spectrum")
        if self.classification != _classify_spectrum(s.eigenvalues.tolist(), CLASSIFY_TOL):
            raise DomainError("classification inconsistent with spectrum")


def entanglement_report(rho: OverlapMatrix) -> EntanglementReport:
    """Bundle spectrum, entropy, purity, Schmidt rank and the label."""
    s = spectrum(rho)
    return EntanglementReport(s, s.entropy_bits, s.purity, schmidt_rank(s),
                              _classify_spectrum(s.eigenvalues.tolist(), CLASSIFY_TOL))
