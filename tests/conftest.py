"""Shared fixtures and randomized-state factories for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from cdent.stateio import component_to_dict
from cdent.states import (
    ComponentSum,
    GaussianSum,
    GaussianTerm,
    HermiteExpansion,
    HybridState,
    normalize,
)

EQUAL = 1.0 / np.sqrt(2.0)
ZHAT = np.array([0.0, 0.0, 1.0])


def as_schema(comp):
    """A library component in the quadrature oracle's input form: its
    schema-v1 dict, or (weight, dict) pairs for a formal sum."""
    if isinstance(comp, ComponentSum):
        return [(w, component_to_dict(part)) for w, part in comp.parts]
    return component_to_dict(comp)


def random_gaussian_component(
    rng: np.random.Generator,
    d: int,
    max_terms: int = 2,
    width_range=(0.5, 2.5),
    center_scale: float = 3.0,
    phase_scale: float = 1.5,
    quad_scale: float = 0.5,
) -> GaussianSum:
    n_terms = int(rng.integers(1, max_terms + 1))
    terms = tuple(
        GaussianTerm(
            rng.normal() + 1j * rng.normal(),
            rng.uniform(-center_scale, center_scale, d),
            rng.uniform(*width_range),
            rng.uniform(-phase_scale, phase_scale, d),
            rng.uniform(-quad_scale, quad_scale),
        )
        for _ in range(n_terms)
    )
    return GaussianSum(terms)


def random_hermite_component(
    rng: np.random.Generator, d: int, max_order: int = 3, max_modes: int = 3
) -> HermiteExpansion:
    scale = rng.uniform(0.5, 2.5)
    origin = rng.uniform(-2.0, 2.0, d)
    n_modes = int(rng.integers(1, max_modes + 1))
    coeffs = {}
    for _ in range(n_modes):
        idx = tuple(int(m) for m in rng.integers(0, max_order + 1, d))
        coeffs[idx] = rng.normal() + 1j * rng.normal()
    return HermiteExpansion(scale, origin, coeffs)


def random_state(
    rng: np.random.Generator,
    n: int | None = None,
    d: int | None = None,
    hermite_fraction: float = 0.4,
) -> HybridState:
    """A normalized state with a random mix of representations."""
    if n is None:
        n = int(rng.integers(2, 5))
    if d is None:
        d = int(rng.choice([1, 2, 3], p=[0.4, 0.4, 0.2]))
    comps = []
    for _ in range(n):
        if rng.random() < hermite_fraction:
            comps.append(random_hermite_component(rng, d))
        else:
            comps.append(random_gaussian_component(rng, d))
    return normalize(HybridState(tuple(comps)))


def random_gaussian_state(
    rng: np.random.Generator, n: int | None = None, d: int | None = None, **kwargs
) -> HybridState:
    if n is None:
        n = int(rng.integers(2, 5))
    if d is None:
        d = int(rng.integers(1, 4))
    comps = tuple(random_gaussian_component(rng, d, **kwargs) for _ in range(n))
    return normalize(HybridState(comps))


def random_weights(rng: np.random.Generator) -> tuple[complex, complex]:
    """Random (c0, c1) with |c0|^2 + |c1|^2 = 1 and random phases."""
    w = rng.uniform(0.02, 0.98)
    ph0, ph1 = np.exp(1j * rng.uniform(0, 2 * np.pi, 2))
    return np.sqrt(w) * ph0, np.sqrt(1.0 - w) * ph1


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260809)
