"""Checks of the quadrature oracle itself.

The oracle integrates each axis on the contour through the complex saddle
of its pair.  The real-line leg compares that with a plain uniform-grid
trapezoid sum on the real line, which needs no contour: for an integrand
that is analytic and decays like a Gaussian the trapezoid rule converges
exponentially in the node spacing (Trefethen & Weideman, "The
exponentially convergent trapezoidal rule", SIAM Review 56(3), 2014).  The
grid's primitives are evaluated through numpy's physicists' Hermite
series, not through the oracle's recurrence.
"""

import ast
import math
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import quadrature_oracle
from quadrature_oracle import quadrature_overlap

# 20,001 nodes on [-40, 40]: spacing 4e-3 resolves the narrowest mode drawn
# here (Gaussian std 0.05, index 7) and the strongest relative chirp
# (|beta1 - beta2| <= 4) with a wide margin, and the widest envelope pair
# (std 5) is below 1e-13 at the ends.  Over 400 such pairs the two sums
# differed by at most 5.6e-13; the leg allows 1e-11.
GRID = np.linspace(-40.0, 40.0, 20_001)
REAL_LINE_TOL = 1e-11

WIDTHS = st.floats(math.log(0.1), math.log(10.0)).map(math.exp)
COORDINATE = st.floats(-3.0, 3.0)


def packet(draw):
    return {"type": "gaussian_sum", "terms": [{
        "amplitude": [1.0, 0.0], "center": [draw(COORDINATE)], "width": draw(WIDTHS),
        "linear_phase": [draw(st.floats(-1.5, 1.5))], "quad_phase": draw(st.floats(-2.0, 2.0))}]}


def mode(draw):
    return {"type": "hermite", "scale": draw(WIDTHS), "origin": [draw(COORDINATE)],
            "coefficients": [{"index": [draw(st.integers(0, 7))], "value": [1.0, 0.0]}]}


def on_grid(comp) -> np.ndarray:
    """A 1-D primitive's values on the grid, from the schema's definitions."""
    if comp["type"] == "gaussian_sum":
        t = comp["terms"][0]
        s, k, m = 0.5 * t["width"], t["center"][0], 0
        phase = np.exp(-1j * t["linear_phase"][0] * GRID + 1j * t["quad_phase"] * GRID**2)
    else:
        s, k, m = 0.5 * comp["scale"], comp["origin"][0], comp["coefficients"][0]["index"][0]
        phase = 1.0
    u = (GRID - k) / s
    norm = math.sqrt(2.0**m * math.factorial(m) * math.sqrt(math.pi) * s)
    return np.polynomial.hermite.hermval(u, [0.0] * m + [1.0]) * np.exp(-0.5 * u * u) / norm * phase


@st.composite
def pairs(draw):
    kinds = draw(st.sampled_from([(packet, packet), (packet, mode), (mode, packet), (mode, mode)]))
    return tuple(kind(draw) for kind in kinds)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(pair=pairs())
def test_contour_matches_the_real_line_trapezoid_sum(pair):
    a, b = pair
    trapezoid = (GRID[1] - GRID[0]) * np.sum(on_grid(a) * np.conj(on_grid(b)))
    assert abs(quadrature_overlap(a, b) - trapezoid) <= REAL_LINE_TOL


def test_the_oracle_imports_nothing_from_cdent():
    # an oracle that shares code with the library can share its faults
    tree = ast.parse(Path(quadrature_oracle.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m.split(".")[0] == "cdent"]
