"""Property fuzz of the exact overlap path against the quadrature oracle.

Valid mixed states: n = 1..4 components over d = 1..6 axes, d drawn
uniformly, each component a sum of 1-2 phased Gaussian packets or a Hermite
expansion of 1-3 modes (indices 0..3 per axis), normalized.  Packet widths
and Hermite scales are drawn log-uniformly over [0.1, 10], and the magnitude
of every center and origin coordinate log-uniformly over [0.3, 3] with a
random sign; linear phases are uniform over [-1.5, 1.5] and quadratic
phases over [-2, 2].  Every entry of ``dictionary_overlap_matrix`` must
agree with ``tests/quadrature_oracle.py`` within 1e-12.  The oracle
integrates axis by axis on each pair's saddle contour, so neither strong
chirps nor d = 6 cost it more than a few small rules.

A second fuzz draws every component from a small pool of packets and
Hermite frames, so equal packets and frames repeat within and across
components and the dictionary merges them.  The pool holds a twin pair: one
center or origin with a coordinate 0.0 and the same with -0.0, which are
two packets but one frame.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdent.overlaps import dictionary_overlap_matrix
from cdent.states import ComponentSum, GaussianSum, GaussianTerm, HermiteExpansion, HybridState, norm, normalize
from conftest import as_schema
from quadrature_oracle import quadrature_overlap

LOG_RANGE = st.floats(math.log(0.3), math.log(3.0)).map(math.exp)
WIDTHS = st.floats(math.log(0.1), math.log(10.0)).map(math.exp)
QUAD_PHASES = st.floats(-2.0, 2.0)


def signed(magnitudes):
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitudes).map(lambda t: t[0] * t[1])


def amplitude():
    return st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


@st.composite
def mixed_states(draw):
    d = draw(st.integers(1, 6))
    coordinates = st.lists(signed(LOG_RANGE), min_size=d, max_size=d)
    components = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            terms = tuple(
                GaussianTerm(draw(amplitude()), draw(coordinates), draw(WIDTHS),
                             draw(st.lists(st.floats(-1.5, 1.5), min_size=d, max_size=d)),
                             draw(QUAD_PHASES))
                for _ in range(draw(st.integers(1, 2)))
            )
            components.append(GaussianSum(terms))
        else:
            indices = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=3, unique=True))
            components.append(HermiteExpansion(draw(WIDTHS), draw(coordinates),
                                               {idx: draw(amplitude()) for idx in indices}))
    state = HybridState(tuple(components))
    assume(norm(state) > 1e-3)
    return normalize(state)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(state=mixed_states())
def test_every_entry_matches_the_quadrature_oracle(state):
    comps = state.components
    h = dictionary_overlap_matrix(comps)
    for i, a in enumerate(comps):
        for j in range(i, len(comps)):
            assert abs(h[i, j] - quadrature_overlap(as_schema(a), as_schema(comps[j]))) < 1e-12
    assert np.array_equal(h, h.conj().T)


@st.composite
def pooled_states(draw):
    d = draw(st.integers(1, 6))
    coordinates = st.lists(signed(LOG_RANGE), min_size=d, max_size=d)
    base = draw(coordinates)
    zero, twin = [0.0] + base[1:], [-0.0] + base[1:]

    def packet(center):
        return (center, draw(WIDTHS), draw(st.lists(st.floats(-1.5, 1.5), min_size=d, max_size=d)),
                draw(QUAD_PHASES))

    width, linear, quad = packet(zero)[1:]
    packets = [packet(draw(coordinates)), (zero, width, linear, quad), (twin, width, linear, quad)]
    scale = draw(WIDTHS)
    frames = [(draw(WIDTHS), draw(coordinates)), (scale, zero), (scale, twin)]
    indices = st.tuples(*[st.integers(0, 3)] * d)

    def gaussian_sum():
        return GaussianSum(tuple(GaussianTerm(draw(amplitude()), *draw(st.sampled_from(packets)))
                                 for _ in range(draw(st.integers(1, 3)))))

    def hermite():
        return HermiteExpansion(*draw(st.sampled_from(frames)),
                                {draw(indices): draw(amplitude()) for _ in range(draw(st.integers(1, 3)))})

    components = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["gaussian", "hermite", "sum"]))
        if kind == "gaussian":
            components.append(gaussian_sum())
        elif kind == "hermite":
            components.append(hermite())
        else:
            components.append(ComponentSum(((draw(amplitude()), gaussian_sum()), (draw(amplitude()), hermite()))))
    state = HybridState(tuple(components))
    assume(norm(state) > 1e-3)
    return normalize(state)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(state=pooled_states())
def test_repeated_packets_and_frames_match_the_quadrature_oracle(state):
    comps = state.components
    h = dictionary_overlap_matrix(comps)
    for i, a in enumerate(comps):
        for j in range(i, len(comps)):
            assert abs(h[i, j] - quadrature_overlap(as_schema(a), as_schema(comps[j]))) < 1e-12
    assert np.array_equal(h, h.conj().T)
