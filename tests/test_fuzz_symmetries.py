"""Exact symmetries of h, which need no oracle.

The oracle fuzz (``test_fuzz_overlaps.py``) certifies h on drawn states
with widths and scales in [0.1, 10], center magnitudes in [0.3, 3], linear
phases in [-1.5, 1.5] and quadratic phases in [-2, 2].  These relations
carry h far outside any drawn range, or pin it bit for bit:

* Dilation p -> lambda p with lambda = 2^k is unitary on L^2(R^d): it maps a
  packet (sigma, k, a, beta) to (sigma/lambda, k/lambda, lambda a,
  lambda^2 beta) and a Hermite frame (scale, origin) to (scale/lambda,
  origin/lambda), every new parameter exact in binary, and leaves h
  unchanged.  Only the logarithms of the closed forms round differently: h
  agrees within 1e-14 relative up to |k| = 250, which carries states drawn
  with widths in [0.3, 3] over the whole width range [1e-76, 1e76].  That
  far out, the packet prefactor's two logarithms would each be of size
  d |k| log 2 and cancel; the closed form takes them of gamma1, gamma2 and
  A scaled by one power of two, which keeps them small.
* Splitting a packet term into two adjacent terms of amplitude a/2, or a
  Hermite expansion into two halves, changes no dictionary entry and no
  coefficient sum (a/2 + a/2 is a exactly), so h is bit-identical.  This
  exercises the sums of ``states._Dictionary``.
* Mixing the levels by a unitary U, phi'_i = sum_j U_ij phi_j through
  ``combine_components``, turns h into U h U^dagger.  n = 2..6 packet,
  Hermite and mixed states agree within 1e-14 relative (1.1e-15 at most
  over 1,500 draws); this exercises the weighted rows of ``_Dictionary``.
* Shifting, phi'(p) = phi(p - s), is unitary: every center and origin moves
  by s, a packet's linear phase a becomes a + 2 beta s and its amplitude
  gains exp(i (a.s + beta |s|^2)), and h is unchanged.  Phase-free states
  with centers and origins on multiples of 1/8, shifted by multiples of
  1/8 up to 2^40, give a bit-identical h, since every shifted center is
  exact and h depends on their differences alone; chirped states shifted
  by up to 4 per axis agree within 1e-14 relative.
"""

import cmath
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cdent.overlaps import dictionary_overlap_matrix, gaussian_term_overlap
from cdent.states import ComponentSum, GaussianSum, GaussianTerm, HermiteExpansion, combine_components

LOG_RANGE = st.floats(math.log(0.3), math.log(3.0)).map(math.exp)
SIGN = st.sampled_from([1.0, -1.0])


def signed(magnitudes):
    return st.tuples(SIGN, magnitudes).map(lambda t: t[0] * t[1])


# amplitudes bounded away from the subnormal range, where halving rounds
PART = st.one_of(st.just(0.0), signed(st.floats(1e-3, 1.0)))
AMPLITUDE = st.builds(complex, PART, PART)


def gaussian_sum(draw, d: int) -> GaussianSum:
    """1-3 phased packets over d axes: widths and center magnitudes in
    [0.3, 3], linear phases in [-1.5, 1.5], quadratic phases in [-0.5, 0.5]."""
    coordinates = st.lists(signed(LOG_RANGE), min_size=d, max_size=d)
    return GaussianSum(tuple(
        GaussianTerm(draw(AMPLITUDE), draw(coordinates), draw(LOG_RANGE),
                     draw(st.lists(st.floats(-1.5, 1.5), min_size=d, max_size=d)),
                     draw(st.floats(-0.5, 0.5)))
        for _ in range(draw(st.integers(1, 3)))
    ))


def hermite(draw, d: int) -> HermiteExpansion:
    """1-3 modes of index at most 3 per axis on one frame, scale and origin
    magnitudes in [0.3, 3]."""
    indices = draw(st.lists(st.tuples(*[st.integers(0, 3)] * d), min_size=1, max_size=3, unique=True))
    return HermiteExpansion(draw(LOG_RANGE), draw(st.lists(signed(LOG_RANGE), min_size=d, max_size=d)),
                            {idx: draw(AMPLITUDE) for idx in indices})


@st.composite
def components(draw):
    """n = 1..3 components over d = 1..3 axes: packet sums, Hermite
    expansions and their weighted sums, drawn by the two builders above."""
    d = draw(st.integers(1, 3))
    comps = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["gaussian", "hermite", "sum"]))
        if kind == "gaussian":
            comps.append(gaussian_sum(draw, d))
        elif kind == "hermite":
            comps.append(hermite(draw, d))
        else:
            comps.append(ComponentSum(((draw(AMPLITUDE), gaussian_sum(draw, d)), (draw(AMPLITUDE), hermite(draw, d)))))
    h = dictionary_overlap_matrix(comps)
    assume(np.max(np.abs(h)) > 1e-3)
    return comps


def dilated(comp, lam: float):
    """The component under p -> lam p, written through the parameters."""
    if isinstance(comp, GaussianSum):
        return GaussianSum(tuple(
            GaussianTerm(t.amplitude, t.center / lam, t.width / lam, t.linear_phase * lam, t.quad_phase * lam**2)
            for t in comp.terms
        ))
    if isinstance(comp, HermiteExpansion):
        return HermiteExpansion(comp.scale / lam, comp.origin / lam, comp.coefficients)
    return ComponentSum(tuple((w, dilated(part, lam)) for w, part in comp.parts))


def dilation_change(comps, k: int) -> float:
    """max |h(dilated) - h| / max |h| at lambda = 2^k."""
    h = dictionary_overlap_matrix(comps)
    moved = dictionary_overlap_matrix([dilated(c, math.ldexp(1.0, k)) for c in comps])
    return np.max(np.abs(moved - h)) / np.max(np.abs(h))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(comps=components(), k=st.integers(-120, 120))
def test_dilation_by_a_power_of_two_leaves_h_unchanged(comps, k):
    assert dilation_change(comps, k) <= 1e-14


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(comps=components(), k=st.integers(121, 250), sign=SIGN)
def test_dilation_over_the_whole_width_range(comps, k, sign):
    assert dilation_change(comps, int(sign * k)) <= 1e-14


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(d=st.integers(1, 3), k=st.integers(121, 250), sign=SIGN, data=st.data())
def test_dilation_moves_a_packet_overlap_by_rounding_only(d, k, sign, data):
    # far out, the prefactor (d/4) log(4 gamma1 gamma2) - (d/2) log A would
    # subtract two logarithms of size about d |k| log 2 and keep their
    # rounding, up to 1.4e-13 in log G; the closed form takes them of gamma1,
    # gamma2 and A scaled by one power of two.  The h fuzz above seldom
    # shows the difference, one packet pair does
    def packet():
        return GaussianTerm(1.0, data.draw(st.lists(signed(LOG_RANGE), min_size=d, max_size=d)), data.draw(LOG_RANGE),
                            data.draw(st.lists(st.floats(-1.5, 1.5), min_size=d, max_size=d)),
                            data.draw(st.floats(-0.5, 0.5)))

    pair = (GaussianSum((packet(),)), GaussianSum((packet(),)))
    moved = [dilated(c, math.ldexp(1.0, int(sign * k))).terms[0] for c in pair]
    assert abs(gaussian_term_overlap(*moved) - gaussian_term_overlap(*(c.terms[0] for c in pair))) <= 1e-14


def pieces(comp) -> list:
    """The pieces of a component a split can take: its packet terms and
    its Hermite expansions."""
    if isinstance(comp, GaussianSum):
        return list(comp.terms)
    if isinstance(comp, HermiteExpansion):
        return [comp]
    return [piece for _, part in comp.parts for piece in pieces(part)]


def split(comp, target):
    """The component with the piece ``target`` split in two halves: a packet
    term into two adjacent terms of amplitude a/2, a Hermite expansion into
    the sum of two copies weighted 1/2 (a weighted sum's parts flatten)."""
    if isinstance(comp, GaussianSum):
        return GaussianSum(tuple(u for t in comp.terms for u in ([t.scaled(0.5)] * 2 if t is target else [t])))
    if isinstance(comp, HermiteExpansion):
        return ComponentSum(((0.5, comp), (0.5, comp))) if comp is target else comp
    return ComponentSum(tuple((w, split(part, target)) for w, part in comp.parts))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(comps=components(), data=st.data())
def test_splitting_a_term_in_halves_leaves_h_bit_identical(comps, data):
    chi = data.draw(st.integers(0, len(comps) - 1))
    target = data.draw(st.sampled_from(pieces(comps[chi])))
    halves = list(comps)
    halves[chi] = split(comps[chi], target)
    assert np.array_equal(dictionary_overlap_matrix(halves), dictionary_overlap_matrix(comps))


@st.composite
def level_states(draw):
    """n = 2..6 components over d = 1..3 axes: all packet sums, all Hermite
    expansions, or each component either."""
    d = draw(st.integers(1, 3))
    family = draw(st.sampled_from(["gaussian", "hermite", "mixed"]))
    comps = []
    for _ in range(draw(st.integers(2, 6))):
        kind = family if family != "mixed" else draw(st.sampled_from(["gaussian", "hermite"]))
        comps.append(gaussian_sum(draw, d) if kind == "gaussian" else hermite(draw, d))
    assume(np.max(np.abs(dictionary_overlap_matrix(comps))) > 1e-3)
    return comps


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Q of the QR factors of a complex Gaussian matrix, its columns phased
    by R's diagonal: Haar-distributed on U(n)."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (r.diagonal() / np.abs(r.diagonal()))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(comps=level_states(), seed=st.integers(0, 2**32 - 1))
def test_mixing_the_levels_conjugates_h(comps, seed):
    # components phi'_i = sum_j U_ij phi_j built by combine_components, one
    # dictionary row each: their overlap matrix is U h U^dagger
    u = random_unitary(len(comps), seed)
    h = dictionary_overlap_matrix(comps)
    mixed = [combine_components(row, comps) for row in u]
    assert np.max(np.abs(dictionary_overlap_matrix(mixed) - u @ h @ u.conj().T)) <= 1e-14 * np.max(np.abs(h))


def shifted(comp, s: np.ndarray):
    """The component phi(p - s), written through the parameters: every center
    and origin moves by s, and a packet's phases exp(-i a.p + i beta |p|^2)
    at p - s give the linear phase a + 2 beta s and the constant factor
    exp(i (a.s + beta |s|^2)) on its amplitude."""
    if isinstance(comp, GaussianSum):
        return GaussianSum(tuple(
            GaussianTerm(t.amplitude * cmath.exp(1j * (t.linear_phase @ s + t.quad_phase * (s @ s))), t.center + s,
                         t.width, t.linear_phase + 2.0 * t.quad_phase * s, t.quad_phase)
            for t in comp.terms
        ))
    if isinstance(comp, HermiteExpansion):
        return HermiteExpansion(comp.scale, comp.origin + s, comp.coefficients)
    return ComponentSum(tuple((w, shifted(part, s)) for w, part in comp.parts))


def phase_free_on_eighths(comp):
    """The component with phase-free packets and every center and origin
    rounded to a multiple of 1/8."""
    if isinstance(comp, GaussianSum):
        return GaussianSum(tuple(GaussianTerm(t.amplitude, np.round(8.0 * t.center) / 8.0, t.width)
                                 for t in comp.terms))
    if isinstance(comp, HermiteExpansion):
        return HermiteExpansion(comp.scale, np.round(8.0 * comp.origin) / 8.0, comp.coefficients)
    return ComponentSum(tuple((w, phase_free_on_eighths(part)) for w, part in comp.parts))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(comps=components(), data=st.data())
def test_shifting_phase_free_states_on_eighths_leaves_h_bit_identical(comps, data):
    # s a multiple of 1/8 up to 2^40 per axis: every shifted center is exact,
    # and h depends on the differences of centers alone
    comps = [phase_free_on_eighths(c) for c in comps]
    d = comps[0].dimension
    s = np.array(data.draw(st.lists(st.integers(-2**43, 2**43), min_size=d, max_size=d))) / 8.0
    assert np.array_equal(dictionary_overlap_matrix([shifted(c, s) for c in comps]),
                          dictionary_overlap_matrix(comps))


@settings(max_examples=80, derandomize=True, database=None, deadline=None)
@given(comps=components(), data=st.data())
def test_shifting_chirped_states_leaves_h_unchanged(comps, data):
    d = comps[0].dimension
    s = np.array(data.draw(st.lists(st.floats(-4.0, 4.0), min_size=d, max_size=d)))
    h = dictionary_overlap_matrix(comps)
    moved = dictionary_overlap_matrix([shifted(c, s) for c in comps])
    assert np.max(np.abs(moved - h)) <= 1e-14 * np.max(np.abs(h))
