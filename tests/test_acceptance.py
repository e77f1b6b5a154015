"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; the whole suite is analytic-formula reproduction plus randomized
property checks and finishes in well under a minute.
"""

import numpy as np

from cdent.density import spectrum, trace_function_check
from cdent.galilean import invariance_report, random_elements, su2_from_rotation
from cdent.linalg import hermitian_eigensystem
from cdent.measures import gaussian_pair_eigenvalues, von_neumann_entropy
from cdent.overlaps import gaussian_term_overlap, overlap_matrix
from cdent.scenarios import beam_pair, shape_pair, sweep_q, sweep_width_ratio
from cdent.states import GaussianSum, GaussianTerm, HybridState, normalize
from conftest import EQUAL, ZHAT, random_state, random_weights
from quadrature_oracle import QuadratureSpec, quadrature_overlap

QUAD64 = QuadratureSpec(64)


def report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_gaussian_overlap_law():
    sigma = 1.3
    worst = 0.0
    for ratio in (0.0, 0.5, 1.0, 2.0, 4.0):
        row = sweep_q(EQUAL, EQUAL, sigma, [ratio * sigma])[0]
        worst = max(worst, abs(row.abs_x - np.exp(-((ratio * sigma) ** 2) / sigma**2)))
    for ratio in (0.5, 1.0, 2.0, 5.0):
        row = sweep_width_ratio(EQUAL, EQUAL, sigma, [ratio])[0]
        s0, s1 = sigma, ratio * sigma
        worst = max(worst, abs(row.abs_x - (2 * s0 * s1 / (s0**2 + s1**2)) ** 1.5))
    report(
        "criterion 1 (Gaussian overlap law)",
        worst < 1e-10,
        f"max |pipeline - formula| = {worst:.3e} (tol 1e-10)",
    )


def test_criterion_2_eigenvalue_formula():
    rng = np.random.default_rng(101)
    worst = 0.0
    for trial in range(500):
        if trial % 5 == 0:
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            c0, c1 = EQUAL * phase, EQUAL + 0.0j
        else:
            c0, c1 = random_weights(rng)
        k0 = rng.uniform(-4, 4, 3)
        k1 = rng.uniform(-4, 4, 3)
        s0, s1 = rng.uniform(0.4, 3.0, 2)
        state = beam_pair(c0, c1, k0, k1, s0, s1)
        lam = spectrum(overlap_matrix(state)).eigenvalues
        x = gaussian_term_overlap(GaussianTerm(1.0, k0, s0), GaussianTerm(1.0, k1, s1))
        expected = gaussian_pair_eigenvalues(c0, c1, x)
        worst = max(worst, abs(lam[0] - expected[0]), abs(lam[1] - expected[1]))
        if abs(abs(c0) - abs(c1)) < 1e-12:
            worst = max(
                worst,
                abs(lam[0] - (0.5 + abs(x) / 2)),
                abs(lam[1] - (0.5 - abs(x) / 2)),
            )
    report(
        "criterion 2 (eigenvalue formula, 500 beam pairs)",
        worst < 1e-10,
        f"max |pipeline spectrum - closed form| = {worst:.3e} (tol 1e-10)",
    )


def test_criterion_3_bound_suite():
    rng = np.random.default_rng(202)
    worst_trace = 0.0
    worst_cs = -np.inf
    worst_off = 0.0
    det_lo, det_hi = np.inf, -np.inf
    for _ in range(1000):
        state = random_state(rng)
        h = overlap_matrix(state).matrix
        n = state.n
        worst_trace = max(worst_trace, abs(np.trace(h).real - 1.0))
        diag = h.diagonal().real
        for i in range(n):
            for j in range(i + 1, n):
                worst_cs = max(worst_cs, abs(h[i, j]) ** 2 - diag[i] * diag[j])
                worst_off = max(worst_off, abs(h[i, j]))
        if n == 2:
            q = diag[0] * diag[1] - abs(h[0, 1]) ** 2
            det_lo = min(det_lo, q)
            det_hi = max(det_hi, q)
    ok = (
        worst_trace < 1e-10
        and worst_cs <= 1e-12
        and worst_off <= 0.5 + 1e-12
        and det_lo >= -1e-12
        and det_hi <= 0.25 + 1e-12
    )
    report(
        "criterion 3 (bound suite, 1000 mixed states)",
        ok,
        f"trace dev {worst_trace:.2e}; CS slack {worst_cs:.2e}; "
        f"max off-diag {worst_off:.6f} <= 1/2; det range [{det_lo:.2e}, {det_hi:.3f}]",
    )


def test_criterion_4_galilean_invariance():
    beams = {
        "separable": beam_pair(EQUAL, EQUAL, ZHAT, ZHAT, 1.0, 1.0),
        "maximal": beam_pair(EQUAL, EQUAL, np.zeros(3), 10.0 * ZHAT, 1.0, 1.0),
        "intermediate": beam_pair(EQUAL, EQUAL, np.zeros(3), ZHAT, 1.0, 1.0),
        "polarized": beam_pair(1.0, 0.0, np.zeros(3), ZHAT, 1.0, 1.0),
    }
    worst_spec = 0.0
    worst_conj = 0.0
    for state in beams.values():
        rep = invariance_report(state, samples=50, seed=404)
        worst_spec = max(worst_spec, rep.max_spectrum_deviation)
        worst_conj = max(worst_conj, rep.max_conjugation_deviation)
    # Hermite pair: the packet family is not closed under the action, so the
    # check goes through the conjugation law on the reduced matrix directly
    shape = shape_pair(EQUAL, EQUAL, 0, 1)
    rho = overlap_matrix(shape).matrix
    lam = spectrum(overlap_matrix(shape)).eigenvalues
    for g in random_elements(50, seed=404):
        d = su2_from_rotation(g.rotation).matrix
        conj = d @ rho @ d.conj().T
        lam2 = hermitian_eigensystem(conj)[0]
        worst_spec = max(worst_spec, float(np.max(np.abs(lam2 - lam))))
    ok = worst_spec < 1e-9 and worst_conj < 1e-9
    report(
        "criterion 4 (Galilean invariance, 5 states x 50 elements)",
        ok,
        f"max spectrum dev {worst_spec:.3e}, max conjugation dev {worst_conj:.3e} (tol 1e-9)",
    )


def test_criterion_5_trace_function_identity():
    rng = np.random.default_rng(303)
    polys = ([0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0])
    worst = 0.0
    for _ in range(100):
        state = random_state(rng, d=int(rng.integers(1, 3)))
        for poly in polys:
            lhs, rhs = trace_function_check(state, poly)
            worst = max(worst, abs(lhs - rhs))
    report(
        "criterion 5 (trace-function identity, 100 states x {t, t^2, t^3})",
        worst < 1e-9,
        f"max |lhs - rhs| = {worst:.3e} (tol 1e-9)",
    )


def test_criterion_6_limit_behavior():
    sigma = 1.0
    q_rows = sweep_q(EQUAL, EQUAL, sigma, np.linspace(0.0, 10.0 * sigma, 26))
    q_monotone = all(b.entropy_bits >= a.entropy_bits - 1e-12 for a, b in zip(q_rows, q_rows[1:]))
    far = q_rows[-1].entropy_bits
    r_rows = sweep_width_ratio(EQUAL, EQUAL, sigma, np.geomspace(1.0, 100.0, 21))
    r_monotone = all(b.entropy_bits >= a.entropy_bits - 1e-12 for a, b in zip(r_rows, r_rows[1:]))
    wide = r_rows[-1].entropy_bits
    ok = q_monotone and r_monotone and far > 0.999 and wide > 0.95
    report(
        "criterion 6 (limit behavior)",
        ok,
        f"monotone in q: {q_monotone}; monotone in log ratio: {r_monotone}; "
        f"entropy(q=10 sigma) = {far:.6f} > 0.999; entropy(ratio=100) = {wide:.6f} > 0.95",
    )


def test_criterion_7_separability_detectors():
    shared = GaussianSum(
        (GaussianTerm(0.8, [0.0, 0.0, 0.0], 1.0), GaussianTerm(0.6j, [0.5, 0.0, -0.5], 1.7, [0.2, 0.0, 0.0], 0.1))
    )
    same_shape = normalize(HybridState((shared.scaled(0.6), shared.scaled(0.8j))))
    e_same = von_neumann_entropy(spectrum(overlap_matrix(same_shape)))
    polarized = beam_pair(1.0, 0.0, np.zeros(3), ZHAT, 1.0, 1.0)
    e_pol = von_neumann_entropy(spectrum(overlap_matrix(polarized)))
    single = normalize(HybridState((shared,)))
    e_single = von_neumann_entropy(spectrum(overlap_matrix(single)))
    maximal = shape_pair(EQUAL, EQUAL, 0, 1)
    e_max = von_neumann_entropy(spectrum(overlap_matrix(maximal)))
    ok = e_same < 1e-9 and e_pol < 1e-9 and e_single < 1e-9 and abs(e_max - 1.0) < 1e-9
    report(
        "criterion 7 (separability detectors)",
        ok,
        f"shared-shape entropy {e_same:.2e}; polarized {e_pol:.2e}; "
        f"single-component {e_single:.2e}; shape pair {e_max:.12f} (1 +- 1e-9)",
    )


def test_criterion_8_oracle_certification():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(1, 4))

        def term():
            return GaussianTerm(
                rng.normal() + 1j * rng.normal(),
                rng.uniform(-5, 5, d),
                rng.uniform(0.25, 4.0),
                rng.uniform(-3, 3, d),
                rng.uniform(-1, 1),
            )

        a, b = term(), term()
        closed = gaussian_term_overlap(a, b)
        numeric = quadrature_overlap(GaussianSum((a,)), GaussianSum((b,)), QUAD64)
        worst = max(worst, abs(closed - numeric))
    report(
        "criterion 8 (closed form vs 64-node quadrature, 200 pairs)",
        worst < 1e-8,
        f"max |closed - quadrature| = {worst:.3e} (tol 1e-8)",
    )
