"""Correctness oracles for the benchmark, computed apart from cdent.

Nothing here imports cdent.  States are read as the schema-v1 dictionaries
that the state files hold, and every reference value comes from closed forms
or from direct numerical integration:

* phase-free packet pairs use the closed form
  (2 s1 s2/(s1^2+s2^2))^(d/2) exp(-2 q^2/(s1^2+s2^2));
* every other overlap is integrated numerically.  Gaussian packets (their
  linear and quadratic phases included, since |p|^2 = sum p_i^2) and Hermite
  basis functions both factor per axis, so the overlap of two primitives is a
  product of d one-dimensional integrals, each done on a fine uniform grid;
* the kernel f(p, p') is the sum over levels of phi(p) conj(phi(p')),
  evaluated pointwise from the file's parameters.

``python3 bench/oracles.py`` runs the self-test against hand-computed values.
"""

from __future__ import annotations

import json
import math

import numpy as np

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
SPECTRUM_TOL = 1e-10
CLOSED_FORM_ENTRY_TOL = 1e-13
QUADRATURE_ENTRY_TOL = 1e-9
FRAME_SPECTRUM_TOL = 1e-9
GALILEAN_TOL = 1e-9
SWEEP_TOL = 1e-12
KERNEL_REL_TOL = 1e-10


class OracleError(AssertionError):
    """A cdent output disagrees with an independent reference."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


# ---------------------------------------------------------------- primitives


def packet_axis(p: np.ndarray, center: float, width: float, lin: float, quad: float) -> np.ndarray:
    """One-axis factor of a unit-amplitude phased Gaussian packet of width
    ``width`` (standard deviation width/2)."""
    g = 2.0 / width**2
    return (2.0 * g / math.pi) ** 0.25 * np.exp(-g * (p - center) ** 2 - 1j * lin * p + 1j * quad * p * p)


def hermite_axis(p: np.ndarray, m: int, origin: float, scale: float) -> np.ndarray:
    """One-axis orthonormal Hermite function of order m at standard
    deviation scale/2, from the physicists' polynomial H_m."""
    s = 0.5 * scale
    u = (p - origin) / s
    coef = np.zeros(m + 1)
    coef[m] = 1.0
    norm = 1.0 / math.sqrt(2.0**m * math.factorial(m) * math.sqrt(math.pi))
    return norm * np.polynomial.hermite.hermval(u, coef) * np.exp(-0.5 * u * u) / math.sqrt(s)


def primitives(comp: dict, d: int) -> list[tuple[complex, tuple]]:
    """A component as (coefficient, per-axis factor specs) pairs."""
    if comp["type"] == "gaussian_sum":
        out = []
        for t in comp["terms"]:
            lin = t.get("linear_phase") or [0.0] * d
            quad = float(t.get("quad_phase", 0.0))
            axes = tuple(("g", float(t["center"][i]), float(t["width"]), float(lin[i]), quad) for i in range(d))
            out.append((complex(*t["amplitude"]), axes))
        return out
    if comp["type"] == "hermite":
        scale = float(comp["scale"])
        return [
            (
                complex(*c["value"]),
                tuple(("h", int(c["index"][i]), float(comp["origin"][i]), scale) for i in range(d)),
            )
            for c in comp["coefficients"]
        ]
    raise OracleError(f"unknown component type {comp['type']!r}")


def axis_values(spec: tuple, p: np.ndarray) -> np.ndarray:
    if spec[0] == "g":
        return packet_axis(p, *spec[1:])
    return hermite_axis(p, *spec[1:])


def _extent(spec: tuple) -> tuple[float, float, float]:
    """(center, half-width of the region that holds the function, finest
    length scale to resolve) for one axis factor."""
    if spec[0] == "g":
        _, c, w, lin, quad = spec
        std = 0.5 * w
        half = 12.0 * std
        freq = abs(lin) + 2.0 * abs(quad) * (abs(c) + half)
        return c, half, min(std, 1.0 / freq if freq > 0 else std)
    _, m, o, scale = spec
    std = 0.5 * scale
    half = std * (12.0 + math.sqrt(2.0 * m + 1.0))
    return o, half, std / math.sqrt(2.0 * m + 1.0)


def axis_overlap(a: tuple, b: tuple) -> complex:
    """integral a(p) conj(b(p)) dp on a uniform grid.  Both factors decay
    like Gaussians, so the plain sum times the spacing is spectrally
    accurate once the spacing resolves the finest scale."""
    ca, ha, la = _extent(a)
    cb, hb, lb = _extent(b)
    lo = min(ca - ha, cb - hb)
    hi = max(ca + ha, cb + hb)
    step = min(la, lb) / 8.0
    n = int(math.ceil((hi - lo) / step)) + 1
    p = np.linspace(lo, hi, n)
    return complex(np.sum(axis_values(a, p) * np.conj(axis_values(b, p))) * (p[1] - p[0]))


class OverlapOracle:
    """Separable numerical overlaps, with the one-axis integrals memoised
    (frame-changed states repeat the same packets many times)."""

    def __init__(self):
        self._axis: dict[tuple, complex] = {}

    def _axis_overlap(self, a: tuple, b: tuple) -> complex:
        key = (a, b)
        val = self._axis.get(key)
        if val is None:
            val = axis_overlap(a, b)
            self._axis[key] = val
        return val

    def component_overlap(self, ca: dict, cb: dict, d: int) -> complex:
        total = 0.0j
        for wa, axes_a in primitives(ca, d):
            for wb, axes_b in primitives(cb, d):
                prod = wa * np.conj(wb)
                for sa, sb in zip(axes_a, axes_b):
                    prod *= self._axis_overlap(sa, sb)
                total += prod
        return complex(total)

    def overlap_matrix(self, state: dict) -> np.ndarray:
        n, d = state["n"], state["d"]
        comps = state["components"]
        h = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(i, n):
                h[i, j] = self.component_overlap(comps[i], comps[j], d)
                h[j, i] = np.conj(h[i, j])
        return h


def packet_overlap(s1: float, s2: float, q: float, d: int) -> float:
    """Closed-form overlap of two phase-free unit packets."""
    ssq = s1 * s1 + s2 * s2
    return (2.0 * s1 * s2 / ssq) ** (0.5 * d) * math.exp(-2.0 * q * q / ssq)


def phase_free_packet_matrix(state: dict) -> np.ndarray:
    """h of a state whose components are sums of phase-free packets, from
    the packet closed form alone."""
    comps = state["components"]
    n, d = state["n"], state["d"]
    h = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            total = 0.0j
            for t1 in comps[i]["terms"]:
                for t2 in comps[j]["terms"]:
                    q = float(np.linalg.norm(np.subtract(t1["center"], t2["center"])))
                    x = packet_overlap(t1["width"], t2["width"], q, d)
                    total += complex(*t1["amplitude"]) * np.conj(complex(*t2["amplitude"])) * x
            h[i, j] = total
    return h


def two_level_spectrum(h: np.ndarray) -> np.ndarray:
    """Closed-form eigenvalues of a 2x2 Hermitian matrix, descending."""
    half = 0.5 * (h[0, 0].real + h[1, 1].real)
    root = math.hypot(0.5 * (h[0, 0].real - h[1, 1].real), abs(h[0, 1]))
    return np.array([half + root, half - root])


def pair_eigenvalues(w0: float, w1: float, x: float) -> tuple[float, float]:
    """lambda_pm = 1/2 +- sqrt(1/4 - w0 w1 (1 - x^2)) for weights w0 + w1 = 1;
    the discriminant is evaluated as ((w0-w1)/2)^2 + w0 w1 x^2, equal under
    w0 + w1 = 1 and free of cancellation."""
    root = math.sqrt((0.5 * (w0 - w1)) ** 2 + w0 * w1 * x * x)
    return 0.5 + root, 0.5 - root


def entropy_bits(lam) -> float:
    return float(-sum(v * math.log2(v) for v in lam if v > 0.0))


# ------------------------------------------------------------- output checks


def _h_from_payload(payload: dict) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in payload["h"]])


def check_analyze(text: str, expected_h: np.ndarray | None = None, entry_tol: float = QUADRATURE_ENTRY_TOL,
                  expected_spectrum=None, spectrum_tol: float = SPECTRUM_TOL) -> dict:
    """Properties every analyze report must have, plus the reference h or
    reference spectrum when one is known."""
    payload = json.loads(text)
    h = _h_from_payload(payload)
    n = h.shape[0]
    _expect(h.shape == (n, n), f"h has shape {h.shape}")
    _expect(np.max(np.abs(h - h.conj().T)) <= HERMITIAN_TOL, "h is not Hermitian")
    _expect(abs(np.trace(h).real - 1.0) <= TRACE_TOL, f"trace of h is {np.trace(h).real!r}")
    ref = np.sort(np.linalg.eigvalsh(h))[::-1]
    _expect(ref[-1] >= -PSD_TOL, f"h is not PSD: min eigenvalue {ref[-1]!r}")
    lam = np.array(payload["spectrum"], dtype=float)
    _expect(lam.shape == (n,), "spectrum has the wrong length")
    _expect(np.max(np.abs(lam - ref)) <= SPECTRUM_TOL, "spectrum differs from eigvalsh(h)")
    _expect(abs(payload["entropy_bits"] - entropy_bits(lam)) <= 1e-10, "entropy inconsistent with spectrum")
    _expect(abs(payload["purity"] - float(np.sum(lam * lam))) <= 1e-12, "purity inconsistent with spectrum")
    if expected_h is not None:
        dev = float(np.max(np.abs(h - expected_h)))
        _expect(dev <= entry_tol, f"h differs from the reference by {dev:.3e}")
    if expected_spectrum is not None:
        dev = float(np.max(np.abs(lam - np.asarray(expected_spectrum))))
        _expect(dev <= spectrum_tol, f"spectrum differs from the closed form by {dev:.3e}")
    return payload


def check_sweep(text: str, parameter: str, values: np.ndarray, c0: complex, c1: complex) -> int:
    """Rows of sweep-q (x = exp(-q^2/sigma^2)) or sweep-width
    (x = (2r/(1+r^2))^(3/2)); returns the number of rows."""
    lines = text.splitlines()
    _expect(lines[0] == f"{parameter},abs_x,lambda_plus,lambda_minus,entropy_bits,purity",
            f"unexpected sweep header {lines[0]!r}")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    _expect(rows.shape == (len(values), 6), f"sweep has shape {rows.shape}")
    w0, w1 = abs(c0) ** 2, abs(c1) ** 2
    for row, (v, x) in zip(rows, values):
        _expect(abs(row[0] - v) <= 1e-15 * max(1.0, abs(v)), f"sweep parameter {row[0]!r} != {v!r}")
        _expect(abs(row[1] - x) <= SWEEP_TOL, f"abs_x {row[1]!r} != {x!r} at {v!r}")
        lp, lm = pair_eigenvalues(w0, w1, x)
        _expect(abs(row[2] - lp) <= SWEEP_TOL and abs(row[3] - lm) <= SWEEP_TOL,
                f"lambda {row[2]!r},{row[3]!r} != {lp!r},{lm!r} at {v!r}")
        _expect(abs(row[4] - entropy_bits((lp, lm))) <= 1e-10, f"entropy wrong at {v!r}")
        _expect(abs(row[5] - (lp * lp + lm * lm)) <= SWEEP_TOL, f"purity wrong at {v!r}")
    return rows.shape[0]


def sweep_q_reference(sigma: float, qs: np.ndarray) -> list[tuple[float, float]]:
    return [(float(q), math.exp(-(q * q) / (sigma * sigma))) for q in qs]


def sweep_width_reference(ratios: np.ndarray) -> list[tuple[float, float]]:
    return [(float(r), (2.0 * r / (1.0 + r * r)) ** 1.5) for r in ratios]


def check_galilean(text: str, samples: int, seed: int, mass: float) -> None:
    payload = json.loads(text)
    _expect(payload["samples"] == samples and payload["seed"] == seed, "samples or seed not echoed")
    _expect(payload["mass"] == mass, "mass not echoed")
    for key in ("max_spectrum_deviation", "max_conjugation_deviation"):
        _expect(0.0 <= payload[key] <= GALILEAN_TOL, f"{key} = {payload[key]!r} exceeds {GALILEAN_TOL}")


def component_values(comp: dict, d: int, axis: int, p: np.ndarray) -> np.ndarray:
    """phi(p e_axis) at the points p, the other coordinates being 0."""
    out = np.zeros(p.shape[0], dtype=complex)
    zero = np.zeros(1)
    for coef, axes in primitives(comp, d):
        val = coef * axis_values(axes[axis], p)
        for i, spec in enumerate(axes):
            if i != axis:
                val = val * axis_values(spec, zero)[0]
        out += val
    return out


def kernel_reference(state: dict, axis: int, grid: np.ndarray) -> tuple[np.ndarray, float]:
    """(f on grid x grid, magnitude bound) with f(p, p') = sum_chi
    phi_chi(p) conj(phi_chi(p'))."""
    d = state["d"]
    phis = np.array([component_values(c, d, axis, grid) for c in state["components"]])
    f = phis.T @ phis.conj()
    scale = sum(float(np.max(np.abs(row))) ** 2 for row in phis)
    return f, max(scale, 1e-300)


def check_kernel(text: str, grid: np.ndarray, ref: np.ndarray, scale: float) -> int:
    """Kernel CSV against the pointwise reference from ``kernel_reference``;
    also Hermitian in (p, p') and real, non-negative on the diagonal.
    Returns the point count."""
    lines = text.splitlines()
    _expect(lines[0] == "p,p_prime,re_f,im_f", f"unexpected kernel header {lines[0]!r}")
    g = grid.shape[0]
    vals = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    _expect(vals.shape == (g * g, 4), f"kernel has shape {vals.shape}")
    _expect(np.array_equal(vals[:, 0], np.repeat(grid, g)) and np.array_equal(vals[:, 1], np.tile(grid, g)),
            "kernel grid differs from the requested grid")
    f = (vals[:, 2] + 1j * vals[:, 3]).reshape(g, g)
    tol = KERNEL_REL_TOL * scale
    dev = float(np.max(np.abs(f - ref)))
    _expect(dev <= tol, f"kernel differs from the reference by {dev:.3e} (tolerance {tol:.3e})")
    _expect(float(np.max(np.abs(f - f.conj().T))) <= tol, "kernel is not Hermitian in (p, p')")
    diag = np.diagonal(f)
    _expect(float(np.max(np.abs(diag.imag))) <= tol and float(np.min(diag.real)) >= -tol,
            "kernel diagonal is not real and non-negative")
    return g * g


# ----------------------------------------------------------------- self-test


def _close(a, b, tol, what):
    if not np.all(np.abs(np.asarray(a) - np.asarray(b)) <= tol):
        raise OracleError(f"self-test {what}: {a!r} != {b!r}")


def _packet(amp, center, width, lin=None, quad=0.0):
    t = {"amplitude": [amp.real, amp.imag], "center": list(center), "width": width, "quad_phase": quad}
    if lin is not None:
        t["linear_phase"] = list(lin)
    return t


def self_test() -> None:
    """Check the oracles against values computed by hand."""
    e = math.exp(-1.0)
    # equal widths one width apart: x = e^-1; coincident centers, ratio 2:
    # x = (4/5)^(3/2)
    _close(packet_overlap(1.0, 1.0, 1.0, 3), e, 1e-16, "packet closed form")
    _close(packet_overlap(1.0, 2.0, 0.0, 3), 0.8**1.5, 1e-16, "width-ratio closed form")
    _close(pair_eigenvalues(0.5, 0.5, e), (0.6839397205857212, 0.3160602794142788), 1e-15, "pair eigenvalues")
    _close(entropy_bits((0.5, 0.5)), 1.0, 0.0, "entropy of a maximal pair")
    # numerical one-axis integrals: norms, and the coherent-state amplitude
    # <psi_m | psi_0 shifted by u0 std> = exp(-u0^2/4) (u0/sqrt 2)^m / sqrt(m!)
    _close(axis_overlap(("g", 0.3, 1.7, 0.4, 0.2), ("g", 0.3, 1.7, 0.4, 0.2)), 1.0, 1e-13, "packet norm")
    _close(axis_overlap(("h", 3, 0.2, 1.3), ("h", 3, 0.2, 1.3)), 1.0, 1e-13, "Hermite norm")
    _close(axis_overlap(("h", 1, 0.0, 1.0), ("h", 2, 0.0, 1.0)), 0.0, 1e-14, "Hermite orthogonality")
    for m, want in ((0, 0.7788007830714049), (1, 0.5506953149031838), (2, 0.2753476574515919)):
        _close(axis_overlap(("h", m, 0.0, 1.0), ("g", 0.5, 1.0, 0.0, 0.0)), want, 1e-13, f"coherent amplitude m={m}")
    # the separable integral of two phase-free packets in d = 3 against the
    # closed form, and a mixed Gaussian x Hermite entry as a product of the
    # coherent amplitudes above
    oracle = OverlapOracle()
    ga = {"type": "gaussian_sum", "terms": [_packet(1.0 + 0j, [0.0, 0.0, 0.0], 1.0)]}
    gb = {"type": "gaussian_sum", "terms": [_packet(1.0 + 0j, [0.0, 0.0, 1.0], 1.0)]}
    _close(oracle.component_overlap(ga, gb, 3), e, 1e-13, "separable packet overlap")
    he = {"type": "hermite", "scale": 1.0, "origin": [0.0, 0.0, 0.0],
          "coefficients": [{"index": [1, 0, 2], "value": [1.0, 0.0]}]}
    gc = {"type": "gaussian_sum", "terms": [_packet(1.0 + 0j, [0.5, 0.5, 0.5], 1.0)]}
    _close(oracle.component_overlap(he, gc, 3), 0.5506953149031838 * 0.7788007830714049 * 0.2753476574515919,
           1e-13, "Gaussian x Hermite entry")
    # the beam pair of the README: h = [[1/2, e^-1/2], [e^-1/2, 1/2]]
    c = 1.0 / math.sqrt(2.0)
    beam = {"n": 2, "d": 3, "components": [
        {"type": "gaussian_sum", "terms": [_packet(c + 0j, [0.0, 0.0, 0.0], 1.0)]},
        {"type": "gaussian_sum", "terms": [_packet(c + 0j, [0.0, 0.0, 1.0], 1.0)]},
    ]}
    h = phase_free_packet_matrix(beam)
    _close(h, [[0.5, 0.5 * e], [0.5 * e, 0.5]], 1e-15, "beam h")
    _close(two_level_spectrum(h), (0.6839397205857212, 0.3160602794142788), 1e-15, "beam spectrum")
    # kernel of one packet at the origin: f(0, 0) = sqrt(2 gamma/pi) with gamma = 2
    single = {"n": 1, "d": 1, "components": [{"type": "gaussian_sum", "terms": [_packet(1.0 + 0j, [0.0], 1.0)]}]}
    f, _ = kernel_reference(single, 0, np.array([0.0]))
    _close(f[0, 0], 1.1283791670955126, 1e-15, "kernel value")
    # the output checks accept a correct report and reject a wrong one
    good = {"spectrum": [0.6, 0.3, 0.1], "entropy_bits": entropy_bits((0.6, 0.3, 0.1)),
            "purity": 0.46, "h": [[[0.6, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [0.3, 0.0], [0.0, 0.0]],
                                   [[0.0, 0.0], [0.0, 0.0], [0.1, 0.0]]]}
    check_analyze(json.dumps(good), expected_h=np.diag([0.6, 0.3, 0.1]))
    bad = dict(good, spectrum=[0.5, 0.4, 0.1])
    try:
        check_analyze(json.dumps(bad))
    except OracleError:
        pass
    else:
        raise OracleError("self-test: a wrong spectrum passed check_analyze")


if __name__ == "__main__":
    self_test()
    print("oracle self-test passed")
