#!/usr/bin/env python3
"""Fingerprint the CLI's output bytes on a fixed, seeded set of calls.

    python3 scripts/cli_bytes.py --src src > head.txt
    python3 scripts/cli_bytes.py --src /path/to/other/checkout/src > base.txt
    diff base.txt head.txt

The state files are written with numpy alone, not with cdent, so two
checkouts read the same bytes: beam pairs, chirped multi-packet states,
Hermite states and mixed Gaussian and Hermite states, each normalized by the
exact Gaussian integral; files whose components repeat packets, share them
or share Hermite frames (the kernel evaluates each packet and each frame
once per call); plus a few files the loader or the norm gate must
refuse (deep field paths among them), a squared norm that rounds below zero
and a kernel value that overflows.  Sweeps cross a merged packet mid-sweep,
run with c1 = 0 and stop at a width out of range.  ``galilean-check`` also runs on the edges of its gates (the norm
before ``--samples``, ``--samples`` before d, n and the component types) and
on beam and chirped states at masses from 1e-8 to 1e200.  Every command runs
on them in this process through ``cdent.cli.run``, from a temporary
directory, with relative file names.
One line per call: the command line, the exit code, and the sha256 of
stdout and of stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _packet_gram(packets: list[tuple]) -> np.ndarray:
    """G[i, j] = integral u_i conj(u_j) of unit-amplitude packets (center,
    width, linear phase, quad phase), as the Gaussian integral
    (pi/A)^(d/2) exp(B.B/(4A) + C) times both prefactors."""
    size = len(packets)
    gram = np.zeros((size, size), dtype=complex)
    for i, (k1, s1, a1, b1) in enumerate(packets):
        for j, (k2, s2, a2, b2) in enumerate(packets):
            g1, g2 = 2.0 / s1**2, 2.0 / s2**2
            d = k1.shape[0]
            big_a = g1 + g2 - 1j * (b1 - b2)
            big_b = 2.0 * g1 * k1 + 2.0 * g2 * k2 - 1j * (a1 - a2)
            big_c = -g1 * k1.dot(k1) - g2 * k2.dot(k2)
            pref = (2.0 * g1 / np.pi) ** (0.25 * d) * (2.0 * g2 / np.pi) ** (0.25 * d)
            gram[i, j] = pref * (np.pi / big_a) ** (0.5 * d) * np.exp(big_b.dot(big_b) / (4.0 * big_a) + big_c)
    return gram


def _gaussian(rng, d: int, terms: int, chirp: float) -> tuple[dict, float]:
    """A gaussian_sum component of fresh packets and its squared norm."""
    packets, amps = [], []
    for _ in range(terms):
        packets.append(_chirped_packet(rng, d, chirp))
        amps.append(complex(rng.normal(), rng.normal()))
    return _gaussian_over(packets, amps)


def _chirped_packet(rng, d: int, chirp: float) -> tuple:
    return (rng.uniform(-2.0, 2.0, d), float(rng.uniform(0.5, 2.0)),
            rng.uniform(-chirp, chirp, d), float(rng.uniform(-chirp, chirp) * 0.3))


def _gaussian_over(packets: list[tuple], amps: list[complex]) -> tuple[dict, float]:
    """The gaussian_sum component with these amplitudes on these packets (a
    packet may be listed more than once) and its squared norm."""
    c = np.array(amps)
    norm_sq = float(np.real(c @ _packet_gram(packets) @ c.conj()))
    comp = {"type": "gaussian_sum", "terms": [
        {"amplitude": _pair(a), "center": k.tolist(), "width": s, "linear_phase": lin.tolist(), "quad_phase": quad}
        for a, (k, s, lin, quad) in zip(amps, packets)]}
    return comp, norm_sq


def _hermite(rng, d: int, modes: int, frame: tuple | None = None, top: int = 3) -> tuple[dict, float]:
    """A hermite component and its squared norm (the modes are orthonormal):
    multi-index entries up to ``top``, on ``frame`` (scale, origin) if given."""
    coeffs = {}
    while len(coeffs) < modes:
        coeffs[tuple(int(m) for m in rng.integers(0, top + 1, d))] = complex(rng.normal(), rng.normal())
    scale, origin = frame or (float(rng.uniform(0.5, 2.5)), rng.uniform(-1.0, 1.0, d).tolist())
    comp = {"type": "hermite", "scale": scale, "origin": origin,
            "coefficients": [{"index": list(idx), "value": _pair(c)} for idx, c in coeffs.items()]}
    return comp, sum(abs(c) ** 2 for c in coeffs.values())


def _normalized(d: int, parts: list[tuple[dict, float]]) -> dict:
    """The state of these components, every amplitude scaled by 1/norm."""
    factor = 1.0 / math.sqrt(sum(norm_sq for _, norm_sq in parts))
    comps = []
    for comp, _ in parts:
        key, field = ("terms", "amplitude") if comp["type"] == "gaussian_sum" else ("coefficients", "value")
        for entry in comp[key]:
            entry[field] = [factor * x for x in entry[field]]
        comps.append(comp)
    return {"schema_version": 1, "n": len(comps), "d": d, "components": comps}


def _beam(rng) -> dict:
    theta, phase = rng.uniform(0.1, 1.4), rng.uniform(-np.pi, np.pi)
    c0, c1 = math.cos(theta), math.sin(theta) * complex(math.cos(phase), math.sin(phase))
    sigma0 = float(10.0 ** rng.uniform(-1.0, 1.0))
    sigma1 = sigma0 if rng.random() < 0.5 else float(sigma0 * rng.uniform(0.3, 3.0))
    direction = rng.normal(size=3)
    center = (rng.uniform(0.0, 3.0) * sigma0 / np.linalg.norm(direction)) * direction
    if rng.random() < 0.15:  # one packet, twice
        sigma1, center = sigma0, np.zeros(3)
    comps = [{"type": "gaussian_sum", "terms": [{"amplitude": _pair(c), "center": k, "width": s}]}
             for c, k, s in ((c0, [0.0, 0.0, 0.0], sigma0), (c1, center.tolist(), sigma1))]
    return {"schema_version": 1, "n": 2, "d": 3, "components": comps}


def state_files(seed: int) -> dict[str, dict]:
    """Seeded state files by name: beam pairs, chirped packet states,
    Hermite states, mixed states and files the CLI refuses."""
    rng = np.random.default_rng(seed)
    files = {}
    for i in range(40):
        files[f"beam{i}.json"] = _beam(rng)
    for i in range(20):
        files[f"chirped{i}.json"] = _normalized(3, [_gaussian(rng, 3, int(rng.integers(1, 4)), 1.0) for _ in range(2)])
    for i in range(12):
        d = int(rng.integers(1, 4))
        files[f"hermite{i}.json"] = _normalized(d, [_hermite(rng, d, int(rng.integers(1, 4)))
                                                    for _ in range(int(rng.integers(2, 5)))])
    for i in range(12):
        d = int(rng.integers(1, 4))
        files[f"mixed{i}.json"] = _normalized(d, [
            _gaussian(rng, d, int(rng.integers(1, 3)), 0.5) if k % 2 == 0 else _hermite(rng, d, 2)
            for k in range(int(rng.integers(2, 4)))])
    unnormalized = _beam(rng)
    unnormalized["components"][0]["terms"][0]["amplitude"] = [2.0, 0.0]
    files["unnormalized.json"] = unnormalized
    bad_width = _beam(rng)
    bad_width["components"][1]["terms"][0]["width"] = -1.0
    files["bad_width.json"] = bad_width
    wrong_n = _beam(rng)
    wrong_n["n"] = 3
    files["wrong_n.json"] = wrong_n
    # galilean-check's gates in order: the norm, then --samples, then d, n
    # and component types
    unnormalized_hermite = _normalized(2, [_hermite(rng, 2, 2) for _ in range(2)])
    unnormalized_hermite["components"][0]["coefficients"][0]["value"][0] += 1.0
    files["unnormalized_hermite.json"] = unnormalized_hermite
    files["d1.json"] = _normalized(1, [_gaussian(rng, 1, 2, 1.0) for _ in range(2)])
    files["n3.json"] = _normalized(3, [_gaussian(rng, 3, 1, 1.0) for _ in range(3)])
    # a kernel value that overflows to nan, and a squared norm that rounds below 0
    files["narrow_d9.json"] = {"schema_version": 1, "n": 1, "d": 9, "components": [{"type": "gaussian_sum", "terms": [
        {"amplitude": [1.0, 0.0], "center": [0.0] * 9, "width": 1e-76}]}]}
    files["negative_norm.json"] = {"schema_version": 1, "n": 1, "d": 1, "components": [{"type": "gaussian_sum", "terms": [
        {"amplitude": a, "center": [k], "width": 1.0}
        for a, k in (([-0.36, -0.8], 8e-10), ([-1.9, 1.08], -8.5e-9), ([2.26, -0.28], -5.1e-9))]}]}
    # loader faults deep in a file: a coefficient value, a term width, a
    # repeated multi-index and an unknown coefficient field
    bad_value = _normalized(2, [_hermite(rng, 2, 2) for _ in range(2)])
    bad_value["components"][1]["coefficients"][1]["value"] = [1.0]
    files["bad_value.json"] = bad_value
    bad_term = _normalized(3, [_gaussian(rng, 3, 3, 1.0) for _ in range(2)])
    bad_term["components"][1]["terms"][2]["width"] = 0.0
    files["bad_term.json"] = bad_term
    duplicate = _normalized(2, [_hermite(rng, 2, 2) for _ in range(2)])
    coeffs = duplicate["components"][0]["coefficients"]
    coeffs[1]["index"] = list(coeffs[0]["index"])
    files["duplicate_index.json"] = duplicate
    unknown = _normalized(1, [_hermite(rng, 1, 2) for _ in range(2)])
    unknown["components"][1]["coefficients"][0]["vlaue"] = [0.0, 0.0]
    files["unknown_coefficient_field.json"] = unknown
    # the kernel's shared evaluations: components of 3 to 5 chirped terms,
    # both components over the same packets (as a frame change writes them),
    # a packet repeated inside a component and across components, and two
    # Hermite expansions on one frame with different top modes beside one on
    # a second frame
    for i in range(3):
        files[f"chirped_long{i}.json"] = _normalized(3, [_gaussian(rng, 3, int(rng.integers(3, 6)), 1.0)
                                                         for _ in range(2)])
    for i in range(2):
        packets = [_chirped_packet(rng, 3, 1.0) for _ in range(2)]
        files[f"shared_packets{i}.json"] = _normalized(3, [
            _gaussian_over(packets, [complex(rng.normal(), rng.normal()) for _ in packets]) for _ in range(2)])
    packets = [_chirped_packet(rng, 2, 1.0) for _ in range(3)]
    files["repeated_packets.json"] = _normalized(2, [
        _gaussian_over([packets[p] for p in picks], [complex(rng.normal(), rng.normal()) for _ in picks])
        for picks in ((0, 1, 0, 2, 0), (1, 1), (2,))])
    frame = (float(rng.uniform(0.5, 2.5)), rng.uniform(-1.0, 1.0, 2).tolist())
    files["shared_frames.json"] = _normalized(2, [_hermite(rng, 2, 2, frame, top=1), _hermite(rng, 2, 3, frame, top=4),
                                                  _hermite(rng, 2, 2)])
    return files


def calls(seed: int, files: dict[str, dict]) -> list[list[str]]:
    """Every command on every file, then seeded sweeps and a few usage errors."""
    rng = np.random.default_rng(seed + 1)
    out = []
    for name, state in files.items():
        d = state["d"]
        out.append(["analyze", name])
        out.append(["kernel", name, f"--axis={int(rng.integers(0, d))}", "--grid=-2.5:2.5:7"])
        out.append(["galilean-check", name, "--samples=6", f"--seed={int(rng.integers(0, 100))}",
                    f"--mass={rng.uniform(0.5, 3.0)!r}"])
    for i in range(40):
        theta, phase = rng.uniform(0.0, 1.5707963267948966), rng.uniform(-np.pi, np.pi)
        c0 = repr(math.cos(theta))
        c1 = repr(math.sin(theta) * complex(math.cos(phase), math.sin(phase))).strip("()")
        if i % 6 == 0:
            c0, c1 = "1", "0"
        sigma = repr(float(10.0 ** rng.uniform(-2.0, 2.0)))
        steps = str(int(rng.integers(1, 25)))
        out.append(["sweep-q", f"--c0={c0}", f"--c1={c1}", f"--sigma={sigma}", "--q-start=0",
                    f"--q-stop={float(sigma) * rng.uniform(0.5, 5.0)!r}", f"--q-steps={steps}"])
        out.append(["sweep-width", f"--c0={c0}", f"--c1={c1}", f"--sigma0={sigma}",
                    f"--r-start={rng.uniform(0.1, 1.0)!r}", f"--r-stop={rng.uniform(1.0, 10.0)!r}", f"--r-steps={steps}"])
    out += [["--version"], ["sweep-q", "--c0=1", "--c1=0", "--sigma=-1", "--q-start=0", "--q-stop=1", "--q-steps=3"],
            ["sweep-q", "--c0=1", "--c1=0", "--sigma=1", "--q-start=0", "--q-stop=1", "--q-steps=0"],
            ["sweep-width", "--c0=1", "--c1=0", "--sigma0=1", "--r-start=1", "--r-stop=2", "--r-steps=0"],
            ["kernel", "narrow_d9.json", "--axis=0", "--grid=-1e-76:1e-76:3"],
            ["sweep-width", "--c0=0.6", "--c1=0.6", "--sigma0=1", "--r-start=1", "--r-stop=2", "--r-steps=3"],
            ["galilean-check", "beam0.json", "--samples=0", "--seed=1"], ["kernel", "beam0.json", "--axis=5", "--grid=0:1:3"]]
    # sweeps solved in one batch: the README's 41-row sweep-q, a sweep-width
    # through ratio 1.0 mid-sweep (a merged packet and a zero eigenvalue),
    # c1 = 0 sweeps of both kinds, and a width past 1e76 at the third row
    out += [["sweep-q", "--c0=0.7071067811865476", "--c1=0.7071067811865476", "--sigma=1.0", "--q-start=0",
             "--q-stop=4", "--q-steps=41"],
            ["sweep-width", "--c0=0.6", "--c1=0.8j", "--sigma0=1.3", "--r-start=0.5", "--r-stop=1.5", "--r-steps=65"],
            ["sweep-q", "--c0=1", "--c1=0", "--sigma=0.7", "--q-start=0", "--q-stop=3", "--q-steps=40"],
            ["sweep-width", "--c0=1", "--c1=0", "--sigma0=0.7", "--r-start=0.1", "--r-stop=10", "--r-steps=40"],
            ["sweep-width", "--c0=0.6", "--c1=0.8", "--sigma0=1e75", "--r-start=1", "--r-stop=21", "--r-steps=5"]]
    out += [["galilean-check", name, "--samples=0", "--seed=1"]
            for name in ("unnormalized_hermite.json", "hermite0.json", "d1.json", "n3.json")]
    out += [["galilean-check", name, "--samples=6", f"--seed={int(rng.integers(0, 100))}", f"--mass={mass}"]
            for name in ("beam1.json", "beam2.json", "chirped0.json", "chirped1.json")
            for mass in ("1e-8", "100", "1e4", "1e8", "1e200")]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="the src directory of the checkout to run")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from cdent import cli

    files = state_files(args.seed)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            for name, state in files.items():
                with open(name, "w", encoding="utf-8") as fh:
                    json.dump(state, fh)
            for argv in calls(args.seed, files):
                out, err = io.StringIO(), io.StringIO()
                code = cli.run(argv, out, err)
                digests = (hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err))
                print(" ".join(argv), code, *digests)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
