#!/usr/bin/env python3
"""Reproduce the beam-pair limit curves: entanglement versus center
separation and versus width ratio, written as CSV tables."""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from cdent.scenarios import sweep_csv, sweep_q, sweep_width_ratio


def write_rows(rows, path: Path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(sweep_csv(rows))
    print(f"wrote {len(rows)} rows -> {path}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma", type=float, default=1.0, help="packet width for the q sweep")
    ap.add_argument("--q-max", type=float, default=4.0, help="largest separation, in units of sigma")
    ap.add_argument("--steps", type=int, default=41)
    ap.add_argument("--outdir", type=Path, default=Path("sweep_output"))
    args = ap.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    c = 1.0 / np.sqrt(2.0)

    qs = np.linspace(0.0, args.q_max * args.sigma, args.steps)
    write_rows(sweep_q(c, c, args.sigma, qs), args.outdir / "entropy_vs_q.csv")

    ratios = np.geomspace(1.0, 100.0, args.steps)
    write_rows(sweep_width_ratio(c, c, args.sigma, ratios), args.outdir / "entropy_vs_width_ratio.csv")


if __name__ == "__main__":
    main()
