"""Benchmark of cdent's CLI, run in-process on three workloads.

    python3 bench/run.py                       # all workloads, seed 1, 40 s each
    python3 bench/run.py --workload beam-sweep --seed 3 --seconds 40 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
prints the per-layer metrics of a traced run instead.  The last line of
stdout is one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics`` (with ``--workload all``: one such object per workload, under
``workloads``).  Results and traces are also written to ``bench/out/``.

Each workload runs in a fresh Python process (``workload.py``).  ``setup_s``
is the time from process spawn to the end of set-up: interpreter start,
``import cdent``, writing the workload's state files and one warm-up call per
command.  The workload process times it in fresh set-up-only processes that
it starts between its rounds, and sums the best time of each phase over
them, like every other timing here: a slower sample was slowed by the
machine.  Every time is then scaled to a reference speed of the machine, which
the workload process reads from a yardstick it times between its calls (see
``workload.py``).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKLOADS = ("beam-sweep", "frame-chain", "shape-mixed")
TIME_LIMIT_S = 170.0  # per workload, spawn to result


class BenchError(Exception):
    pass


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Runs workload.py in a fresh process; returns its result."""
    args = ["--workload", name, "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.Popen([sys.executable, str(BENCH_DIR / "workload.py"), *args],
                            stdout=subprocess.PIPE, env={**os.environ, "PYTHONHASHSEED": "0"}, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload process exceeded the time limit: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}: {' '.join(args)}")
    results = [line for line in out.splitlines() if line.startswith("RESULT ")]
    if len(results) != 1:
        raise BenchError("workload process printed no result")
    return json.loads(results[0][len("RESULT "):])


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: {result['rounds']} rounds, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {str(result['correct']).lower()}")
    if "yardstick_best_ms" in result:
        print(f"   yardstick best {result['yardstick_best_ms']:.4f} ms; times scaled to {result['yardstick_ref_ms']} ms")
    for key, m in result["metrics"].items():
        print(f"   {key:32s} {m['value']:16.6g} {m['unit']}")


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of cdent's CLI on three workloads")
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "cdent" / "__init__.py").is_file():
        print(f"bench: no cdent sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile first so that no set-up sample pays for it
    compileall.compile_dir(str(ROOT / "src" / "cdent"), quiet=2)
    compileall.compile_dir(str(BENCH_DIR), quiet=2)
    sys.path.insert(0, str(BENCH_DIR))
    import oracles

    oracles.self_test()

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            print_table(name, results[name])
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    OUT_DIR.mkdir(exist_ok=True)
    for name, result in results.items():
        with open(OUT_DIR / f"result-{name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
            json.dump(result, fh, indent=1)
    final = {k: results[names[0]][k] for k in ("correct", "attempted", "failed", "metrics")}
    if args.workload == "all":
        final = {"workloads": {n: {k: r[k] for k in ("correct", "attempted", "failed", "metrics")}
                               for n, r in results.items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
