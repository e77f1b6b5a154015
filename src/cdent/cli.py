"""Command-line interface.

Subcommands: analyze, sweep-q, sweep-width, galilean-check, kernel.
Exit codes: 0 success, 1 usage error, 2 state-file validation failure,
3 numerical precondition failure.  All output is byte-deterministic for
identical inputs.  Every float written goes through ``stateio``'s one
float rule (``render_json`` for JSON, ``fill_floats`` for CSV), and every
state-file message carries the field path that ``stateio`` built for it.
"""

from __future__ import annotations

import argparse
import contextvars
import sys

import numpy as np

from . import __version__
from .density import kernel_matrix
from .errors import CDEntError
from .galilean import PhysicalParams, invariance_report
from .measures import entanglement_report
from .overlaps import overlap_matrix
from .scenarios import sweep_csv, sweep_q, sweep_width_ratio
from .stateio import StateFileError, fill_floats, fmt_float, load_state, render_json

USAGE_ERROR = 1
STATE_ERROR = 2
NUMERICAL_ERROR = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems as exit code 1 and
    writes help and version text to the stdout ``run`` was given."""

    def error(self, message):
        raise _UsageError(message)

    def _print_message(self, message, file=None):
        if file is sys.stdout:
            file = _stdout.get(file)
        super()._print_message(message, file)


# run()'s parser, built on first use.  It holds no per-call state: the
# stdout of the current call travels in a context variable, so run() is
# safe to call from several threads.
_parser: _Parser | None = None
_stdout: contextvars.ContextVar = contextvars.ContextVar("cdent_cli_stdout")


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError as exc:
        raise _UsageError(f"cannot parse complex number {text!r}") from exc


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"grid must be lo:hi:steps, got {text!r}")
    try:
        lo, hi, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _UsageError(f"grid must be lo:hi:steps, got {text!r}") from exc
    if steps < 1:
        raise _UsageError("grid needs at least one step")
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.linspace(lo, hi, steps)
    if not np.all(np.isfinite(grid)):
        raise _UsageError(f"grid points must be finite, got {text!r}")
    return grid


def _emit(text: str, out_path: str | None, stdout) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write --out {out_path!r}: {exc.strerror or exc}") from exc
    else:
        stdout.write(text)


def _cmd_analyze(args, stdout) -> int:
    state = load_state(args.state)
    rho = overlap_matrix(state)
    report = entanglement_report(rho)
    payload = {
        "spectrum": report.spectrum.eigenvalues.tolist(),
        "entropy_bits": report.entropy_bits,
        "purity": report.purity,
        "schmidt_rank": report.schmidt_rank,
        "classification": report.classification,
        "h": [[[z.real, z.imag] for z in row] for row in rho.matrix.tolist()],
    }
    stdout.write(render_json(payload) + "\n")
    return 0


def _cmd_sweep(args, stdout) -> int:
    """sweep-q and sweep-width; ``args.sweep`` is (row function, width flag, swept flags' prefix)."""
    rows_of, width, axis = args.sweep
    start, stop, steps = (getattr(args, f"{axis}_{part}") for part in ("start", "stop", "steps"))
    if steps < 1:
        raise _UsageError(f"--{axis}-steps needs at least one step")
    rows = rows_of(_parse_complex(args.c0), _parse_complex(args.c1), getattr(args, width), np.linspace(start, stop, steps))
    _emit(sweep_csv(rows), args.out, stdout)
    return 0


def _cmd_galilean_check(args, stdout) -> int:
    state = load_state(args.state)
    report = invariance_report(state, args.samples, args.seed, PhysicalParams(args.mass))
    payload = {
        "samples": report.samples,
        "seed": report.seed,
        "mass": args.mass,
        "max_spectrum_deviation": report.max_spectrum_deviation,
        "max_conjugation_deviation": report.max_conjugation_deviation,
        "worst_spectrum_element": report.worst_spectrum_element,
        "worst_conjugation_element": report.worst_conjugation_element,
    }
    stdout.write(render_json(payload) + "\n")
    return 0


def _cmd_kernel(args, stdout) -> int:
    grid = _parse_grid(args.grid)
    state = load_state(args.state)
    if not 0 <= args.axis < state.d:
        raise _UsageError(f"axis {args.axis} out of range for d={state.d}")
    points = np.zeros((grid.shape[0], state.d))
    points[:, args.axis] = grid
    f = kernel_matrix(state, points)
    labels = [fmt_float(x) for x in grid.tolist()]
    # one template per grid row; each row's re, im interleaved
    rows = (fill_floats("".join(f"{u},{v},%.17g,%.17g\n" for v in labels), row)
            for u, row in zip(labels, f.view(float).tolist()))
    _emit("p,p_prime,re_f,im_f\n" + "".join(rows), args.out, stdout)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="cdent", description="Discrete-continuous entanglement toolkit")
    parser.add_argument("--version", action="version", version=f"cdent {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("analyze", help="entanglement report for a state file", parents=[])
    p.add_argument("state", help="state JSON file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("sweep-q", help="sweep the center separation of a beam pair")
    p.add_argument("--c0", required=True, help="complex amplitude of level 0")
    p.add_argument("--c1", required=True, help="complex amplitude of level 1")
    p.add_argument("--sigma", required=True, type=float, help="common packet width")
    p.add_argument("--q-start", required=True, type=float)
    p.add_argument("--q-stop", required=True, type=float)
    p.add_argument("--q-steps", required=True, type=int)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep, sweep=(sweep_q, "sigma", "q"))

    p = sub.add_parser("sweep-width", help="sweep the width ratio of a beam pair")
    p.add_argument("--c0", required=True)
    p.add_argument("--c1", required=True)
    p.add_argument("--sigma0", required=True, type=float, help="width of level 0")
    p.add_argument("--r-start", required=True, type=float)
    p.add_argument("--r-stop", required=True, type=float)
    p.add_argument("--r-steps", required=True, type=int)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_sweep, sweep=(sweep_width_ratio, "sigma0", "r"))

    p = sub.add_parser("galilean-check", help="frame-change invariance report")
    p.add_argument("state", help="state JSON file")
    p.add_argument("--samples", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--mass", type=float, default=1.0)
    p.set_defaults(func=_cmd_galilean_check)

    p = sub.add_parser("kernel", help="sample the reduced continuous kernel on an axis")
    p.add_argument("state", help="state JSON file")
    p.add_argument("--axis", required=True, type=int)
    p.add_argument("--grid", required=True, help="lo:hi:steps")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=_cmd_kernel)
    parser.commands = sub.choices  # name -> the command's own parser, for run()
    return parser


def run(argv, stdout=None, stderr=None) -> int:
    """Dispatch one command line; returns the exit code.  All output, help
    and version text included, goes to ``stdout`` and ``stderr``."""
    global _parser
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    if _parser is None:
        _parser = build_parser()
    token = _stdout.set(stdout)
    try:
        # one parser pass: a command's own parser words errors as the top level would
        command = _parser.commands.get(argv[0]) if argv else None
        args = _parser.parse_args(argv) if command is None else command.parse_args(argv[1:])
        if getattr(args, "func", None) is None:
            raise _UsageError("a command is required (analyze, sweep-q, sweep-width, galilean-check, kernel)")
        return args.func(args, stdout)
    except _UsageError as exc:
        stderr.write(f"usage error: {exc}\n")
        return USAGE_ERROR
    except SystemExit as exc:  # argparse --help / --version
        code = exc.code if isinstance(exc.code, int) else 0
        return code
    except StateFileError as exc:
        stderr.write(f"state file error: {exc}\n")
        return STATE_ERROR
    except CDEntError as exc:
        stderr.write(f"numerical error: {exc}\n")
        return NUMERICAL_ERROR
    finally:
        _stdout.reset(token)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
