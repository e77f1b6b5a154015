"""Traced run: spans and counts at cdent's module boundaries, from outside.

``Tracer.install`` replaces every public function of every cdent module, and
the ``eval_many`` methods of the component classes, by a timing wrapper.  The
package binds names with ``from .x import y`` (in ``cli``, ``density``,
``galilean``, ``scenarios``, ``measures`` and the package itself), so the
wrapper is written into every module namespace that holds the function
object, under whatever name it is bound there; intra-module calls resolve
through the same namespaces and are caught too.

Each call records a span (name, start, end, parent).  Spans stay in memory
and are written out once, at the end of the run.  Calls of the two functions
that run once per term pair or per number (``LEAF``) are not stored as spans
of their own: their count and time are added to the totals and to the
enclosing span's child time, which keeps the span list small and the
overhead low on frame-changed states.  Self time is a span's duration minus
the time of the calls it made into wrapped functions.  ``GaussianTerm`` is
not wrapped: its packets are evaluated inside the component's ``eval_many``
or inside quadrature, and both are timed.
"""

from __future__ import annotations

import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("cli", "stateio", "scenarios", "states", "overlaps", "linalg", "density", "measures", "galilean")
EVAL_METHODS = ("GaussianSum", "HermiteExpansion", "ComponentSum")

TERM_PAIR = "overlaps.gaussian_term_overlap"
LEAF = {"stateio.fmt_float", TERM_PAIR}

# name groups whose outermost calls give a count and an inclusive time
GROUPS = {
    "load": {"stateio.load_state"},
    "norm": {"states.norm"},
    "eval": {"states.evaluate"} | {f"states.{c}.eval_many" for c in EVAL_METHODS},
    "quadrature": {"overlaps.quadrature_overlap"},
    "eigensolve": {"linalg.hermitian_eigensystem"},
    "spectrum": {"density.spectrum"},
    "kernel_eval": {"density.kernel_eval"},
    "report": {"measures.entanglement_report"},
    "apply": {"galilean.apply_galilean"},
    "sweep": {"scenarios.sweep_q", "scenarios.sweep_width_ratio"},
    # one scope for the distinct packet-pair count: the outermost overlap
    # or norm computation
    "pair_scope": {
        "overlaps.overlap_matrix",
        "overlaps.component_overlap",
        "overlaps.component_norm_sq",
        "overlaps.state_inner",
        "overlaps.quadrature_overlap",
        "states.norm",
        "states.normalize",
        "states.check_normalized",
    },
}


def _packet_key(t) -> tuple:
    """A packet without its amplitude: equal keys mean the same function
    up to a factor."""
    return (t.center.tobytes(), t.width, t.linear_phase.tobytes(), t.quad_phase)


def _pieces(comp) -> int:
    """Primitive pieces that quadrature integrates pairwise."""
    if hasattr(comp, "terms"):
        return len(comp.terms)
    if hasattr(comp, "parts"):
        return sum(_pieces(c) for _, c in comp.parts)
    return 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.group_calls = {g: 0 for g in GROUPS}
        self.group_s = {g: 0.0 for g in GROUPS}
        self._group_depth = {g: 0 for g in GROUPS}
        self._group_start = {g: 0.0 for g in GROUPS}
        self._groups_of: dict[str, tuple[str, ...]] = {}
        # stack entries: [span index, name, start, child time]
        self._stack: list[list] = []
        self.counts = {
            "bytes_read": 0,
            "rows": 0,
            "eval_points": 0,
            "quadrature_points": 0,
            "terms_out": 0,
            "distinct_pairs": 0,
            "sweep_term_pairs": 0,
        }
        self._pair_set: set | None = None
        self._leaf_totals: dict[str, list] = {}  # name -> [calls, seconds]
        self._patches: list[tuple[object, str, object, object]] = []  # (owner, attr, original, wrapper)

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str) -> int:
        idx = self._name_ids.get(name)
        if idx is None:
            idx = len(self.names)
            self.names.append(name)
            self._name_ids[name] = idx
            self._groups_of[name] = tuple(g for g, members in GROUPS.items() if name in members)
        return idx

    def _enter(self, name: str) -> list:
        now = time.perf_counter()
        for g in self._groups_of[name]:
            if self._group_depth[g] == 0:
                self._group_start[g] = now
                if g == "pair_scope":
                    self._pair_set = set()
            self._group_depth[g] += 1
        idx = len(self.span_name)
        self.span_name.append(self._name_ids[name])
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_start.append(now)
        self.span_end.append(now)
        frame = [idx, name, now, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        now = time.perf_counter()
        self._stack.pop()
        idx, name, start, child = frame
        dur = now - start
        self.span_end[idx] = now
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if self._stack:
            self._stack[-1][3] += dur
        for g in self._groups_of[name]:
            self._group_depth[g] -= 1
            if self._group_depth[g] == 0:
                self.group_calls[g] += 1
                self.group_s[g] += now - self._group_start[g]
                if g == "pair_scope":
                    self.counts["distinct_pairs"] += len(self._pair_set)
                    self._pair_set = None

    # ------------------------------------------------------------- hooks

    def _before(self, name: str, args, kwargs) -> None:
        if name == "stateio.load_state":
            self.counts["bytes_read"] += os.stat(args[0]).st_size
        elif name == "overlaps.quadrature_overlap":
            a, b = args[0], args[1]
            spec = args[2] if len(args) > 2 else kwargs.get("spec")
            nodes = spec.nodes_per_axis if spec is not None else _default_nodes()
            self.counts["quadrature_points"] += _pieces(a) * _pieces(b) * nodes ** a.dimension
        elif name.endswith(".eval_many") or name == "states.evaluate":
            if self._group_depth["eval"] == 0:
                if name == "states.evaluate":
                    self.counts["eval_points"] += 1
                else:
                    self.counts["eval_points"] += args[1].shape[0]

    def _after(self, name: str, result) -> None:
        if name in ("scenarios.sweep_q", "scenarios.sweep_width_ratio"):
            self.counts["rows"] += len(result)
        elif name == "galilean.apply_galilean":
            self.counts["terms_out"] += sum(len(c.terms) for c in result.components) / result.n

    def wrap(self, name: str, func):
        self._name_id(name)
        if name in LEAF:
            return self._wrap_leaf(name, func)
        enter, exit_, before, after = self._enter, self._exit, self._before, self._after

        def wrapper(*args, **kwargs):
            before(name, args, kwargs)
            frame = enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                exit_(frame)
            after(name, result)
            return result

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        return wrapper

    def _wrap_leaf(self, name: str, func):
        """Count and time only; the term-pair leaf also records which packet
        pair it evaluated."""
        perf = time.perf_counter
        stack, counts, depth = self._stack, self.counts, self._group_depth
        totals = self._leaf_totals[name] = [0, 0.0]
        term_pair = name == TERM_PAIR

        def wrapper(*args, **kwargs):
            if term_pair:
                if self._pair_set is None:
                    counts["distinct_pairs"] += 1
                else:
                    self._pair_set.add((_packet_key(args[0]), _packet_key(args[1])))
                if depth["sweep"]:
                    counts["sweep_term_pairs"] += 1
            t0 = perf()
            try:
                return func(*args, **kwargs)
            finally:
                dur = perf() - t0
                totals[0] += 1
                totals[1] += dur
                if stack:
                    stack[-1][3] += dur

        wrapper.__wrapped__ = func
        wrapper.__name__ = func.__name__
        return wrapper

    # ------------------------------------------------------------ install

    def _prepare(self) -> None:
        """Build the wrappers once: the public functions of every cdent
        module at every binding site, and the component classes'
        eval_many methods."""
        import cdent

        modules = [cdent] + [sys.modules[f"cdent.{layer}"] for layer in LAYERS]
        wrapped: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"cdent.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patches.append((mod, attr, obj, wrapped[id(obj)]))
        states = sys.modules["cdent.states"]
        for cls_name in EVAL_METHODS:
            cls = getattr(states, cls_name)
            self._patches.append((cls, "eval_many", cls.eval_many,
                                  self.wrap(f"states.{cls_name}.eval_many", cls.eval_many)))

    def install(self) -> None:
        if not self._patches:
            self._prepare()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def layer_self_s(self, layer: str) -> float:
        spans = sum(v for k, v in self.self_s.items() if k.split(".")[0] == layer)
        return spans + sum(t for k, (_, t) in self._leaf_totals.items() if k.split(".")[0] == layer)

    def metrics(self, rounds: int, untraced_round_s: float, traced_round_s: float) -> dict:
        """Per-layer metrics, per round (times and counts) or as ratios."""
        r = float(rounds)
        c, gs, gc = self.counts, self.group_s, self.group_calls

        def self_of(*names):
            return sum(self.self_s.get(n, self._leaf_totals.get(n, (0, 0.0))[1]) for n in names)

        matrix_calls = self.calls.get("overlaps.overlap_matrix", 0)
        term_pairs, term_pair_s = self._leaf_totals[TERM_PAIR]
        out = {f"{layer}.self_s": (self.layer_self_s(layer) / r, "s") for layer in LAYERS}
        out.update({
            "stateio.load_calls": (gc["load"] / r, "count"),
            "stateio.load_s": (gs["load"] / r, "s"),
            "stateio.render_s": (self_of("stateio.render_json", "stateio.fmt_float") / r, "s"),
            "stateio.bytes_read": (c["bytes_read"] / r, "bytes"),
            "scenarios.rows": (c["rows"] / r, "count"),
            "states.norm_calls": (gc["norm"] / r, "count"),
            "states.norm_s": (gs["norm"] / r, "s"),
            "states.eval_points": (c["eval_points"] / r, "count"),
            "states.eval_s": (gs["eval"] / r, "s"),
            "overlaps.matrix_calls": (matrix_calls / r, "count"),
            "overlaps.matrix_self_s": (self_of("overlaps.overlap_matrix") / r, "s"),
            "overlaps.term_pairs": (term_pairs / r, "count"),
            "overlaps.term_pair_s": (term_pair_s / r, "s"),
            "overlaps.distinct_pair_ratio": (c["distinct_pairs"] / term_pairs if term_pairs else 0.0, "ratio"),
            "overlaps.term_pairs_per_row": (c["sweep_term_pairs"] / c["rows"] if c["rows"] else 0.0, "pairs/row"),
            "overlaps.quadrature_calls": (gc["quadrature"] / r, "count"),
            "overlaps.quadrature_s": (gs["quadrature"] / r, "s"),
            "overlaps.quadrature_points": (c["quadrature_points"] / r, "count"),
            "linalg.eigensolves": (gc["eigensolve"] / r, "count"),
            "linalg.eigensolve_s": (gs["eigensolve"] / r, "s"),
            "linalg.eigensolves_per_matrix": (gc["eigensolve"] / matrix_calls if matrix_calls else 0.0, "ratio"),
            "density.spectrum_s": (gs["spectrum"] / r, "s"),
            "density.kernel_eval_calls": (gc["kernel_eval"] / r, "count"),
            "density.kernel_eval_s": (gs["kernel_eval"] / r, "s"),
            "measures.report_s": (gs["report"] / r, "s"),
            "galilean.apply_calls": (gc["apply"] / r, "count"),
            "galilean.apply_s": (gs["apply"] / r, "s"),
            "galilean.terms_out": (c["terms_out"] / gc["apply"] if gc["apply"] else 0.0, "terms"),
            "galilean.invariance_self_s": (self_of("galilean.invariance_report") / r, "s"),
            "trace.round_s": (untraced_round_s, "s"),
            "trace.overhead_s": (traced_round_s - untraced_round_s, "s"),
        })
        return out

    def write(self, path: str, round_bounds: list[tuple[float, float]]) -> None:
        """Spans as arrays (name index, parent span, start, end), with the
        name table and the round boundaries."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            rounds=np.array(round_bounds, dtype=np.float64).reshape(-1, 2),
        )


def _default_nodes() -> int:
    return sys.modules["cdent.overlaps"].DEFAULT_QUADRATURE.nodes_per_axis
