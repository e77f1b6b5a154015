"""JSON state files and deterministic serialization.

Schema (version 1)::

    {
      "schema_version": 1,
      "n": 2,
      "d": 3,
      "components": [
        {"type": "gaussian_sum",
         "terms": [{"amplitude": [re, im],
                    "center": [...d floats...],
                    "width": w,
                    "linear_phase": [...d floats...],   # optional
                    "quad_phase": b}]},                 # optional
        {"type": "hermite",
         "scale": s,
         "origin": [...d floats...],
         "coefficients": [{"index": [m1, ..., md], "value": [re, im]}]}
      ]
    }

Widths and scales lie in [1e-76, 1e76] (``states.WIDTH_MIN`` and
``WIDTH_MAX``), multi-index entries in [0, 256] (``HERMITE_INDEX_MAX``).
Complex numbers are two-element [re, im] arrays.  Floats are rendered with
17 significant digits so every value round-trips exactly; all output is
byte-deterministic.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import DomainError, StructureError
from .states import (
    HERMITE_INDEX_MAX,
    WIDTH_MAX,
    WIDTH_MIN,
    GaussianSum,
    GaussianTerm,
    HermiteExpansion,
    HybridState,
    WaveComponent,
)

SCHEMA_VERSION = 1


class StateFileError(StructureError):
    """State file failed validation; message carries a field path."""


def fmt_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form; exact binary64 round trip.
    Raises DomainError on NaN and infinities, so no output carries them."""
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"cannot write the non-finite number {x}")
    return format(x, ".17g")


def render_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON text: insertion-ordered keys, fmt_float numbers."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}{json.dumps(str(k))}: {render_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        rendered = [render_json(v, indent + 1) for v in seq]
        if all(not isinstance(v, (dict, list, tuple)) for v in seq) and sum(map(len, rendered)) < 72:
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj).__name__}")


def _complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _require(cond: bool, path: str, message: str) -> None:
    if not cond:
        raise StateFileError(f"{path}: {message}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(value, path: str) -> float:
    """A JSON number as a finite float (json reads NaN, Infinity and
    arbitrarily large integers)."""
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    _require(math.isfinite(x), path, "numbers must be finite")
    return x


def _parse_complex(value, path: str) -> complex:
    _require(
        isinstance(value, (list, tuple)) and len(value) == 2,
        path,
        "complex values are two-element [re, im] arrays",
    )
    _require(all(_is_number(v) for v in value), path, "re and im must be numbers")
    return complex(_finite(value[0], path), _finite(value[1], path))


def _parse_vector(value, d: int, path: str) -> np.ndarray:
    _require(
        isinstance(value, (list, tuple)) and len(value) == d,
        path,
        f"expected a list of {d} numbers",
    )
    _require(all(_is_number(v) for v in value), path, "entries must be numbers")
    return np.array([_finite(v, path) for v in value])


def _parse_number(value, path: str) -> float:
    _require(_is_number(value), path, "expected a number")
    return _finite(value, path)


def _parse_width(value, path: str) -> float:
    x = _parse_number(value, path)
    _require(x > 0.0, path, "must be > 0")
    _require(WIDTH_MIN <= x <= WIDTH_MAX, path, f"must be in [{WIDTH_MIN:g}, {WIDTH_MAX:g}]")
    return x


def component_to_dict(comp: WaveComponent) -> dict:
    if isinstance(comp, GaussianSum):
        return {
            "type": "gaussian_sum",
            "terms": [
                {
                    "amplitude": _complex_pair(t.amplitude),
                    "center": [float(v) for v in t.center],
                    "width": float(t.width),
                    "linear_phase": [float(v) for v in t.linear_phase],
                    "quad_phase": float(t.quad_phase),
                }
                for t in comp.terms
            ],
        }
    if isinstance(comp, HermiteExpansion):
        coeffs = sorted(comp.coefficients.items())
        return {
            "type": "hermite",
            "scale": float(comp.scale),
            "origin": [float(v) for v in comp.origin],
            "coefficients": [
                {"index": list(idx), "value": _complex_pair(val)} for idx, val in coeffs
            ],
        }
    raise StateFileError(f"component type {type(comp).__name__} is not serializable")


def state_to_dict(state: HybridState) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": state.n,
        "d": state.d,
        "components": [component_to_dict(c) for c in state.components],
    }


def _component_from_dict(entry, d: int, path: str) -> WaveComponent:
    _require(isinstance(entry, dict), path, "expected an object")
    kind = entry.get("type")
    if kind == "gaussian_sum":
        terms = entry.get("terms")
        _require(isinstance(terms, list) and terms, f"{path}.terms", "expected a non-empty list")
        parsed = []
        for i, raw in enumerate(terms):
            tpath = f"{path}.terms[{i}]"
            _require(isinstance(raw, dict), tpath, "expected an object")
            unknown = set(raw) - {"amplitude", "center", "width", "linear_phase", "quad_phase"}
            _require(not unknown, tpath, f"unknown fields {sorted(unknown)}")
            amp = _parse_complex(raw.get("amplitude"), f"{tpath}.amplitude")
            center = _parse_vector(raw.get("center"), d, f"{tpath}.center")
            width = _parse_width(raw.get("width"), f"{tpath}.width")
            lp = raw.get("linear_phase")
            linear = _parse_vector(lp, d, f"{tpath}.linear_phase") if lp is not None else None
            quad = _parse_number(raw.get("quad_phase", 0.0), f"{tpath}.quad_phase")
            parsed.append(GaussianTerm(amp, center, width, linear, quad))
        return GaussianSum(tuple(parsed))
    if kind == "hermite":
        scale = _parse_width(entry.get("scale"), f"{path}.scale")
        origin = _parse_vector(entry.get("origin"), d, f"{path}.origin")
        coeffs_raw = entry.get("coefficients")
        _require(
            isinstance(coeffs_raw, list) and coeffs_raw,
            f"{path}.coefficients",
            "expected a non-empty list",
        )
        coeffs: dict[tuple[int, ...], complex] = {}
        for i, raw in enumerate(coeffs_raw):
            cpath = f"{path}.coefficients[{i}]"
            _require(isinstance(raw, dict), cpath, "expected an object")
            idx = raw.get("index")
            _require(
                isinstance(idx, list) and len(idx) == d and all(isinstance(m, int) and not isinstance(m, bool) and m >= 0 for m in idx),
                f"{cpath}.index",
                f"expected {d} non-negative integers",
            )
            _require(max(idx) <= HERMITE_INDEX_MAX, f"{cpath}.index", f"entries must be <= {HERMITE_INDEX_MAX}")
            key = tuple(idx)
            _require(key not in coeffs, f"{cpath}.index", f"duplicate multi-index {key}")
            coeffs[key] = _parse_complex(raw.get("value"), f"{cpath}.value")
        return HermiteExpansion(scale, origin, coeffs)
    raise StateFileError(f'{path}.type: expected "gaussian_sum" or "hermite", got {kind!r}')


def state_from_dict(data) -> HybridState:
    _require(isinstance(data, dict), "$", "state file must be a JSON object")
    version = data.get("schema_version")
    _require(version == SCHEMA_VERSION, "$.schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    n = data.get("n")
    d = data.get("d")
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1, "$.n", "expected a positive integer")
    _require(isinstance(d, int) and not isinstance(d, bool) and d >= 1, "$.d", "expected a positive integer")
    comps = data.get("components")
    _require(isinstance(comps, list), "$.components", "expected a list")
    _require(len(comps) == n, "$.components", f"expected {n} components, got {len(comps)}")
    # every component is parsed at the file's one d, so they cannot clash
    return HybridState(tuple(
        _component_from_dict(entry, d, f"$.components[{i}]") for i, entry in enumerate(comps)
    ))


def save_state(state: HybridState, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_json(state_to_dict(state)))
        fh.write("\n")


def load_state(path: str) -> HybridState:
    """Read and validate a state file.  Raises StateFileError when the file
    cannot be opened or decoded as UTF-8 JSON, and when it fails validation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise StateFileError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError, RecursionError) as exc:
        raise StateFileError(str(exc)) from exc
    return state_from_dict(data)
