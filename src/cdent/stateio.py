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
Complex numbers are two-element [re, im] arrays.  ``schema_version`` is the
integer 1, and every object may hold only the fields shown: an unknown
field is refused with its path (``_each`` alone puts list indices into a
path, and ``state_from_dict`` alone raises the ``StateFileError``).  Every
float of JSON and CSV output is written by ``fmt_float``'s rule, with 17
significant digits, so it round-trips exactly (``fill_floats`` writes many
at once); output is byte-deterministic.
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


def fill_floats(template: str, values) -> str:
    """A template of '%.17g' fields filled from ``values``: fmt_float(x) per field
    once every x is finite, else fmt_float's error at the first non-finite x."""
    if not math.isfinite(sum(values)):  # a nan or inf makes the sum one; a mere overflow costs this pass
        list(map(fmt_float, values))  # raises at the first non-finite value
    return template % tuple(values)


_quote = json.encoder.encode_basestring_ascii  # what json.dumps does for a str


def render_json(obj: Any, indent: int = 0) -> str:
    """Deterministic JSON text: insertion-ordered keys, fmt_float numbers."""
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    pad = "  " * indent
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{_quote(str(k))}: {render_json(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(isinstance(v, float) for v in obj):
            text = fill_floats(", ".join(["%.17g"] * len(obj)), obj)
            if len(text) - 2 * (len(obj) - 1) < 72:
                return "[" + text + "]"
            return "[\n" + inner + text.replace(", ", ",\n" + inner) + "\n" + pad + "]"
        rendered = [render_json(v, indent + 1) for v in obj]
        if all(not isinstance(v, (dict, list, tuple)) for v in obj) and sum(map(len, rendered)) < 72:
            return "[" + ", ".join(rendered) + "]"
        return "[\n" + ",\n".join(inner + r for r in rendered) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    raise TypeError(f"cannot render {type(obj).__name__}")


def _complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


class _Invalid(Exception):
    """A failed check, as (field path below the object being read, message).
    ``_each`` prefixes the list field and index of each enclosing entry, so
    a path is formatted only when a check fails."""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _finite(values, field: str) -> list[float]:
    """JSON numbers as finite floats (json reads NaN, Infinity and
    arbitrarily large integers)."""
    try:
        xs = [float(v) for v in values]
    except OverflowError:
        xs = [math.inf]
    if not all(map(math.isfinite, xs)):
        raise _Invalid(field, "numbers must be finite")
    return xs


def _parse_complex(value, field: str) -> complex:
    if not (isinstance(value, (list, tuple)) and len(value) == 2):
        raise _Invalid(field, "complex values are two-element [re, im] arrays")
    if not (_is_number(value[0]) and _is_number(value[1])):
        raise _Invalid(field, "re and im must be numbers")
    return complex(*_finite(value, field))


def _parse_vector(value, d: int, field: str) -> list[float]:
    if not (isinstance(value, (list, tuple)) and len(value) == d):
        raise _Invalid(field, f"expected a list of {d} numbers")
    if not all(map(_is_number, value)):
        raise _Invalid(field, "entries must be numbers")
    return _finite(value, field)


def _parse_number(value, field: str) -> float:
    if not _is_number(value):
        raise _Invalid(field, "expected a number")
    return _finite((value,), field)[0]


def _parse_width(value, field: str) -> float:
    x = _parse_number(value, field)
    if not WIDTH_MIN <= x <= WIDTH_MAX:
        raise _Invalid(field, "must be > 0" if x <= 0.0 else f"must be in [{WIDTH_MIN:g}, {WIDTH_MAX:g}]")
    return x


def component_to_dict(comp: WaveComponent) -> dict:
    if isinstance(comp, GaussianSum):
        return {"type": "gaussian_sum", "terms": [
            {"amplitude": _complex_pair(t.amplitude), "center": t.center.tolist(), "width": t.width,
             "linear_phase": t.linear_phase.tolist(), "quad_phase": t.quad_phase} for t in comp.terms]}
    if isinstance(comp, HermiteExpansion):
        return {"type": "hermite", "scale": comp.scale, "origin": comp.origin.tolist(), "coefficients": [
            {"index": list(idx), "value": _complex_pair(val)} for idx, val in sorted(comp.coefficients.items())]}
    raise StateFileError(f"component type {type(comp).__name__} is not serializable")


def state_to_dict(state: HybridState) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": state.n,
        "d": state.d,
        "components": [component_to_dict(c) for c in state.components],
    }


_TOP_FIELDS = frozenset({"schema_version", "n", "d", "components"})
_GAUSSIAN_FIELDS = frozenset({"type", "terms"})
_TERM_FIELDS = frozenset({"amplitude", "center", "width", "linear_phase", "quad_phase"})
_HERMITE_FIELDS = frozenset({"type", "scale", "origin", "coefficients"})
_COEFFICIENT_FIELDS = frozenset({"index", "value"})


def _known_fields(raw: dict, fields: frozenset) -> None:
    if not raw.keys() <= fields:
        raise _Invalid("", f"unknown fields {sorted(set(raw) - fields)}")


def _each(parse, items, field: str, *args) -> list:
    """``parse(item, *args)`` for each item of a list; a failed check's path
    gets ``field[i]`` in front, the one place an entry index enters a path."""
    out = []
    for i, item in enumerate(items):
        try:
            out.append(parse(item, *args))
        except _Invalid as exc:
            raise _Invalid(f"{field}[{i}]{exc.args[0]}", exc.args[1]) from None
    return out


def _parse_term(raw, d: int) -> GaussianTerm:
    if not isinstance(raw, dict):
        raise _Invalid("", "expected an object")
    _known_fields(raw, _TERM_FIELDS)
    linear = raw.get("linear_phase")
    return GaussianTerm._checked(
        _parse_complex(raw.get("amplitude"), ".amplitude"),
        _parse_vector(raw.get("center"), d, ".center"),
        _parse_width(raw.get("width"), ".width"),
        None if linear is None else _parse_vector(linear, d, ".linear_phase"),
        _parse_number(raw.get("quad_phase", 0.0), ".quad_phase"),
    )


def _parse_coefficient(raw, d: int, coeffs: dict) -> None:
    """Check one coefficient and enter it into ``coeffs``."""
    if not isinstance(raw, dict):
        raise _Invalid("", "expected an object")
    _known_fields(raw, _COEFFICIENT_FIELDS)
    idx = raw.get("index")
    if not (isinstance(idx, list) and len(idx) == d
            and all(isinstance(m, int) and not isinstance(m, bool) and m >= 0 for m in idx)):
        raise _Invalid(".index", f"expected {d} non-negative integers")
    if max(idx) > HERMITE_INDEX_MAX:
        raise _Invalid(".index", f"entries must be <= {HERMITE_INDEX_MAX}")
    key = tuple(idx)
    if key in coeffs:
        raise _Invalid(".index", f"duplicate multi-index {key}")
    coeffs[key] = _parse_complex(raw.get("value"), ".value")


def _component_from_dict(entry, d: int) -> WaveComponent:
    """A checked component; every field is checked once, here, and the
    component built from it without a second check."""
    if not isinstance(entry, dict):
        raise _Invalid("", "expected an object")
    kind = entry.get("type")
    if kind == "gaussian_sum":
        _known_fields(entry, _GAUSSIAN_FIELDS)
        terms = entry.get("terms")
        if not (isinstance(terms, list) and terms):
            raise _Invalid(".terms", "expected a non-empty list")
        return GaussianSum(tuple(_each(_parse_term, terms, ".terms", d)))
    if kind == "hermite":
        _known_fields(entry, _HERMITE_FIELDS)
        scale = _parse_width(entry.get("scale"), ".scale")
        origin = _parse_vector(entry.get("origin"), d, ".origin")
        coeffs_raw = entry.get("coefficients")
        if not (isinstance(coeffs_raw, list) and coeffs_raw):
            raise _Invalid(".coefficients", "expected a non-empty list")
        coeffs: dict[tuple[int, ...], complex] = {}
        _each(_parse_coefficient, coeffs_raw, ".coefficients", d, coeffs)
        return HermiteExpansion._checked(scale, origin, coeffs)
    raise _Invalid(".type", f'expected "gaussian_sum" or "hermite", got {kind!r}')


def state_from_dict(data) -> HybridState:
    try:
        if not isinstance(data, dict):
            raise _Invalid("", "state file must be a JSON object")
        version = data.get("schema_version")
        if not (type(version) is int and version == SCHEMA_VERSION):  # not True, not 1.0
            raise _Invalid(".schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
        _known_fields(data, _TOP_FIELDS)
        n, d = data.get("n"), data.get("d")
        if not (isinstance(n, int) and not isinstance(n, bool) and n >= 1):
            raise _Invalid(".n", "expected a positive integer")
        if not (isinstance(d, int) and not isinstance(d, bool) and d >= 1):
            raise _Invalid(".d", "expected a positive integer")
        entries = data.get("components")
        if not isinstance(entries, list):
            raise _Invalid(".components", "expected a list")
        if len(entries) != n:
            raise _Invalid(".components", f"expected {n} components, got {len(entries)}")
        # every component is parsed at the file's one d, so they cannot clash
        return HybridState(tuple(_each(_component_from_dict, entries, ".components", d)))
    except _Invalid as exc:  # the one place a failed check becomes a StateFileError
        raise StateFileError(f"${exc.args[0]}: {exc.args[1]}") from None


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
