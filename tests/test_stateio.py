"""State-file reading and JSON rendering: exact diagnostics and exact bytes.

The fault table and the rendering pins were recorded from the reader and
renderer that built every field path and rendered every number one call at
a time; the reader now formats a path only when a check fails and the
renderer writes a list of floats in one pass, with the same bytes."""

import io
import json

import numpy as np
import pytest

from cdent.cli import run
from cdent.errors import DomainError
from cdent.stateio import StateFileError, render_json, state_from_dict

NAN = float("nan")
INF = float("inf")
BIG = 10**400  # json reads it as an int; as a float it is infinite
DROP = object()  # the field is left out


def base_state() -> dict:
    """A two-level d = 2 file: two packet terms, then two Hermite
    coefficients.  The faults go to the second term and coefficient."""
    return {
        "schema_version": 1, "n": 2, "d": 2,
        "components": [
            {"type": "gaussian_sum", "terms": [
                {"amplitude": [0.5, 0.0], "center": [0.0, 0.0], "width": 1.0,
                 "linear_phase": [0.0, 0.0], "quad_phase": 0.0},
                {"amplitude": [0.5, 0.0], "center": [1.0, 0.0], "width": 1.0,
                 "linear_phase": [0.0, 0.0], "quad_phase": 0.0},
            ]},
            {"type": "hermite", "scale": 1.0, "origin": [0.0, 0.0], "coefficients": [
                {"index": [0, 0], "value": [0.5, 0.0]},
                {"index": [1, 0], "value": [0.5, 0.0]},
            ]},
        ],
    }


def with_fault(target: str, field, value) -> dict:
    data = base_state()
    comps = data["components"]
    obj = {
        "term": comps[0]["terms"][1], "terms": comps[0]["terms"], "component0": comps[0],
        "hermite": comps[1], "coefficients": comps[1]["coefficients"],
        "coefficient": comps[1]["coefficients"][1], "component1": comps[1],
        "components": comps, "top": data,
    }[target]
    if value is DROP:
        del obj[field]
    else:
        obj[field] = value
    return data


# (object, field, value, message): every field of a packet term and of a
# Hermite component, with each fault; new rows go at the end, since the
# test ids carry the row number
FAULTS = [
    ('term', 'amplitude', DROP, '$.components[0].terms[1].amplitude: complex values are two-element [re, im] arrays'),
    ('term', 'amplitude', 'x', '$.components[0].terms[1].amplitude: complex values are two-element [re, im] arrays'),
    ('term', 'amplitude', True, '$.components[0].terms[1].amplitude: complex values are two-element [re, im] arrays'),
    ('term', 'amplitude', None, '$.components[0].terms[1].amplitude: complex values are two-element [re, im] arrays'),
    ('term', 'amplitude', [0.5], '$.components[0].terms[1].amplitude: complex values are two-element [re, im] arrays'),
    ('term', 'amplitude', [0.5, 0.0, 0.0], '$.components[0].terms[1].amplitude: complex values are two-element [re, im] arrays'),
    ('term', 'amplitude', [NAN, 0.0], '$.components[0].terms[1].amplitude: numbers must be finite'),
    ('term', 'amplitude', [0.5, INF], '$.components[0].terms[1].amplitude: numbers must be finite'),
    ('term', 'amplitude', [BIG, 0.0], '$.components[0].terms[1].amplitude: numbers must be finite'),
    ('term', 'amplitude', [True, 0.0], '$.components[0].terms[1].amplitude: re and im must be numbers'),
    ('term', 'amplitude', [0.5, '0'], '$.components[0].terms[1].amplitude: re and im must be numbers'),
    ('term', 'amplitude', {'re': 0.5}, '$.components[0].terms[1].amplitude: complex values are two-element [re, im] arrays'),
    ('term', 'center', DROP, '$.components[0].terms[1].center: expected a list of 2 numbers'),
    ('term', 'center', 'x', '$.components[0].terms[1].center: expected a list of 2 numbers'),
    ('term', 'center', True, '$.components[0].terms[1].center: expected a list of 2 numbers'),
    ('term', 'center', None, '$.components[0].terms[1].center: expected a list of 2 numbers'),
    ('term', 'center', [0.0], '$.components[0].terms[1].center: expected a list of 2 numbers'),
    ('term', 'center', [0.0, 0.0, 0.0], '$.components[0].terms[1].center: expected a list of 2 numbers'),
    ('term', 'center', [], '$.components[0].terms[1].center: expected a list of 2 numbers'),
    ('term', 'center', [0.0, NAN], '$.components[0].terms[1].center: numbers must be finite'),
    ('term', 'center', [-INF, 0.0], '$.components[0].terms[1].center: numbers must be finite'),
    ('term', 'center', [0.0, BIG], '$.components[0].terms[1].center: numbers must be finite'),
    ('term', 'center', [True, 0.0], '$.components[0].terms[1].center: entries must be numbers'),
    ('term', 'center', [0.0, None], '$.components[0].terms[1].center: entries must be numbers'),
    ('term', 'width', DROP, '$.components[0].terms[1].width: expected a number'),
    ('term', 'width', 'x', '$.components[0].terms[1].width: expected a number'),
    ('term', 'width', True, '$.components[0].terms[1].width: expected a number'),
    ('term', 'width', None, '$.components[0].terms[1].width: expected a number'),
    ('term', 'width', [1.0], '$.components[0].terms[1].width: expected a number'),
    ('term', 'width', NAN, '$.components[0].terms[1].width: numbers must be finite'),
    ('term', 'width', INF, '$.components[0].terms[1].width: numbers must be finite'),
    ('term', 'width', BIG, '$.components[0].terms[1].width: numbers must be finite'),
    ('term', 'width', -BIG, '$.components[0].terms[1].width: numbers must be finite'),
    ('term', 'width', 0, '$.components[0].terms[1].width: must be > 0'),
    ('term', 'width', 0.0, '$.components[0].terms[1].width: must be > 0'),
    ('term', 'width', -1.0, '$.components[0].terms[1].width: must be > 0'),
    ('term', 'width', 1e-77, '$.components[0].terms[1].width: must be in [1e-76, 1e+76]'),
    ('term', 'width', 1e+77, '$.components[0].terms[1].width: must be in [1e-76, 1e+76]'),
    ('term', 'width', 5e-324, '$.components[0].terms[1].width: must be in [1e-76, 1e+76]'),
    ('term', 'linear_phase', 'x', '$.components[0].terms[1].linear_phase: expected a list of 2 numbers'),
    ('term', 'linear_phase', True, '$.components[0].terms[1].linear_phase: expected a list of 2 numbers'),
    ('term', 'linear_phase', [0.0], '$.components[0].terms[1].linear_phase: expected a list of 2 numbers'),
    ('term', 'linear_phase', [0.0, 0.0, 0.0], '$.components[0].terms[1].linear_phase: expected a list of 2 numbers'),
    ('term', 'linear_phase', [0.0, NAN], '$.components[0].terms[1].linear_phase: numbers must be finite'),
    ('term', 'linear_phase', [INF, 0.0], '$.components[0].terms[1].linear_phase: numbers must be finite'),
    ('term', 'linear_phase', [BIG, 0.0], '$.components[0].terms[1].linear_phase: numbers must be finite'),
    ('term', 'linear_phase', [0.0, False], '$.components[0].terms[1].linear_phase: entries must be numbers'),
    ('term', 'quad_phase', 'x', '$.components[0].terms[1].quad_phase: expected a number'),
    ('term', 'quad_phase', True, '$.components[0].terms[1].quad_phase: expected a number'),
    ('term', 'quad_phase', None, '$.components[0].terms[1].quad_phase: expected a number'),
    ('term', 'quad_phase', [0.0], '$.components[0].terms[1].quad_phase: expected a number'),
    ('term', 'quad_phase', NAN, '$.components[0].terms[1].quad_phase: numbers must be finite'),
    ('term', 'quad_phase', -INF, '$.components[0].terms[1].quad_phase: numbers must be finite'),
    ('term', 'quad_phase', BIG, '$.components[0].terms[1].quad_phase: numbers must be finite'),
    ('term', 'quad_phase', -BIG, '$.components[0].terms[1].quad_phase: numbers must be finite'),
    ('term', 'colour', 1, "$.components[0].terms[1]: unknown fields ['colour']"),
    ('term', 'Width', 1.0, "$.components[0].terms[1]: unknown fields ['Width']"),
    ('terms', 1, 'x', '$.components[0].terms[1]: expected an object'),
    ('terms', 1, True, '$.components[0].terms[1]: expected an object'),
    ('terms', 1, None, '$.components[0].terms[1]: expected an object'),
    ('terms', 1, [], '$.components[0].terms[1]: expected an object'),
    ('terms', 1, 3, '$.components[0].terms[1]: expected an object'),
    ('component0', 'terms', DROP, '$.components[0].terms: expected a non-empty list'),
    ('component0', 'terms', [], '$.components[0].terms: expected a non-empty list'),
    ('component0', 'terms', 'x', '$.components[0].terms: expected a non-empty list'),
    ('component0', 'terms', {}, '$.components[0].terms: expected a non-empty list'),
    ('component0', 'terms', None, '$.components[0].terms: expected a non-empty list'),
    ('hermite', 'scale', DROP, '$.components[1].scale: expected a number'),
    ('hermite', 'scale', 'x', '$.components[1].scale: expected a number'),
    ('hermite', 'scale', True, '$.components[1].scale: expected a number'),
    ('hermite', 'scale', None, '$.components[1].scale: expected a number'),
    ('hermite', 'scale', [1.0], '$.components[1].scale: expected a number'),
    ('hermite', 'scale', NAN, '$.components[1].scale: numbers must be finite'),
    ('hermite', 'scale', INF, '$.components[1].scale: numbers must be finite'),
    ('hermite', 'scale', BIG, '$.components[1].scale: numbers must be finite'),
    ('hermite', 'scale', 0, '$.components[1].scale: must be > 0'),
    ('hermite', 'scale', 0.0, '$.components[1].scale: must be > 0'),
    ('hermite', 'scale', -2.0, '$.components[1].scale: must be > 0'),
    ('hermite', 'scale', 1e-77, '$.components[1].scale: must be in [1e-76, 1e+76]'),
    ('hermite', 'scale', 1e+77, '$.components[1].scale: must be in [1e-76, 1e+76]'),
    ('hermite', 'origin', DROP, '$.components[1].origin: expected a list of 2 numbers'),
    ('hermite', 'origin', 'x', '$.components[1].origin: expected a list of 2 numbers'),
    ('hermite', 'origin', True, '$.components[1].origin: expected a list of 2 numbers'),
    ('hermite', 'origin', None, '$.components[1].origin: expected a list of 2 numbers'),
    ('hermite', 'origin', [0.0], '$.components[1].origin: expected a list of 2 numbers'),
    ('hermite', 'origin', [0.0, 0.0, 0.0], '$.components[1].origin: expected a list of 2 numbers'),
    ('hermite', 'origin', [0.0, NAN], '$.components[1].origin: numbers must be finite'),
    ('hermite', 'origin', [0.0, BIG], '$.components[1].origin: numbers must be finite'),
    ('hermite', 'origin', [True, 0.0], '$.components[1].origin: entries must be numbers'),
    ('hermite', 'coefficients', DROP, '$.components[1].coefficients: expected a non-empty list'),
    ('hermite', 'coefficients', [], '$.components[1].coefficients: expected a non-empty list'),
    ('hermite', 'coefficients', 'x', '$.components[1].coefficients: expected a non-empty list'),
    ('hermite', 'coefficients', None, '$.components[1].coefficients: expected a non-empty list'),
    ('hermite', 'coefficients', {}, '$.components[1].coefficients: expected a non-empty list'),
    ('coefficients', 1, 'x', '$.components[1].coefficients[1]: expected an object'),
    ('coefficients', 1, True, '$.components[1].coefficients[1]: expected an object'),
    ('coefficients', 1, None, '$.components[1].coefficients[1]: expected an object'),
    ('coefficients', 1, [], '$.components[1].coefficients[1]: expected an object'),
    ('coefficients', 1, 3, '$.components[1].coefficients[1]: expected an object'),
    ('coefficient', 'index', DROP, '$.components[1].coefficients[1].index: expected 2 non-negative integers'),
    ('coefficient', 'index', 'x', '$.components[1].coefficients[1].index: expected 2 non-negative integers'),
    ('coefficient', 'index', True, '$.components[1].coefficients[1].index: expected 2 non-negative integers'),
    ('coefficient', 'index', None, '$.components[1].coefficients[1].index: expected 2 non-negative integers'),
    ('coefficient', 'index', [0], '$.components[1].coefficients[1].index: expected 2 non-negative integers'),
    ('coefficient', 'index', [0, 0, 0], '$.components[1].coefficients[1].index: expected 2 non-negative integers'),
    ('coefficient', 'index', [0, -1], '$.components[1].coefficients[1].index: expected 2 non-negative integers'),
    ('coefficient', 'index', [-5, 0], '$.components[1].coefficients[1].index: expected 2 non-negative integers'),
    ('coefficient', 'index', [0, 257], '$.components[1].coefficients[1].index: entries must be <= 256'),
    ('coefficient', 'index', [300, 0], '$.components[1].coefficients[1].index: entries must be <= 256'),
    ('coefficient', 'index', [0, 256.0], '$.components[1].coefficients[1].index: expected 2 non-negative integers'),
    ('coefficient', 'index', [0, True], '$.components[1].coefficients[1].index: expected 2 non-negative integers'),
    ('coefficient', 'index', [0, '1'], '$.components[1].coefficients[1].index: expected 2 non-negative integers'),
    ('coefficient', 'index', [0, 0], '$.components[1].coefficients[1].index: duplicate multi-index (0, 0)'),
    ('coefficient', 'value', DROP, '$.components[1].coefficients[1].value: complex values are two-element [re, im] arrays'),
    ('coefficient', 'value', 'x', '$.components[1].coefficients[1].value: complex values are two-element [re, im] arrays'),
    ('coefficient', 'value', True, '$.components[1].coefficients[1].value: complex values are two-element [re, im] arrays'),
    ('coefficient', 'value', None, '$.components[1].coefficients[1].value: complex values are two-element [re, im] arrays'),
    ('coefficient', 'value', [0.5], '$.components[1].coefficients[1].value: complex values are two-element [re, im] arrays'),
    ('coefficient', 'value', [0.5, 0.0, 1.0], '$.components[1].coefficients[1].value: complex values are two-element [re, im] arrays'),
    ('coefficient', 'value', [NAN, 0.0], '$.components[1].coefficients[1].value: numbers must be finite'),
    ('coefficient', 'value', [0.0, -INF], '$.components[1].coefficients[1].value: numbers must be finite'),
    ('coefficient', 'value', [BIG, 0.0], '$.components[1].coefficients[1].value: numbers must be finite'),
    ('coefficient', 'value', [False, 0.0], '$.components[1].coefficients[1].value: re and im must be numbers'),
    ('component1', 'type', DROP, '$.components[1].type: expected "gaussian_sum" or "hermite", got None'),
    ('component1', 'type', 'gauss', '$.components[1].type: expected "gaussian_sum" or "hermite", got \'gauss\''),
    ('component1', 'type', None, '$.components[1].type: expected "gaussian_sum" or "hermite", got None'),
    ('component1', 'type', 1, '$.components[1].type: expected "gaussian_sum" or "hermite", got 1'),
    ('components', 0, 'x', '$.components[0]: expected an object'),
    ('components', 0, None, '$.components[0]: expected an object'),
    ('components', 0, [], '$.components[0]: expected an object'),
    ('components', 0, 1, '$.components[0]: expected an object'),
    ('top', 'schema_version', DROP, '$.schema_version: expected 1, got None'),
    ('top', 'schema_version', 2, '$.schema_version: expected 1, got 2'),
    ('top', 'schema_version', '1', "$.schema_version: expected 1, got '1'"),
    ('top', 'n', DROP, '$.n: expected a positive integer'),
    ('top', 'n', 0, '$.n: expected a positive integer'),
    ('top', 'n', 3, '$.components: expected 3 components, got 2'),
    ('top', 'n', 2.0, '$.n: expected a positive integer'),
    ('top', 'n', True, '$.n: expected a positive integer'),
    ('top', 'n', '2', '$.n: expected a positive integer'),
    ('top', 'd', DROP, '$.d: expected a positive integer'),
    ('top', 'd', 0, '$.d: expected a positive integer'),
    ('top', 'd', 2.0, '$.d: expected a positive integer'),
    ('top', 'd', True, '$.d: expected a positive integer'),
    ('top', 'd', -1, '$.d: expected a positive integer'),
    ('top', 'components', DROP, '$.components: expected a list'),
    ('top', 'components', 'x', '$.components: expected a list'),
    ('top', 'components', [], '$.components: expected 2 components, got 0'),
    ('top', 'components', {}, '$.components: expected a list'),
    # every object refuses fields it does not define; the version is an int
    ('component0', 'scale', 1.0, "$.components[0]: unknown fields ['scale']"),
    ('hermite', 'scael', 5, "$.components[1]: unknown fields ['scael']"),
    ('hermite', 'terms', [], "$.components[1]: unknown fields ['terms']"),
    ('coefficient', 'vlaue', [0.5, 0.0], "$.components[1].coefficients[1]: unknown fields ['vlaue']"),
    ('top', 'schema_version', True, '$.schema_version: expected 1, got True'),
    ('top', 'schema_version', 1.0, '$.schema_version: expected 1, got 1.0'),
    ('top', 'comment', 'x', "$: unknown fields ['comment']"),
]


@pytest.mark.parametrize("target, field, value, message", FAULTS,
                         ids=[f"{t}.{f}-{i}" for i, (t, f, _, _) in enumerate(FAULTS)])
def test_fault_table(tmp_path, target, field, value, message):
    data = with_fault(target, field, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data), encoding="utf-8")  # writes NaN, Infinity and 10**400 as json reads them
    out, err = io.StringIO(), io.StringIO()
    assert run(["analyze", str(path)], out, err) == 2
    assert (out.getvalue(), err.getvalue()) == ("", f"state file error: {message}\n")
    with pytest.raises(StateFileError) as exc:
        state_from_dict(data)
    assert str(exc.value) == message


def test_the_fault_free_base_is_read():
    state = state_from_dict(base_state())
    assert (state.n, state.d) == (2, 2)
    assert state.components[0].terms[1].center.tolist() == [1.0, 0.0]
    assert state.components[1].coefficients == {(0, 0): 0.5 + 0j, (1, 0): 0.5 + 0j}


def test_read_fields_are_frozen_floats():
    data = base_state()
    del data["components"][0]["terms"][1]["linear_phase"]
    data["components"][1]["origin"] = [0, -0.0]
    data["components"][1]["coefficients"][1]["value"] = [-0.0, -0.0]
    state = state_from_dict(data)
    term = state.components[0].terms[1]
    frame = state.components[1]
    for v in (term.center, term.linear_phase, frame.origin):
        assert v.dtype == np.float64 and not v.flags.writeable
    assert term.linear_phase.tolist() == [0.0, 0.0]
    assert np.signbit(frame.origin).tolist() == [False, True]
    # each coefficient is summed into 0.0, as the constructor sums it
    assert not np.signbit(frame.coefficients[(1, 0)].real)
    assert type(term.width) is float and type(term.quad_phase) is float and type(term.amplitude) is complex


# (value, bytes): rendered as the one-call-per-number renderer rendered them
PINS = [
    (np.float64(0.1), '0.10000000000000001'),
    (np.float64(-2.5e-300), '-2.5e-300'),
    (np.int64(-7), '-7'),
    (True, 'true'),
    (False, 'false'),
    (None, 'null'),
    ("é ü ☃ \U0001d11e", '"\\u00e9 \\u00fc \\u2603 \\ud834\\udd1e"'),
    ('q"b\\s/\n\t\x01', '"q\\"b\\\\s/\\n\\t\\u0001"'),
    ([], '[]'),
    ({}, '{}'),
    ((), '[]'),
    ((1.0, 2), '[1, 2]'),
    ({"a": (np.float64(1.5), [True, None]), "é": {"k\n": [[]]}, 3: "x"}, '{\n  "a": [\n    1.5,\n    [true, null]\n  ],\n  "\\u00e9": {\n    "k\\n": [\n      []\n    ]\n  },\n  "3": "x"\n}'),
    ([0.125] * 13 + [0.5] * 2, '[0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.5, 0.5]'),
    ([0.125] * 12 + [0.5] * 4, "[\n" + ",\n".join(["  0.125"] * 12 + ["  0.5"] * 4) + "\n]"),
    ([1] * 71, "[" + ", ".join(["1"] * 71) + "]"),
    ([1] * 72, "[\n" + ",\n".join(["  1"] * 72) + "\n]"),
    ([np.float64(0.125)] * 12 + [0.5] * 4, "[\n" + ",\n".join(["  0.125"] * 12 + ["  0.5"] * 4) + "\n]"),
    ([1.0 / 3.0] * 4, '[\n  0.33333333333333331,\n  0.33333333333333331,\n  0.33333333333333331,\n  0.33333333333333331\n]'),
    (-0.0, '-0'),
    (5e-324, '4.9406564584124654e-324'),
    (1.7976931348623157e308, '1.7976931348623157e+308'),
    ([-0.0, 5e-324, 1.7976931348623157e308], '[-0, 4.9406564584124654e-324, 1.7976931348623157e+308]'),
    ([np.float64(-0.0), np.float32(0.1), np.int64(3), 2], '[-0, 0.10000000149011612, 3, 2]'),
    ({"x": 0.25, "y": [0.5, 1], "z": {"w": [[0.5, 0.25], [1.0, 2.0]]}}, '{\n  "x": 0.25,\n  "y": [0.5, 1],\n  "z": {\n    "w": [\n      [0.5, 0.25],\n      [1, 2]\n    ]\n  }\n}'),
]


@pytest.mark.parametrize("value, text", PINS, ids=[str(i) for i in range(len(PINS))])
def test_render_json_bytes(value, text):
    assert render_json(value) == text


@pytest.mark.parametrize("value, shown", [
    (NAN, "nan"),
    (np.float64(-INF), "-inf"),
    ([0.5, INF, NAN], "inf"),
    ([np.float64(0.5), np.float64(NAN)], "nan"),
    ({"a": 1.0, "b": {"c": [0.5, 1], "d": -INF}}, "-inf"),
    ([1, [0.5, NAN]], "nan"),
])
def test_render_json_refuses_non_finite_numbers(value, shown):
    with pytest.raises(DomainError, match=f"^cannot write the non-finite number {shown}$"):
        render_json(value)


def test_render_json_refuses_unknown_types():
    with pytest.raises(TypeError, match="cannot render object"):
        render_json([0.5, object()])
