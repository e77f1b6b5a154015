"""Property fuzz of ``cdent analyze`` over generated schema-v1 state files.

Valid states (normalized in closed form: single packets and Hermite modes on
distinct indices contribute the squared moduli of their amplitudes), and the
same states with a few fields replaced by NaN, infinities, huge, tiny and
negative numbers, wrong types, or removed.  Widths, scales and centers are
drawn log-uniformly over 1e-200..1e200.  Whatever the file holds, ``analyze``
exits 0, 2 or 3, raises nothing and never prints a non-finite number.
"""

import io
import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cdent.cli import run

SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 1e308, -1e308, 5e-324, 1e-300, -1e-300]


def log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


def signed(magnitudes):
    return st.tuples(st.sampled_from([1.0, -1.0]), magnitudes).map(lambda t: t[0] * t[1])


WIDTHS = st.one_of(log_uniform(-200, 200), log_uniform(-76, 76), st.floats(0.3, 3.0))
COORDINATES = st.one_of(st.just(0.0), st.floats(-3.0, 3.0), signed(log_uniform(-200, 200)))
REPLACEMENTS = st.one_of(
    st.sampled_from(SPECIAL),
    signed(log_uniform(-320, 308)),
    st.integers(-3, 6),
    st.sampled_from(["1.0", None, True, [], {}]),
)


@st.composite
def valid_states(draw):
    n = draw(st.integers(1, 6))
    d = draw(st.integers(1, 3))

    def vector():
        return [draw(COORDINATES) for _ in range(d)]

    components, amplitudes = [], []
    for _ in range(n):
        if draw(st.booleans()):
            term = {"amplitude": None, "center": vector(), "width": draw(WIDTHS)}
            if draw(st.booleans()):
                term["linear_phase"] = vector()
                term["quad_phase"] = draw(COORDINATES)
            amplitudes.append(term)
            components.append({"type": "gaussian_sum", "terms": [term]})
        else:
            indices = draw(st.lists(st.lists(st.integers(0, 4), min_size=d, max_size=d),
                                    min_size=1, max_size=3, unique_by=tuple))
            coefficients = [{"index": idx, "value": None} for idx in indices]
            amplitudes.extend(coefficients)
            components.append({"type": "hermite", "scale": draw(WIDTHS), "origin": vector(),
                               "coefficients": coefficients})
    values = [complex(draw(st.floats(0.05, 1.0)), draw(st.floats(-1.0, 1.0))) for _ in amplitudes]
    total = math.sqrt(sum(abs(z) ** 2 for z in values))
    for holder, z in zip(amplitudes, values):
        key = "amplitude" if "amplitude" in holder else "value"
        holder[key] = [z.real / total, z.imag / total]
    return {"schema_version": 1, "n": n, "d": d, "components": components}


def paths(node, prefix=()):
    """Every position in a JSON tree: its containers' entries and leaves."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def reject_constant(token):
    raise AssertionError(f"non-finite number {token} in the output")


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(state=valid_states(), data=st.data())
def test_analyze_exits_cleanly_on_any_state_file(tmp_path, state, data):
    for _ in range(data.draw(st.integers(0, 3))):
        where = data.draw(st.sampled_from(list(paths(state))))
        parent = state
        for key in where[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and data.draw(st.booleans()):
            del parent[where[-1]]
        else:
            parent[where[-1]] = data.draw(REPLACEMENTS)
    path = tmp_path / "state.json"
    path.write_text(json.dumps(state))
    out, err = io.StringIO(), io.StringIO()
    code = run(["analyze", str(path)], out, err)
    text = out.getvalue()
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        json.loads(text, parse_constant=reject_constant)
    else:
        assert text == ""
    assert "nan" not in text.lower() and "inf" not in text.lower()
