"""Property fuzz of the Galilean action and of ``cdent galilean-check``.

Start states are two-level d = 3 states over a pool of 1-3 phased packets:
each component sums 1-3 picks from the pool, so packets repeat within and
across components.  A chain of up to 8 seeded frame changes at a mass drawn
log-uniformly over 1e-2..1e2 must keep every component at no more terms
than the start state has distinct packets, h must follow h = D h0 D^dagger,
and at every step the h that ``galilean-check`` computes from the keyed
packets must equal the overlap matrix of the state ``apply_galilean``
returns.  ``galilean-check`` on the start state, at masses drawn
log-uniformly over 1e-200..1e200, exits 0, 2 or 3, raises nothing and
prints finite strict JSON on success.
"""

import io
import json

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cdent.cli import run
from cdent.galilean import (
    PhysicalParams,
    _moved_overlap_matrix,
    _su2_rows,
    apply_galilean,
    random_elements,
    su2_from_rotation,
)
from cdent.overlaps import _keyed, overlap_matrix
from cdent.states import GaussianSum, GaussianTerm, HybridState, norm, normalize
from cdent.stateio import save_state


def unit(lo, hi, size=None):
    return st.floats(lo, hi) if size is None else st.lists(st.floats(lo, hi), min_size=size, max_size=size)


@st.composite
def start_states(draw):
    pool = [
        (draw(unit(-2.0, 2.0, 3)), draw(unit(0.6, 1.6)), draw(unit(-1.0, 1.0, 3)), draw(unit(-0.3, 0.3)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    components = []
    for _ in range(2):
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=3))
        components.append(GaussianSum(tuple(
            GaussianTerm(complex(draw(unit(-1.0, 1.0)), draw(unit(-1.0, 1.0))), *pool[k]) for k in picks
        )))
    state = HybridState(tuple(components))
    assume(norm(state) > 1e-3)
    return normalize(state)


def distinct_packets(state):
    return len({
        (t.width, t.quad_phase, t.center.tobytes(), t.linear_phase.tobytes())
        for c in state.components for t in c.terms
    })


def reject_constant(token):
    raise AssertionError(f"non-finite number {token} in the output")


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(state=start_states(), changes=st.integers(1, 8), seed=st.integers(0, 2**32 - 1),
       chain_mass=st.floats(-2.0, 2.0).map(lambda e: 10.0**e),
       check_mass=st.floats(-200.0, 200.0).map(lambda e: 10.0**e))
def test_frame_chains_and_galilean_check(tmp_path, state, changes, seed, chain_mass, check_mass):
    packets = distinct_packets(state)
    h0 = overlap_matrix(state).matrix
    moved, dmat = state, np.eye(2)
    for g in random_elements(changes, seed):
        frame = g.time_shift, g.translation.tolist(), g.boost_velocity.tolist(), g.rotation.tolist()
        dictionary, rows = _keyed(moved.components)
        checked = _moved_overlap_matrix(dictionary.packets, rows, frame, _su2_rows(frame[3]), chain_mass).matrix
        moved = apply_galilean(moved, g, PhysicalParams(chain_mass))
        assert np.max(np.abs(checked - overlap_matrix(moved).matrix)) <= 1e-15
        dmat = su2_from_rotation(g.rotation).matrix @ dmat
        assert all(len(c.terms) <= packets for c in moved.components)
    h = overlap_matrix(moved).matrix
    # rounding grows like mass * eps (ROADMAP item 3): 2.6e-12 at most over
    # 1,500 examples
    assert np.max(np.abs(h - dmat @ h0 @ dmat.conj().T)) < 1e-10

    path = tmp_path / "state.json"
    save_state(state, str(path))
    out, err = io.StringIO(), io.StringIO()
    code = run(["galilean-check", str(path), "--samples=2", f"--seed={seed}", f"--mass={check_mass!r}"], out, err)
    text = out.getvalue()
    assert code in (0, 2, 3), err.getvalue()
    if code == 0:
        json.loads(text, parse_constant=reject_constant)
    else:
        assert text == ""
