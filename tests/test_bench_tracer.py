"""The benchmark's traced run reads cdent's names from outside: this keeps
that contract under test, with ``bench/tracer.py`` loaded as it stands."""

import importlib.util
import io
from pathlib import Path

import numpy as np

from cdent.cli import run
from cdent import galilean
from cdent.galilean import random_elements
from cdent.scenarios import beam_pair
from cdent.stateio import save_state
from conftest import EQUAL, ZHAT

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_commands_and_metrics(tmp_path):
    path = str(tmp_path / "beam.json")
    beam = beam_pair(EQUAL, EQUAL, np.zeros(3), ZHAT, 1.0, 1.0)
    save_state(beam, path)
    chain = str(tmp_path / "chain.json")
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        # galilean-check moves packets without calling apply_galilean, so
        # the chain is built here, through the traced binding site
        for g in random_elements(3, seed=5):
            beam = galilean.apply_galilean(beam, g)
        save_state(beam, chain)
        for argv in (
            ["analyze", path],
            ["galilean-check", path, "--samples=1", "--seed=1"],
            ["galilean-check", chain, "--samples=2", "--seed=1"],
            ["kernel", path, "--axis=2", "--grid=-1:1:3"],
            ["sweep-q", "--c0=0.6", "--c1=0.8", "--sigma=1", "--q-start=0", "--q-stop=2", "--q-steps=3"],
        ):
            err = io.StringIO()
            assert run(argv, io.StringIO(), err) == 0, err.getvalue()
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(1, 0.0, 0.0)
    assert metrics["scenarios.rows"][0] == 3
    assert metrics["overlaps.matrix_calls"][0] > 0
    assert metrics["galilean.apply_calls"][0] == 3
    # a frame change adds no terms: the beam state has 2 distinct packets
    assert metrics["galilean.terms_out"][0] <= 2
