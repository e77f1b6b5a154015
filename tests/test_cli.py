"""Command-line surface: subcommands, exit codes, formats, determinism."""

import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from cdent import __version__, cli, overlaps
from cdent.cli import run
from cdent.density import schmidt_decomposition
from cdent.errors import DomainError
from cdent.galilean import GalileanElement, apply_galilean
from cdent.measures import entanglement_report
from cdent.overlaps import overlap_matrix
from cdent.scenarios import beam_pair, shape_pair
from cdent.states import (
    HERMITE_INDEX_MAX,
    WIDTH_MAX,
    WIDTH_MIN,
    ComponentSum,
    GaussianSum,
    GaussianTerm,
    HermiteExpansion,
    HybridState,
    evaluate,
    normalize,
)
from cdent.stateio import (
    StateFileError,
    fmt_float,
    load_state,
    render_json,
    save_state,
    state_from_dict,
    state_to_dict,
)
from conftest import EQUAL, ZHAT
import quadrature_oracle
from quadrature_oracle import quadrature_overlap


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def shape_file(tmp_path):
    path = tmp_path / "shape.json"
    save_state(shape_pair(EQUAL, EQUAL, 0, 1), str(path))
    return str(path)


@pytest.fixture
def beam_file(tmp_path):
    path = tmp_path / "beam.json"
    save_state(beam_pair(EQUAL, EQUAL, np.zeros(3), ZHAT, 1.0, 1.0), str(path))
    return str(path)


class TestStateIO:
    def test_round_trip_mixed_state(self, tmp_path):
        state = normalize(
            HybridState(
                (
                    GaussianSum(
                        (
                            GaussianTerm(0.3 - 0.4j, [0.1, -0.2], 1.2, [0.5, 0.0], 0.3),
                            GaussianTerm(0.5, [1.0, 0.7], 0.8),
                        )
                    ),
                    HermiteExpansion(1.4, [0.2, 0.3], {(0, 2): 0.6, (1, 1): 0.8j}),
                )
            )
        )
        path = tmp_path / "state.json"
        save_state(state, str(path))
        back = load_state(str(path))
        assert state_to_dict(back) == state_to_dict(state)

    def test_field_path_in_diagnostics(self):
        data = {
            "schema_version": 1,
            "n": 1,
            "d": 1,
            "components": [
                {"type": "gaussian_sum", "terms": [{"amplitude": [1, 0], "center": [0], "width": -1}]}
            ],
        }
        with pytest.raises(StateFileError, match=r"components\[0\].terms\[0\].width"):
            state_from_dict(data)

    def test_wrong_schema_version(self):
        with pytest.raises(StateFileError, match="schema_version"):
            state_from_dict({"schema_version": 99, "n": 1, "d": 1, "components": []})

    def test_component_count_checked(self):
        with pytest.raises(StateFileError, match="components"):
            state_from_dict({"schema_version": 1, "n": 2, "d": 1, "components": []})

    def test_duplicate_hermite_index_rejected(self):
        data = {
            "schema_version": 1, "n": 1, "d": 1,
            "components": [
                {"type": "hermite", "scale": 1.0, "origin": [0.0],
                 "coefficients": [
                     {"index": [0], "value": [1.0, 0.0]},
                     {"index": [0], "value": [0.5, 0.0]},
                 ]}
            ],
        }
        with pytest.raises(StateFileError, match="duplicate"):
            state_from_dict(data)

    def test_fmt_float_round_trips(self, rng):
        for _ in range(200):
            x = float(rng.normal() * 10.0 ** rng.integers(-12, 12))
            assert float(fmt_float(x)) == x

    def test_render_json_is_valid_json(self):
        payload = {"a": 1.5, "b": [1, 2.25, "x"], "c": {"nested": True, "null": None}}
        assert json.loads(render_json(payload)) == payload

    def test_non_finite_floats_are_refused(self):
        for x in (float("nan"), float("inf"), -np.inf, np.float64("nan")):
            with pytest.raises(DomainError, match="non-finite"):
                fmt_float(x)
        with pytest.raises(DomainError):
            render_json({"a": float("nan")})
        with pytest.raises(DomainError):
            render_json({"h": [[1.0, np.inf]]})


class TestAnalyze:
    def test_shape_pair_entropy_one_bit(self, shape_file):
        code, out, err = run_cli(["analyze", shape_file])
        assert code == 0, err
        report = json.loads(out)
        assert report["entropy_bits"] == pytest.approx(1.0, abs=1e-9)
        assert report["classification"] == "maximal"
        assert report["schmidt_rank"] == 2
        h = np.array([[complex(re, im) for re, im in row] for row in report["h"]])
        assert np.max(np.abs(h - 0.5 * np.eye(2))) < 1e-12

    def test_round_trip_byte_stable(self, shape_file, tmp_path):
        code1, out1, _ = run_cli(["analyze", shape_file])
        state = load_state(shape_file)
        copy = tmp_path / "copy.json"
        save_state(state, str(copy))
        code2, out2, _ = run_cli(["analyze", str(copy)])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_same_bytes_wherever_the_beam_sits(self, tmp_path):
        # centers [x, 0, 0] and [x, 0, 1]: from about x = 1.3e154 the squared
        # midpoint overflowed, and its zero prefactor made h nan
        outs = []
        for x in (0.0, 1e150, 1e200, 1e300):
            path = write_state(tmp_path / f"beam{x:g}.json", 3, [
                packet_entry(EQUAL, [x, 0.0, 0.0], 1.0),
                packet_entry(EQUAL, [x, 0.0, 1.0], 1.0),
            ])
            code, out, err = run_cli(["analyze", path])
            assert code == 0, err
            outs.append(out)
        assert outs[1:] == outs[:1] * 3
        assert json.loads(outs[0])["h"][0][1][0] == pytest.approx(0.5 * np.exp(-1.0), abs=1e-16)


class TestSweeps:
    def test_single_row_q_zero(self):
        code, out, err = run_cli(
            ["sweep-q", "--c0", str(EQUAL), "--c1", str(EQUAL), "--sigma", "1.0",
             "--q-start", "0", "--q-stop", "0", "--q-steps", "1"]
        )
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "q,abs_x,lambda_plus,lambda_minus,entropy_bits,purity"
        fields = lines[1].split(",")
        assert float(fields[1]) == pytest.approx(1.0, abs=1e-12)
        assert float(fields[4]) == pytest.approx(0.0, abs=1e-10)

    def test_csv_format_discipline(self):
        code, out, _ = run_cli(
            ["sweep-width", "--c0", str(EQUAL), "--c1", str(EQUAL), "--sigma0", "1.0",
             "--r-start", "1", "--r-stop", "2", "--r-steps", "3"]
        )
        assert code == 0
        assert "\r" not in out
        assert out.endswith("\n")
        lines = out.splitlines()
        assert lines[0] == "ratio,abs_x,lambda_plus,lambda_minus,entropy_bits,purity"
        assert len(lines) == 4
        row = lines[2].split(",")
        assert float(row[0]) == pytest.approx(1.5)
        assert float(row[1]) == pytest.approx((2 * 1.5 / (1 + 1.5**2)) ** 1.5, abs=1e-12)

    def test_out_flag_writes_file(self, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            ["sweep-q", "--c0", str(EQUAL), "--c1", str(EQUAL), "--sigma", "1.0",
             "--q-start", "0", "--q-stop", "1", "--q-steps", "2", "--out", str(target)]
        )
        assert code == 0
        assert out == ""
        content = target.read_text()
        assert content.startswith("q,abs_x")
        assert len(content.splitlines()) == 3

    def test_complex_amplitude_parsing(self):
        code, out, err = run_cli(
            ["sweep-q", "--c0", "0.5+0.5j", "--c1", "0.5-0.5j", "--sigma", "1.0",
             "--q-start", "1", "--q-stop", "1", "--q-steps", "1"]
        )
        assert code == 0, err
        assert float(out.splitlines()[1].split(",")[1]) == pytest.approx(np.exp(-1.0), abs=1e-12)


class TestGalileanCheck:
    def test_invariance_and_determinism(self, beam_file):
        argv = ["galilean-check", beam_file, "--samples", "25", "--seed", "7", "--mass", "1.0"]
        code1, out1, err1 = run_cli(argv)
        code2, out2, _ = run_cli(argv)
        assert code1 == code2 == 0, err1
        assert out1 == out2
        report = json.loads(out1)
        assert report["max_spectrum_deviation"] < 1e-9
        assert report["max_conjugation_deviation"] < 1e-9
        assert set(report["worst_spectrum_element"]) == {
            "time_shift", "translation", "boost_velocity", "rotation",
        }

    def test_large_mass(self, beam_file):
        code, out, err = run_cli(
            ["galilean-check", beam_file, "--samples", "18", "--seed", "7", "--mass", "100"]
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["max_spectrum_deviation"] < 1e-9
        assert report["max_conjugation_deviation"] < 1e-9

    def test_hermite_state_is_numerical_error(self, shape_file):
        code, _, err = run_cli(["galilean-check", shape_file, "--samples", "3", "--seed", "1"])
        assert code == 3
        assert "numerical error" in err

    def test_infinite_overlap_phase_is_numerical_error(self, tmp_path):
        # packets boosted to |center| ~ 1e154 with unequal quadratic phases:
        # the phase of their overlap overflows (was: an uncaught ValueError)
        state = HybridState((
            GaussianSum((GaussianTerm(0.6, [0.0, 0.0, 0.0], 1.0, None, 0.0625),)),
            GaussianSum((GaussianTerm(0.8j, [0.0, 0.0, 0.0], 1.0),)),
        ))
        save_state(state, str(tmp_path / "chirped.json"))
        code, out, err = run_cli(["galilean-check", str(tmp_path / "chirped.json"),
                                  "--samples=2", "--seed=0", "--mass=1e154"])
        assert (code, out) == (3, "")
        assert "packet overlap phase is not finite" in err

    def test_overflowing_frame_change_phase_is_numerical_error(self, tmp_path, capsys):
        # the scalar phase holds quad_phase * m^2 |v|^2, which overflows at
        # mass 1e160: the frame change is named, not the state's amplitude,
        # and no numpy warning reaches the process's stderr
        state = normalize(HybridState((
            GaussianSum((GaussianTerm(1.0, [0.0, 0.0, 0.0], 1.0, None, 0.1),)),
            GaussianSum((GaussianTerm(1.0, [0.0, 0.0, 1.0], 1.0, None, 0.2),)),
        )))
        save_state(state, str(tmp_path / "chirped.json"))
        code, out, err = run_cli(["galilean-check", str(tmp_path / "chirped.json"),
                                  "--samples=20", "--seed=1", "--mass=1e160"])
        assert (code, out) == (3, "")
        assert err.startswith("numerical error: the phase of the frame change with time_shift ")
        assert err.endswith(" is not finite at mass 1e+160\n")
        assert capsys.readouterr() == ("", "")


class TestKernel:
    def test_grid_and_values(self, beam_file):
        code, out, err = run_cli(["kernel", beam_file, "--axis", "2", "--grid=0:1:2"])
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "p,p_prime,re_f,im_f"
        assert len(lines) == 5  # 2x2 grid
        state = load_state(beam_file)
        from cdent.density import kernel_eval

        first = lines[1].split(",")
        expected = kernel_eval(state, [0, 0, 0.0], [0, 0, 0.0])
        assert float(first[2]) == pytest.approx(expected.real, abs=1e-14)
        assert float(first[3]) == pytest.approx(expected.imag, abs=1e-14)

    def test_axis_out_of_range(self, beam_file):
        code, _, err = run_cli(["kernel", beam_file, "--axis", "5", "--grid=0:1:2"])
        assert code == 1
        assert "axis" in err

    @pytest.mark.parametrize("grid", ["nan:1:2", "-inf:0:3", "0:inf:2", "-1e308:1e308:3"])
    def test_non_finite_grid_is_usage_error(self, beam_file, grid):
        # the last grid has finite bounds, but linspace's step overflows
        code, out, err = run_cli(["kernel", beam_file, "--axis", "0", f"--grid={grid}"])
        assert code == 1
        assert out == ""
        assert "grid points must be finite" in err

    def test_far_out_grid_prints_zeros(self, beam_file, shape_file):
        # |p|^2 overflows from |p| ~ 1.3e154; the kernel is exactly 0 there
        for path in (beam_file, shape_file):
            code, out, err = run_cli(["kernel", path, "--axis", "2", "--grid=0:1e308:3"])
            assert code == 0, err
            rows = [line.split(",") for line in out.splitlines()[1:]]
            assert len(rows) == 9
            for u, v, re, im in rows:
                if (u, v) != ("0", "0"):
                    assert (re, im) == ("0", "0")

    @pytest.mark.parametrize("grid", ["0.4:0.4:1", "-1:1.5:2", "-2:2:9"])
    def test_matches_per_pair_reference_bytes(self, tmp_path, grid):
        states = kernel_states()
        for name, state in states.items():
            path = tmp_path / f"{name}.json"
            save_state(state, str(path))
            lo, hi, steps = grid.split(":")
            points = np.linspace(float(lo), float(hi), int(steps))
            for axis in range(state.d):
                code, out, err = run_cli(["kernel", str(path), "--axis", str(axis), f"--grid={grid}"])
                assert code == 0, err
                assert out == kernel_reference_csv(state, axis, points), (name, axis)

    def test_one_evaluation_per_component(self, tmp_path, monkeypatch):
        points = []
        for cls in (GaussianSum, HermiteExpansion):
            def counted(self, pts, original=cls.eval_many):
                points.append(pts.shape[0])
                return original(self, pts)

            monkeypatch.setattr(cls, "eval_many", counted)
        state = kernel_states()["mixed"]
        path = tmp_path / "mixed.json"
        save_state(state, str(path))
        code, _, err = run_cli(["kernel", str(path), "--axis", "1", "--grid=-1:1:7"])
        assert code == 0, err
        assert points == [7] * state.n


def kernel_states() -> dict:
    """A beam pair, a 4-times frame-changed beam pair (16 terms per
    component), a d = 3 same-frame Hermite state and a Gaussian x Hermite
    state."""
    beam = beam_pair(0.6, 0.8j, [0.1, -0.2, 0.0], [0.3, 0.1, 0.9], 1.1, 0.8)
    moved = beam
    for k in range(4):
        g = GalileanElement(0.3 * k - 0.4, [0.2, -0.1 * k, 0.5], [0.1 * k, 0.3, -0.2],
                            np.array([1.0, 0.2 * k, -0.1, 0.3]) / np.sqrt(1.1 + 0.04 * k * k))
        moved = apply_galilean(moved, g)
    herm = normalize(HybridState(tuple(
        HermiteExpansion(1.3, [0.2, -0.1, 0.3], coeffs)
        for coeffs in ({(0, 1, 2): 0.5, (1, 0, 0): 0.2j}, {(2, 0, 1): 0.7}, {(0, 0, 0): 0.3 - 0.1j})
    )))
    mixed = normalize(HybridState((
        GaussianSum((GaussianTerm(0.6, [0.2, -0.4], 0.9, [0.3, -0.2], 0.25),
                     GaussianTerm(0.3j, [-0.5, 0.1], 1.4))),
        HermiteExpansion(1.1, [0.1, 0.3], {(1, 0): 0.4, (0, 2): 0.5j}),
        GaussianSum((GaussianTerm(0.5 - 0.2j, [0.0, 0.6], 1.2, None, -0.1),)),
    )))
    return {"beam": beam, "frames4": moved, "hermite3": herm, "mixed": mixed}


def kernel_reference_csv(state, axis, points) -> str:
    """Kernel CSV from pointwise values, one (p, p') pair at a time, with
    the complex product written out as re = ac - bd, im = ad + bc."""
    def values(u):
        p = np.zeros(state.d)
        p[axis] = u
        return [evaluate(state, chi, p) for chi in range(state.n)]

    lines = ["p,p_prime,re_f,im_f"]
    for u in points:
        for v in points:
            re = im = 0.0
            for x, y in zip(values(u), values(v)):
                y = y.conjugate()
                re += x.real * y.real - x.imag * y.imag
                im += x.real * y.imag + x.imag * y.real
            lines.append(",".join(fmt_float(t) for t in (u, v, re, im)))
    return "\n".join(lines) + "\n"


class TestExitCodes:
    def test_usage_errors(self):
        assert run_cli([])[0] == 1
        assert run_cli(["not-a-command"])[0] == 1
        assert run_cli(["sweep-q", "--c0", "1"])[0] == 1
        assert run_cli(["kernel", "x.json", "--axis", "0", "--grid=bad"])[0] == 1

    def test_state_file_errors(self, tmp_path):
        missing = tmp_path / "missing.json"
        assert run_cli(["analyze", str(missing)])[0] == 2
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        code, _, err = run_cli(["analyze", str(broken)])
        assert code == 2
        assert "line 1" in err
        invalid = tmp_path / "invalid.json"
        invalid.write_text(
            json.dumps(
                {
                    "schema_version": 1, "n": 1, "d": 1,
                    "components": [
                        {"type": "gaussian_sum",
                         "terms": [{"amplitude": [1, 0], "center": [0], "width": -1}]}
                    ],
                }
            )
        )
        code, _, err = run_cli(["analyze", str(invalid)])
        assert code == 2
        assert "width" in err

    def test_numerical_error_exit(self, tmp_path):
        unnorm = tmp_path / "unnorm.json"
        unnorm.write_text(
            json.dumps(
                {
                    "schema_version": 1, "n": 1, "d": 1,
                    "components": [
                        {"type": "gaussian_sum",
                         "terms": [{"amplitude": [2, 0], "center": [0], "width": 1}]}
                    ],
                }
            )
        )
        code, _, err = run_cli(["analyze", str(unnorm)])
        assert code == 3
        assert "normalized" in err

    def test_numerical_error_prints_plain_floats(self, tmp_path):
        # |norm-1| = 5e-10 passes the norm gate; the trace 1 + 1e-9 then
        # fails the overlap matrix's unit-trace check
        path = tmp_path / "nearly.json"
        path.write_text(
            json.dumps(
                {
                    "schema_version": 1, "n": 1, "d": 1,
                    "components": [
                        {"type": "gaussian_sum",
                         "terms": [{"amplitude": [1.0000000005, 0], "center": [0], "width": 1}]}
                    ],
                }
            )
        )
        code, _, err = run_cli(["analyze", str(path)])
        assert code == 3
        assert "trace must be 1, got 1.000000001" in err
        assert "np.float64" not in err

    def test_help_exits_zero(self, capsys):
        code, out, err = run_cli(["--help"])
        assert code == 0
        assert out.startswith("usage: cdent") and "galilean-check" in out
        assert err == ""
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv, start", [
        (["--version"], f"cdent {__version__}\n"), (["analyze", "--help"], "usage: cdent analyze"),
    ])
    def test_version_and_command_help_go_to_the_given_stdout(self, capsys, argv, start):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out.startswith(start)
        assert capsys.readouterr() == ("", "")


def write_state(path, d, components) -> str:
    path.write_text(json.dumps({"schema_version": 1, "n": len(components), "d": d, "components": components}))
    return str(path)


def packet_entry(amp, center, width, linear=None, quad=0.0):
    term = {"amplitude": [amp, 0.0], "center": center, "width": width, "quad_phase": quad}
    if linear is not None:
        term["linear_phase"] = linear
    return {"type": "gaussian_sum", "terms": [term]}


def hermite_entry(scale, origin, index, value):
    return {"type": "hermite", "scale": scale, "origin": origin,
            "coefficients": [{"index": index, "value": [value, 0.0]}]}


def analyze_h(path):
    code, out, err = run_cli(["analyze", path])
    assert code == 0, err
    return np.array([[complex(re, im) for re, im in row] for row in json.loads(out)["h"]])


class TestMixedAnalyze:
    def test_chirped_packet_far_from_hermite_origin(self, tmp_path):
        # the chirp exp(i p^2/2) about p = 100 oscillates at frequency ~100:
        # the true overlap is about 1e-268
        path = write_state(tmp_path / "chirp.json", 1, [
            packet_entry(EQUAL, [100.0], 1.0, quad=0.5),
            hermite_entry(1.0, [100.5], [1], EQUAL),
        ])
        assert abs(analyze_h(path)[0, 1]) < 1e-12

    def test_five_dimensional_mixed_state(self, tmp_path):
        # h01 factors into one 1-D overlap per axis, each checked against
        # the quadrature oracle
        center = [0.3, -0.2, 0.5, 0.1, -0.4]
        linear = [0.2, -0.1, 0.0, 0.3, 0.1]
        origin = [0.1, 0.2, -0.3, 0.0, 0.4]
        index = [1, 0, 2, 0, 1]
        path = write_state(tmp_path / "d5.json", 5, [
            packet_entry(0.6, center, 1.1, linear, 0.2),
            hermite_entry(1.3, origin, index, 0.8),
        ])
        expected = 0.6 * 0.8
        for k, a, o, m in zip(center, linear, origin, index):
            expected *= quadrature_overlap(
                GaussianSum((GaussianTerm(1.0, [k], 1.1, [a], 0.2),)),
                HermiteExpansion(1.3, [o], {(m,): 1.0}),
            )
        assert abs(analyze_h(path)[0, 1] - expected) < 1e-10

    def test_no_route_reaches_quadrature(self, tmp_path, monkeypatch, rng):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature reached from the pipeline")

        # the oracle lives in the test suite, out of the library's reach
        assert not hasattr(overlaps, "quadrature_overlap")
        monkeypatch.setattr(quadrature_oracle, "quadrature_overlap", refuse)
        mixed = write_state(tmp_path / "mixed.json", 2, [
            packet_entry(EQUAL, [0.2, -0.1], 0.9, [0.3, 0.1], 0.2),
            hermite_entry(1.2, [0.4, 0.0], [1, 2], EQUAL),
        ])
        cross = write_state(tmp_path / "cross.json", 1, [
            hermite_entry(1.0, [0.0], [0], EQUAL),
            hermite_entry(1.7, [0.6], [2], EQUAL),
        ])
        for path in (mixed, cross):
            h = analyze_h(path)
            assert abs(np.trace(h) - 1.0) < 1e-10
        # Schmidt modes of a mixed state are ComponentSums; weighted by the
        # square roots of the Schmidt coefficients they give h = diag(lambda)
        sd = schmidt_decomposition(load_state(mixed))
        lam = sd.coefficients.eigenvalues
        state = HybridState(tuple(m.scaled(np.sqrt(v)) for m, v in zip(sd.continuous_modes, lam)))
        assert all(isinstance(c, ComponentSum) for c in state.components)
        rho = overlap_matrix(state)
        assert entanglement_report(rho).schmidt_rank == 2
        assert np.max(np.abs(rho.matrix - np.diag(lam))) < 1e-12


class TestNonFiniteInput:
    @pytest.mark.parametrize(
        "field, value",
        [("center", [np.nan, 0.0]), ("width", np.inf), ("amplitude", [-np.inf, 0.0])],
    )
    def test_analyze_exits_2_with_field_path(self, tmp_path, field, value):
        # json.dumps writes NaN / Infinity / -Infinity, which json.load reads back
        bad = packet_entry(EQUAL, [0.0, 0.0], 1.0)
        bad["terms"][0][field] = value
        path = write_state(tmp_path / "bad.json", 2, [bad, packet_entry(EQUAL, [1.0, 0.0], 1.0)])
        code, out, err = run_cli(["analyze", path])
        assert code == 2
        assert out == ""
        assert f"$.components[0].terms[0].{field}: numbers must be finite" in err

    @pytest.mark.parametrize("argv, field", [
        (["sweep-q", "--c0=nan", "--c1=0.8", "--sigma=1", "--q-start=0", "--q-stop=1", "--q-steps=2"], "c0"),
        (["sweep-width", "--c0=0.6", "--c1=0.8", "--sigma0=inf", "--r-start=1", "--r-stop=2",
          "--r-steps=2"], "width"),
        (["galilean-check", "BEAM", "--samples=2", "--seed=1", "--mass=inf"], "mass"),
    ])
    def test_command_line_values_exit_3_naming_the_field(self, beam_file, argv, field):
        code, out, err = run_cli([beam_file if a == "BEAM" else a for a in argv])
        assert code == 3
        assert out == ""
        assert field in err
        assert "normalized" not in err

    def test_oversized_integer_is_not_finite(self):
        data = {"schema_version": 1, "n": 1, "d": 1,
                "components": [packet_entry(1.0, [10**400], 1.0)]}
        with pytest.raises(StateFileError, match=r"center: numbers must be finite"):
            state_from_dict(data)


class TestWidthRange:
    @pytest.mark.parametrize("width", [1e200, 1e160, 1e100, np.nextafter(WIDTH_MAX, np.inf),
                                       np.nextafter(WIDTH_MIN, 0.0), 1e-80, 1e-200])
    def test_packet_width_beyond_the_range_exits_2(self, tmp_path, width):
        path = write_state(tmp_path / "wide.json", 1, [packet_entry(1.0, [0.0], width)])
        for argv in (["analyze", path], ["kernel", path, "--axis=0", "--grid=0:1:2"]):
            code, out, err = run_cli(argv)
            assert (code, out) == (2, "")
            assert "$.components[0].terms[0].width: must be in [1e-76, 1e+76]" in err

    @pytest.mark.parametrize("scale", [np.nextafter(WIDTH_MAX, np.inf), np.nextafter(WIDTH_MIN, 0.0), 1e-200])
    def test_hermite_scale_beyond_the_range_exits_2(self, tmp_path, scale):
        path = write_state(tmp_path / "frame.json", 1, [
            packet_entry(EQUAL, [0.0], 1.0), hermite_entry(scale, [0.0], [0], EQUAL),
        ])
        code, out, err = run_cli(["analyze", path])
        assert (code, out) == (2, "")
        assert "$.components[1].scale: must be in [1e-76, 1e+76]" in err

    @pytest.mark.parametrize("first", [WIDTH_MIN, WIDTH_MAX])
    @pytest.mark.parametrize("second", [WIDTH_MIN, 1.0, WIDTH_MAX])
    @pytest.mark.parametrize("kinds", ["packets", "mixed", "frames"])
    def test_every_route_is_finite_at_the_edges(self, tmp_path, first, second, kinds):
        def entry(kind, width, center):
            if kind == "packet":
                return packet_entry(EQUAL, [center, 0.0], width, [0.5, 0.0], 0.25)
            return hermite_entry(width, [center, 0.0], [2, 1], EQUAL)

        a, b = {"packets": ("packet", "packet"), "mixed": ("packet", "hermite"),
                "frames": ("hermite", "hermite")}[kinds]
        path = write_state(tmp_path / "edge.json", 2, [entry(a, first, 0.0), entry(b, second, 0.3)])
        h = analyze_h(path)
        assert np.all(np.isfinite(h))
        assert abs(np.trace(h) - 1.0) < 1e-12
        code, out, err = run_cli(["kernel", path, "--axis=0", "--grid=-1:1:3"])
        assert code == 0, err
        assert "nan" not in out and "inf" not in out


class TestHermiteIndexBound:
    @staticmethod
    def two_frames(tmp_path, index):
        return write_state(tmp_path / "modes.json", 1, [
            hermite_entry(1.0, [0.0], [index], EQUAL), hermite_entry(1.3, [0.2], [index], EQUAL),
        ])

    def test_two_frames_at_the_bound(self, tmp_path):
        path = self.two_frames(tmp_path, HERMITE_INDEX_MAX)
        h = analyze_h(path)
        assert abs(np.trace(h) - 1.0) < 1e-12
        # independent leg: the trapezoid rule, spectrally accurate for
        # these smooth, decaying functions once the step resolves them
        a, b = load_state(path).components
        p = np.linspace(-25.0, 25.0, 6001)[:, None]
        ref = np.sum(a.eval_many(p) * np.conj(b.eval_many(p))) * (p[1, 0] - p[0, 0])
        assert abs(h[0, 1] - ref) < 1e-12
        code, out, err = run_cli(["kernel", path, "--axis=0", "--grid=-2:2:5"])
        assert code == 0, err
        assert "nan" not in out and "inf" not in out

    @pytest.mark.parametrize("index", [HERMITE_INDEX_MAX + 1, 400, 10**7, 10**20])
    def test_past_the_bound_exits_2_with_field_path(self, tmp_path, index):
        # was: MemoryError, OverflowError or ValueError, or exit 3 at 400
        path = self.two_frames(tmp_path, index)
        for argv in (["analyze", path], ["kernel", path, "--axis=0", "--grid=0:1:2"]):
            code, out, err = run_cli(argv)
            assert (code, out) == (2, "")
            assert f"$.components[0].coefficients[0].index: entries must be <= {HERMITE_INDEX_MAX}" in err


def unbuild_parser(monkeypatch):
    """Empty run()'s parser slot; monkeypatch restores it after the test."""
    monkeypatch.setattr(cli, "_parser", None, raising=False)


def run_reading(argv, target):
    """run_cli's result and what ``target`` holds afterwards."""
    return run_cli(argv) + (target.read_text() if target.exists() else None,)


class TestParserReuse:
    SWEEP = ["sweep-q", "--c0", "0.6", "--c1", "0.8j", "--sigma", "1.3",
             "--q-start", "0", "--q-stop", "2", "--q-steps", "5"]

    def test_one_parser_per_process(self, monkeypatch, beam_file):
        unbuild_parser(monkeypatch)
        built = []

        def counted(original=cli.build_parser):
            built.append(1)
            return original()

        monkeypatch.setattr(cli, "build_parser", counted)
        for argv in (["analyze", beam_file], ["--version"], [], self.SWEEP, ["analyze", beam_file]):
            run_cli(argv)
        assert len(built) == 1

    def test_build_parser_returns_a_fresh_parser(self):
        extended = cli.build_parser()
        extended.add_argument("--extra")
        assert cli.build_parser() is not extended
        assert run_cli(["--extra", "1"])[0] == 1

    def test_sequence_matches_fresh_parsers(self, monkeypatch, beam_file, tmp_path):
        target = tmp_path / "rows.csv"
        sequence = [["sweep-q", "--c0", "1"], ["analyze", beam_file],
                    self.SWEEP + ["--out", str(target)], self.SWEEP, ["--version"]]
        fresh = []
        for argv in sequence:
            unbuild_parser(monkeypatch)
            fresh.append(run_reading(argv, target))
        target.unlink()
        unbuild_parser(monkeypatch)
        reused = [run_reading(argv, target) for argv in sequence]
        assert reused == fresh
        assert reused[0][0] == 1 and reused[1][0] == 0
        # --out on one call does not stick: the next sweep writes to stdout
        assert reused[2][1] == ""
        assert reused[3][1] == reused[3][3] != ""

    def test_threads_match_serial_calls(self, monkeypatch, beam_file):
        kinds = [["analyze", beam_file], self.SWEEP, ["sweep-q", "--c0", "1"], ["--version"]]
        calls = [kinds[i % 4] for i in range(25)]
        serial = [run_cli(argv) for argv in calls]
        unbuild_parser(monkeypatch)  # the threads race on first use
        barrier = threading.Barrier(4)
        results = [None] * 4

        def worker(i):
            barrier.wait(timeout=60)
            results[i] = [run_cli(argv) for argv in calls]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside argparse too
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [serial] * 4


def test_beam_sweep_script_matches_cli(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_beam_sweeps.py"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(script.parents[1] / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(script), "--steps", "7", "--q-max", "3", "--outdir", str(tmp_path)],
                   check=True, capture_output=True, env=env)
    code, out, err = run_cli(["sweep-q", "--c0", str(EQUAL), "--c1", str(EQUAL), "--sigma", "1.0",
                              "--q-start", "0", "--q-stop", "3", "--q-steps", "7"])
    assert code == 0, err
    assert (tmp_path / "entropy_vs_q.csv").read_text() == out
