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

from cdent import __version__, cli, overlaps, states
from cdent.cli import run
from cdent.density import kernel_matrix, schmidt_decomposition, trace_function_check
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

    @pytest.mark.parametrize("d, centers", [(3, ([1e308, 0.0, 0.0], [0.0, 0.0, 0.0])), (1, ([1.5e308], [1.4e308]))])
    def test_packets_at_the_float_limit(self, tmp_path, d, centers):
        # x1 + x2 overflowed in the envelope center, and 0 * inf made G nan:
        # a packet's self-overlap there, or the pair's overlap
        path = write_state(tmp_path / "far.json", d, [
            packet_entry(0.6, centers[0], 1.0),
            packet_entry(0.8, centers[1], 1.0),
        ])
        code, out, err = run_cli(["analyze", path])
        assert (code, err) == (0, "")
        assert json.loads(out)["h"] == [[[0.6 * 0.6, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.8 * 0.8, 0.0]]]

    def test_unequal_widths_straddling_the_float_limit(self, tmp_path):
        # Delta = x1 - x2 overflows, the envelope center of unequal widths
        # becomes infinite, and 0 * inf made G nan where it is exactly 0
        path = write_state(tmp_path / "straddle.json", 1, [
            packet_entry(0.6, [1e308], 1.0),
            packet_entry(0.8, [-1e308], 2.0),
        ])
        code, out, err = run_cli(["analyze", path])
        assert (code, err) == (0, "")
        h = json.loads(out)["h"]
        assert h[0][1] == h[1][0] == [0.0, 0.0]
        assert abs(h[0][0][0] - 0.36) <= 1e-15 and abs(h[1][1][0] - 0.64) <= 1e-15


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

    @pytest.mark.parametrize("argv, width", [
        (["sweep-width", "--sigma0=1.0", "--r-start=1", "--r-stop=1e80", "--r-steps=3"], "5e+79"),
        (["sweep-width", "--sigma0=1e-70", "--r-start=1e-10", "--r-stop=1", "--r-steps=3"], "1e-80"),
        (["sweep-q", "--sigma=1e77", "--q-start=0", "--q-stop=1", "--q-steps=3"], "1e+77"),
    ])
    def test_width_beyond_the_range_exits_3(self, argv, width):
        # a row's packet width is checked as a GaussianTerm checks it
        code, out, err = run_cli(argv + ["--c0=0.6", "--c1=0.8"])
        assert (code, out) == (3, "")
        assert err == f"numerical error: width must be in [1e-76, 1e+76], got {width}\n"


    @pytest.mark.parametrize("argv, flag", [
        (["sweep-q", "--sigma=1.0", "--q-start=0", "--q-stop=1"], "--q-steps"),
        (["sweep-width", "--sigma0=1.0", "--r-start=1", "--r-stop=2"], "--r-steps"),
    ])
    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_fewer_than_one_step_is_usage_error(self, argv, flag, steps):
        code, out, err = run_cli(argv + ["--c0=0.6", "--c1=0.8", f"{flag}={steps}"])
        assert (code, out) == (1, "")
        assert err == f"usage error: {flag} needs at least one step\n"


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
        first = lines[1].split(",")
        expected = kernel_matrix(state, [[0, 0, 0.0], [0, 0, 0.0]])[0, 1]
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

    @pytest.mark.parametrize("bad, first", [
        ({(1, 0, "imag"): np.nan, (2, 1, "real"): np.inf}, "nan"),
        ({(0, 2, "real"): -np.inf, (1, 1, "imag"): np.nan}, "-inf"),
        ({(2, 2, "imag"): np.inf, (2, 2, "real"): 1e308}, "inf"),
    ])
    def test_non_finite_kernel_entry_is_numerical_error(self, beam_file, monkeypatch, bad, first):
        # the error names the first non-finite number in row order, the real
        # part of an entry before its imaginary part, and nothing is written
        kernel_matrix = cli.kernel_matrix

        def spoiled(state, points):
            f = kernel_matrix(state, points)
            for (i, j, part), value in bad.items():
                getattr(f, part)[i, j] = value
            return f

        monkeypatch.setattr(cli, "kernel_matrix", spoiled)
        code, out, err = run_cli(["kernel", beam_file, "--axis=2", "--grid=-1:1:3"])
        assert (code, out, err) == (3, "", f"numerical error: cannot write the non-finite number {first}\n")

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

    def test_off_axis_points_match_pointwise_values_bit_for_bit(self):
        # every step of the evaluator is elementwise or a sum over the last
        # axis, so a point's values do not depend on the batch: off the axes
        # too, F is the per-pair sum of pointwise values, zero signs included
        rng = np.random.default_rng(3)
        for name, state in kernel_states().items():
            points = rng.uniform(-2.0, 2.0, (6, state.d))
            f = [[(z.real.hex(), z.imag.hex()) for z in row] for row in kernel_matrix(state, points).tolist()]
            assert f == [[(re.hex(), im.hex()) for re, im in row] for row in kernel_reference(state, points)], name

    def test_one_evaluation_per_packet_and_frame(self, tmp_path, monkeypatch):
        # per call, one (P, N) pass over the state's P distinct packets and one
        # Hermite table per frame, up to the frame's top mode; no component
        # evaluates itself
        passes, tops = [], []
        packet_pass, hermite_table = states._packet_pass, states._hermite_table

        def counted_pass(records, pts):
            passes.append((len(records), pts.shape[0]))
            return packet_pass(records, pts)

        def counted_table(top, u, ground):
            tops.append(top)
            return hermite_table(top, u, ground)

        def refused(self, pts):
            raise AssertionError("a component evaluated itself")

        monkeypatch.setattr(states, "_packet_pass", counted_pass)
        monkeypatch.setattr(states, "_hermite_table", counted_table)
        for cls in (GaussianSum, HermiteExpansion):
            monkeypatch.setattr(cls, "eval_many", refused)
        cases = {"mixed": ([(3, 7)], [2]), "frames4": ([(2, 7)], []), "chirped": ([(7, 7)], []),
                 "repeated": ([(3, 7)], []), "frames": ([], [4, 2])}
        kernels = kernel_states()
        for name, expected in cases.items():
            passes.clear()
            tops.clear()
            path = tmp_path / f"{name}.json"
            save_state(kernels[name], str(path))
            code, _, err = run_cli(["kernel", str(path), "--axis", "1", "--grid=-1:1:7"])
            assert code == 0, err
            assert (passes, tops) == expected, name


def kernel_states() -> dict:
    """A beam pair, a 4-times frame-changed beam pair (both components over
    the same 2 packets), a d = 3 same-frame Hermite state, a Gaussian x
    Hermite state, components of 4 and 3 chirped terms, a packet repeated
    inside a component and across components, and two Hermite expansions on
    one frame (origins 0.0 and -0.0) with top modes 1 and 4 beside one on a
    second frame."""
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
    chirped = normalize(HybridState(tuple(
        GaussianSum(tuple(GaussianTerm(complex(0.3 + 0.1 * k, 0.2 - 0.15 * k), [0.3 * k - 0.5, 0.2 - 0.1 * k],
                                       0.8 + 0.2 * k, [0.4 - 0.3 * k, 0.2 * k], 0.15 * k - 0.2)
                          for k in range(first, first + terms)))
        for first, terms in ((0, 4), (4, 3)))))
    a, b, c = ([0.1, -0.3], 0.9, [0.5, -0.2], 0.3), ([-0.4, 0.2], 1.3, [-0.1, 0.4], -0.2), ([0.6, 0.5], 0.7, None, 0.1)
    repeated = normalize(HybridState((
        GaussianSum(tuple(GaussianTerm(amp, *packet) for amp, packet in
                          ((0.5, a), (0.2j, b), (-0.3 + 0.1j, a), (0.4, c), (0.1 - 0.2j, a)))),
        GaussianSum((GaussianTerm(0.3j, *b), GaussianTerm(0.6, *a))),
    )))
    frames = normalize(HybridState((
        HermiteExpansion(1.2, [0.0, 0.3], {(1, 0): 0.4, (0, 1): 0.2 - 0.1j}),
        HermiteExpansion(1.2, [-0.0, 0.3], {(4, 1): 0.3j, (2, 3): 0.5, (0, 0): -0.2}),
        HermiteExpansion(0.9, [-0.2, 0.1], {(2, 0): 0.6, (1, 1): 0.1j}),
    )))
    return {"beam": beam, "frames4": moved, "hermite3": herm, "mixed": mixed,
            "chirped": chirped, "repeated": repeated, "frames": frames}


def pointwise_values(state, p) -> list[complex]:
    """phi_chi(p) for each chi by ``evaluate``, except that a GaussianSum's
    terms are evaluated one at a time and summed here, in term order: the
    kernel and ``evaluate`` share one evaluator, and a wrong summation order
    in it would show in both."""
    values = []
    for chi, comp in enumerate(state.components):
        if isinstance(comp, GaussianSum):
            terms = [complex(t.eval_many(np.array([p], dtype=float))[0]) for t in comp.terms]
            values.append(sum(terms[1:], terms[0]))
        else:
            values.append(evaluate(state, chi, p))
    return values


def kernel_reference(state, points) -> list[list[tuple[float, float]]]:
    """(re, im) of f(p, p') from ``pointwise_values``, one (p, p') pair at a
    time, with the complex product written out as re = ac - bd, im = ad + bc."""
    values = [pointwise_values(state, p) for p in points]
    rows = []
    for u in values:
        rows.append([])
        for v in values:
            re = im = 0.0
            for x, y in zip(u, v):
                y = y.conjugate()
                re += x.real * y.real - x.imag * y.imag
                im += x.real * y.imag + x.imag * y.real
            rows[-1].append((re, im))
    return rows


def kernel_reference_csv(state, axis, points) -> str:
    """Kernel CSV of ``kernel_reference`` on a grid along one axis."""
    pts = np.zeros((len(points), state.d))
    pts[:, axis] = points
    lines = ["p,p_prime,re_f,im_f"]
    for u, row in zip(points, kernel_reference(state, pts)):
        lines += [",".join(fmt_float(t) for t in (u, v, re, im)) for v, (re, im) in zip(points, row)]
    return "\n".join(lines) + "\n"


class TestCommandParser:
    @pytest.mark.parametrize("argv", [
        ["kernel", "-h"],
        ["sweep-width", "--help"],
        ["kernel", "{beam}", "--axis"],  # a missing value
        ["analyze", "{beam}", "--bogus"],  # an unknown option
        ["kernel", "{beam}", "--axis=0", "--grid", "-1:1:3"],  # a value argparse takes for an option
        ["galilean-check", "{beam}", "--samp=3", "--seed=1"],  # an abbreviation
        ["galilean-check", "{beam}", "--samples=2", "--seed=1", "--mass=0.5", "--version"],
        ["analyze", "--", "{beam}"],
        ["kernel", "--axis=2", "--grid=-1:1:3", "--", "{beam}"],
        ["sweep-q", "--c0=0.6", "--c1=0.8", "--sigma=1", "--q-start", "-1", "--q-stop=1", "--q-steps=3"],
        ["sweep-width", "--c0", "-0.6", "--c1=0.8", "--sigma0=1", "--r-start=1", "--r-stop=2", "--r-steps", "-2"],
        ["analyze"],
    ], ids=" ".join)
    def test_same_bytes_as_the_top_level_parser(self, beam_file, monkeypatch, argv):
        # run() parses a command's arguments with the command's own parser;
        # through the top-level parser the exit code, stdout and stderr are the same
        argv = [a.format(beam=beam_file) for a in argv]
        own = run_cli(argv)
        assert list(cli._parser.commands) == ["analyze", "sweep-q", "sweep-width", "galilean-check", "kernel"]
        monkeypatch.setattr(cli._parser, "commands", {})
        assert run_cli(argv) == own
        assert own[1] or own[2]


class TestExitCodes:
    def test_usage_errors(self):
        assert run_cli([])[0] == 1
        assert run_cli(["not-a-command"])[0] == 1
        assert run_cli(["sweep-q", "--c0", "1"])[0] == 1
        assert run_cli(["kernel", "x.json", "--axis", "0", "--grid=bad"])[0] == 1

    @pytest.mark.parametrize("argv, message", [
        (["sweep-q", "--c0=abc", "--c1=0.8", "--sigma=1.0", "--q-start=0", "--q-stop=1", "--q-steps=3"],
         "cannot parse complex number 'abc'"),
        (["sweep-width", "--c0=0.6", "--c1=1+", "--sigma0=1.0", "--r-start=1", "--r-stop=2", "--r-steps=3"],
         "cannot parse complex number '1+'"),
        (["kernel", "x.json", "--axis=0", "--grid=a:1:3"], "grid must be lo:hi:steps, got 'a:1:3'"),
        (["kernel", "x.json", "--axis=0", "--grid=0:1:0"], "grid needs at least one step"),
        (["kernel", "x.json", "--axis=0", "--grid=0:1:-2"], "grid needs at least one step"),
    ])
    def test_usage_error_messages(self, argv, message):
        assert run_cli(argv) == (1, "", f"usage error: {message}\n")

    def test_state_file_errors(self, tmp_path):
        missing = str(tmp_path / "missing.json")
        assert run_cli(["analyze", missing]) == (
            2, "", f"state file error: [Errno 2] No such file or directory: {missing!r}\n")
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

    @pytest.mark.parametrize("content, message", [
        (None, "Is a directory"),
        (b"\xff\xfe{}", "'utf-8' codec can't decode byte 0xff"),
        (b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded"),
    ], ids=["directory", "not-utf8", "nested-200000-deep"])
    def test_unreadable_state_file_exits_2(self, tmp_path, content, message):
        path = tmp_path / "state.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        code, out, err = run_cli(["analyze", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("state file error: ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("target, message", [
        ("no-such-dir/rows.csv", "No such file or directory"),
        (".", "Is a directory"),
    ])
    def test_unwritable_out_is_usage_error(self, tmp_path, target, message):
        out_path = str(tmp_path / target)
        argv = ["sweep-q", "--c0=0.6", "--c1=0.8", "--sigma=1.0", "--q-start=0", "--q-stop=1", "--q-steps=2"]
        assert run_cli(argv + ["--out", out_path]) == (
            1, "", f"usage error: cannot write --out {out_path!r}: {message}\n")

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
        # the state file's two entries are the quadrature oracle's input as
        # they stand
        packet = packet_entry(0.6, [0.3, -0.2, 0.5, 0.1, -0.4], 1.1, [0.2, -0.1, 0.0, 0.3, 0.1], 0.2)
        mode = hermite_entry(1.3, [0.1, 0.2, -0.3, 0.0, 0.4], [1, 0, 2, 0, 1], 0.8)
        path = write_state(tmp_path / "d5.json", 5, [packet, mode])
        assert abs(analyze_h(path)[0, 1] - quadrature_overlap(packet, mode)) < 1e-10

    def test_six_level_spectrum_agrees_with_its_h(self, tmp_path):
        # n = 6 with overlapping packets and modes: the LAPACK solve, not
        # the 2 x 2 closed form, gives the printed spectrum
        path = write_state(tmp_path / "n6.json", 2, [
            packet_entry(0.5, [0.0, 0.0], 1.0),
            packet_entry(0.4, [0.6, -0.3], 1.3, [0.2, 0.1], 0.1),
            hermite_entry(1.0, [0.2, 0.1], [1, 0], 0.4),
            hermite_entry(0.8, [-0.3, 0.4], [0, 2], 0.3),
            packet_entry(0.3, [-0.5, 0.2], 0.7),
            hermite_entry(1.2, [0.1, -0.2], [2, 1], np.sqrt(1.0 - 0.75)),
        ])
        code, out, err = run_cli(["analyze", path])
        assert code == 0, err
        report = json.loads(out)
        h = np.array([[complex(re, im) for re, im in row] for row in report["h"]])
        lam = np.array(report["spectrum"])
        assert h.shape == (6, 6) and np.min(np.abs(h[np.triu_indices(6, 1)])) > 1e-4
        assert np.max(np.abs(lam - np.linalg.eigvalsh(h)[::-1])) <= 1e-15
        assert abs(np.sum(lam) - 1.0) <= 1e-15
        pos = lam[lam > 0.0]
        assert abs(report["entropy_bits"] - float(-np.sum(pos * np.log2(pos)))) <= 1e-15
        assert abs(report["purity"] - float(np.sum(lam * lam))) <= 1e-15
        # the Schmidt modes come from the same eigenvectors
        state = load_state(path)
        for poly in ([0.0, 1.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0]):
            lhs, rhs = trace_function_check(state, poly)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_same_bytes_with_one_or_default_blas_threads(self, tmp_path):
        # the benchmark's n = 6 mixed states: phased packets on the even
        # levels, two-mode Hermite expansions on one frame on the odd ones
        weights = [0.25, 0.2, 0.15, 0.15, 0.15, 0.1]
        comps = []
        for chi, w in enumerate(weights):
            if chi % 2 == 0:
                comps.append(packet_entry(np.sqrt(w), [0.1 * chi, -0.2, 0.3], 1.0 + 0.05 * chi,
                                          [0.2, -0.1 * chi, 0.1], 0.05 * chi))
            else:
                comps.append({"type": "hermite", "scale": 1.1, "origin": [0.1, 0.0, -0.2], "coefficients": [
                    {"index": [chi // 2, 1, 0], "value": [np.sqrt(0.6 * w), 0.0]},
                    {"index": [0, 0, chi // 2 + 1], "value": [0.0, np.sqrt(0.4 * w)]},
                ]})
        path = write_state(tmp_path / "n6.json", 3, comps)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        env.pop("OPENBLAS_NUM_THREADS", None)
        runs = [subprocess.run([sys.executable, "-m", "cdent", "analyze", path], capture_output=True, env=e)
                for e in (dict(env, OPENBLAS_NUM_THREADS="1"), env)]
        assert [r.returncode for r in runs] == [0, 0], runs[0].stderr
        assert runs[0].stdout == runs[1].stdout and runs[0].stderr == runs[1].stderr == b""
        h = analyze_h(path)
        assert np.max(np.abs(h - np.diag(h.diagonal()))) > 0.1  # far from diagonal: the solve mixes

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


def test_galilean_script_reports_invariance():
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_galilean_invariance.py"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(script.parents[1] / "src"),
                                                                    os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(script), "--samples", "2"], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header == "samples=2 seed=2024 mass=1.0"
    assert len(rows) == 4
    for row in rows:
        words = row.split()
        spec, conj = float(words[words.index("spectrum") + 2]), float(words[words.index("conjugation") + 2])
        assert 0.0 <= spec <= 1e-12 and 0.0 <= conj <= 1e-12, row


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
