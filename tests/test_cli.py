"""Command-line interface: parsing, outputs, exit codes, determinism."""

import argparse
import errno
import fnmatch
import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qwgeom import cli, emit, holonomy, walk
from qwgeom.models import make_model, two_angle_class
from qwgeom.topology import scan_gap
from qwgeom.zak import zak_map


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(*argv):
    """The CLI in a new interpreter: its first and only call."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "qwgeom.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_angle_pi_forms():
    assert cli.parse_angle("pi") == math.pi
    assert cli.parse_angle("pi/4") == math.pi / 4
    assert cli.parse_angle("-pi/2") == -math.pi / 2
    assert cli.parse_angle("3pi/4") == 3 * math.pi / 4
    assert cli.parse_angle("1.5pi") == 1.5 * math.pi
    assert cli.parse_angle("0.25") == 0.25
    assert cli.parse_angle("-2e-3") == -2e-3
    with pytest.raises(Exception):
        cli.parse_angle("two")


@given(st.one_of(st.text(), st.text(alphabet="0123456789.+-/ eEinfpaPI")))
def test_parse_angle_returns_finite_float_or_argument_error(text):
    try:
        value = cli.parse_angle(text)
    except argparse.ArgumentTypeError:
        return
    assert isinstance(value, float) and math.isfinite(value)


@given(p=st.integers(-10**6, 10**6), q=st.integers(1, 10**6))
def test_parse_angle_pi_fraction_round_trip(p, q):
    assert cli.parse_angle(f"{p}pi/{q}") == p * math.pi / q


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "spectrum" in out


def test_spectrum_csv(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "standard",
                       "--theta", "pi/3", "--k-samples", "9")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,cos_energy,energy,gap"
    assert len(lines) == 10
    k, ce, e, gap = map(float, lines[0 + 1].split(","))
    assert k == -math.pi
    assert abs(ce - math.cos(k) * math.cos(math.pi / 3)) < 1e-15
    assert abs(e - math.acos(ce)) < 1e-15
    assert abs(gap - (1.0 - abs(ce))) < 1e-15


def test_bloch_csv_header(capsys):
    code, out, _ = run(capsys, "bloch", "--family", "noncommuting",
                       "--theta", "0.7", "--phi", "0.3", "--k-samples", "17")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,nx,ny,nz"
    assert len(lines) == 18
    row = np.array(lines[5].split(","), dtype=float)
    assert abs(np.linalg.norm(row[1:]) - 1.0) < 1e-12


def test_zak_json_value(capsys):
    code, out, _ = run(capsys, "zak", "--family", "noncommuting",
                       "--theta", "pi/2", "--phi", "0", "--band", "minus",
                       "--n-points", "256")
    assert code == 0
    payload = json.loads(out)
    assert payload["band"] == -1
    assert payload["model"]["family"] == "noncommuting"
    assert sorted(payload) == ["band", "k_origin", "model", "n_points",
                               "phase", "span"]
    assert abs(payload["phase"] - math.pi) < 1e-6


@pytest.mark.parametrize("model", [("standard", "--theta", "pi"),
                                   ("noncommuting", "--theta", "0",
                                    "--phi", "pi")])
def test_zak_exits_three_for_a_closing_between_the_samples(capsys, model):
    # The gap closes at k = 0 inside the window, between two samples.
    code, out, err = run(capsys, "zak", "--family", *model, "--band",
                         "plus", "--n-points", "64", "--k-origin", "0.3")
    assert code == 3
    assert out == ""
    assert err.startswith("error: gapless momentum")


def test_walk_csv_and_oracle_note(capsys, tmp_path):
    manifest = tmp_path / "run.json"
    code, out, err = run(capsys, "walk", "--family", "splitstep",
                         "--theta1", "0.5", "--theta2", "-0.2",
                         "--steps", "9", "--chirality", "-",
                         "--manifest", str(manifest))
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x,p"
    total = sum(float(r.split(",")[1]) for r in lines[1:])
    assert abs(total - 1.0) < 1e-12
    assert "oracle TV distance" in err
    meta = json.loads(manifest.read_text())
    assert meta["n_steps"] == 9
    assert meta["tv_vs_oracle"] < 1e-10
    assert meta["max_norm_drift"] < 1e-12


def test_dirac_points_schema(capsys):
    code, out, _ = run(capsys, "dirac-points", "--family", "noncommuting",
                       "--resolution", "181")
    assert code == 0
    points = json.loads(out)
    assert isinstance(points, list)
    assert len(points) == 13
    for p in points:
        assert set(p) == {"angle1", "angle2", "k_star", "energy"}
        assert abs(p["energy"]) < 1e-6


def test_winding_json(capsys):
    code, out, _ = run(capsys, "winding", "--family", "splitstep",
                       "--theta1", "0.9", "--theta2", "0.2")
    assert code == 0
    assert json.loads(out) == {"model": {"family": "splitstep",
                                         "angles": [0.9, 0.2]},
                               "winding": -1}
    code, out, err = run(capsys, "winding", "--family", "standard",
                         "--theta", "0")
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_holonomy_sphere_table(capsys):
    code, out, _ = run(capsys, "holonomy-sphere", "--loops", "3",
                       "--steps", "2000")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "theta0,rotation_angle,solid_angle,mismatch,norm_drift"
    assert len(lines) == 4
    for row in lines[1:]:
        theta0, rot, area, mismatch, drift = map(float, row.split(","))
        # The rotation column is folded to (-pi, pi]; compare circularly.
        expected = 2 * math.pi * (1 - math.cos(theta0))
        delta = (rot - expected + math.pi) % (2 * math.pi) - math.pi
        assert abs(delta) < 1e-6
        assert abs(area - expected) < 1e-6
        assert mismatch < 1e-9
        assert drift < 1e-12


def test_holonomy_sphere_prints_a_pi_rotation_as_plus_pi(capsys):
    # At 2000 steps the pi/3 rotation lands 3e-13 above -pi and the 2pi/3
    # one 3e-13 below pi; both print as the float pi.
    code, out, _ = run(capsys, "holonomy-sphere", "--loops", "5",
                       "--steps", "2000")
    assert code == 0
    rows = [row.split(",") for row in out.splitlines()[1:]]
    for row in (rows[1], rows[3]):
        assert row[1] == "3.1415926535897931"
        assert float(row[1]) == math.pi


@pytest.mark.parametrize("steps", [100, holonomy.BLOCK_SEGMENTS + 1])
def test_holonomy_sphere_samples_each_loop_once(capsys, monkeypatch, steps):
    # Each loop's parameterization sees its 2 steps + 1 grid points once,
    # over one or several blocks, and the closure test's t = 0 and 1.
    seen = []

    def counted_loop(theta0):
        loop = holonomy.latitude_loop(theta0)
        seen.append(0)

        def parameterization(t):
            seen[-1] += np.size(t)
            return loop.parameterization(t)

        return holonomy.SphereCurve(parameterization)

    monkeypatch.setattr(cli, "latitude_loop", counted_loop)
    code, out, _ = run(capsys, "holonomy-sphere", "--loops", "3", "--steps",
                       str(steps))
    assert code == 0 and len(out.splitlines()) == 4
    assert seen == [2 * steps + 1 + 2] * 3


def test_qgt_json_golden(capsys):
    code, out, _ = run(capsys, "qgt", "--theta", "0.4", "--phi", "1.1")
    assert code == 0
    payload = json.loads(out)
    g = np.array(payload["g"])
    assert abs(g[0, 0] - 0.25) < 1e-8
    assert abs(g[1, 1] - 0.25 * math.sin(0.4) ** 2) < 1e-8
    assert abs(payload["curvature"][0][1] + math.sin(0.4) / 2) < 1e-8
    assert payload["error_bound"] < 1e-6


def test_out_file_and_determinism(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, out, _ = run(capsys, "zak-map", "--family", "noncommuting",
                           "--resolution", "11", "--n-points", "64",
                           "--out", str(path))
        assert code == 0
        assert out == ""
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().split("\n")[0]
    assert header == "angle1,angle2,zak_plus,zak_minus,masked"


def test_usage_errors_exit_two(capsys):
    assert run(capsys, "spectrum", "--family", "standard", "--theta", "0.3",
               "--phi", "0.5")[0] == 2
    assert run(capsys, "phase-diagram", "--family", "standard")[0] == 2
    assert run(capsys, "no-such-command")[0] == 2
    assert run(capsys, "zak", "--family", "standard", "--theta", "0.3",
               "--band", "plus", "--n-points", "33")[0] == 2
    assert run(capsys, "walk", "--family", "splitstep", "--theta1", "0.5",
               "--steps", "3")[0] == 2
    assert run(capsys, "spectrum", "--family", "standard", "--theta", "0.3",
               "--theta1", "0.1")[0] == 2
    assert run(capsys, "spectrum", "--family", "splitstep", "--theta1", "0.9",
               "--theta2", "0.2", "--phi", "0")[0] == 2


_NEGATIVE_PI_FORMS = ("-pi", "-pi/2", "-1.5pi", "-.5pi/3")


@pytest.mark.parametrize("form", _NEGATIVE_PI_FORMS)
@pytest.mark.parametrize("argv, dest", [
    (("spectrum", "--family", "standard", "--theta", "{}"), "theta"),
    (("bloch", "--family", "noncommuting", "--theta", "0.3", "--phi", "{}"),
     "phi"),
    (("winding", "--family", "splitstep", "--theta1", "{}", "--theta2",
      "0.2"), "theta1"),
    (("walk", "--family", "splitstep", "--theta1", "0.2", "--theta2", "{}",
      "--steps", "3"), "theta2"),
    (("zak", "--family", "standard", "--theta", "0.3", "--band", "plus",
      "--k-origin", "{}"), "k_origin"),
    (("qgt", "--theta", "{}", "--phi", "0.3"), "theta"),
    (("qgt", "--theta", "0.3", "--phi", "{}"), "phi")],
    ids=["theta", "phi", "theta1", "theta2", "k-origin", "qgt-theta",
         "qgt-phi"])
def test_negative_pi_forms_parse_after_their_flag(argv, dest, form):
    args = cli.build_parser().parse_args(
        [form if token == "{}" else token for token in argv])
    assert getattr(args, dest) == cli.parse_angle(form)


def test_negative_angles_keep_every_spelling(capsys):
    parse = cli.build_parser().parse_args
    both = parse(["spectrum", "--family", "splitstep", "--theta1", "-pi",
                  "--theta2", "-0.25"])
    assert (both.theta1, both.theta2) == (-math.pi, -0.25)
    assert parse(["qgt", "--theta=-pi/2", "--phi", "-1e-3"]).theta == (
        -math.pi / 2)
    argv = ["zak", "--family", "noncommuting", "--theta", "-0.5pi",
            "--phi", "0.3", "--band", "plus"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv[:3], "--theta=-0.5pi", *argv[5:]) == (0, out, "")
    # A flag after an angle flag is not taken for its value.
    code, _, err = run(capsys, "spectrum", "--family", "standard", "--theta",
                       "--k-samples", "16")
    assert code == 2 and "argument --theta: expected one argument" in err


@pytest.mark.parametrize("form", ["-1", "-pi", "-pi/2"])
@pytest.mark.parametrize("argv, dest", [
    (("zak", "--family", "standard", "--theta", "0.3", "--band", "plus",
      "--k-orig", "{}"), "k_origin"),
    (("qgt", "--thet", "{}", "--phi", "0.3"), "theta")],
    ids=["k-orig", "qgt-thet"])
def test_negative_angles_follow_an_abbreviated_flag(capsys, argv, dest, form):
    # argparse resolves a prefix of one option to that option, so a
    # negative value joins it as it joins the full name.
    argv = [form if token == "{}" else token for token in argv]
    assert getattr(cli.build_parser().parse_args(argv), dest) == \
        cli.parse_angle(form)
    full = [{"--k-orig": "--k-origin", "--thet": "--theta"}.get(t, t)
            for t in argv]
    result = run(capsys, *argv)
    assert result[0] == 0
    assert result == run(capsys, *full)


@pytest.mark.parametrize("form", ["-1", "-pi", "-pi/2", "0.3"])
def test_ambiguous_angle_prefix_exits_two(capsys, form):
    # In a model command --thet could be --theta, --theta1 or --theta2.
    code, out, err = run(capsys, "spectrum", "--family", "standard",
                         "--thet", form, "--k-samples", "16")
    assert (code, out) == (2, "")
    assert "ambiguous option: --thet could match --theta, --theta1" in err


def test_non_finite_angles_exit_two(capsys):
    for text in ("nan", "inf", "-inf", "Infinity", "1" * 400 + "pi"):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_angle(text)
    code, out, _ = run(capsys, "zak", "--family", "noncommuting",
                       "--theta", "nan", "--phi", "0", "--band", "plus")
    assert (code, out) == (2, "")
    code, out, _ = run(capsys, "spectrum", "--family", "standard",
                       "--theta", "inf")
    assert (code, out) == (2, "")


def test_non_finite_or_out_of_range_floats_exit_two(capsys):
    for h in ("nan", "inf", "-inf", "0", "1e-8", "2e-3"):
        code, out, err = run(capsys, "qgt", "--theta", "0.4", "--phi", "1.1",
                             f"--h={h}")
        assert (code, out) == (2, "")
        assert "argument --h: must lie in [1e-07, 0.001]" in err
    assert run(capsys, "qgt", "--theta", "0.4", "--phi", "1.1",
               "--h", "1e-7")[0] == 0


@pytest.mark.parametrize("argv", [
    pytest.param((command, family, f"--{flag}", "0.3"),
                 id=f"{command}-{flag}")
    for command in ("phase-diagram", "dirac-points", "zak-map")
    for family, flags in (("noncommuting", ("theta", "phi")),
                          ("splitstep", ("theta1", "theta2")))
    for flag in flags] + [
    pytest.param(("dirac-points", "noncommuting", "--tol", "1e-9"),
                 id="dirac-points-tol")])
def test_angle_square_commands_refuse_flags_they_do_not_read(capsys, tmp_path,
                                                             argv):
    command, family, *extra = argv
    out_path = tmp_path / "grid.out"
    code, out, err = run(capsys, command, "--family", family, *extra,
                         "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == ("qwgeom: error: unrecognized arguments: "
                                    + " ".join(extra))
    assert not out_path.exists()


@pytest.mark.parametrize("command, extra", [
    ("spectrum", ("--k-samples", "16")), ("bloch", ("--k-samples", "16")),
    ("zak", ("--band", "plus", "--n-points", "16")),
    ("winding", ()), ("walk", ("--steps", "3"))])
@pytest.mark.parametrize("angles", [
    ("standard", "--theta", "0.7"),
    ("noncommuting", "--theta", "0.7", "--phi", "0.3"),
    ("splitstep", "--theta1", "0.9", "--theta2", "-0.4")],
    ids=lambda angles: angles[0])
def test_model_commands_take_their_angle_flags(capsys, command, extra,
                                               angles):
    family, *flags = angles
    code, out, _ = run(capsys, command, "--family", family, *flags, *extra)
    assert code == 0 and out


def test_integer_flag_errors_name_the_flag(capsys):
    code, _, err = run(capsys, "holonomy-sphere", "--loops", "0")
    assert code == 2
    assert "argument --loops: loops must be >= 3" in err
    code, _, err = run(capsys, "walk", "--family", "standard", "--theta", "1",
                       "--steps", "-1")
    assert code == 2
    assert "argument --steps: steps must be >= 0" in err
    code, _, err = run(capsys, "spectrum", "--family", "standard",
                       "--theta", "1", "--k-samples", "many")
    assert code == 2
    assert "invalid int value: 'many'" in err
    code, out, err = run(capsys, "dirac-points", "--family", "splitstep",
                         "--resolution", "100")
    assert (code, out) == (2, "")
    assert "argument --resolution: resolution must be >= 101" in err


def test_walk_over_memory_budget_exits_two(capsys, tmp_path):
    out_path = tmp_path / "walk.csv"
    code, out, err = run(capsys, "walk", "--family", "standard",
                         "--theta", "pi/4", "--steps", "100000000000",
                         "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(
        "qwgeom walk: error: --steps 100000000000 needs about ")
    assert not out_path.exists()
    limit = (cli.MEMORY_BUDGET // walk.SITE_BYTES - 1) // 2
    assert walk.peak_bytes(1, limit) <= cli.MEMORY_BUDGET
    assert walk.peak_bytes(1, limit + 1) > cli.MEMORY_BUDGET


def test_holonomy_over_memory_budget_exits_two(capsys, tmp_path):
    out_path = tmp_path / "holonomy.csv"
    code, out, err = run(capsys, "holonomy-sphere", "--steps", "1000000000000",
                         "--out", str(out_path))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].startswith(
        "qwgeom holonomy-sphere: error: --loops 9 --steps 1000000000000 "
        "needs about ")
    assert not out_path.exists()
    limit = cli.MEMORY_BUDGET // holonomy.STEP_BYTES
    assert run(capsys, "holonomy-sphere", "--steps", str(limit + 1))[0] == 2


def test_holonomy_loops_over_memory_budget_exits_two(capsys, tmp_path,
                                                     monkeypatch):
    # Every loop adds a row to the CSV text; should the check ever let
    # this through, fail instead of transporting a single loop.
    def refuse(*args, **kwargs):
        raise AssertionError("the budget check let an oversize table through")

    for name in ("latitude_loop", "_transport_and_area"):
        monkeypatch.setattr(cli, name, refuse)
    monkeypatch.setattr(emit, "holonomy_table", refuse)
    out_path = tmp_path / "holonomy.csv"
    code, out, err = run(capsys, "holonomy-sphere", "--loops", "10000000000",
                         "--out", str(out_path))
    assert (code, out) == (2, "")
    assert ("qwgeom holonomy-sphere: error: --loops 10000000000 --steps 20000"
            " needs about" in err)
    assert not out_path.exists()


@pytest.mark.parametrize("argv, sizes", [
    pytest.param(("phase-diagram", "--family", "noncommuting",
                  "--resolution", "100000"),
                 "--resolution 100000", id="phase-diagram"),
    pytest.param(("dirac-points", "--family", "splitstep",
                  "--resolution", "1000000"),
                 "--resolution 1000000", id="dirac-points"),
    pytest.param(("zak-map", "--family", "noncommuting",
                  "--resolution", "100000"),
                 "--resolution 100000", id="zak-map"),
])
def test_grid_command_over_memory_budget_exits_two(capsys, tmp_path,
                                                   monkeypatch, argv, sizes):
    # Should the check ever let these sizes through, fail instead of
    # allocating them.
    def refuse(*args, **kwargs):
        raise AssertionError("the budget check let an oversize grid through")

    for name in ("scan_gap", "find_dirac_points", "zak_map"):
        monkeypatch.setattr(cli, name, refuse)
    out_path = tmp_path / "grid.out"
    code, out, err = run(capsys, *argv, "--out", str(out_path))
    assert (code, out) == (2, "")
    assert f"qwgeom {argv[0]}: error: {sizes} needs about" in err
    assert err.endswith(
        f" MiB, over the {cli.MEMORY_BUDGET >> 20} MiB budget\n")
    assert not out_path.exists()


def test_phase_diagram_k_samples_allocates_no_grid(capsys):
    # Five momenta per node give the sampled band edge, so no --k-samples
    # allocates a momentum grid; at 1e12 samples it is the exact envelope.
    for family in ("noncommuting", "splitstep"):
        code, out, _ = run(capsys, "phase-diagram", "--family", family,
                           "--resolution", "5", "--k-samples",
                           "1000000000001")
        assert code == 0
        a1, a2, gap, _ = np.loadtxt(out.splitlines()[1:], delimiter=",",
                                    unpack=True)
        assert gap.size == 25
        exact = 1.0 - two_angle_class(family).envelope(a1, a2)[0]
        assert np.max(np.abs(gap - exact)) < 1e-15
    code, out, err = run(capsys, "phase-diagram", "--family", "splitstep",
                         "--k-samples", str(2**53 + 2))
    assert (code, out) == (2, "")
    assert err.splitlines()[-1].endswith(
        f"k-samples must be <= {2**53 + 1}")


def test_zak_map_n_points_sets_only_the_mask(capsys):
    # Five momenta per node build the mask, so no --n-points allocates a
    # sample grid; the phases are closed forms.
    rows = {}
    for n_points in ("1000000000000", "16"):
        code, out, _ = run(capsys, "zak-map", "--family", "splitstep",
                           "--resolution", "5", "--n-points", n_points)
        assert code == 0
        rows[n_points] = out.splitlines()
    assert len(rows["16"]) == 26
    assert rows["16"] == rows["1000000000000"]
    code, out, err = run(capsys, "zak-map", "--family", "splitstep",
                         "--n-points", str(2**53 + 2))
    assert (code, out) == (2, "")
    assert "n-points must be even" in err


@pytest.mark.parametrize("argv, sizes", [
    pytest.param(("spectrum", "--k-samples", "99999999999"),
                 "--k-samples 99999999999", id="spectrum"),
    pytest.param(("bloch", "--k-samples", "99999999999"),
                 "--k-samples 99999999999", id="bloch"),
])
def test_curve_command_over_memory_budget_exits_two(capsys, tmp_path,
                                                    monkeypatch, argv, sizes):
    # Should the check ever let these sizes through, fail instead of
    # allocating them.
    def refuse(*args, **kwargs):
        raise AssertionError("the budget check let an oversize curve through")

    monkeypatch.setattr(cli, "_k_grid", refuse)
    for name in ("spectrum_table", "bloch_table"):
        monkeypatch.setattr(emit, name, refuse)
    out_path = tmp_path / "curve.out"
    code, out, err = run(capsys, argv[0], "--family", "noncommuting",
                         "--theta", "0.9", "--phi", "0.7", *argv[1:],
                         "--out", str(out_path))
    assert (code, out) == (2, "")
    assert f"qwgeom {argv[0]}: error: {sizes} needs about" in err
    assert err.endswith(
        f" MiB, over the {cli.MEMORY_BUDGET >> 20} MiB budget\n")
    assert not out_path.exists()


def test_zak_n_points_sets_only_the_refusal(capsys):
    # Five momenta give the sampled refusal and the phase is exact, so no
    # --n-points allocates a sample grid or changes the phase.
    phases = set()
    for n_points in ("99999999998", "2048"):
        code, out, _ = run(capsys, "zak", "--family", "noncommuting",
                           "--theta", "0.9", "--phi", "0.7", "--band", "plus",
                           "--n-points", n_points)
        assert code == 0
        phases.add(json.loads(out)["phase"])
    assert len(phases) == 1


@pytest.mark.parametrize("argv, scan", [
    pytest.param(("phase-diagram", "--family", "noncommuting"), "scan_gap",
                 id="phase-diagram-default"),
    pytest.param(("phase-diagram", "--family", "noncommuting",
                  "--resolution", "721", "--k-samples", "361"), "scan_gap",
                 id="phase-diagram-benchmark"),
    pytest.param(("dirac-points", "--family", "noncommuting"),
                 "find_dirac_points", id="dirac-points-default"),
    pytest.param(("zak-map", "--family", "noncommuting"), "zak_map",
                 id="zak-map-default"),
])
def test_grid_budget_accepts_default_and_benchmark_sizes(capsys, monkeypatch,
                                                         argv, scan):
    # Reaching the scan means the budget check passed.
    class Reached(Exception):
        pass

    def reached(*args, **kwargs):
        raise Reached

    monkeypatch.setattr(cli, scan, reached)
    with pytest.raises(Reached):
        cli.main(list(argv))


def test_json_text_rejects_non_finite():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            emit.json_text({"x": bad})


def test_standard_family_accepts_phi_zero(capsys):
    argv = ("walk", "--family", "standard", "--theta", "pi/4", "--steps", "20")
    code, out, _ = run(capsys, *argv, "--phi", "0")
    assert code == 0
    assert out == run(capsys, *argv)[1]


def test_domain_errors_exit_three(capsys):
    code, _, err = run(capsys, "bloch", "--family", "standard",
                       "--theta", "0")
    assert code == 3
    assert err.strip() != ""
    code, _, _ = run(capsys, "zak", "--family", "noncommuting",
                     "--theta", "0", "--phi", "0", "--band", "minus")
    assert code == 3
    # Rounding collapses the stencil offsets x +- h at this angle.
    code, out, err = run(capsys, "qgt", "--theta", "1e13", "--phi", "0.3")
    assert (code, out) == (3, "")
    assert err.startswith("error: rounding moves a stencil offset")


@pytest.mark.parametrize("error, code", [(ValueError("bad angle"), 3),
                                         (MemoryError(), 2),
                                         (MemoryError("cannot allocate"), 2)])
def test_library_errors_exit_with_one_line(capsys, monkeypatch, error, code):
    def fail(*args):
        raise error

    monkeypatch.setattr(emit, "spectrum_table", fail)
    status, out, err = run(capsys, "spectrum", "--family", "standard",
                           "--theta", "0.3", "--k-samples", "9")
    assert (status, out) == (code, "")
    # main returned, so no traceback escaped; stderr is one error line.
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(error) in err


def test_winding_k_samples_is_an_unrecognized_argument(capsys):
    code, out, err = run(capsys, "winding", "--family", "standard",
                         "--theta", "0.9", "--k-samples", "16")
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == ("qwgeom: error: unrecognized arguments: "
                                    "--k-samples 16")


_OUTPUT_FLAGS = {
    "csv": (("spectrum", "--family", "standard", "--theta", "0.3"), "--out"),
    "json": (("qgt", "--theta", "0.4", "--phi", "1.1"), "--out"),
    "walk-manifest": (("walk", "--family", "standard", "--theta", "pi/4",
                       "--steps", "5"), "--manifest"),
}


@pytest.mark.parametrize("argv, flag, path", [
    pytest.param(argv, flag, path, id=name + suffix)
    for path, suffix in (("missing/artifact", ""), ("", "-empty"))
    for name, (argv, flag) in _OUTPUT_FLAGS.items()])
def test_unwritable_output_exits_two(capsys, tmp_path, monkeypatch, argv,
                                     flag, path):
    # Relative to tmp_path, which must stay empty.
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, flag, path)
    assert (code, out) == (2, "")
    assert "error: cannot write output:" in err and repr(path) in err
    code, out, err = run_fresh(*argv, flag, path)
    assert (code, out) == (2, "")
    assert "error:" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_walk_unwritable_out_leaves_no_manifest(capsys, tmp_path,
                                                monkeypatch):
    manifest = tmp_path / "run.json"
    argv = ("walk", "--family", "standard", "--theta", "pi/4", "--steps", "5",
            "--manifest", str(manifest), "--out")
    # The paths are refused before the walk runs.
    monkeypatch.setattr(cli, "_Walk", None)
    for out in (str(tmp_path / "missing" / "x.csv"), str(tmp_path), ""):
        code, stdout, err = run(capsys, *argv, out)
        assert (code, stdout) == (2, "")
        assert "error: cannot write output:" in err and repr(out) in err
        assert not manifest.exists()
    monkeypatch.undo()
    out = tmp_path / "x.csv"
    assert run(capsys, *argv, str(out))[0] == 0
    assert out.read_text().startswith("x,p\n")
    assert json.loads(manifest.read_text())["n_steps"] == 5


def test_out_rewrites_a_longer_file_in_place(capsys, tmp_path):
    argv = ("spectrum", "--family", "standard", "--theta", "0.3",
            "--k-samples")
    path, link = tmp_path / "s.csv", tmp_path / "link.csv"
    assert run(capsys, *argv, "64", "--out", str(path))[0] == 0
    os.link(path, link)
    path.chmod(0o640)
    before = path.stat()
    code, expected, _ = run(capsys, *argv, "16")
    assert code == 0 and before.st_size > len(expected.encode())
    assert run(capsys, *argv, "16", "--out", str(path))[0] == 0
    assert path.read_bytes() == link.read_bytes() == expected.encode()
    after = path.stat()
    assert after.st_ino == before.st_ino
    assert stat.S_IMODE(after.st_mode) == 0o640


@pytest.mark.parametrize("argv, flag", [
    pytest.param(argv, flag, id=name)
    for name, (argv, flag) in _OUTPUT_FLAGS.items()])
def test_output_to_dev_null_exits_zero(capsys, argv, flag):
    # ftruncate refuses a character device; it is only called on files.
    code, _, err = run(capsys, *argv, flag, os.devnull)
    assert code == 0 and "error" not in err


def test_a_failed_write_leaves_a_prefix_of_the_new_text(capsys, tmp_path,
                                                        monkeypatch):
    # Four rows a block: the header and then ten blocks, one write each.
    monkeypatch.setattr(emit, "CSV_BLOCK_ROWS", 4)
    argv = ("spectrum", "--family", "standard", "--theta", "0.3",
            "--k-samples", "40")
    code, expected, _ = run(capsys, *argv)
    path = tmp_path / "s.csv"
    path.write_text("old bytes\n" * len(expected))
    written, os_write = [], os.write

    def write_once(fd, data):
        # The first piece is written, the second meets a full disk.
        if written:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        written.append(bytes(data))
        return os_write(fd, data)

    monkeypatch.setattr(os, "write", write_once)
    code, out, err = run(capsys, *argv, "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write output:")
    assert written == [b"k,cos_energy,energy,gap\n"]
    assert path.read_bytes() == written[0]


def test_a_failure_while_formatting_leaves_a_prefix(capsys, tmp_path,
                                                    monkeypatch):
    monkeypatch.setattr(emit, "CSV_BLOCK_ROWS", 4)
    argv = ("spectrum", "--family", "standard", "--theta", "0.3",
            "--k-samples", "40")
    code, expected, _ = run(capsys, *argv)
    path = tmp_path / "s.csv"
    path.write_text("old bytes\n" * len(expected))
    inode = path.stat().st_ino
    chunks, made = getattr(emit, "csv_chunks", None), []

    def fail_after_first_block(header, columns):
        for piece in chunks(header, columns):
            if len(made) == 2:
                raise MemoryError
            made.append(piece)
            yield piece

    monkeypatch.setattr(emit, "csv_chunks", fail_after_first_block,
                        raising=False)
    assert run(capsys, *argv, "--out", str(path)) == (
        2, "", "error: out of memory\n")
    # The header and the first block, and none of the old bytes.
    assert len(made) == 2 and made[1].count("\n") == 4
    assert path.read_text() == "".join(made) == expected[:len("".join(made))]
    assert path.stat().st_ino == inode


def _standard_walk_csv(steps: int) -> str:
    state = walk.evolve(walk.initial_state("+"),
                        make_model("standard", [0.3]), steps)
    return emit.distribution_csv(walk.probability_distribution(state))


# Each table command at 30 to 49 rows, and the library string of the same
# table.  holonomy-sphere's is emitted from the values its CSV prints,
# which %.17g gives back exactly.
_TABLE_COMMANDS = {
    "spectrum": (("spectrum", "--family", "standard", "--theta", "0.3",
                  "--k-samples", "40"),
                 lambda out: emit.spectrum_csv(make_model("standard", [0.3]),
                                               np.linspace(-np.pi, np.pi,
                                                           40))),
    "bloch": (("bloch", "--family", "noncommuting", "--theta", "0.9",
               "--phi", "0.3", "--k-samples", "40"),
              lambda out: emit.bloch_csv(make_model("noncommuting",
                                                    [0.9, 0.3]),
                                         np.linspace(-np.pi, np.pi, 40))),
    "phase-diagram": (("phase-diagram", "--family", "noncommuting",
                       "--resolution", "7", "--k-samples", "16"),
                      lambda out: emit.gap_map_csv(scan_gap(
                          "noncommuting", resolution=7, k_samples=16))),
    "zak-map": (("zak-map", "--family", "splitstep", "--resolution", "7",
                 "--n-points", "16"),
                lambda out: emit.zak_map_csv(zak_map(
                    "splitstep", resolution=7, n_points=16))),
    "walk": (("walk", "--family", "standard", "--theta", "0.3", "--steps",
              "30"),
             lambda out: _standard_walk_csv(30)),
    "holonomy-sphere": (("holonomy-sphere", "--loops", "30", "--steps",
                         "100"),
                        lambda out: emit.holonomy_table_csv(np.loadtxt(
                            out.splitlines()[1:], delimiter=",", ndmin=2))),
}


@pytest.mark.parametrize("argv, library", [
    pytest.param(argv, library, id=name)
    for name, (argv, library) in _TABLE_COMMANDS.items()])
def test_table_commands_write_each_block_as_it_is_formatted(
        capsys, tmp_path, monkeypatch, argv, library):
    # Four rows a block: each table is the header and at least 8 blocks.
    monkeypatch.setattr(emit, "CSV_BLOCK_ROWS", 4)
    chunks, on_disk = getattr(emit, "csv_chunks", None), []
    path = tmp_path / "table.csv"

    def spy(header, columns):
        for piece in chunks(header, columns):
            # Bytes on disk when this piece has been formatted.
            on_disk.append(path.stat().st_size if path.exists() else 0)
            yield piece

    def refuse(*args, **kwargs):
        raise AssertionError("a table command joined its whole text")

    with monkeypatch.context() as patch:
        patch.setattr(emit, "csv_text", refuse)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        patch.setattr(emit, "csv_chunks", spy, raising=False)
        assert run(capsys, *argv, "--out", str(path))[:2] == (0, "")
    assert path.read_text() == out == library(out)
    # When each piece was formatted, every piece before it was on disk.
    pieces = out.splitlines(keepends=True)
    lengths = [len(pieces[0])] + [len("".join(pieces[i:i + 4]))
                                  for i in range(1, len(pieces), 4)]
    assert len(lengths) >= 9
    assert on_disk == [sum(lengths[:i]) for i in range(len(lengths))]


_WALK = ("walk", "--family", "standard", "--theta", "0.3", "--steps")
_BUDGET = f" MiB, over the {cli.MEMORY_BUDGET >> 20} MiB budget"


@pytest.mark.parametrize("argv, message", [
    pytest.param(("spectrum", "--family", "standard", "--theta", "0.3",
                  "--phi", "0.5", "--out", "x.csv"),
                 "standard family takes --theta", id="angles-spectrum"),
    pytest.param(("walk", "--family", "splitstep", "--theta1", "0.5",
                  "--steps", "3", "--out", "x.csv", "--manifest", "m.json"),
                 "splitstep family takes --theta1 --theta2", id="angles-walk"),
    pytest.param((*_WALK, "100000000", "--out", "x.csv", "--manifest",
                  "m.json"),
                 "--steps 100000000 needs about *" + _BUDGET,
                 id="budget-walk"),
    pytest.param(("phase-diagram", "--family", "noncommuting",
                  "--resolution", "3000", "--out", "x.csv"),
                 "--resolution 3000 needs about *" + _BUDGET,
                 id="budget-phase-diagram"),
    pytest.param(("holonomy-sphere", "--loops", "100000000", "--out",
                  "x.csv"),
                 "--loops 100000000 --steps 20000 needs about *" + _BUDGET,
                 id="budget-holonomy-sphere"),
    pytest.param((*_WALK, "3", "--manifest", "-"),
                 "--manifest '-' is also --out", id="destination-stdout"),
    pytest.param((*_WALK, "3", "--out", "-", "--manifest", "-"),
                 "--manifest '-' is also --out", id="destination-both-stdout"),
    pytest.param((*_WALK, "3", "--out", "run.txt", "--manifest", "run.txt"),
                 "--manifest 'run.txt' is also --out", id="destination-path"),
    pytest.param((*_WALK, "3", "--out", "./run.txt", "--manifest", "run.txt"),
                 "--manifest 'run.txt' is also --out",
                 id="destination-relative"),
    pytest.param((*_WALK, "3", "--out", "ABS/run.txt", "--manifest",
                  "run.txt"),
                 "--manifest 'run.txt' is also --out",
                 id="destination-absolute"),
    pytest.param((*_WALK, "3", "--out", "link.txt", "--manifest", "run.txt"),
                 "--manifest 'run.txt' is also --out",
                 id="destination-symlink"),
    pytest.param((*_WALK, "3", "--out", "a.csv", "--manifest", "b.json"),
                 "--manifest 'b.json' is also --out",
                 id="destination-hard-link"),
])
def test_post_parse_refusals_print_the_subcommand_usage(capsys, tmp_path,
                                                        monkeypatch, argv,
                                                        message):
    # Arguments argparse accepts but the command refuses: each refusal
    # comes before any work, through the subcommand's own parser.
    monkeypatch.chdir(tmp_path)
    os.symlink("run.txt", "link.txt")
    Path("a.csv").write_text("kept\n")
    os.link("a.csv", "b.json")

    def refuse(*args, **kwargs):
        raise AssertionError("a refused command started its work")

    for name in ("_Walk", "scan_gap", "_transport_and_area"):
        monkeypatch.setattr(cli, name, refuse)
    before = {p: (p.is_symlink(), p.read_bytes() if p.exists() else None)
              for p in tmp_path.iterdir()}
    argv = [str(tmp_path / "run.txt") if a == "ABS/run.txt" else a
            for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: qwgeom {argv[0]} ")
    # A budget message matches its MiB figure with *.
    assert fnmatch.fnmatchcase(lines[-1],
                               f"qwgeom {argv[0]}: error: {message}")
    after = {p: (p.is_symlink(), p.read_bytes() if p.exists() else None)
             for p in tmp_path.iterdir()}
    assert after == before


def test_main_reuses_one_parser(capsys, monkeypatch):
    qgt = ("qgt", "--theta", "0.4", "--phi", "1.1")
    spectrum = ("spectrum", "--family", "standard", "--theta", "0.3",
                "--k-samples", "9")
    # Only the first call of a process may build the parser.
    expected = [run(capsys, *argv)[1] for argv in (qgt, spectrum)]

    def refuse():
        raise AssertionError("main built a parser for one call")

    monkeypatch.setattr(cli, "build_parser", refuse)
    for argv, text in zip((qgt, spectrum), expected):
        assert run(capsys, *argv) == (0, text, "")


def test_parsed_flags_do_not_leak_between_calls(capsys):
    argv = ("zak", "--family", "noncommuting", "--theta", "0.9",
            "--phi", "0.7", "--band", "plus", "--n-points", "64")
    code, full, _ = run(capsys, *argv, "--span", "full")
    assert code == 0 and json.loads(full)["span"] == "full"
    code, half, _ = run(capsys, *argv)
    assert code == 0 and json.loads(half)["span"] == "half"
    assert run_fresh(*argv) == (0, half, "")
