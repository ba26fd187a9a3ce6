import hashlib
import json

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

import fracsurf.cli as cli_mod
from fracsurf import verify_barrier
from fracsurf.cli import main
from fracsurf.config import parse_bool

SMALL_INI = """\
[run]
n = 1
alpha = 0.5
seed = 3

[curvature]
geometry = twoleaf
kind = barrier
epsilon = 0.2
method = formula
points = 0.5,2.5,10.0

[barrier-verify]
epsilon = 0.2
samples = 16
bisect = false
check_shrink = false

[cone-sweep]
epsilons = 0.4,0.2

[slide]
eps0 = 0.05
envelope_kind = constant
envelope_level = 1.0
candidate_kind = constant
candidate_level = 0.1

[blowdown]
kind = sqrt
scale = 1.0
epsilon = 0.1
R = 100.0
holder_R = 5.0,10.0,20.0
envelope_kind = sqrt
envelope_scale = 1.0

[perimeter]
kind = constant
level = 0.3
window = 2.0
scales = 1.0,2.0
samples = 100000
"""

ALL_COMMANDS = ["curvature", "barrier-verify", "cone-sweep", "slide",
                "blowdown", "perimeter"]

EXPECTED_EXITS = {
    "curvature": 0,
    "barrier-verify": 0,
    "cone-sweep": 0,
    "slide": 0,
    "blowdown": 0,
    "perimeter": 0,
}


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.ini"
    path.write_text(SMALL_INI)
    return path


def run_cli(command, config, out):
    return main([command, "--config", str(config), "--out", str(out)])


@pytest.mark.parametrize("command", ALL_COMMANDS)
def test_reruns_are_byte_identical_across_out_dirs(command, small_config, tmp_path):
    out1 = tmp_path / "first" / command
    out2 = tmp_path / "second" / command
    code1 = run_cli(command, small_config, out1)
    code2 = run_cli(command, small_config, out2)
    assert code1 == EXPECTED_EXITS[command]
    assert code2 == code1
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    assert names1 == names2
    assert "resolved.ini" in names1
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_curvature_outputs(small_config, tmp_path):
    out = tmp_path / "curv"
    assert run_cli("curvature", small_config, out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "r,height,H,err_total"
    assert len(lines) == 4
    records = json.loads((out / "points.json").read_text())
    assert len(records) == 3
    for rec in records:
        assert sorted(rec.keys()) == ["config_hash", "error_core",
                                      "error_midfield", "error_tail",
                                      "outer_radius", "point", "value",
                                      "warnings"]
        assert rec["warnings"] == []
    hashes = {rec["config_hash"] for rec in records}
    assert len(hashes) == 1
    assert "out" not in (out / "resolved.ini").read_text().splitlines()


def test_quadrature_keys_reach_resolved_ini_with_their_types(tmp_path):
    cfg = tmp_path / "quad.ini"
    cfg.write_text("""\
[curvature]
epsilon = 0.1
points = 0.5
max_subdivisions = 1e2
truncation_radius = 500
""")
    out = tmp_path / "quad"
    assert run_cli("curvature", cfg, out) == 0
    lines = (out / "resolved.ini").read_text().splitlines()
    assert "max_subdivisions = 100" in lines
    assert "truncation_radius = 500.0" in lines
    # the INI sets no pivot, so the record holds the default largest pivot;
    # each two-leaf point lowers it to half its own height
    assert "pv_inner_radius = 0.1" in lines
    assert not any(line.startswith("oracle_samples") for line in lines)
    cfg.write_text("[curvature]\nmethod = direct\nepsilon = 0.1\npoints = 0.5\n")
    out = tmp_path / "direct"
    assert run_cli("curvature", cfg, out) == 0
    lines = (out / "resolved.ini").read_text().splitlines()
    assert "oracle_samples = 1000000" in lines
    for key in ("pv_inner_radius", "truncation_radius", "target_tolerance",
                "max_subdivisions", "angular_order"):
        assert not any(line.startswith(key) for line in lines)


def test_defaults_supplied_at_the_read_are_recorded(tmp_path):
    cfg = tmp_path / "sqrt.ini"
    cfg.write_text("[curvature]\ngeometry = subgraph\nkind = sqrt\npoints = 4.0\n")
    out = tmp_path / "sqrt"
    assert run_cli("curvature", cfg, out) == 0
    lines = (out / "resolved.ini").read_text().splitlines()
    assert "scale = 1.0" in lines
    assert "complement = false" in lines
    out = tmp_path / "blowdown"
    assert main(["blowdown", "--out", str(out)]) == 0
    lines = (out / "resolved.ini").read_text().splitlines()
    assert "scale = 1.0" in lines
    assert "envelope_scale = 1.0" in lines


def test_curvature_warnings_reach_points_json(tmp_path):
    cfg = tmp_path / "warn.ini"
    cfg.write_text("""\
[curvature]
epsilon = 0.2
points = 2.5
truncation_radius = 10
max_subdivisions = 2
""")
    out = tmp_path / "warn"
    assert run_cli("curvature", cfg, out) == 0
    (record,) = json.loads((out / "points.json").read_text())
    assert record["warnings"] == ["tail-above-target", "quadrature-above-target"]
    assert record["outer_radius"] == 1000.0


@pytest.mark.parametrize("command, lines, key, value", [
    ("curvature", "geometry = subgraph\nkind = rampbump\nwidth = 1e-40\npoints = 5e-41",
     "width", "1e-40"),
    ("slide", "candidate_kind = bump\ncandidate_width = 1e60", "candidate_width", "1e+60"),
])
def test_bump_width_it_cannot_represent_exits_1(command, lines, key, value, tmp_path, capsys):
    """The ramp bump of width 1e-40 wrote 5e-41,-inf,nan,nan and exited 0."""
    cfg = tmp_path / "width.ini"
    cfg.write_text(f"[{command}]\n{lines}\n")
    out = tmp_path / "width"
    assert run_cli(command, cfg, out) == 1
    assert (f"{key} = {value}: width must keep every knot and coefficient in floating-point "
            f"range, not {value}") in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, lines, largest", [
    ("curvature", "method = direct\noracle_samples = 1000\npoints = 0.5", 60),
    ("curvature", "method = formula\npoints = 0.5", 344),
    ("perimeter", "samples = 2000\nscales = 1.0", 174),
])
def test_a_dimension_beyond_the_float_range_exits_1(command, lines, largest, tmp_path, capsys):
    """One dimension more raised a raw OverflowError in the direct estimate
    and in the formula's angular rule, and made the perimeter write nan."""
    for n in (largest, largest + 1):
        cfg = tmp_path / f"n{n}.ini"
        cfg.write_text(f"[run]\nn = {n}\n\n[{command}]\n{lines}\n")
        out = tmp_path / f"n{n}"
        if n == largest:
            assert run_cli(command, cfg, out) == 0
            assert "nan" not in next(out.glob("*.csv")).read_text()
        else:
            assert run_cli(command, cfg, out) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: n = {n} ") and "floating-point range" in err
            assert not out.exists()


@pytest.mark.parametrize("argv", [["curvature", "--bogus"], [], ["curvature", "--seed", "x"]])
def test_command_line_errors_exit_1(argv, tmp_path, monkeypatch, capsys):
    """They exited 2, the verdict's status, through a SystemExit from argparse."""
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "runs").exists()


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fracsurf")


def test_retired_slide_r_max_exits_1(tmp_path, capsys):
    cfg = tmp_path / "rmax.ini"
    cfg.write_text("""\
[slide]
r_max = 100.0
""")
    out = tmp_path / "rmax"
    assert run_cli("slide", cfg, out) == 1
    assert "'r_max'" in capsys.readouterr().err
    assert not out.exists()


def test_quadrature_key_in_a_command_that_ignores_it_exits_1(tmp_path, capsys):
    # the oracle reads only oracle_samples, the quadrature everything else.
    # The key is refused before the command computes anything; the small
    # workloads keep each case cheap should that order ever break
    cases = [("cone-sweep", "epsilons = 0.4,0.2\n", "oracle_samples = 20000"),
             ("barrier-verify", "samples = 16\nbisect = false\ncheck_shrink = false\n",
              "oracle_samples = 20000"),
             ("curvature", "method = formula\npoints = 0.5\n", "oracle_samples = 20000")]
    cases += [("curvature", "method = direct\npoints = 0.5\noracle_samples = 1000\n", line)
              for line in ("pv_inner_radius = 0.05", "truncation_radius = 500",
                           "target_tolerance = 1e-8", "max_subdivisions = 50",
                           "angular_order = 16")]
    for i, (command, section, line) in enumerate(cases):
        cfg = tmp_path / f"ignored{i}.ini"
        cfg.write_text(f"[{command}]\n{section}{line}\n")
        out = tmp_path / f"ignored{i}"
        assert run_cli(command, cfg, out) == 1
        assert f"does not read the key {line.split()[0]!r}" in capsys.readouterr().err
        assert not out.exists()


def test_unread_key_is_refused_before_any_computation(monkeypatch, tmp_path, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the audit ran before its keys were checked")

    monkeypatch.setattr("fracsurf.cli.verify_barrier", never)
    cfg = tmp_path / "stray.ini"
    cfg.write_text("[barrier-verify]\nsampels = 3\n")
    out = tmp_path / "stray"
    assert run_cli("barrier-verify", cfg, out) == 1
    assert "barrier-verify does not read the key 'sampels'" in capsys.readouterr().err
    assert not out.exists()


def test_curvature_direct_ball_interprets_points_as_angles(tmp_path):
    cfg = tmp_path / "ball.ini"
    cfg.write_text("""\
[run]
n = 1
alpha = 0.5
seed = 5

[curvature]
geometry = ball
radius = 1.0
method = direct
points = 0.0,1.5707963267948966
oracle_samples = 50000
""")
    out = tmp_path / "ball"
    assert run_cli("curvature", cfg, out) == 0
    records = json.loads((out / "points.json").read_text())
    assert records[0]["point"][0] == pytest.approx(1.0)
    assert records[0]["point"][1] == pytest.approx(0.0)
    assert records[1]["point"][0] == pytest.approx(0.0, abs=1e-12)
    assert records[1]["point"][1] == pytest.approx(1.0)
    # same body point, so the two estimates agree within their errors
    v0, v1 = records[0]["value"], records[1]["value"]
    e0 = (records[0]["error_core"] + records[0]["error_midfield"]
          + records[0]["error_tail"])
    e1 = (records[1]["error_core"] + records[1]["error_midfield"]
          + records[1]["error_tail"])
    assert abs(v0 - v1) <= e0 + e1


def test_threads_do_not_change_results(small_config, tmp_path):
    out1 = tmp_path / "serial"
    out2 = tmp_path / "pooled"
    assert main(["curvature", "--config", str(small_config),
                 "--out", str(out1)]) == 0
    assert main(["curvature", "--config", str(small_config),
                 "--out", str(out2), "--threads", "4"]) == 0
    assert ((out1 / "points.json").read_text()
            == (out2 / "points.json").read_text())
    assert ((out1 / "sweep.csv").read_bytes()
            == (out2 / "sweep.csv").read_bytes())
    assert ((out1 / "resolved.ini").read_bytes()
            == (out2 / "resolved.ini").read_bytes())
    assert "threads" not in (out1 / "resolved.ini").read_text()


def test_seed_override_is_recorded_and_changes_sampling(tmp_path, small_config):
    outs = []
    for seed in (11, 12):
        out = tmp_path / f"seed{seed}"
        assert main(["perimeter", "--config", str(small_config),
                     "--out", str(out), "--seed", str(seed)]) == 0
        assert f"seed = {seed}" in (out / "resolved.ini").read_text()
        outs.append(json.loads((out / "report.json").read_text()))
    assert outs[0]["rows"][0]["value"] != outs[1]["rows"][0]["value"]


def test_cone_sweep_outputs(small_config, tmp_path):
    out = tmp_path / "cone"
    assert run_cli("cone-sweep", small_config, out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "epsilon,M,err"
    assert len(lines) == 3
    report = json.loads((out / "report.json").read_text())
    assert report["blow_up_trend"] is True
    assert report["monotone"] is True
    eps_col = [float(line.split(",")[0]) for line in lines[1:]]
    assert eps_col == [0.4, 0.2]
    assert [entry["warnings"] for entry in report["entries"]] == [[], []]


def test_cone_sweep_does_not_depend_on_the_seed(small_config, tmp_path):
    outs = []
    for seed in (3, 4):
        out = tmp_path / f"seed{seed}"
        assert main(["cone-sweep", "--config", str(small_config),
                     "--out", str(out), "--seed", str(seed)]) == 0
        outs.append(out)
    assert sorted(p.name for p in outs[0].iterdir()) == ["report.json", "resolved.ini",
                                                           "sweep.csv"]
    for name in ("report.json", "sweep.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("epsilons", ["0.2", ""])
def test_cone_sweep_with_fewer_than_two_slopes_exits_1(epsilons, tmp_path, capsys):
    cfg = tmp_path / "cone.ini"
    cfg.write_text(f"[cone-sweep]\nepsilons = {epsilons}\n")
    out = tmp_path / "cone"
    assert run_cli("cone-sweep", cfg, out) == 1
    assert "two or more slopes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key", [("curvature", "points"), ("perimeter", "scales"),
                                          ("blowdown", "holder_R")])
def test_an_empty_list_key_exits_1_naming_it(command, key, tmp_path, capsys):
    cfg = tmp_path / "empty.ini"
    cfg.write_text(f"[{command}]\n{key} =\n")
    out = tmp_path / "empty"
    assert run_cli(command, cfg, out) == 1
    assert f"{key} must list at least one" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("epsilons, bad", [("inf,0.2", "inf"), ("0.4,-0.2", "-0.2"),
                                            ("0.4,nan", "nan")])
def test_cone_sweep_with_a_slope_that_is_not_finite_and_positive_exits_1(epsilons, bad,
                                                                         tmp_path, capsys):
    cfg = tmp_path / "cone.ini"
    cfg.write_text(f"[cone-sweep]\nepsilons = {epsilons}\n")
    out = tmp_path / "cone"
    assert run_cli("cone-sweep", cfg, out) == 1
    assert f"epsilons must be positive and finite, not {bad}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value, message", [
    ("perimeter", "samples", "1", "samples must be >= 2, not 1"),
    ("perimeter", "samples", "0", "samples must be >= 2, not 0"),
    ("curvature", "oracle_samples", "0", "oracle_samples must be >= 1, not 0"),
    ("curvature", "oracle_samples", "-5", "oracle_samples must be >= 1, not -5"),
    ("barrier-verify", "samples", "0", "samples must be >= 1, not 0"),
    ("barrier-verify", "samples", "-3", "samples must be >= 1, not -3"),
])
def test_sample_count_too_small_exits_1_naming_it(command, key, value, message,
                                                  tmp_path, capsys):
    cfg = tmp_path / "count.ini"
    # only the Monte Carlo oracle reads oracle_samples
    method = "method = direct\n" if key == "oracle_samples" else ""
    cfg.write_text(f"[{command}]\n{method}{key} = {value}\n")
    out = tmp_path / "count"
    assert run_cli(command, cfg, out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("method", ["formula", "direct"])
@pytest.mark.parametrize("points, bad", [("0.5,nan", "nan"), ("inf", "inf"), ("2.5,-inf", "-inf")])
def test_curvature_points_that_are_not_finite_exit_1(method, points, bad, tmp_path, capsys):
    cfg = tmp_path / "points.ini"
    cfg.write_text(f"[curvature]\ngeometry = twoleaf\nkind = constant\nlevel = 1.0\n"
                   f"method = {method}\npoints = {points}\n")
    out = tmp_path / "points"
    assert run_cli("curvature", cfg, out) == 1
    assert f"points must be finite, not {bad}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("truncation_radius", "inf", "truncation_radius must be positive and finite, not inf"),
])
def test_quadrature_keys_that_are_not_finite_and_positive_exit_1(key, value, message,
                                                                  tmp_path, capsys):
    cfg = tmp_path / "quad.ini"
    cfg.write_text(f"[curvature]\n{key} = {value}\n")
    out = tmp_path / "quad"
    assert run_cli("curvature", cfg, out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, lines, key", [
    ("curvature", "geometry = subgraph\nkind = constant\nlevel = nan", "level"),
    ("curvature", "kind = bump\namplitude = inf", "amplitude"),
    ("slide", "envelope_level = nan", "envelope_level"),
    ("slide", "candidate_level = -inf", "candidate_level"),
    ("blowdown", "envelope_scale = nan", "envelope_scale"),
    ("perimeter", "level = inf", "level"),
])
def test_a_profile_parameter_that_is_not_finite_exits_1_naming_it(command, lines, key,
                                                                  tmp_path, capsys):
    cfg = tmp_path / "profile.ini"
    cfg.write_text(f"[{command}]\n{lines}\n")
    out = tmp_path / "profile"
    assert run_cli(command, cfg, out) == 1
    value = lines.rsplit(" = ", 1)[1]
    assert f"{key} must be finite, not {float(value)!r}" in capsys.readouterr().err
    assert not out.exists()


def _refuse_to_compute(monkeypatch, *names):
    def unreachable(*args, **kwargs):
        raise AssertionError("the run computed before its inputs were checked")

    for name in names:
        monkeypatch.setattr(cli_mod, name, unreachable)


@pytest.mark.parametrize("scales, bad", [("1.0,inf", "inf"), ("1.0,1e308", "1e+308"),
                                         ("1.0,0.0", "0.0"), ("1.0,nan", "nan"),
                                         ("-1.0", "-1.0")])
def test_perimeter_scale_that_is_not_positive_and_finite_exits_1_naming_it(
        scales, bad, tmp_path, capsys, monkeypatch):
    """Every entry, and the window it scales (2e308 for 1e308), is checked
    before the first scale is sampled, and the error names the key."""
    _refuse_to_compute(monkeypatch, "relative_perimeter")
    cfg = tmp_path / "scales.ini"
    cfg.write_text(SMALL_INI.replace("scales = 1.0,2.0", f"scales = {scales}"))
    out = tmp_path / "scales"
    assert run_cli("perimeter", cfg, out) == 1
    assert (f"scales = {bad}: scale factor must be positive and finite, and so must "
            "window * scale" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("scales, bad, factor", [("1e-300", "1e-300", "9.999999999999999e+299"),
                                                 ("1.0,1e80", "1e+80", "1e-80")])
def test_perimeter_scale_the_dilation_cannot_represent_exits_1_naming_it(
        scales, bad, factor, tmp_path, capsys, monkeypatch):
    """1e-300 overflowed the barrier's coefficients into a raw OverflowError;
    1e80 underflowed its blend and exited 0 on the wrong body."""
    _refuse_to_compute(monkeypatch, "relative_perimeter")
    cfg = tmp_path / "scales.ini"
    cfg.write_text(f"[perimeter]\nkind = barrier\nepsilon = 0.2\nscales = {scales}\n")
    out = tmp_path / "scales"
    assert run_cli("perimeter", cfg, out) == 1
    assert (f"scales = {bad}: dilation factor must keep every knot and coefficient in "
            f"floating-point range, not {factor}" in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("width", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command, lines, key", [
    ("curvature", "geometry = subgraph\nkind = bump", "width"),
    ("slide", "candidate_kind = rampbump", "candidate_width"),
])
def test_bump_width_that_is_not_positive_and_finite_exits_1_naming_it(
        command, lines, key, width, tmp_path, capsys, monkeypatch):
    """Width 0 died with a raw ZeroDivisionError, and -1 exited 0 on a
    profile that is 0 everywhere."""
    _refuse_to_compute(monkeypatch, "graph_curvature", "rescale_for_slide", "slide")
    cfg = tmp_path / "width.ini"
    cfg.write_text(f"[{command}]\n{lines}\n{key} = {width}\n")
    out = tmp_path / "width"
    assert run_cli(command, cfg, out) == 1
    assert (f"{key} must be positive and finite, not {float(width)!r}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("radius", ["nan", "-1", "0", "inf"])
def test_ball_radius_that_is_not_positive_and_finite_exits_1_naming_it(
        radius, tmp_path, capsys, monkeypatch):
    _refuse_to_compute(monkeypatch, "direct_curvature")
    cfg = tmp_path / "ball.ini"
    cfg.write_text(f"[curvature]\ngeometry = ball\nmethod = direct\nradius = {radius}\n"
                   "points = 0.5\n")
    out = tmp_path / "ball"
    assert run_cli("curvature", cfg, out) == 1
    assert (f"radius must be positive and finite, not {float(radius)!r}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("epsilon", ["nan", "-1", "0", "inf"])
def test_barrier_envelope_epsilon_that_is_not_positive_and_finite_exits_1_naming_it(
        epsilon, tmp_path, capsys, monkeypatch):
    _refuse_to_compute(monkeypatch, "rescale_for_slide", "slide")
    cfg = tmp_path / "slide.ini"
    cfg.write_text(f"[slide]\nenvelope_kind = barrier\nenvelope_epsilon = {epsilon}\n")
    out = tmp_path / "slide"
    assert run_cli("slide", cfg, out) == 1
    assert (f"envelope_epsilon must be positive and finite, not {float(epsilon)!r}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("window", ["nan", "inf", "0.0", "-2.0"])
def test_perimeter_window_that_is_not_finite_and_positive_exits_1_naming_it(window, tmp_path,
                                                                           capsys):
    cfg = tmp_path / "window.ini"
    cfg.write_text(f"[perimeter]\nwindow = {window}\n")
    out = tmp_path / "window"
    assert run_cli("perimeter", cfg, out) == 1
    assert (f"window must be positive and finite, not {float(window)!r}"
            in capsys.readouterr().err)
    assert not out.exists()


def test_slide_touch_outcome_schema(small_config, tmp_path):
    out = tmp_path / "slide"
    assert run_cli("slide", small_config, out) == 0
    payload = json.loads((out / "outcome.json").read_text())
    assert sorted(payload.keys()) == ["H_at_touch", "eps_star", "err", "floor",
                                      "interpretation", "lambda", "outer_radius",
                                      "touch_point", "verdict", "warnings"]
    assert payload["verdict"] == "TOUCH_FOUND"
    assert payload["warnings"] == []
    assert payload["outer_radius"] >= 1e3
    assert payload["lambda"] == pytest.approx(0.00625)
    assert payload["eps_star"] == pytest.approx(0.000625, rel=1e-6)
    assert payload["H_at_touch"] > 0.0


def test_slide_escape_exits_2(tmp_path):
    r = np.linspace(0.0, 120.0, 2401)
    u = np.maximum(0.0, 0.02 * r - 0.1 * np.sqrt(r))
    csv_path = tmp_path / "runaway.csv"
    csv_path.write_text("r,value\n" + "\n".join(
        f"{float(a)!r},{float(b)!r}" for a, b in zip(r, u)) + "\n")
    cfg = tmp_path / "escape.ini"
    cfg.write_text(f"""\
[run]
n = 1
alpha = 0.5

[slide]
eps0 = 0.05
envelope_kind = constant
envelope_level = 0.00625
candidate_kind = csv
candidate_path = {csv_path}
""")
    out = tmp_path / "escape"
    assert run_cli("slide", cfg, out) == 2
    payload = json.loads((out / "outcome.json").read_text())
    assert payload["verdict"] == "UNBOUNDED_TOUCH_SEQUENCE"
    # the candidate's terminal slope, which its ratio to the cone approaches
    assert payload["eps_star"] == pytest.approx(PchipInterpolator(r, u)(120.0, 1), rel=1e-12)
    assert payload["touch_point"] is None
    assert payload["H_at_touch"] is None
    assert payload["outer_radius"] is None and payload["warnings"] == []


def test_slide_linear_envelope_exits_1(tmp_path, capsys):
    cfg = tmp_path / "affine.ini"
    cfg.write_text("""\
[run]
n = 1
alpha = 0.5

[slide]
eps0 = 0.05
envelope_kind = affine
envelope_offset = 1.0
envelope_slope = 1.0
candidate_kind = constant
candidate_level = 0.0
""")
    assert run_cli("slide", cfg, tmp_path / "affine") == 1
    assert "error:" in capsys.readouterr().err


def test_blowdown_linear_envelope_exits_1(tmp_path, capsys):
    cfg = tmp_path / "affine.ini"
    cfg.write_text("""\
[blowdown]
envelope_kind = affine
envelope_offset = 1.0
envelope_slope = 1.0
""")
    assert run_cli("blowdown", cfg, tmp_path / "affine") == 1
    assert "grows without bound" in capsys.readouterr().err


def test_blowdown_report_schema(small_config, tmp_path):
    out = tmp_path / "blow"
    assert run_cli("blowdown", small_config, out) == 0
    payload = json.loads((out / "report.json").read_text())
    assert sorted(payload.keys()) == ["R", "R_eps_predicted", "epsilon",
                                      "passed", "violator"]
    assert payload["passed"] is True
    assert payload["violator"] is None
    assert payload["R_eps_predicted"] == pytest.approx(100.0)
    lines = (out / "holder.csv").read_text().splitlines()
    assert lines[0] == "R,beta,lhs,rhs"
    assert len(lines) == 4
    for line in lines[1:]:
        _, _, lhs, rhs = (float(tok) for tok in line.split(","))
        assert lhs == pytest.approx(rhs, rel=1e-2)


@pytest.mark.parametrize("line, message", [
    ("R = inf", "rescaling radius R must be positive and finite, not inf"),
    ("R = 1e400", "rescaling radius R must be positive and finite, not inf"),
    ("holder_R = 5.0,-5.0", "Holder rescaling radius R must be positive and finite, not -5.0"),
    ("holder_R = 5.0,0.0", "Holder rescaling radius R must be positive and finite, not 0.0"),
    ("holder_R = 5.0,inf", "Holder rescaling radius R must be positive and finite, not inf"),
    ("holder_R = 5.0,nan", "Holder rescaling radius R must be positive and finite, not nan"),
])
def test_blowdown_radius_that_is_not_finite_and_positive_exits_1_naming_it(line, message,
                                                                          tmp_path, capsys):
    cfg = tmp_path / "radius.ini"
    cfg.write_text(f"[blowdown]\n{line}\n")
    out = tmp_path / "radius"
    assert run_cli("blowdown", cfg, out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_barrier_verify_positive_exits_0(small_config, tmp_path):
    out = tmp_path / "bv"
    assert run_cli("barrier-verify", small_config, out) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["verdict"] == "POSITIVE"
    assert payload["min_margin"] > 0.0
    assert payload["far_agrees"] is True
    assert payload["notes"] == []
    assert sorted(payload) == ["alpha", "cone_error", "cone_value", "empirical_eps0",
                               "epsilon", "far_agrees", "far_scaled", "min_margin", "n",
                               "notes", "samples", "shrink_consistent", "verdict"]
    for sample in payload["samples"]:
        assert sorted(sample.keys()) == ["H", "err", "outer_radius", "point", "warnings"]
        assert sample["warnings"] == []


def test_barrier_verify_matches_the_api_exactly(tmp_path):
    """The command and ``verify_barrier`` take the same pivot at every point,
    the far cone's included."""
    cfg = tmp_path / "bv.ini"
    cfg.write_text("[barrier-verify]\nepsilon = 0.1\nsamples = 16\nbisect = false\n"
                   "check_shrink = false\n")
    out = tmp_path / "bv"
    assert run_cli("barrier-verify", cfg, out) == 0
    payload = json.loads((out / "report.json").read_text())
    report = verify_barrier(0.1, 1, 0.5, min_samples=16, bisect_eps0=False,
                            check_shrink=False)
    assert payload["cone_value"] == report.cone_value
    assert [s["H"] for s in payload["samples"]] == [res.value for _, res in report.samples]


def test_barrier_verify_with_default_shrink_check_writes_report(small_config, tmp_path):
    cfg = tmp_path / "shrink.ini"
    cfg.write_text(small_config.read_text().replace("check_shrink = false\n", ""))
    out = tmp_path / "shrink"
    assert run_cli("barrier-verify", cfg, out) == 0
    payload = json.loads((out / "report.json").read_text())
    assert "check_shrink = true" in (out / "resolved.ini").read_text()
    assert payload["verdict"] == "POSITIVE"
    assert payload["shrink_consistent"] is True


def test_barrier_verify_starved_quadrature_exits_2(tmp_path):
    cfg = tmp_path / "starved.ini"
    cfg.write_text("""\
[run]
n = 1
alpha = 0.5

[barrier-verify]
epsilon = 0.2
samples = 16
bisect = false
check_shrink = false
max_subdivisions = 2
""")
    out = tmp_path / "starved"
    assert run_cli("barrier-verify", cfg, out) == 2
    payload = json.loads((out / "report.json").read_text())
    assert payload["verdict"] == "INCONCLUSIVE"
    assert any("quadrature-above-target" in s["warnings"] for s in payload["samples"])


def test_perimeter_outputs(small_config, tmp_path):
    out = tmp_path / "peri"
    assert run_cli("perimeter", small_config, out) == 0
    lines = (out / "perimeter.csv").read_text().splitlines()
    assert lines[0] == "scale,value,err"
    assert len(lines) == 3
    report = json.loads((out / "report.json").read_text())
    assert len(report["rows"]) == 2
    assert report["rows"][0]["scale"] == 1.0
    assert report["rows"][1]["scale"] == 2.0
    for row in report["rows"]:
        assert row["value"] > 0.0
        assert row["err"] > 0.0


def test_perimeter_names_a_nonpositive_scale(tmp_path, capsys):
    cfg = tmp_path / "zero.ini"
    cfg.write_text(SMALL_INI.replace("scales = 1.0,2.0", "scales = 0.0,1.0"))
    assert run_cli("perimeter", cfg, tmp_path / "peri") == 1
    assert "scale factor must be positive" in capsys.readouterr().err


def test_missing_config_exits_1(tmp_path, capsys):
    assert main(["curvature", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_unknown_geometry_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("""\
[run]
n = 1
alpha = 0.5

[curvature]
geometry = dodecahedron
points = 1.0
""")
    assert run_cli("curvature", cfg, tmp_path / "bad") == 1
    assert "error:" in capsys.readouterr().err


def test_bad_profile_csv_exits_1(tmp_path, capsys):
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("radius,height\n0.0,1.0\n")
    cfg = tmp_path / "badcsv.ini"
    cfg.write_text(f"""\
[run]
n = 1
alpha = 0.5

[slide]
eps0 = 0.05
candidate_kind = csv
candidate_path = {bad_csv}
""")
    assert run_cli("slide", cfg, tmp_path / "badcsv") == 1
    err = capsys.readouterr().err
    assert "r,value" in err


def test_defaults_need_no_config(tmp_path):
    out = tmp_path / "defaults"
    assert main(["blowdown", "--out", str(out)]) == 0
    assert (out / "report.json").exists()


def test_foreign_sections_are_not_recorded(small_config, tmp_path):
    out = tmp_path / "slide"
    assert run_cli("slide", small_config, out) == 0
    text = (out / "resolved.ini").read_text()
    assert [line for line in text.splitlines() if line.startswith("[")] == ["[run]", "[slide]"]
    assert "level = 0.3" not in text


@pytest.mark.parametrize("ini, key", [
    ("[slide]\neps_0 = 0.01\ncandidate_levl = 0.3\n", "candidate_levl"),
    ("[run]\nalhpa = 0.4\n", "alhpa"),
])
def test_misspelled_key_exits_1_and_writes_nothing(ini, key, tmp_path, capsys):
    cfg = tmp_path / "typo.ini"
    cfg.write_text(ini)
    out = tmp_path / "typo"
    assert run_cli("slide", cfg, out) == 1
    assert f"slide does not read the key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_misspelled_section_exits_1(tmp_path, capsys):
    cfg = tmp_path / "section.ini"
    cfg.write_text("[slides]\neps0 = 0.01\n")
    out = tmp_path / "section"
    assert run_cli("slide", cfg, out) == 1
    assert "[slides]" in capsys.readouterr().err
    assert not out.exists()


def test_unread_defaults_are_not_recorded_and_the_hash_is_the_record(tmp_path):
    cfg = tmp_path / "constant.ini"
    cfg.write_text("[curvature]\nkind = constant\nlevel = 0.3\npoints = 1.5\n")
    out = tmp_path / "constant"
    assert run_cli("curvature", cfg, out) == 0
    resolved = (out / "resolved.ini").read_bytes()
    assert b"level = 0.3" in resolved
    assert b"epsilon" not in resolved
    (record,) = json.loads((out / "points.json").read_text())
    assert record["config_hash"] == hashlib.md5(resolved).hexdigest()


@pytest.mark.parametrize("command, ini", [
    ("blowdown", "[blowdown]\nbeta = 1.5\n"),
    ("slide", "[slide]\ncandidate_level = 5.0\n"),
])
def test_failed_run_writes_nothing(command, ini, tmp_path, capsys):
    cfg = tmp_path / "fail.ini"
    cfg.write_text(ini)
    out = tmp_path / "fail"
    assert run_cli(command, cfg, out) == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, word", [
    ("barrier-verify", "bisect", "flase"),
    ("barrier-verify", "check_shrink", "ture"),
    ("curvature", "complement", "treu"),
])
def test_misspelled_boolean_exits_1_and_writes_nothing(command, key, word, tmp_path, capsys):
    cfg = tmp_path / "bool.ini"
    cfg.write_text(f"[{command}]\n{key} = {word}\n")
    out = tmp_path / "bool"
    assert run_cli(command, cfg, out) == 1
    assert f"{key} = {word!r} is not a boolean" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("curvature", "curvature", "max_subdivisions", "2.5"),
    ("curvature", "curvature", "oracle_samples", "20000.5"),
    ("barrier-verify", "barrier-verify", "samples", "64.5"),
    ("perimeter", "perimeter", "samples", "100000.5"),
    ("curvature", "run", "n", "1.5"),
    ("curvature", "run", "seed", "7.25"),
])
def test_integer_key_with_a_fraction_exits_1_and_writes_nothing(command, section, key, value,
                                                                tmp_path, capsys):
    cfg = tmp_path / "int.ini"
    # only the Monte Carlo oracle reads oracle_samples
    method = "method = direct\n" if key == "oracle_samples" else ""
    cfg.write_text(f"[{section}]\n{method}{key} = {value}\n")
    out = tmp_path / "int"
    assert run_cli(command, cfg, out) == 1
    assert f"{key} = {value!r} is not an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("curvature", "curvature", "truncation_radius", "1e3x"),
    ("barrier-verify", "barrier-verify", "epsilon", "1e3x"),
    ("curvature", "curvature", "epsilon", "1e3x"),
    ("curvature", "run", "alpha", "1e3x"),
    ("curvature", "curvature", "max_subdivisions", "abc"),
    ("curvature", "curvature", "points", "1e3x"),
    ("cone-sweep", "cone-sweep", "epsilons", "1e3x"),
    ("perimeter", "perimeter", "scales", "1e3x"),
    ("blowdown", "blowdown", "holder_R", "1e3x"),
])
def test_number_key_that_is_no_number_exits_1_and_writes_nothing(command, section, key, value,
                                                                 tmp_path, capsys):
    cfg = tmp_path / "num.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    out = tmp_path / "num"
    assert run_cli(command, cfg, out) == 1
    assert f"{key} = {value!r} is not a number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_barrier_verify_with_an_unbounded_epsilon_exits_1_naming_it(value, tmp_path, capsys):
    cfg = tmp_path / "eps.ini"
    cfg.write_text(f"[barrier-verify]\nepsilon = {value}\n")
    out = tmp_path / "eps"
    assert run_cli("barrier-verify", cfg, out) == 1
    assert f"epsilon must be positive and finite, not {value}" in capsys.readouterr().err
    assert not out.exists()


def test_bad_entry_of_a_number_list_is_named(tmp_path, capsys):
    cfg = tmp_path / "num.ini"
    cfg.write_text("[curvature]\npoints = 0.5; 2.5 , 1e3x\n")
    assert run_cli("curvature", cfg, tmp_path / "num") == 1
    assert "points = '1e3x' is not a number" in capsys.readouterr().err


@pytest.mark.parametrize("command, key", [("curvature", "epsilon"), ("slide", "eps0")])
def test_infinite_barrier_height_exits_1_naming_it(command, key, tmp_path, capsys):
    cfg = tmp_path / "eps.ini"
    cfg.write_text(f"[{command}]\n{key} = inf\n")
    out = tmp_path / "eps"
    assert run_cli(command, cfg, out) == 1
    assert f"{key} must be positive and finite, not inf" in capsys.readouterr().err
    assert not out.exists()


def test_integer_key_in_exponent_form_reads_as_its_integer(small_config, tmp_path):
    spelled = tmp_path / "spelled.ini"
    spelled.write_text(SMALL_INI.replace("samples = 100000", "samples = 1e5")
                       .replace("seed = 3", "seed = 3e0"))
    assert run_cli("perimeter", small_config, tmp_path / "plain") == 0
    assert run_cli("perimeter", spelled, tmp_path / "spelled") == 0
    for name in ("perimeter.csv", "report.json"):
        assert ((tmp_path / "plain" / name).read_bytes()
                == (tmp_path / "spelled" / name).read_bytes())


def test_booleans_read_in_any_case(small_config, tmp_path):
    spelled = tmp_path / "spelled.ini"
    spelled.write_text(SMALL_INI.replace("bisect = false", "bisect = OFF")
                       .replace("check_shrink = false", "check_shrink =  No ")
                       .replace("method = formula", "method = formula\ncomplement = False"))
    for command, name in [("barrier-verify", "report.json"), ("curvature", "sweep.csv")]:
        assert run_cli(command, small_config, tmp_path / "plain" / command) == 0
        assert run_cli(command, spelled, tmp_path / "spelled" / command) == 0
        assert ((tmp_path / "spelled" / command / name).read_bytes()
                == (tmp_path / "plain" / command / name).read_bytes())
    for word in ("1", "true", "Yes", " ON "):
        assert parse_bool({"bisect": word}, "bisect") is True
    for word in ("0", "FALSE", "no", "Off\t"):
        assert parse_bool({"bisect": word}, "bisect") is False


def test_run_threads_and_out_are_accepted_and_unrecorded(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(f"[run]\nthreads = 4\nout = {tmp_path / 'from_ini'}\n")
    assert main(["slide", "--config", str(cfg)]) == 0
    assert run_cli("slide", cfg, tmp_path / "from_flag") == 0
    for out in (tmp_path / "from_ini", tmp_path / "from_flag"):
        text = (out / "resolved.ini").read_text()
        assert "threads" not in text
        assert "out =" not in text


@pytest.mark.parametrize("geometry", ["cone", "halfspace"])
def test_retired_geometry_names_exit_1(geometry, tmp_path, capsys):
    cfg = tmp_path / "retired.ini"
    cfg.write_text(f"[curvature]\ngeometry = {geometry}\nmethod = direct\npoints = 1.0\n")
    out = tmp_path / "retired"
    assert run_cli("curvature", cfg, out) == 1
    assert f"unknown geometry {geometry!r}" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_method_exits_1(tmp_path, capsys):
    cfg = tmp_path / "method.ini"
    cfg.write_text("[curvature]\nmethod = montecarlo\npoints = 1.0\n")
    out = tmp_path / "method"
    assert run_cli("curvature", cfg, out) == 1
    assert "unknown method 'montecarlo'" in capsys.readouterr().err
    assert not out.exists()


def test_formula_on_a_complement_exits_1(tmp_path, capsys):
    cfg = tmp_path / "formula.ini"
    cfg.write_text("[curvature]\ncomplement = true\npoints = 1.0\n")
    assert run_cli("curvature", cfg, tmp_path / "formula") == 1
    assert "use method = direct" in capsys.readouterr().err


# values of the straight cone {|z| < 0.5 |x'|} complemented (n = 2, seed 7)
# and of the half-space {z < 0.3} (n = 1), as the retired geometry names
# `cone` and `halfspace` computed them before both became graph bodies
@pytest.mark.parametrize("run, body, values", [
    ("n = 2\nalpha = 0.5\nseed = 7\n",
     "geometry = twoleaf\nkind = linear\nslope = 0.5\ncomplement = true\n"
     "points = 1.0,2.0\noracle_samples = 20000\n",
     [0.7999519545609373, 1.2359877750525243]),
    ("n = 1\nalpha = 0.5\n",
     "geometry = subgraph\nkind = constant\nlevel = 0.3\npoints = 1.5\n", [0.0]),
])
def test_graph_bodies_reproduce_the_cone_and_half_space(run, body, values, tmp_path):
    cfg = tmp_path / "graph.ini"
    cfg.write_text(f"[run]\n{run}\n[curvature]\nmethod = direct\n{body}")
    out = tmp_path / "graph"
    assert run_cli("curvature", cfg, out) == 0
    records = json.loads((out / "points.json").read_text())
    assert [rec["value"] for rec in records] == values


ORACLE_SECTIONS = {
    "perimeter": "[perimeter]\nsamples = 1000\n",
    "curvature": "[curvature]\nmethod = direct\npoints = 0.5\noracle_samples = 1000\n",
}


@pytest.mark.parametrize("command", sorted(ORACLE_SECTIONS))
@pytest.mark.parametrize("line, message", [
    ("alpha = 0.0", "order must lie strictly inside (0, 1), not 0.0"),
    ("alpha = 1.0", "order must lie strictly inside (0, 1), not 1.0"),
    ("alpha = 1.5", "order must lie strictly inside (0, 1), not 1.5"),
    ("n = 0", "ambient graph dimension must be >= 1, not 0"),
])
def test_oracle_commands_reject_an_order_or_dimension_out_of_range(command, line, message,
                                                                  tmp_path, capsys):
    cfg = tmp_path / "order.ini"
    cfg.write_text(f"[run]\n{line}\n\n{ORACLE_SECTIONS[command]}")
    out = tmp_path / "order"
    assert run_cli(command, cfg, out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ALL_COMMANDS)
@pytest.mark.parametrize("line, message", [
    ("alpha = 1.5", "order must lie strictly inside (0, 1), not 1.5"),
    ("alpha = nan", "order must lie strictly inside (0, 1), not nan"),
    ("n = 0", "ambient graph dimension must be >= 1, not 0"),
])
def test_every_command_rejects_an_order_or_dimension_before_it_computes(
        command, line, message, tmp_path, capsys, monkeypatch):
    """blowdown and slide with alpha = 1.5 exited 0 and recorded it, and
    barrier-verify and cone-sweep failed only once they computed."""
    _refuse_to_compute(monkeypatch, "graph_curvature", "direct_curvature", "verify_barrier",
                       "sweep_cone_constant", "rescale_for_slide", "slide",
                       "flatness_certificate", "holder_rescaling_check", "relative_perimeter")
    cfg = tmp_path / "order.ini"
    cfg.write_text(f"[run]\n{line}\n")
    out = tmp_path / "order"
    assert run_cli(command, cfg, out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()
