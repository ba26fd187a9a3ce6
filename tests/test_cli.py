import hashlib
import json

import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from fracsurf.cli import main

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
    # the INI sets no pivot; it comes from the barrier height scale
    assert "pv_inner_radius = 0.05" in lines


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
    cfg = tmp_path / "cone.ini"
    cfg.write_text("""\
[cone-sweep]
epsilons = 0.4
oracle_samples = 20000
""")
    out = tmp_path / "cone"
    assert run_cli("cone-sweep", cfg, out) == 1
    assert "oracle_samples" in capsys.readouterr().err
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


def test_slide_touch_outcome_schema(small_config, tmp_path):
    out = tmp_path / "slide"
    assert run_cli("slide", small_config, out) == 0
    payload = json.loads((out / "outcome.json").read_text())
    assert sorted(payload.keys()) == ["H_at_touch", "eps_star", "err", "floor",
                                      "interpretation", "lambda",
                                      "touch_point", "verdict"]
    assert payload["verdict"] == "TOUCH_FOUND"
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


def test_barrier_verify_positive_exits_0(small_config, tmp_path):
    out = tmp_path / "bv"
    assert run_cli("barrier-verify", small_config, out) == 0
    payload = json.loads((out / "report.json").read_text())
    assert payload["verdict"] == "POSITIVE"
    assert payload["min_margin"] > 0.0
    assert payload["far_agrees"] is True
    assert payload["notes"] == []
    for sample in payload["samples"]:
        assert sorted(sample.keys()) == ["H", "err", "outer_radius", "point", "warnings"]
        assert sample["warnings"] == []


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
