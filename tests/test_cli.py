import argparse
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import happer
import happer.cli
from happer.cli import ScanConfig, build_parser, config_from_args, main
from happer.model import ModelParams
from happer.spectrum import eigensystem_with_j, find_degeneracies, level_positions
from happer.tolerances import TOL


def run(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, out.read_text()


def test_spectrum_csv_schema_and_crossing_annotation(tmp_path):
    code, text = run(tmp_path, "spec.csv",
                     ["spectrum", "--l", "1", "--x-range", "0.3:1.1:17", "--y", "0"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "# schema=1"
    assert any("crossing: x=0.666666" in ln for ln in lines)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header == "x,label,energy"


def test_spectrum_anticrossing_annotation(tmp_path):
    code, text = run(tmp_path, "spec.csv",
                     ["spectrum", "--l", "1", "--x-range", "0.55:0.8:21", "--y", "0.001",
                      "--theta0", "1.0"])
    assert code == 0
    assert "anti-crossing" in text


def test_output_is_deterministic(tmp_path):
    _, a = run(tmp_path, "a.csv", ["spectrum", "--l", "1", "--x-range", "0.3:1.0:9"])
    _, b = run(tmp_path, "b.csv", ["spectrum", "--l", "1", "--x-range", "0.3:1.0:9"])
    assert a == b


def test_chern_table_matches_conserved_quantity(tmp_path):
    code, text = run(tmp_path, "chern.csv",
                     ["chern", "--l", "1", "--x", "1.0", "--mesh", "60"])
    assert code == 0
    rows = [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith(("#", "x,"))]
    assert len(rows) == 9
    for row in rows:
        ch4, ch2, rounded, j = float(row[2]), float(row[3]), int(row[4]), float(row[6])
        assert abs(ch2 - 2 * ch4) < 1e-12
        assert rounded == -round(j)
        assert row[7] == "0"


def test_chern_curvature_scheme(tmp_path):
    code, text = run(tmp_path, "curv.csv",
                     ["chern", "--l", "0", "--x", "0.0", "--mesh", "64",
                      "--mesh-scheme", "uniform", "--scheme", "curvature"])
    assert code == 0
    rows = [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith(("#", "x,"))]
    assert [int(r[4]) for r in rows] == [1, 0, -1]


def test_curvature_rows_off_the_grid_are_flagged_not_fatal(tmp_path):
    # 100 equal-area rings leave labels 9 and 15 of 2L = 4 at x = 0.3 0.063
    # off the integers.  As in the link scheme, those rows are flagged, the
    # other rows are printed, and the run exits 1.
    code, text = run(tmp_path, "curv.csv",
                     ["chern", "--l", "2", "--x", "0.3", "--mesh", "100",
                      "--mesh-scheme", "equal-area", "--scheme", "curvature"])
    assert code == 1
    rows = [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith(("#", "x,"))]
    assert len(rows) == 15
    assert [int(r[1]) for r in rows if r[7] == "1"] == [9, 15]
    assert all(float(r[5]) <= TOL.chern_integer for r in rows if r[7] == "0")


def test_curvature_table_refuses_a_phi_step_too_large_for_a_band(capsys):
    # 50 equal-area rings at 2L = 9: labels 19 and 30 read +-4.5, unflagged,
    # where the link scheme gives +-5.5; their phi steps turn a frame past pi/2
    assert main(["chern", "--l", "4.5", "--x", "0.3", "--y", "0.01", "--scheme", "curvature",
                 "--mesh", "50"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: phi-edge overlap eigenphase ")
    assert err.endswith("; refine the mesh\n")


def test_chern_cluster_mode(tmp_path):
    code, text = run(tmp_path, "deg.csv",
                     ["chern", "--l", "1", "--cluster", "--mesh", "60"])
    assert code == 0
    row = next(ln for ln in text.splitlines() if ln.startswith("0.666"))
    fields = row.split(",")
    assert fields[1] == "deg(3+4+5)"
    assert int(fields[4]) == 1


def test_phase_zeeman_baseline(tmp_path):
    code, text = run(tmp_path, "phase.csv",
                     ["phase", "--l", "0", "--x", "0.0", "--mesh", "120"])
    assert code == 0
    rows = [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith(("#", "x,"))]
    gammas = {int(r[1]): float(r[2]) for r in rows}
    cap = 2 * np.pi * (1 - np.cos(np.pi / 6))
    assert abs(gammas[1] - cap) < 5e-3
    assert abs(gammas[2]) < 5e-3
    assert abs(gammas[3] + cap) < 5e-3


@pytest.mark.parametrize("coupling", [[], ["--y", "0.1"], ["--y", "0.1", "--axis", "1,0,0"]],
                         ids=["y=0", "axis-z", "tilted-axis"])
def test_covariant_phase_does_not_depend_on_the_mesh(tmp_path, coupling):
    # Every axis takes the closed form on the meridian about the axis;
    # --mesh only sets the gate.
    tables = []
    for mesh in ("50", "150"):
        code, text = run(tmp_path, "phase.csv",
                         ["phase", "--l", "1", "--x", "1.0", *coupling, "--mesh", mesh])
        assert code == 0
        assert f"# mesh={mesh}" in text.splitlines()
        tables.append([ln for ln in text.splitlines() if not ln.startswith("# mesh=")])
    assert tables[0] == tables[1]


def test_phase_refuses_a_touching_at_the_pole(capsys):
    # Levels at positions 2 and 3 meet (gap 6e-11) where the field lies
    # along the axis, where the closed form reads P(0).
    assert main(["phase", "--l", "1", "--x", "0.6653319987", "--y", "0.001",
                 "--mesh", "50"]) == 2
    assert "touch at (theta=0.000000" in capsys.readouterr().err


# Richardson limits (4 S_400 - S_200) / 3 of the Stokes sums in mesh
# coordinates on 200 and 400 uniform rings, the phase table's labels 1..6.
TILTED_PHASE_LIMITS = [0.47837442936023006, 1.6499419491944678, -0.6094495944786628,
                       -0.06005468495233026, -0.4710782647366119, -0.9877338736284247]


def test_tilted_axis_phase_table_is_the_fine_mesh_limit(tmp_path):
    # A tilted axis at y != 0 is not a symmetry orbit; its table is the
    # closed form integrated across the circles about the axis, the limit
    # the Stokes sum reaches as the mesh is refined.
    code, text = run(tmp_path, "phase.csv",
                     ["phase", "--l", "1/2", "--x", "0.8", "--y", "0.1", "--axis", "0.6,0,0.8",
                      "--mesh", "50"])
    assert code == 0
    rows = [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith(("#", "x,"))]
    assert [int(r[1]) for r in rows] == list(range(1, 7))
    assert np.max(np.abs(np.array([float(r[2]) for r in rows]) - TILTED_PHASE_LIMITS)) < 2e-6


def test_dynamics_summary_and_trajectories(tmp_path):
    code, text = run(tmp_path, "dyn.csv",
                     ["dynamics", "--l", "0", "--x", "0.0", "--level", "3",
                      "--steps-per-period", "3000"])
    assert code == 0
    lines = text.splitlines()
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.startswith("level,omega,gamma")
    row = lines[lines.index(header) + 1].split(",")
    assert int(row[0]) == 3
    assert abs(abs(float(row[2])) - 2 * np.pi * (1 - np.cos(np.pi / 6))) < 1e-2
    assert float(row[5]) < 1.0  # alignment in degrees
    traj = tmp_path / "dyn_level3_traj.csv"
    assert traj.exists()
    tlines = traj.read_text().splitlines()
    assert tlines[0] == "# schema=1"
    assert tlines[1] == "t,sx,sy,sz,lx,ly,lz,jx,jy,jz"


def test_dynamics_flags_distorted_trajectories(tmp_path):
    code, text = run(tmp_path, "dist.csv",
                     ["dynamics", "--l", "1", "--x", "0.8", "--y", "0.1",
                      "--axis", "1,0,0", "--theta0", "1.0", "--level", "1",
                      "--steps-per-period", "4000"])
    assert code == 0
    lines = text.splitlines()
    assert any(ln.startswith("# distortion:") for ln in lines)
    header = next(ln for ln in lines if not ln.startswith("#"))
    row = lines[lines.index(header) + 1].split(",")
    assert float(row[-1]) > 0.05  # distortion column


def test_dynamics_generic_path_passes_where_lab_frame_steps_alias(tmp_path):
    # A lab-frame midpoint step of H(t) aliases here and leaks 1.2e-2 out of level 1.
    code, text = run(tmp_path, "alias.csv",
                     ["dynamics", "--l", "1", "--x", "1.028", "--y", "0.1", "--axis", "1,0,0",
                      "--theta0", "1.123", "--level", "1", "--steps-per-period", "4000"])
    assert code == 0
    assert "check-failed" not in text


def test_dynamics_fast_path_phases_where_lab_frame_steps_alias(tmp_path):
    # Every level's phase is -m times the cap solid angle; a lab-frame split
    # step misses it here by 10% of the cap at 8000 steps per period.
    code, text = run(tmp_path, "alias_fast.csv",
                     ["dynamics", "--l", "1", "--x", "0.9924", "--steps-per-period", "8000"])
    assert code == 0
    p = ModelParams(2, 0.9924, 0.0)
    m = eigensystem_with_j(p)[1][level_positions(p)]
    cap = 2 * np.pi * (1 - np.cos(np.pi / 6))
    lines = text.splitlines()
    header = next(ln for ln in lines if not ln.startswith("#"))
    rows = [ln.split(",") for ln in lines[lines.index(header) + 1:]]
    assert [int(r[0]) for r in rows] == list(range(1, 10))
    for r in rows:
        miss = np.angle(np.exp(1j * (float(r[2]) + m[int(r[0]) - 1] * cap)))
        assert abs(miss) / cap < TOL.chern_integer


def test_weyl_compare_table(tmp_path):
    code, text = run(tmp_path, "weyl.csv",
                     ["weyl-compare", "--l", "1", "--k-grid", "1.0,2.0", "--mesh", "60"])
    assert code == 0
    rows = {float(r[0]): r for r in
            (ln.split(",") for ln in text.splitlines() if ln and not ln.startswith(("#", "k_")))}
    assert int(rows[2.0][1]) == 2 and int(rows[1.0][1]) == 0
    assert int(rows[2.0][2]) == 1 and int(rows[1.0][2]) == 1
    assert int(rows[2.0][5]) == 0


def test_weyl_compare_skips_the_degeneracy_sphere(tmp_path):
    # At |k| = (2L + 1) / 2 the per-band link table's isolation gate refuses
    # the touching levels, and the point is skipped rather than failed.
    code, text = run(tmp_path, "weyl_sphere.csv",
                     ["weyl-compare", "--l", "1", "--k-grid", "1.5", "--mesh", "50"])
    assert code == 0
    lines = text.splitlines()
    assert "# skipped |k|=1.5: on the degeneracy sphere" in lines
    assert lines[-1].startswith("k_mag,")  # the header alone


def test_weyl_compare_names_each_skipped_magnitude_as_the_table_prints_it(tmp_path):
    # Two skipped magnitudes 1e-10 apart are two notes, each with its own
    # |k| at the table's %.12g.
    code, text = run(tmp_path, "weyl_close.csv",
                     ["weyl-compare", "--l", "1", "--k-grid", "1.5,1.4999999999", "--mesh", "50"])
    assert code == 0
    skipped = [ln for ln in text.splitlines() if ln.startswith("# skipped")]
    assert skipped == ["# skipped |k|=1.5: on the degeneracy sphere",
                       "# skipped |k|=1.4999999999: on the degeneracy sphere"]


@pytest.mark.parametrize("value,shown", [("0", "0.0"), ("1,-1.0", "-1.0"), ("1e400", "inf"),
                                         ("nan", "nan")],
                         ids=["zero", "negative", "overflow", "nan"])
def test_weyl_compare_refuses_a_k_magnitude_that_is_not_positive_and_finite(tmp_path, capsys,
                                                                            value, shown):
    message = f"error: k-grid magnitudes must be positive and finite, got {shown}\n"
    assert main(["weyl-compare", "--l", "1", "--k-grid", value, "--mesh", "50"]) == 2
    assert capsys.readouterr() == ("", message)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"l = 1\nk-grid = {value}\nmesh = 50\n")
    assert main(["weyl-compare", "--config", str(cfg)]) == 2
    assert capsys.readouterr() == ("", message)


def test_weyl_compare_reference_is_spin_l(tmp_path):
    code, text = run(tmp_path, "weyl2.csv",
                     ["weyl-compare", "--l", "2", "--k-grid", "3.0", "--mesh", "50",
                      "--mesh-scheme", "uniform"])
    assert code == 0
    row = next(ln.split(",") for ln in text.splitlines() if ln.startswith("3,"))
    assert int(row[2]) == 1
    assert int(row[4]) == 2 and int(row[5]) == 0  # spin-2 k.F: charges 2, 1, 0, -1, -2


def test_json_format(tmp_path):
    code, text = run(tmp_path, "spec.json",
                     ["spectrum", "--l", "1", "--x-range", "0.4:1.0:7", "--format", "json"])
    assert code == 0
    payload = json.loads(text)
    assert payload["schema"] == 1
    assert payload["columns"] == ["x", "label", "energy"]
    assert payload["ok"] is True
    assert len(payload["rows"]) == 7 * 9
    assert [row[:2] for row in payload["rows"][8:10]] == [[0.4, 9], [0.5, 1]]
    assert all(type(row[1]) is int for row in payload["rows"])


def test_config_file_and_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("l = 1\nx-range = 0.4:1.0:5\nmesh = 77\nformat = json\n")
    out = tmp_path / "o.json"
    # spectrum solves no mesh, so its config file may not set one
    assert main(["spectrum", "--config", str(cfg), "--format", "csv", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: config key 'mesh' is not an option of spectrum\n"
    cfg.write_text("l = 1\nx-range = 0.4:1.0:5\nformat = json\n")
    code = main(["spectrum", "--config", str(cfg), "--format", "csv", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# schema=1")  # CLI --format csv overrode the file
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith(("#", "x,"))]
    assert len(rows) == 5 * 9  # grid came from the file
    # switches are config keys too, of the commands that take them
    cfg.write_text("cluster = true\n")
    assert config_from_args(build_parser().parse_args(["chern", "--config", str(cfg)])).cluster
    cfg.write_text("with-state = 1\n")
    parsed = config_from_args(build_parser().parse_args(["dynamics", "--config", str(cfg)]))
    assert parsed.with_state and not parsed.cluster
    cfg.write_text("cluster = maybe\n")
    assert main(["chern", "--config", str(cfg)]) == 2


def test_l_accepts_fractions(tmp_path):
    code, text = run(tmp_path, "half.csv",
                     ["spectrum", "--l", "1/2", "--x-range", "0.6:1.4:9"])
    assert code == 0
    assert any("crossing: x=1" in ln for ln in text.splitlines())


def test_bad_config_is_reported():
    assert main(["chern", "--l", "1", "--x", "1.0", "--mesh", "10"]) == 2


def test_scanconfig_validation():
    with pytest.raises(ValueError):
        ScanConfig(mesh=10)
    with pytest.raises(ValueError):
        ScanConfig(scheme="magic")
    with pytest.raises(ValueError):
        ScanConfig(x_grid=(1.0, 0.5))
    with pytest.raises(ValueError, match="seed"):
        ScanConfig(seed=-1)


@pytest.mark.parametrize("l_text, scheme", [("1/2", "link"), ("3/2", "link"),
                                            ("1/2", "curvature"), ("3/2", "curvature")],
                         ids=["1/2", "3/2", "1/2-curvature", "3/2-curvature"])
def test_half_integer_l_passes_its_own_check(tmp_path, l_text, scheme):
    # The curvature scheme rounds through chern_number's half grid on a frame
    # field; at 50 rings it deviates by about 0.009, the link scheme by < 1e-6.
    code, text = run(tmp_path, "half_chern.csv",
                     ["chern", "--l", l_text, "--x", "0.7", "--mesh", "50",
                      "--mesh-scheme", "uniform", "--scheme", scheme])
    assert code == 0
    rows = [ln.split(",") for ln in text.splitlines() if ln and not ln.startswith(("#", "x,"))]
    assert len(rows) == 3 * (int(l_text[0]) + 1)
    bound = 1e-6 if scheme == "link" else TOL.chern_integer
    for row in rows:
        ch4, rounded, dev, j = float(row[2]), float(row[4]), float(row[5]), float(row[6])
        assert dev < bound and row[7] == "0"
        assert rounded == -j and rounded % 1 == 0.5
        assert abs(ch4 - rounded) < bound


def test_bad_config_value_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("l = 1/3\nx = 1.0\n")
    assert main(["chern", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "'l'" in err


def test_norm_drift_exits_2(monkeypatch, capsys):
    import happer.dynamics
    from happer.tolerances import Tolerances
    monkeypatch.setattr(happer.dynamics, "TOL", Tolerances(norm_drift=-1.0))
    assert main(["dynamics", "--l", "0", "--x", "0.0", "--level", "1",
                 "--steps-per-period", "100"]) == 2
    assert capsys.readouterr().err.startswith("error: norm drift")


@pytest.mark.parametrize("args,message", [
    (["--level", "10"], "--level must be a label in 1..9, got 10"),
    (["--level", "0"], "--level must be a label in 1..9, got 0"),
    (["--omega-factor", "0"], "omega factor must be positive and finite, got 0.0"),
    (["--omega-factor", "inf"], "omega factor must be positive and finite, got inf"),
    (["--omega-factor", "-1"], "omega factor must be positive and finite, got -1.0"),
    (["--omega-factor", "nan"], "omega factor must be positive and finite, got nan"),
    (["--periods", "0"], "at least one period"),
    (["--x-range", "0.7:0.9:3"], "unrecognized arguments: --x-range 0.7:0.9:3"),
], ids=["level-above-dim", "level-zero", "omega-factor-zero", "omega-factor-inf",
        "omega-factor-negative", "omega-factor-nan", "zero-periods", "x-range"])
def test_dynamics_refuses_bad_drive_input(args, message, capsys):
    base = ["dynamics", "--l", "1", "--steps-per-period", "400"]
    if "--x-range" not in args:
        base += ["--x", "0.8"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic, so without a warning
        if "--x-range" in args:  # dynamics drives at one x and takes no grid
            with pytest.raises(SystemExit) as refused:
                main(base + args)
            assert refused.value.code == 2
        else:
            assert main(base + args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    *usage, last = captured.err.splitlines()  # argparse prints a usage line first
    assert len(usage) <= 1 and message in last
    assert last.startswith("happer: error:" if usage else "error:")


@pytest.mark.parametrize("level", [[], ["--level", "1"]], ids=["all-levels", "one-level"])
def test_dynamics_at_a_crossing_names_the_touching_levels(capsys, level):
    # y = 0 and x = 2/3, the 2L = 2 crossing: three levels meet on the whole
    # cone, so no drive frequency is adiabatic, whichever level is followed.
    assert main(["dynamics", "--l", "1", "--x", "0.6666666666666666",
                 "--steps-per-period", "400", *level]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: adiabatic drive: bands at positions ")
    assert "touch on the cone theta0=0.523599" in err and "omega" not in err


@pytest.mark.parametrize("args,message", [
    (["chern", "--l", "1", "--x", "nan", "--mesh", "50"], "coupling x must be finite, got nan"),
    (["spectrum", "--l", "1", "--y", "inf", "--x-range", "0.1:1:5"],
     "coupling y must be finite, got inf"),
    (["dynamics", "--l", "1", "--x", "nan", "--steps-per-period", "400"],
     "coupling x must be finite, got nan"),
    (["chern", "--l", "1", "--x", "0.8", "--y", "0.1", "--axis", "nan,0,1", "--mesh", "50"],
     "axis must be a unit vector, |a| = nan"),
    (["chern", "--l", "1", "--x", "0.8", "--phi0", "nan", "--mesh", "50"],
     "phi must be finite, got nan"),
], ids=["chern-x-nan", "spectrum-y-inf", "dynamics-x-nan", "chern-axis-nan", "chern-phi0-nan"])
def test_non_finite_model_input_exits_2(args, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic, so without a warning
        assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("y,axis,shown", [
    ("0.1", "1,0", "(1.0, 0.0)"), ("0", "1,0", "(1.0, 0.0)"),
    ("0.1", "1,0,0,0", "(1.0, 0.0, 0.0, 0.0)")], ids=["two", "two-at-y0", "four"])
def test_axis_without_three_components_exits_2(y, axis, shown, capsys):
    args = ["chern", "--l", "1", "--x", "0.8", "--y", y, "--axis", axis, "--mesh", "50"]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: axis must have three components, got {shown}\n"


@pytest.mark.parametrize("args", [
    ["--l", "1.5", "--x", "0.25", "--y", "0.25", "--axis", "0.6,0,0.8"],
    ["--l", "1", "--x", "0.6666666666666666"],
], ids=["touching-circle", "crossing-L1"])
def test_chern_table_refuses_touching_bands(args, capsys):
    # 2L = 3: bands 4 and 5 touch on the circle n . a = 0; L = 1: three
    # levels touch at the crossing.  No band of a touching pair has a Chern
    # number of its own, and no mesh refinement gives it one.
    assert main(["chern", *args, "--mesh", "50", "--mesh-scheme", "uniform"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: per-band link Chern, angles about the axis: bands at positions")
    assert "touch" in captured.err and "cluster" in captured.err


@pytest.mark.parametrize("args", [
    ["phase", "--l", "2", "--x-range", "0.1:1.5:15"],
    ["chern", "--l", "1", "--x", "0.6666666666666666", "--scheme", "curvature", "--mesh", "50"],
], ids=["phase-L2", "curvature-L1"])
def test_a_touching_at_y_zero_holds_on_the_whole_sphere(args, capsys):
    # At y = 0 the spectrum does not depend on the field direction, so the
    # refusal names no theta.
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "touch on the whole sphere (gap" in err and "theta=" not in err


@pytest.mark.parametrize("command", ["chern", "phase"])
def test_cluster_is_refused_off_y_zero(command, capsys):
    # At y != 0 every crossing is avoided, so there is no exact cluster to name.
    assert main([command, "--l", "1", "--y", "0.1", "--cluster", "--mesh", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exact clusters exist only at y = 0, got y = 0.1\n"


@pytest.mark.parametrize("command", ["chern", "phase"])
def test_cluster_is_refused_with_an_x_range(command, capsys):
    # A cluster is read at one coupling, so a range is refused, not dropped.
    assert main([command, "--l", "1", "--cluster", "--x-range", "0.3:0.9:3", "--mesh", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --cluster takes one coupling (--x), not --x-range\n"


@pytest.mark.parametrize("args", [["chern", "--scheme", "link"], ["chern", "--scheme", "curvature"],
                                  ["phase"]], ids=["chern-link", "chern-curvature", "phase"])
@pytest.mark.parametrize("x", ["0", "-0.3", "-0.6666666666666666"])
def test_cluster_is_refused_at_x_not_above_zero(args, x, capsys):
    # The crossing sits at x* = 2/(2L+1) > 0; x = 0 is H = n.S, whose three
    # (2L+1)-fold levels are no crossing cluster.
    assert main([*args, "--l", "1", "--cluster", "--mesh", "50", "--x", x]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --cluster needs x > 0, got x = {float(x)}\n"


@pytest.mark.parametrize("x", ["0.5", "2"])
def test_cluster_is_refused_away_from_a_crossing(x, capsys):
    assert main(["chern", "--l", "1", "--cluster", "--mesh", "50", "--x", x]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no exact crossing found near x = {float(x)}\n"


def _searched_cluster_labels(p):
    """Labels of the first exact crossing within 1e-6 of p.x found over p.x +- 20%, or None.

    The rule the one-spectrum cluster replaced, kept here as its oracle.
    """
    window = 0.2 * p.x
    degs = find_degeneracies(p, (p.x - window, p.x + window))
    exact = [d for d in degs if d.exact and abs(d.x - p.x) < 1e-6]
    return exact[0].labels if exact else None


@pytest.mark.parametrize("two_l", range(1, 17))
def test_cluster_labels_match_the_crossing_search(two_l):
    # The one-spectrum rule against the crossing search it replaces, at the
    # crossing x* and at every exact crossing in (0, 2).  Besides x*, those
    # are the three groups of H(0) = n.S, reported a round-off (or, for the
    # E = 0 tangency, ~1e-8) above 0.  There the search's window 0.2 x is
    # too narrow to solve a pencil in, and it refuses; the cluster is then
    # the lowest x = 0 group, the first one the crossing search reports.
    cfg = ScanConfig(two_l=two_l)
    p = cfg.params(1.0)
    degs = find_degeneracies(p, (0.0, 2.0))
    xs = [p.crossing_x()] + [d.x for d in degs if 0 < d.x < 2]
    assert any(abs(x - p.crossing_x()) < 1e-12 for x in xs[1:])
    for x in xs:
        _, labels, _ = happer.cli._cluster(ScanConfig(two_l=two_l, x=x))
        searched = _searched_cluster_labels(cfg.params(x))
        if searched is None:
            assert x < 1e-6 and degs[0].x < 1e-6
            searched = degs[0].labels
        assert labels == searched, x


@pytest.mark.parametrize("args", [
    ["spectrum", "--l", "1", "--theta0", "1.0", "--x-range", "0.1:1.5:29"],
    ["chern", "--l", "1", "--x", "0.5", "--theta0", "1.0", "--mesh", "50"],
    ["chern", "--l", "1", "--x", "0.5", "--theta0", "1.0", "--mesh", "100", "--scheme",
     "curvature"],
    ["chern", "--l", "1", "--cluster", "--mesh", "50"],
    ["phase", "--l", "1", "--x", "0.5", "--mesh", "50"],
    ["dynamics", "--l", "1", "--x", "0.8", "--steps-per-period", "400"],
    ["dynamics", "--l", "1", "--x", "0.8", "--axis", "1,0,0", "--theta0", "1.0",
     "--steps-per-period", "400"],
], ids=["spectrum", "chern-link", "chern-curvature", "chern-cluster", "phase", "dynamics",
        "dynamics-tilted-axis"])
def test_a_negligible_axis_term_is_y_zero(args, capsys):
    # |y| < 1e-100 builds the y = 0 Hamiltonian bit for bit, so every
    # command takes the y = 0 path: exact crossings, Ch = -J, the exact
    # cluster, closed-form phases and the unstepped drive.  Only the
    # y= meta line echoes the input.
    outputs = []
    for y in ("0", "1e-200"):
        code = main([*args, "--y", y])
        captured = capsys.readouterr()
        lines = [ln for ln in captured.out.splitlines() if not ln.startswith("# y=")]
        outputs.append((code, lines, captured.err))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


# The options each command takes besides --format, --out and --config.
COMMAND_FLAGS = {
    "spectrum": "l x-range y axis theta0 phi0 seed",
    "chern": "l x x-range y axis theta0 phi0 mesh mesh-scheme scheme convention cluster",
    "phase": "l x x-range y axis theta0 mesh cluster",
    "dynamics": "l x y axis theta0 level omega-factor steps-per-period periods with-state",
    "weyl-compare": "l mesh mesh-scheme k-grid",
}


def test_each_command_parser_holds_exactly_its_options():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(COMMAND_FLAGS)
    settable = 0
    for name, keys in COMMAND_FLAGS.items():
        flags = {s for a in commands.choices[name]._actions for s in a.option_strings}
        expected = {f"--{k}" for k in keys.split()} | {"--format", "--out", "--config"}
        assert flags - {"-h", "--help"} == expected, name
        settable += len(expected)
    assert settable == 56


@pytest.mark.parametrize("command,key,value", [
    ("spectrum", "mesh", "60"),
    ("spectrum", "x", "0.5"),  # not an abbreviation of --x-range either
    ("phase", "phi0", "0.3"),
    ("phase", "mesh-scheme", "uniform"),
    ("dynamics", "phi0", "0.3"),
    ("weyl-compare", "y", "0.1"),
    ("chern", "seed", "3"),
])
def test_a_command_refuses_an_option_it_does_not_read(tmp_path, capsys, command, key, value):
    with pytest.raises(SystemExit) as refused:
        main([command, "--l", "1", f"--{key}", value])
    assert refused.value.code == 2
    assert f"unrecognized arguments: --{key} {value}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main([command, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config key {key!r} is not an option of {command}\n"


@pytest.mark.parametrize("command", ["spectrum", "dynamics"])
def test_an_unknown_flag_is_reported_with_the_command_usage(capsys, command):
    with pytest.raises(SystemExit) as refused:
        main([command, "--l", "1", "--mesh", "60"])
    assert refused.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith(f"usage: happer {command} [-h] ")
    assert all(f"[--{key} " in usage or f"[--{key}]" in usage
               for key in COMMAND_FLAGS[command].split())
    assert error == "happer: error: unrecognized arguments: --mesh 60"
    with pytest.raises(SystemExit) as helped:  # the top-level help is unchanged
        main(["--help"])
    assert helped.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()


def subcommands(parser):
    return list(next(a for a in parser._actions
                     if isinstance(a, argparse._SubParsersAction)).choices)


@pytest.fixture
def built(monkeypatch):
    """The subcommands of every parser that main builds."""
    seen = []

    def spy(command=None):
        parser = build_parser(command)
        seen.append(subcommands(parser))
        return parser

    monkeypatch.setattr(happer.cli, "build_parser", spy)
    return seen


def test_a_command_call_builds_only_that_command(tmp_path, built):
    assert main(["chern", "--l", "1", "--x", "0.8", "--mesh", "50",
                 "--out", str(tmp_path / "c.csv")]) == 0
    assert main(["spectrum", "--l", "1", "--x-range", "0.3:1.0:5",
                 "--out", str(tmp_path / "s.csv")]) == 0
    assert built == [["chern"], ["spectrum"]]


@pytest.mark.parametrize("args", [[], ["-h"], ["nosuch"], ["--l", "1", "chern"]],
                         ids=["empty", "help", "unknown", "flag-first"])
def test_a_call_without_a_leading_command_builds_every_command(built, capsys, args):
    with pytest.raises(SystemExit):
        main(args)
    assert built == [list(COMMAND_FLAGS)]


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_command_help_is_the_full_parser_help(capsys, command):
    with pytest.raises(SystemExit) as helped:
        main([command, "--help"])
    assert helped.value.code == 0
    alone = capsys.readouterr()
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--help"])
    assert alone == capsys.readouterr()
    assert alone.out.startswith(f"usage: happer {command} [-h] ")


def test_an_unknown_command_lists_every_command(capsys):
    with pytest.raises(SystemExit) as refused:
        main(["nosuch"])
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: happer [-h] {spectrum,chern,phase,dynamics,weyl-compare} ...")
    assert err.splitlines()[-1] == (
        "happer: error: argument command: invalid choice: 'nosuch' (choose from 'spectrum', "
        "'chern', 'phase', 'dynamics', 'weyl-compare')")


def test_short_help_is_the_full_parser_help(capsys):
    with pytest.raises(SystemExit) as helped:
        main(["-h"])
    assert helped.value.code == 0
    assert capsys.readouterr().out == build_parser().format_help()


@pytest.mark.parametrize("command,key,value,message", [
    ("chern", "axis", "a,b,c", "axis is ax,ay,az (three numbers), got 'a,b,c'"),
    ("weyl-compare", "k-grid", "1,x", "k-grid is k1,k2,... (numbers), got '1,x'"),
    ("chern", "x-range", "a:b:3",
     "x-range is start:stop:count (two numbers and a count), got 'a:b:3'"),
    ("spectrum", "x-range", "0:1",
     "x-range is start:stop:count (two numbers and a count), got '0:1'"),
    ("spectrum", "x-range", "0:1:-2",
     "x-range is start:stop:count (two numbers and a count), got '0:1:-2'"),
    ("phase", "l", "x", "L must be a non-negative (half-)integer, got x"),
    ("dynamics", "l", "1/0", "L must be a non-negative (half-)integer, got 1/0"),
])
def test_a_value_that_does_not_parse_is_named_by_its_form(tmp_path, capsys, command, key, value,
                                                          message):
    with pytest.raises(SystemExit) as refused:
        main([command, f"--{key}", value])
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"happer {command}: error: argument --{key}: {message}"
    assert "_parse_" not in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: config key {key!r}: {message}\n"


@pytest.mark.parametrize("command", ["spectrum", "chern", "phase"])
def test_an_x_range_count_beyond_memory_is_refused_by_name(monkeypatch, tmp_path, capsys,
                                                           command):
    # The grid is never allocated: linspace stands in for an allocation that fails.
    def no_memory(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(np, "linspace", no_memory)
    text = "0:1:10000000000"
    message = f"x-range count 10000000000 does not fit in memory, got {text!r}"
    with pytest.raises(SystemExit) as refused:
        main([command, f"--x-range={text}"])
    assert refused.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1] == f"happer {command}: error: argument --x-range: {message}"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"x-range = {text}\n")
    assert main([command, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: config key 'x-range': {message}\n"


@pytest.mark.parametrize("key,value,message", [
    ("x", "abc", "could not convert string to float: 'abc'"),
    ("mesh", "5.5", "invalid literal for int() with base 10: '5.5'"),
    ("cluster", "maybe", "expected a boolean, got 'maybe'"),
])
def test_a_config_value_that_does_not_parse_names_its_key(tmp_path, capsys, key, value, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(["chern", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: config key {key!r}: {message}\n"


def test_a_negative_seed_is_refused_by_name(tmp_path, capsys):
    args = ["spectrum", "--l", "1", "--x-range", "0.3:1.0:5"]
    assert main([*args, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = -1\n")
    assert main([*args, "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"


@pytest.mark.parametrize("args", [["chern", "--cluster"], ["phase", "--cluster"],
                                  ["weyl-compare", "--k-grid", "1.0"]],
                         ids=["chern", "phase", "weyl-compare"])
def test_cluster_is_refused_at_l_zero(args, capsys):
    # L = 0 (H = n.S at y = 0) has three levels that never cross.
    assert main([args[0], "--l", "0", *args[1:], "--mesh", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: L = 0 has no crossing cluster")


def run_python(code):
    """Run code in a fresh interpreter that imports happer from this source tree."""
    env = {**os.environ, "PYTHONPATH": str(Path(happer.__file__).resolve().parent.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=300)


def test_importing_happer_loads_no_scipy():
    done = run_python("import sys, happer, happer.cli; "
                      "print(sorted(name for name in sys.modules if name.startswith('scipy')))")
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_commands_run_without_scipy():
    # A None entry in sys.modules makes every import of scipy raise ImportError.
    done = run_python("""
import sys
import warnings
sys.modules["scipy"] = None
from happer.cli import main
codes = [main(["spectrum", "--l", "1", "--x-range=-0.3:0.3:21"]),
         main(["spectrum", "--l", "2", "--y", "0.001", "--theta0", "1.0",
               "--x-range", "0.3:0.5:101"]),
         main(["chern", "--l", "1", "--x", "1.0", "--mesh", "50", "--mesh-scheme", "uniform"])]
print("exit codes", codes)
""")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "exit codes [0, 0, 0]"
    assert "# crossing: x=" in done.stdout and "# anti-crossing: x=" in done.stdout


def test_label_lookups_turn_no_eigenvector_to_the_lab(monkeypatch, capsys):
    # level_positions, the chern tables (per band and --cluster) and the
    # drive read labels from the field-frame block solve alone; only
    # eigensystem_with_j turns its eigenvectors to the lab.
    turns = []
    real = happer.spectrum._turned

    def spy(*args, **kwargs):
        turns.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(happer.spectrum, "_turned", spy)
    for y, axis in ((0.0, "0,0,1"), (0.1, "1,0,0")):
        p = ModelParams(2, 0.8, y, axis=tuple(map(float, axis.split(","))))
        level_positions(p)
        for scheme in ("link", "curvature"):
            assert main(["chern", "--l", "1", "--x", "0.8", "--y", str(y), "--axis", axis,
                         "--scheme", scheme, "--mesh", "50", "--mesh-scheme", "uniform"]) == 0
        assert main(["dynamics", "--l", "1", "--x", "0.8", "--y", str(y), "--axis", axis,
                     "--level", "1", "--steps-per-period", "400"]) == 0
    for scheme in ("link", "curvature"):
        assert main(["chern", "--l", "1", "--cluster", "--scheme", scheme, "--mesh", "50",
                     "--mesh-scheme", "uniform"]) == 0
    capsys.readouterr()
    assert turns == []
    es, _ = eigensystem_with_j(p)
    assert turns == [1]
    v, h = es.eigenvectors, happer.model.build_hamiltonian(p)
    assert np.max(np.abs(h @ v - v * es.eigenvalues)) < TOL.eigen_residual
    assert np.max(np.abs(v.conj().T @ v - np.eye(p.dim))) < TOL.orthonormality


@pytest.mark.parametrize("args", [
    ["--l", "1", "--x", "1.0"],
    ["--l", "2", "--x-range", "0.3:1.2:4", "--theta0", "2.0"],
    ["--l", "3/2", "--x", "1.5", "--theta0", "0"],
    ["--l", "1", "--x", "0.8", "--y", "0.1", "--axis", "1,0,0", "--theta0", "0"],
    ["--l", "1", "--cluster", "--theta0", "0"],
], ids=["L1", "L2-scan", "L3/2-pole", "tilted-pole", "cluster-pole"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_no_phase_is_written_as_minus_zero(args, fmt, capsys):
    assert main(["phase", *args, "--mesh", "50", "--format", fmt]) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        gammas = [row.rsplit(",", 1)[1] for row in out.splitlines()[1:]
                  if not row.startswith("#")][1:]
    else:
        gammas = [json.dumps(row[-1]) for row in json.loads(out)["rows"]]
    assert gammas and not [g for g in gammas if float(g) == 0.0 and g.startswith("-")]
    if "--theta0" in args and args[args.index("--theta0") + 1] == "0":
        assert set(gammas) == {"0" if fmt == "csv" else "0.0"}
