import json

import numpy as np
import pytest

from happer.cli import ScanConfig, build_parser, config_from_args, main


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


def test_weyl_compare_table(tmp_path):
    code, text = run(tmp_path, "weyl.csv",
                     ["weyl-compare", "--l", "1", "--k-grid", "1.0,2.0", "--mesh", "60"])
    assert code == 0
    rows = {float(r[0]): r for r in
            (ln.split(",") for ln in text.splitlines() if ln and not ln.startswith(("#", "k_")))}
    assert int(rows[2.0][1]) == 2 and int(rows[1.0][1]) == 0
    assert int(rows[2.0][2]) == 1 and int(rows[1.0][2]) == 1
    assert int(rows[2.0][5]) == 0


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


def test_config_file_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("l = 1\nx-range = 0.4:1.0:5\nmesh = 77\nformat = json\n")
    out = tmp_path / "o.json"
    code = main(["spectrum", "--config", str(cfg), "--format", "csv", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert text.startswith("# schema=1")  # CLI --format csv overrode the file
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith(("#", "x,"))]
    assert len(rows) == 5 * 9  # grid came from the file
    cfg.write_text("cluster = true\nwith-state = 1\n")  # switches are config keys too
    parsed = config_from_args(build_parser().parse_args(["dynamics", "--config", str(cfg)]))
    assert parsed.cluster and parsed.with_state
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
