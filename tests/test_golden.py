"""Golden outputs of small CLI runs: refactors must reproduce them.

Each file in ``tests/golden/`` holds one run: a first line ``exit <code>``
followed by the table the CLI printed.  Exit codes, integers and strings
must match exactly; every float, including those inside ``#`` annotation
lines, must agree to ``FLOAT_TOL`` absolute.

Rewrite the goldens (only when a change of output is intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from pathlib import Path

import pytest

from happer.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
FLOAT_TOL = 1e-9

RUNS = {
    "spectrum_half": ["spectrum", "--l", "1/2", "--x-range", "0.6:1.4:9"],
    "spectrum_anticrossing": ["spectrum", "--l", "1", "--y", "0.001", "--theta0", "1.0",
                              "--x-range", "0.55:0.8:11"],
    "chern_link_scan": ["chern", "--l", "1", "--x-range", "0.4:1.2:3", "--mesh", "50",
                        "--mesh-scheme", "uniform"],
    "chern_cluster": ["chern", "--l", "1", "--cluster", "--mesh", "50"],
    "chern_curvature_json": ["chern", "--l", "1", "--x", "1.0", "--mesh", "80",
                             "--mesh-scheme", "uniform", "--scheme", "curvature",
                             "--format", "json"],
    "chern_tilted_axis": ["chern", "--l", "1", "--x", "0.8", "--y", "0.1", "--axis", "1,0,0",
                          "--mesh", "50", "--mesh-scheme", "uniform"],
    "phase_levels": ["phase", "--l", "1", "--x", "1.0", "--mesh", "50"],
    "phase_cluster": ["phase", "--l", "1", "--cluster", "--mesh", "50"],
    "weyl_compare": ["weyl-compare", "--l", "1", "--k-grid", "1.0,2.0", "--mesh", "50",
                     "--mesh-scheme", "uniform"],
    "dynamics_zeeman": ["dynamics", "--l", "0", "--x", "0.0", "--steps-per-period", "400"],
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\bnan\b|\binf\b")


def render(args: list[str]) -> str:
    """Run the CLI in-process; return its exit code line and its output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(args))
    return f"exit {code}\n" + buf.getvalue()


def _is_int(token: str) -> bool:
    return re.fullmatch(r"[-+]?\d+", token) is not None


def _same_token(a: str, b: str) -> bool:
    if _is_int(a) and _is_int(b):
        return int(a) == int(b)
    fa, fb = float(a), float(b)
    if math.isnan(fa) or math.isnan(fb):
        return math.isnan(fa) and math.isnan(fb)
    return fa == fb or abs(fa - fb) <= FLOAT_TOL


def mismatches(expected: str, actual: str) -> list[str]:
    """Lines that differ beyond the comparison rule, as readable messages."""
    exp_lines, act_lines = expected.splitlines(), actual.splitlines()
    if len(exp_lines) != len(act_lines):
        return [f"line count {len(act_lines)} != {len(exp_lines)}"]
    out = []
    for n, (e, a) in enumerate(zip(exp_lines, act_lines), 1):
        e_text, a_text = _NUMBER.split(e), _NUMBER.split(a)
        e_nums, a_nums = _NUMBER.findall(e), _NUMBER.findall(a)
        if (e_text != a_text or len(e_nums) != len(a_nums)
                or not all(_same_token(x, y) for x, y in zip(e_nums, a_nums))):
            out.append(f"line {n}:\n  expected {e}\n  actual   {a}")
    return out


def test_comparison_rule():
    assert not mismatches("x=1 e=0.5 gap=1e-15", "x=1 e=0.5000000000001 gap=-2e-15")
    assert mismatches("label=3", "label=4")
    assert mismatches("e=0.5", "e=0.5001")
    assert mismatches("crossing: x=1", "anti-crossing: x=1")
    assert not mismatches("j=nan", "j=nan")


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    problems = mismatches(expected, render(RUNS[name]))
    assert not problems, "\n".join(problems[:10])


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, args in RUNS.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(render(args))
        print(f"wrote {name}")
