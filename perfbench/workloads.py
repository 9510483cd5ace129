"""Seeded task lists for the three benchmark workloads, and the checks on their outputs.

Each task is one in-process ``happer.cli.main`` call (output to a scratch
directory) or one direct library call where the CLI has no entry point.
A seed picks x values, field angles and ramp rates inside fixed windows
that stay clear of the crossing loci; the program only ever sees the
generated arguments.

Every check compares an output with a closed-form reference that the
code under test does not compute:

* Chern numbers of all levels at y = 0 (and away from the crossing for
  small y) form the multiset {-m} over the J = |L-1| .. L+1 multiplets,
  and sum to 0; the degenerate cluster carries +1;
* a constant-latitude loop phase is Ch * 2 pi (1 - cos theta0);
* the (2L+1)-fold crossing sits at x = 2/(2L+1) with energy -1/(2L+1);
* H is traceless, ramp populations sum to 1, and a ramp with the axis
  along z does not depend on the field azimuth.

Tolerances come from ``happer.tolerances.TOL`` and the acceptance suite.
"""

from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import happer.cli as cli
import happer.dynamics as dynamics
import happer.geometry as geometry
import happer.model as model
import happer.spectrum as spectrum
from happer.mesh import SphereMesh
from happer.tolerances import TOL

WORKLOADS = ("sphere", "drive", "sweep")

# Generated x values keep at least this distance from x* = 2/(2L+1).
X_MARGIN = 0.05
# Spectrum grid points keep at least this share of the grid step from x*.
GRID_MARGIN = 0.25
# Acceptance suite, criterion 2: crossing position and energy.
CROSSING_X_TOL = 1e-8
CROSSING_E_TOL = 1e-10
# Leakage out of the followed level allowed by the fidelity floor.
LEAKAGE_TOL = 1.0 - TOL.adiabatic_fidelity


# ---------------------------------------------------------------------------
# checks


class Checker:
    """Collects |output - reference| / tolerance ratios and failed predicates."""

    def __init__(self) -> None:
        self.worst = 0.0
        self.errors: list[str] = []

    def close(self, what: str, value: float, ref: float, tol: float) -> None:
        ratio = abs(float(value) - ref) / tol
        if not ratio <= 1.0:  # also catches NaN
            self.errors.append(f"{what}: {value!r} vs reference {ref!r} (tolerance {tol:g})")
            ratio = ratio if math.isfinite(ratio) else math.inf
        self.worst = max(self.worst, ratio)

    def true(self, what: str, ok: bool) -> None:
        """``what`` names a property of the output that must hold."""
        if not ok:
            self.errors.append(f"does not hold: {what}")

    def multiset(self, what: str, values, refs, tol: float) -> None:
        values, refs = sorted(float(v) for v in values), sorted(refs)
        if len(values) != len(refs):
            self.errors.append(f"{what}: {len(values)} values, expected {len(refs)}")
            return
        for v, r in zip(values, refs):
            self.close(what, v, r, tol)


def minus_m(two_l: int) -> list[float]:
    """-m over every state of the J = |L-1| .. L+1 multiplets (spin 1 x spin L)."""
    return [-two_m / 2 for two_j in range(abs(two_l - 2), two_l + 3, 2)
            for two_m in range(-two_j, two_j + 1, 2)]


def crossing_x(two_l: int) -> float:
    return 2.0 / (two_l + 1)


def cap_solid_angle(theta0: float) -> float:
    return 2 * np.pi * (1 - np.cos(theta0))


def phase_tolerance(theta0: float) -> float:
    """A loop phase divided by the cap solid angle is a Chern number; allow TOL.chern_integer."""
    return TOL.chern_integer * cap_solid_angle(theta0)


@dataclass
class Table:
    """A CLI output table: comment lines and rows keyed by column name."""

    notes: list[str]
    rows: list[dict[str, str]]

    def column(self, name: str, rows=None) -> list[float]:
        return [float(r[name]) for r in (self.rows if rows is None else rows)]

    def by_x(self) -> dict[float, list[dict[str, str]]]:
        groups: dict[float, list[dict[str, str]]] = {}
        for r in self.rows:
            groups.setdefault(float(r["x"]), []).append(r)
        return groups

    def notes_starting(self, prefix: str) -> list[dict[str, str]]:
        """Annotations like 'crossing: x=.. labels=..' parsed into key -> value."""
        return [dict(part.split("=", 1) for part in n[len(prefix):].split())
                for n in self.notes if n.startswith(prefix)]


def read_table(path: Path) -> Table:
    notes: list[str] = []
    lines = path.read_text().splitlines()
    i = 0
    while lines[i].startswith("#"):
        notes.append(lines[i][1:].strip())
        i += 1
    columns = lines[i].split(",")
    rows = [dict(zip(columns, line.split(","))) for line in lines[i + 1:] if line]
    return Table(notes, rows)


def check_chern_rows(rows, two_l: int, ck: Checker, what: str) -> None:
    values = [float(r["ch_fourpi"]) for r in rows]
    ck.multiset(f"{what}: Chern multiset", values, minus_m(two_l), TOL.chern_integer)
    ck.close(f"{what}: band sum", sum(values), 0.0, TOL.chern_integer)


def check_chern_table(two_l: int) -> Callable[[Table, Checker], None]:
    def check(t: Table, ck: Checker) -> None:
        for x, rows in t.by_x().items():
            check_chern_rows(rows, two_l, ck, f"x={x}")
    return check


def check_cluster_chern(t: Table, ck: Checker) -> None:
    ck.true("one cluster row", len(t.rows) == 1)
    ck.close("cluster Chern", float(t.rows[0]["ch_fourpi"]), 1.0, TOL.chern_integer)


def check_jump_table(two_l: int):
    """Levels 3 and 5 of L = 1 change Chern number across x*; 1, 2, 6-9 keep theirs."""
    def check(t: Table, ck: Checker) -> None:
        check_chern_table(two_l)(t, ck)
        groups = t.by_x()
        ck.true("one x below and one above x*", len(groups) == 2)
        below, above = ({int(r["label"]): int(r["ch_rounded"]) for r in groups[x]}
                        for x in (min(groups), max(groups)))
        for lab in (3, 5):
            ck.true(f"level {lab} jumps across x*", below[lab] != above[lab])
        for lab in (1, 2, 6, 7, 8, 9):
            ck.true(f"level {lab} keeps its Chern number", below[lab] == above[lab])
    return check


def check_phase_table(two_l: int, theta0: float):
    def check(t: Table, ck: Checker) -> None:
        omega = cap_solid_angle(theta0)
        for x, rows in t.by_x().items():
            ck.multiset(f"x={x}: loop phase / cap solid angle",
                        [g / omega for g in t.column("gamma", rows)], minus_m(two_l),
                        TOL.chern_integer)
    return check


def check_cluster_phase(theta0: float):
    def check(t: Table, ck: Checker) -> None:
        ck.true("one cluster row", len(t.rows) == 1)
        ck.close("cluster loop phase", float(t.rows[0]["gamma"]), cap_solid_angle(theta0),
                 phase_tolerance(theta0))
    return check


def check_weyl_table(ks: list[float]):
    """Lowest projected band 0 inside |k| = 3/2 and 2 outside; sums 1 and 0."""
    def check(t: Table, ck: Checker) -> None:
        got = t.column("k_mag")
        ck.true(f"one row per |k|: {got}", len(got) == len(ks)
                and all(abs(a - b) < 1e-9 for a, b in zip(got, ks)))
        for r in t.rows:
            k = float(r["k_mag"])
            ck.close(f"|k|={k}: lowest band", float(r["lowest_band_ch"]), 0.0 if k < 1.5 else 2.0,
                     TOL.chern_integer)
            ck.close(f"|k|={k}: projected band sum", float(r["band_sum_ch"]), 1.0,
                     TOL.chern_integer)
            ck.close(f"|k|={k}: semimetal band sum", float(r["sm_band_sum_ch"]), 0.0,
                     TOL.chern_integer)
    return check


def check_dynamics(two_l: int | None, theta0: float, levels: int):
    """Leakage below the fidelity floor; on the fast path, phases are -m * cap solid angle."""
    def check(t: Table, ck: Checker) -> None:
        ck.true(f"{levels} level rows", len(t.rows) == levels)
        for r in t.rows:
            ck.close(f"level {r['level']}: leakage", float(r["leakage"]), 0.0, LEAKAGE_TOL)
        if two_l is not None:
            omega = cap_solid_angle(theta0)
            ck.multiset("adiabatic phase / cap solid angle",
                        [g / omega for g in t.column("gamma")], minus_m(two_l), TOL.chern_integer)
    return check


def check_spectrum(two_l: int, y: float):
    def check(t: Table, ck: Checker) -> None:
        for x, rows in t.by_x().items():
            ck.close(f"x={x}: trace", sum(t.column("energy", rows)), 0.0, TOL.degeneracy_gap)
        crossings = t.notes_starting("crossing:")
        anti = t.notes_starting("anti-crossing:")
        if y == 0.0:
            ck.true(f"one crossing, got {len(crossings)}", len(crossings) == 1)
            ck.true("no anti-crossing at y = 0", not anti)
            for c in crossings:
                ck.close("crossing x", float(c["x"]), crossing_x(two_l), CROSSING_X_TOL)
                ck.close("crossing energy", float(c["energy"]), -1.0 / (two_l + 1), CROSSING_E_TOL)
                ck.true(f"crossing multiplicity {two_l + 1}",
                        int(c["multiplicity"]) == two_l + 1)
        else:
            ck.true("no exact crossing at y != 0", not crossings)
            ck.true("an anti-crossing near x*", bool(anti))
    return check


# ---------------------------------------------------------------------------
# tasks


@dataclass
class Task:
    """One unit of work: ``run`` calls the program, ``check`` judges what it returned."""

    name: str
    args: list[str]
    run: Callable[[Path], Any]
    check: Callable[[Any, Checker], None]


@dataclass
class CliRun:
    code: int
    stderr: str
    out: Path


def cli_task(name: str, args: list[str], check: Callable[[Table, Checker], None]) -> Task:
    def run(tmp: Path) -> CliRun:
        out = tmp / f"{name}.csv"
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli.main([*args, "--out", str(out)])
        return CliRun(code, err.getvalue().strip(), out)

    def judge(res: CliRun, ck: Checker) -> None:
        ck.true(f"exit code 0, got {res.code} {res.stderr}".strip(), res.code == 0)
        if res.code in (0, 1):
            check(read_table(res.out), ck)

    return Task(name, args, run, judge)


def library_task(name: str, args: dict, run: Callable[[], Any],
                 check: Callable[[Any, Checker], None]) -> Task:
    return Task(name, [f"{k}={v!r}" for k, v in args.items()], lambda tmp: run(), check)


class Inputs:
    """Seeded draws inside fixed windows, with the crossing-margin guard."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def uniform(self, lo: float, hi: float) -> float:
        return self.rng.uniform(lo, hi)

    def x(self, lo: float, hi: float, *two_ls: int) -> float:
        v = self.uniform(lo, hi)
        for two_l in two_ls:
            if abs(v - crossing_x(two_l)) < X_MARGIN:
                raise ValueError(f"generated x={v} is within {X_MARGIN} of the crossing "
                                 f"for 2L={two_l}")
        return v

    def grid(self, lo: tuple[float, float], hi: tuple[float, float], count: int,
             two_l: int) -> str:
        """An --x-range start:stop:count around x* whose points all keep clear of it."""
        x_star = crossing_x(two_l)
        for _ in range(1000):
            a, b = self.uniform(*lo), self.uniform(*hi)
            points = np.linspace(a, b, count)
            step = (b - a) / (count - 1)
            if a < x_star < b and np.min(np.abs(points - x_star)) >= GRID_MARGIN * step:
                return f"{a!r}:{b!r}:{count}"
        raise ValueError(f"no x grid around {x_star} clear of it")


def _l_text(two_l: int) -> str:
    return str(two_l // 2) if two_l % 2 == 0 else f"{two_l}/2"


def sphere_tasks(inp: Inputs) -> list[Task]:
    tasks = []
    for two_l, lo, hi in ((2, 0.8, 1.4), (4, 0.5, 1.2), (6, 0.4, 1.0)):
        x = inp.x(lo, hi, two_l)
        tasks.append(cli_task(f"chern_L{two_l // 2}",
                              ["chern", "--l", _l_text(two_l), "--x", repr(x), "--mesh", "50",
                               "--mesh-scheme", "uniform"], check_chern_table(two_l)))
    for two_l in (2, 4):
        tasks.append(cli_task(f"chern_cluster_L{two_l // 2}",
                              ["chern", "--l", _l_text(two_l), "--cluster", "--mesh", "50",
                               "--theta0", repr(inp.uniform(0.3, 2.8)),
                               "--phi0", repr(inp.uniform(0.0, 6.2))], check_cluster_chern))
    tasks.append(cli_task("chern_curvature_cluster_L1",
                          ["chern", "--l", "1", "--cluster", "--scheme", "curvature",
                           "--theta0", repr(inp.uniform(0.3, 2.8)),
                           "--phi0", repr(inp.uniform(0.0, 6.2)),
                           "--mesh", "100", "--mesh-scheme", "equal-area"], check_cluster_chern))
    for two_l, mesh in ((2, 80), (4, 100)):
        tasks.append(_analytic_cluster_task(inp, two_l, mesh))
    theta0, x = inp.uniform(0.45, 0.65), inp.x(0.8, 1.4, 2)
    tasks.append(cli_task("phase_L1", ["phase", "--l", "1", "--x", repr(x), "--theta0",
                                       repr(theta0), "--mesh", "60"],
                          check_phase_table(2, theta0)))
    theta0 = inp.uniform(0.45, 0.65)
    tasks.append(cli_task("phase_cluster_L1", ["phase", "--l", "1", "--cluster", "--theta0",
                                               repr(theta0), "--mesh", "60"],
                          check_cluster_phase(theta0)))
    ks = [inp.uniform(0.5, 1.35), inp.uniform(1.65, 3.0)]
    for k in ks:
        if abs(1.0 / k - crossing_x(2)) < X_MARGIN:
            raise ValueError(f"generated |k|={k} is too close to the band-touching sphere")
    tasks.append(cli_task("weyl_compare_L1",
                          ["weyl-compare", "--l", "1", "--k-grid", ",".join(map(repr, ks)),
                           "--mesh", "50", "--mesh-scheme", "uniform"], check_weyl_table(ks)))
    x_below, x_above = inp.x(0.5, 0.6, 2), inp.x(0.73, 0.85, 2)
    tasks.append(cli_task("chern_jumps_L1",
                          ["chern", "--l", "1", "--y", "0.001",
                           "--theta0", repr(inp.uniform(0.8, 1.2)),
                           "--phi0", repr(inp.uniform(0.0, 6.2)),
                           "--x-range", f"{x_below!r}:{x_above!r}:2", "--mesh", "50",
                           "--mesh-scheme", "uniform"],
                          check_jump_table(2)))
    return tasks


def _analytic_cluster_task(inp: Inputs, two_l: int, mesh: int) -> Task:
    theta, phi = inp.uniform(0.3, 2.8), inp.uniform(0.0, 6.2)
    x_star = crossing_x(two_l)

    def run():
        p = model.ModelParams(two_l, x_star, 0.0, model.FieldDirection(theta, phi))
        degs = spectrum.find_degeneracies(p, (x_star - 0.1, x_star + 0.1), scan_points=81)
        res = geometry.chern_number_curvature(p, degs[0].labels,
                                              SphereMesh(mesh, 2 * mesh, "equal-area"),
                                              source="analytic")
        return degs, res

    def check(out, ck: Checker) -> None:
        degs, res = out
        ck.true("one exact crossing", len(degs) == 1 and degs[0].exact)
        ck.close("analytic-frame cluster Chern", res.fourpi, 1.0, TOL.chern_integer)

    return library_task(f"chern_analytic_L{two_l // 2}",
                        {"two_l": two_l, "theta": theta, "phi": phi, "mesh": mesh}, run, check)


LZ_LEVEL = 3
LZ_SPAN = (0.61, 0.72)
LZ_DT_MAX = 2.0
LZ_STEP_BUDGET = 23000  # total ramp steps over the three rates, fixed so work does not vary


def lz_steps(rate: float) -> int:
    """Steps landau_zener_scan takes for one rate (its dt_max and min_steps rule)."""
    duration = (LZ_SPAN[1] - LZ_SPAN[0]) / rate
    return max(400, int(np.ceil(duration / LZ_DT_MAX)))


def drive_tasks(inp: Inputs) -> list[Task]:
    # The seed picks the two faster rates; the slowest takes the rest of a
    # fixed step budget, which puts it just above 2.5e-6.
    fast = [inp.uniform(1e-4, 2.5e-4), inp.uniform(2.5e-5, 7.5e-5)]
    rest = LZ_STEP_BUDGET - sum(lz_steps(r) for r in fast)
    slow = (LZ_SPAN[1] - LZ_SPAN[0]) / (LZ_DT_MAX * (rest - 0.5))
    rates = [slow, *reversed(fast)]
    theta, phi, turn = inp.uniform(0.8, 1.2), inp.uniform(0.0, 6.2), inp.uniform(0.5, 5.5)

    def run():
        p = model.ModelParams(2, 0.5, 1e-3, model.FieldDirection(theta, phi))
        scan = dynamics.landau_zener_scan(p, *LZ_SPAN, rates, level=LZ_LEVEL, dt_max=LZ_DT_MAX)
        turned = dynamics.landau_zener_scan(p.with_field(theta, phi + turn), *LZ_SPAN, rates[-1:],
                                            level=LZ_LEVEL, dt_max=LZ_DT_MAX)
        return scan, turned[0]

    def check(out, ck: Checker) -> None:
        scan, turned = out
        for r in scan:
            ck.close(f"rate {r.rate:.3g}: population sum", float(np.sum(r.populations)), 1.0,
                     TOL.norm_drift)
        probs = [r.transition_probability for r in scan]
        ck.true(f"transition probability rises with rate: {probs}",
                all(a < b for a, b in zip(probs, probs[1:])))
        ck.close("populations under a field-azimuth turn",
                 float(np.max(np.abs(turned.populations - scan[-1].populations))), 0.0,
                 TOL.norm_drift)

    tasks = [library_task("landau_zener_L1", {"rates": rates, "theta": theta, "phi": phi,
                                              "turn": turn}, run, check)]
    # Both drives keep x fixed. The midpoint-exponential step aliases when a
    # level spacing times the step nears 2 pi k, so the leakage and the phase
    # error spike at scattered x (and, off the z axis, theta0): 0.026 leakage
    # at x = 1.028, theta0 = 1.123 on the generic path with 4000 steps per
    # period. The generic drive is the reproduction-table point; the fast
    # path runs at x = 1, where its error does not depend on theta0.
    tasks.append(cli_task("dynamics_tilted_L1",
                          ["dynamics", "--l", "1", "--x", "0.8", "--y", "0.1", "--axis", "1,0,0",
                           "--theta0", "1.0", "--level", "1", "--steps-per-period", "4000"],
                          check_dynamics(None, 1.0, 1)))
    theta0 = inp.uniform(0.45, 0.65)
    tasks.append(cli_task("dynamics_fast_L1",
                          ["dynamics", "--l", "1", "--x", "1.0", "--theta0", repr(theta0),
                           "--steps-per-period", "16000"], check_dynamics(2, theta0, 9)))
    tasks.append(cli_task("chern_tilted_L1",
                          ["chern", "--l", "1", "--x", repr(inp.x(0.85, 1.3, 2)), "--y", "0.1",
                           "--axis", "1,0,0", "--mesh", "100", "--mesh-scheme", "uniform"],
                          check_chern_table(2)))
    return tasks


def sweep_tasks(inp: Inputs) -> list[Task]:
    tasks = []
    for two_l in range(1, 7):
        x_range = inp.grid((0.08, 0.15), (1.4, 1.6), 121, two_l)
        tasks.append(cli_task(f"spectrum_2L{two_l}",
                              ["spectrum", "--l", _l_text(two_l), "--x-range", x_range,
                               "--seed", str(inp.rng.randrange(1 << 30))],
                              check_spectrum(two_l, 0.0)))
    for two_l, lo, hi in ((2, (0.55, 0.6), (0.73, 0.8)), (4, (0.3, 0.34), (0.46, 0.5))):
        x_range = inp.grid(lo, hi, 101, two_l)
        tasks.append(cli_task(f"spectrum_y_L{two_l // 2}",
                              ["spectrum", "--l", _l_text(two_l), "--y", "0.001",
                               "--theta0", repr(inp.uniform(0.5, 1.4)), "--x-range", x_range],
                              check_spectrum(two_l, 1e-3)))
    for two_l in range(1, 7):
        tasks.append(_degeneracy_task(inp, two_l))
    return tasks


def _degeneracy_task(inp: Inputs, two_l: int) -> Task:
    theta, phi = inp.uniform(0.1, 3.0), inp.uniform(0.0, 6.2)

    def run():
        p = model.ModelParams(two_l, 0.5, 0.0, model.FieldDirection(theta, phi))
        return spectrum.find_degeneracies(p, (0.1, 1.5))

    def check(degs, ck: Checker) -> None:
        ck.true(f"one crossing on (0.1, 1.5), got {len(degs)}", len(degs) == 1)
        for d in degs:
            ck.close("crossing x", d.x, crossing_x(two_l), CROSSING_X_TOL)
            ck.close("crossing energy", d.energy, -1.0 / (two_l + 1), CROSSING_E_TOL)
            ck.true(f"exact crossing of multiplicity {two_l + 1}",
                    d.exact and d.multiplicity == two_l + 1)

    return library_task(f"degeneracies_2L{two_l}", {"two_l": two_l, "theta": theta, "phi": phi},
                        run, check)


MAKERS = {"sphere": sphere_tasks, "drive": drive_tasks, "sweep": sweep_tasks}

# Nuclear spins (2L) each workload builds Hamiltonians for, warmed up during set-up.
TWO_LS = {"sphere": (2, 4, 6), "drive": (2,), "sweep": (1, 2, 3, 4, 5, 6)}


def make_tasks(workload: str, seed: int) -> list[Task]:
    return MAKERS[workload](Inputs(seed))


def setup(workload: str) -> None:
    """Spin operators and one warm-up eigh for every matrix size the workload uses."""
    for two_l in TWO_LS[workload]:
        np.linalg.eigh(model.build_hamiltonian(model.ModelParams(two_l, 1.0)))
