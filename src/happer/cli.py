"""Command-line scans: spectra, Chern tables, loop phases, trajectories,
and the momentum-space band-touching comparison.

Subcommands: spectrum | chern | phase | dynamics | weyl-compare.
Outputs are deterministic CSV (default) or JSON tables with a schema=1
header; the exit code is 0 only if every quantization and consistency
check in the run passed.  Each command takes only the options it reads
(``COMMANDS``), on the command line and in a config file alike.  Option
precedence: command line > config file (flat key=value lines) > built-in
defaults.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np

from .dynamics import (DriveProtocol, adiabatic_omega, cone_fit, geometric_phase_diagnostics,
                       initial_eigenstate, propagate)
from .errors import NormDriftError, SubspaceIsolationError
from .geometry import (ChernResult, _curvature_sets, _link_sets, _orbit_phases,
                       chern_number_curvature, chern_number_link_variable,
                       chern_spectrum_link_variable, loop_phase)
from .mesh import SphereMesh
from .model import FieldDirection, ModelParams, build_hamiltonian, semimetal_batch
from .operators import SpinQuantumNumber
from .spectrum import _levels, _resolve_labels, find_degeneracies, level_positions, track_levels
from .table import _csv_text
from .tolerances import TOL


@dataclass
class ScanConfig:
    """All knobs for one scan run."""

    two_l: int = 2
    x: float | None = None
    x_grid: tuple[float, ...] | None = None
    y: float = 0.0
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)
    theta0: float = float(np.pi / 6)
    phi0: float = 0.0
    mesh: int = 200
    mesh_scheme: str = "equal-area"
    scheme: str = "link"
    convention: str = "fourpi"
    fmt: str = "csv"
    out: str | None = None
    seed: int = 0
    cluster: bool = False
    level: int | None = None
    k_grid: tuple[float, ...] | None = None
    omega_factor: float = 1e-3
    steps_per_period: int = 8000
    periods: int = 1
    with_state: bool = False

    def __post_init__(self) -> None:
        if self.mesh < 50:
            raise ValueError("mesh resolution must be at least 50 rings")
        if self.x_grid is not None:
            g = np.asarray(self.x_grid)
            if len(g) == 0 or (len(g) > 1 and not np.all(np.diff(g) > 0)):
                raise ValueError("x grid must be nonempty and strictly increasing")
        if self.scheme not in ("link", "curvature"):
            raise ValueError(f"unknown chern scheme {self.scheme!r}")
        if self.convention not in ("fourpi", "twopi"):
            raise ValueError(f"unknown convention {self.convention!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        bad_k = [k for k in self.k_grid or () if not 0 < k < np.inf]
        if bad_k:
            raise ValueError(f"k-grid magnitudes must be positive and finite, got {bad_k[0]!r}")

    def params(self, x: float) -> ModelParams:
        return ModelParams(self.two_l, float(x), self.y,
                           FieldDirection(self.theta0, self.phi0), self.axis)

    def sphere_mesh(self) -> SphereMesh:
        return SphereMesh(self.mesh, 2 * self.mesh, self.mesh_scheme)

    def x_values(self) -> list[float]:
        if self.x_grid is not None:
            return [float(v) for v in self.x_grid]
        if self.x is not None:
            return [float(self.x)]
        raise ValueError("provide --x or --x-range")


@dataclass
class Table:
    columns: list[str]
    rows: list[Sequence]
    annotations: list[str] = field(default_factory=list)
    ok: bool = True
    meta: dict = field(default_factory=dict)


def write_table(table: Table, out: str | None, fmt: str) -> None:
    if fmt == "csv":
        notes = [f"{k}={table.meta[k]}" for k in sorted(table.meta)] + table.annotations
        text = _csv_text(table.columns, table.rows, notes)
    else:
        payload = {"schema": 1, "meta": table.meta, "columns": table.columns,
                   "rows": table.rows,
                   "annotations": table.annotations, "ok": table.ok}
        text = json.dumps(payload, indent=1, sort_keys=True) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _chern_columns(res: ChernResult) -> list:
    return [res.fourpi, res.twopi, res.rounded, res.deviation]


def _cluster(cfg: ScanConfig) -> tuple[ModelParams, tuple[int, ...], str]:
    """Params at --x (default: the crossing), the cluster there, and its deg(a+b+c) tag.

    The cluster is the lowest-energy run of two or more adjacent positions
    of the spectrum at x > 0, y = 0, whose neighbours lie within
    TOL.subspace_isolation, read from one labelled solve (_levels).
    """
    if cfg.x_grid is not None:
        raise ValueError("--cluster takes one coupling (--x), not --x-range")
    p = cfg.params(cfg.x if cfg.x is not None else cfg.params(1.0).crossing_x())
    if p.nuclear_two_l == 0:
        raise ValueError("L = 0 has no crossing cluster: its three levels (H = n.S at y = 0) "
                         "never cross")
    if p.y != 0.0:
        raise ValueError(f"exact clusters exist only at y = 0, got y = {p.y}")
    if p.x <= 0:
        raise ValueError(f"--cluster needs x > 0, got x = {p.x}")
    energies, _, positions, _ = _levels(p)
    touching = np.diff(energies) < TOL.subspace_isolation  # (b, b + 1) within the gate
    if not touching.any():
        raise ValueError(f"no exact crossing found near x = {p.x}")
    first = last = int(np.argmax(touching))
    while last < len(touching) and touching[last]:
        last += 1
    members = (positions >= first) & (positions <= last)
    labels = tuple(int(lab) + 1 for lab in np.flatnonzero(members))
    return p, labels, "deg(" + "+".join(map(str, labels)) + ")"


def cmd_spectrum(cfg: ScanConfig) -> Table:
    xs = cfg.x_grid
    if xs is None or len(xs) < 2:
        raise ValueError("spectrum scan needs an x grid (--x-range)")
    p0 = cfg.params(xs[0])
    track = track_levels(p0, np.asarray(xs))
    cols = ["x", "label", "energy"]
    rows = list(zip(np.repeat(xs, p0.dim).tolist(), list(range(1, p0.dim + 1)) * len(xs),
                    track.energies.ravel().tolist()))
    ok = not np.any(np.abs(track.energies.sum(axis=1)) > 1e-8)
    annotations = []
    for d in find_degeneracies(p0, (xs[0], xs[-1])):
        kind = "crossing" if d.exact else "anti-crossing"
        annotations.append(
            f"{kind}: x={d.x:.10g} labels={','.join(map(str, d.labels))} "
            f"multiplicity={d.multiplicity} energy={d.energy:.10g} gap={d.gap:.3g}")
    if p0.y == 0.0:
        # spectrum must not depend on the field direction
        rng = np.random.default_rng(cfg.seed)
        th, ph = rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi)
        w1 = np.linalg.eigvalsh(build_hamiltonian(p0.with_field(th, ph)))
        w2 = np.linalg.eigvalsh(build_hamiltonian(p0))
        if np.max(np.abs(w1 - w2)) > 1e-9:
            ok = False
            annotations.append("check-failed: spectrum is field-direction dependent")
    return Table(cols, rows, annotations, ok, {"command": "spectrum", "l": cfg.two_l / 2,
                                               "y": cfg.y, "seed": cfg.seed})


def cmd_chern(cfg: ScanConfig) -> Table:
    mesh = cfg.sphere_mesh()
    cols = ["x", "label", "ch_fourpi", "ch_twopi", "ch_rounded", "deviation", "j_expect",
            "flagged"]
    rows: list[list] = []
    annotations: list[str] = []
    ok = True
    meta = {"command": "chern", "scheme": cfg.scheme, "mesh": cfg.mesh}
    if cfg.convention == "twopi":
        meta["convention"] = "twopi (ch_twopi column)"
    if cfg.cluster:
        p, labels, tag = _cluster(cfg)
        res = chern_number_link_variable(p, labels, mesh) if cfg.scheme == "link" \
            else chern_number_curvature(p, labels, mesh)
        rows.append([p.x, tag, *_chern_columns(res), float("nan"), 0])
        annotations.append(f"cluster labels: {','.join(map(str, labels))}")
        return Table(cols, rows, annotations, ok, meta)
    for x in cfg.x_values():
        p = cfg.params(x)
        _, jexp, positions, _ = levels = _levels(p)
        per_position = _link_sets(p, mesh, None, None, levels) if cfg.scheme == "link" \
            else _curvature_sets(p, mesh, [(k,) for k in range(p.dim)], levels)
        for lab, pos in enumerate(positions, start=1):
            res, j = per_position[pos], float(jexp[pos])
            flagged = res.deviation > TOL.chern_integer
            ok &= not flagged
            if p.y == 0.0 and 2 * res.rounded != -np.rint(2 * j):
                ok = False
                annotations.append(f"check-failed: Ch != -J for x={x} label={lab}")
            rows.append([float(x), lab, *_chern_columns(res), j, int(flagged)])
    return Table(cols, rows, annotations, ok,
                 {**meta, "convention_note": "ch_fourpi = ch_twopi / 2"})


def cmd_phase(cfg: ScanConfig) -> Table:
    mesh = SphereMesh(cfg.mesh, 2 * cfg.mesh, "uniform")
    cols = ["x", "label", "gamma"]
    rows: list[list] = []
    annotations = [f"loop: theta={cfg.theta0:.10g}, phi 0..2pi"]
    if cfg.cluster:
        p, labels, tag = _cluster(cfg)
        rows.append([p.x, tag, loop_phase(p, labels, cfg.theta0, mesh)])
        return Table(cols, rows, annotations, True,
                     {"command": "phase", "mesh": cfg.mesh})
    for x in cfg.x_values():
        p = cfg.params(x)
        levels = _levels(p)
        per_position = _orbit_phases(p, cfg.theta0, mesh, [(k,) for k in range(p.dim)], levels)
        rows += [[float(x), lab + 1, float(gamma)]
                 for lab, gamma in enumerate(per_position[levels[2]])]
    return Table(cols, rows, annotations, True, {"command": "phase", "mesh": cfg.mesh})


def cmd_dynamics(cfg: ScanConfig) -> Table:
    if cfg.x is None:
        raise ValueError("dynamics needs --x")
    p = cfg.params(cfg.x)
    if cfg.level is not None and not 1 <= cfg.level <= p.dim:
        raise ValueError(f"--level must be a label in 1..{p.dim}, got {cfg.level}")
    omega = adiabatic_omega(p, cfg.theta0, cfg.omega_factor)
    proto = DriveProtocol(cfg.theta0, omega, cfg.periods)
    levels = [cfg.level] if cfg.level is not None else list(range(1, p.dim + 1))
    positions = level_positions(p)
    cols = ["level", "omega", "gamma", "j_cone_solid_angle", "j_cone_opening",
            "alignment_deg", "leakage", "distortion"]
    rows: list[list] = []
    annotations: list[str] = []
    ok = True
    psi0 = initial_eigenstate(p, proto, [int(positions[lab - 1]) for lab in levels])
    trajs = propagate(p, proto, psi0, cfg.steps_per_period,
                      record_every=max(1, cfg.steps_per_period // 400))
    for lab, traj, (gamma, fid) in zip(levels, trajs, geometric_phase_diagnostics(trajs, p, proto)):
        leakage = 1.0 - fid
        if leakage > 1.0 - TOL.adiabatic_fidelity:
            ok = False
            annotations.append(f"check-failed: leakage {leakage:.3g} at level {lab}")
        norms = np.linalg.norm(traj.j_avg, axis=1)
        if np.min(norms) > 1e-6:
            _, opening, solid, dev = cone_fit(traj.j_avg)
            unit = traj.j_avg / norms[:, None]
            n_t = np.stack([np.sin(cfg.theta0) * np.cos(omega * traj.times),
                            np.sin(cfg.theta0) * np.sin(omega * traj.times),
                            np.full_like(traj.times, np.cos(cfg.theta0))], axis=1)
            # angle between the lines of unit and n_t, 2 atan2(|u - s n|, |u + s n|) with
            # s = sign(u . n): unlike an arccos near 1, well conditioned at small angles
            n_t *= np.sign(np.einsum("ni,ni->n", unit, n_t))[:, None]
            align = float(np.degrees(np.max(2 * np.arctan2(
                np.linalg.norm(unit - n_t, axis=1), np.linalg.norm(unit + n_t, axis=1)))))
        else:
            opening = solid = dev = float("nan")
            align = float("nan")
        if dev == dev and dev > 0.05:
            annotations.append(f"distortion: level {lab} deviates {dev:.3g} rad from a cone")
        rows.append([lab, omega, gamma, solid, opening, align, leakage, dev])
        if cfg.out:
            stem = Path(cfg.out)
            traj_path = stem.with_name(stem.stem + f"_level{lab}_traj.csv")
            traj.to_csv(traj_path, with_state=cfg.with_state)
    return Table(cols, rows, annotations, ok,
                 {"command": "dynamics", "theta0": cfg.theta0, "x": cfg.x, "y": cfg.y})


def cmd_weyl_compare(cfg: ScanConfig) -> Table:
    if cfg.k_grid is None:
        raise ValueError("weyl-compare needs --k-grid")
    mesh = cfg.sphere_mesh()
    two_l = cfg.two_l
    k_weyl = (two_l + 1) / 2.0
    cols = ["k_mag", "lowest_band_ch", "band_sum_ch", "band_ch_list",
            "sm_lowest_band_ch", "sm_band_sum_ch"]
    rows: list[list] = []
    annotations = [f"band-touching sphere at |k| = {k_weyl:.10g}"]
    ok = True

    spin = SpinQuantumNumber(two_l)
    sm = chern_spectrum_link_variable(
        cfg.params(1.0), mesh, check=False,
        h_builder=(lambda th: semimetal_batch(spin, 1.0, th, np.zeros_like(th)), spin.m_values()))
    sm_sum = int(np.rint(sum(r.fourpi for r in sm)))
    if sm_sum != 0:
        ok = False
        annotations.append("check-failed: semimetal band sum is not 0")

    _, labels, _ = _cluster(cfg)
    for k_mag in cfg.k_grid:
        x_eff = 1.0 / k_mag
        p = cfg.params(x_eff)
        levels = _levels(p)
        try:  # y = 0 (_cluster), so a touching anywhere is a touching everywhere
            per_position = _link_sets(p, mesh, None, None, levels)
        except SubspaceIsolationError:
            annotations.append(f"skipped |k|={k_mag:.12g}: on the degeneracy sphere")
            continue
        _, positions = _resolve_labels(levels, labels)
        band_res = [per_position[pos] for pos in positions]
        if any(r.deviation > TOL.chern_integer for r in band_res):
            ok = False
        band_sum = int(np.rint(sum(r.fourpi for r in band_res)))
        if band_sum != 1:
            ok = False
            annotations.append(f"check-failed: projected band sum != 1 at |k|={k_mag}")
        rows.append([float(k_mag), band_res[0].rounded, band_sum,
                     ";".join(str(r.rounded) for r in band_res), sm[0].rounded, sm_sum])
    return Table(cols, rows, annotations, ok,
                 {"command": "weyl-compare", "l": two_l / 2, "mesh": cfg.mesh})


# Each command and the keys of the options it reads (see _OPTIONS); every
# command also takes --format, --out and --config.
COMMANDS = {
    "spectrum": (cmd_spectrum, ("l", "x-range", "y", "axis", "theta0", "phi0", "seed")),
    "chern": (cmd_chern, ("l", "x", "x-range", "y", "axis", "theta0", "phi0", "mesh",
                          "mesh-scheme", "scheme", "convention", "cluster")),
    "phase": (cmd_phase, ("l", "x", "x-range", "y", "axis", "theta0", "mesh", "cluster")),
    "dynamics": (cmd_dynamics, ("l", "x", "y", "axis", "theta0", "level", "omega-factor",
                                "steps-per-period", "periods", "with-state")),
    "weyl-compare": (cmd_weyl_compare, ("l", "mesh", "mesh-scheme", "k-grid")),
}
_COMMON_KEYS = ("format", "out")


def _parse_l(text: str) -> int:
    try:
        two_l = Fraction(text) * 2
    except (ValueError, ZeroDivisionError):
        two_l = None
    if two_l is None or two_l.denominator != 1 or two_l < 0:
        raise argparse.ArgumentTypeError(f"L must be a non-negative (half-)integer, got {text}")
    return int(two_l)


def _parse_range(text: str) -> tuple[float, ...]:
    try:
        start, stop, count = text.split(":")
        return tuple(np.linspace(float(start), float(stop), int(count)).tolist())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"x-range is start:stop:count (two numbers and a count), got {text!r}") from None
    except MemoryError:
        raise argparse.ArgumentTypeError(
            f"x-range count {count} does not fit in memory, got {text!r}") from None


def _parse_vector(text: str, form: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{form}, got {text!r}") from None


def _read_config_file(path: str) -> dict:
    values: dict = {}
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_bool(text: str) -> bool:
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# Every scan option, declared once: flag (also its config-file key), ScanConfig
# field, value parser, extra argparse settings.  Boolean options are switches.
# COMMANDS says which command takes which.
_OPTIONS = {
    "l": ("two_l", _parse_l, {"help": "nuclear spin L (e.g. 1, 2, 1/2, 3/2)"}),
    "x": ("x", float, {}),
    "x-range": ("x_grid", _parse_range, {"help": "start:stop:count"}),
    "y": ("y", float, {}),
    "axis": ("axis", partial(_parse_vector, form="axis is ax,ay,az (three numbers)"),
             {"help": "internuclear axis, e.g. 0,0,1"}),
    "theta0": ("theta0", float, {"help": "field polar angle / loop latitude"}),
    "phi0": ("phi0", float, {}),
    "mesh": ("mesh", int, {"help": "sphere rings (>= 50)"}),
    "mesh-scheme": ("mesh_scheme", str, {"choices": ["uniform", "equal-area"]}),
    "scheme": ("scheme", str, {"choices": ["link", "curvature"]}),
    "convention": ("convention", str, {"choices": ["fourpi", "twopi"]}),
    "format": ("fmt", str, {"choices": ["csv", "json"]}),
    "out": ("out", str, {}),
    "seed": ("seed", int, {}),
    "cluster": ("cluster", _parse_bool,
                {"help": "treat the degenerate multiplet as one subspace"}),
    "level": ("level", int, {}),
    "k-grid": ("k_grid", partial(_parse_vector, form="k-grid is k1,k2,... (numbers)"), {}),
    "omega-factor": ("omega_factor", float, {}),
    "steps-per-period": ("steps_per_period", int, {}),
    "periods": ("periods", int, {}),
    "with-state": ("with_state", _parse_bool, {}),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or with ``command`` of that command alone."""
    parser = argparse.ArgumentParser(prog="happer",
                                     description="Spectra and topological numbers of the "
                                                 "driven electron-nuclear spin model")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in COMMANDS.items():
        if command not in (None, name):
            continue
        # no abbreviations: `spectrum --x` must not be read as --x-range
        p = sub.add_parser(name, allow_abbrev=False)
        for key in (*keys, *_COMMON_KEYS):
            attr, parse, extra = _OPTIONS[key]
            kind = {"action": "store_true"} if parse is _parse_bool else {"type": parse}
            p.add_argument(f"--{key}", dest=attr, default=None, **kind, **extra)
        p.add_argument("--config", default=None, help="flat key=value config file")
        p.set_defaults(command_parser=p)
    return parser


def config_from_args(args: argparse.Namespace) -> ScanConfig:
    keys = (*COMMANDS[args.command][1], *_COMMON_KEYS)
    cfg = ScanConfig()
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key not in keys:
                raise ValueError(f"config key {key!r} is not an option of {args.command}")
            attr, parse, _ = _OPTIONS[key]
            try:
                value = parse(raw)
            except (argparse.ArgumentTypeError, ValueError) as exc:
                raise ValueError(f"config key {key!r}: {exc}") from exc
            cfg = replace(cfg, **{attr: value})
    overrides = {}
    for f in fields(ScanConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a call that names its command first needs only that command's options
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args, unknown = parser.parse_known_args(argv)
    if unknown:  # shown with the command's own usage, which lists the flags it takes
        usage = " ".join(args.command_parser.format_usage().split())
        parser.exit(2, f"{usage}\n{parser.prog}: error: unrecognized arguments: "
                       f"{' '.join(unknown)}\n")
    try:
        cfg = config_from_args(args)
        table = COMMANDS[args.command][0](cfg)
    except (ValueError, OSError, NormDriftError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    write_table(table, cfg.out, cfg.fmt)
    if cfg.out:
        sys.stdout.write(f"wrote {cfg.out} ({len(table.rows)} rows, "
                         f"{'ok' if table.ok else 'CHECKS FAILED'})\n")
    return 0 if table.ok else 1


if __name__ == "__main__":
    sys.exit(main())
