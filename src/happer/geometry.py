"""Holonomies and Chern numbers on the field-direction sphere.

Two independent discretizations are provided:

* a link-variable (plaquette overlap determinant) scheme on a uniform
  grid, gauge invariant by construction and the default for quantized
  results;
* a finite-difference connection/curvature scheme that works in an
  explicitly smoothed gauge, supports equal-area meshes, and exposes the
  connection and curvature fields themselves.

Chern numbers are reported in two normalizations: ``fourpi`` uses the
prefactor 1/(4 pi) on the traced curvature integral (the monopole-charge
count, so a pure-precession band with field-projection k carries -k) and
``twopi`` is the standard 1/(2 pi) value, exactly twice the former.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .degenerate import gram_schmidt, raw_degenerate_vectors
from .errors import MeshResolutionError, SubspaceIsolationError
from .mesh import SphereMesh
from .model import ModelParams, hamiltonian_batch
from .spectrum import level_positions
from .tolerances import TOL

HBuilder = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ChernResult:
    """A quantized curvature integral in both normalizations."""

    fourpi: float
    twopi: float
    rounded: int
    deviation: float

    @classmethod
    def from_fourpi(cls, value: float) -> "ChernResult":
        rounded = int(np.rint(value))
        return cls(float(value), float(2 * value), rounded, abs(value - rounded))


def _check_quantized(value_fourpi: float, context: str) -> None:
    """Quantization gate: the twopi value must sit on the integer grid.

    Half-integer spins carry half-integer fourpi values, so the check is
    applied to twice the fourpi value and scaled back.
    """
    dev = abs(2 * value_fourpi - np.rint(2 * value_fourpi)) / 2
    if dev > TOL.chern_integer:
        raise MeshResolutionError(
            f"{context}: deviation {dev:.3f} from the quantized grid; refine the mesh")


def _happer_builder(p: ModelParams) -> HBuilder:
    return lambda th, ph: hamiltonian_batch(p, th, ph)


_ROW_BLOCK = 64  # theta rows per batched eigh call


def _eigen_grid(h_builder: HBuilder, n_theta: int, n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched eigendecomposition on the uniform (n_theta+1) x n_phi grid."""
    thetas = np.linspace(0.0, np.pi, n_theta + 1)
    phis = np.arange(n_phi) * (2 * np.pi / n_phi)
    probe = h_builder(np.array([0.0]), np.array([0.0]))
    dim = probe.shape[-1]
    w = np.empty((n_theta + 1, n_phi, dim))
    v = np.empty((n_theta + 1, n_phi, dim, dim), dtype=complex)
    for start in range(0, n_theta + 1, _ROW_BLOCK):
        stop = min(start + _ROW_BLOCK, n_theta + 1)
        th, ph = np.meshgrid(thetas[start:stop], phis, indexing="ij")
        w[start:stop], v[start:stop] = np.linalg.eigh(h_builder(th, ph))
    return w, v


def _check_isolated(w: np.ndarray, positions: Sequence[int], context: str) -> float:
    lo, hi = min(positions), max(positions)
    if sorted(positions) != list(range(lo, hi + 1)):
        raise ValueError(f"{context}: band positions must be contiguous, got {positions}")
    dim = w.shape[-1]
    gaps = []
    if lo > 0:
        gaps.append(float(np.min(w[..., lo] - w[..., lo - 1])))
    if hi < dim - 1:
        gaps.append(float(np.min(w[..., hi + 1] - w[..., hi])))
    gap = min(gaps, default=np.inf)
    if gap < TOL.subspace_isolation:
        raise SubspaceIsolationError(
            f"{context}: bands {positions} touch the rest of the spectrum (gap {gap:.2e}); "
            "perturb x away from the crossing or treat the whole cluster")
    return gap


def _plaquette_sum_scalar(link_theta: np.ndarray, link_phi: np.ndarray) -> np.ndarray:
    """Sum of plaquette phases from unit-modulus U(1) links; last axes broadcast."""
    plaq = (link_theta * link_phi[1:]
            * np.conj(np.roll(link_theta, -1, axis=1)) * np.conj(link_phi[:-1]))
    return np.angle(plaq).sum(axis=(0, 1))


def _link_chern_per_position(v: np.ndarray) -> np.ndarray:
    """fourpi-convention Chern of every band from plaquette overlap phases."""
    lt = np.einsum("ijdk,ijdk->ijk", v[:-1].conj(), v[1:])
    lp = np.einsum("ijdk,ijdk->ijk", v.conj(), np.roll(v, -1, axis=1))
    if min(np.min(np.abs(lt)), np.min(np.abs(lp))) < 1e-8:
        raise MeshResolutionError("singular band overlap on a mesh edge; refine the mesh")
    lt = lt / np.abs(lt)
    lp = lp / np.abs(lp)
    c_raw = _plaquette_sum_scalar(lt, lp) / (2 * np.pi)
    return -c_raw / 2


def _link_chern_subspace(frames: np.ndarray) -> float:
    """fourpi-convention Chern of one multiband subspace via overlap determinants."""

    def link(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        m = np.einsum("ijda,ijdb->ijab", a.conj(), b)
        det = np.linalg.det(m)
        mag = np.abs(det)
        if np.min(mag) < 1e-8:
            raise MeshResolutionError("singular subspace overlap on a mesh edge; refine the mesh")
        return det / mag

    lt = link(frames[:-1], frames[1:])
    lp = link(frames, np.roll(frames, -1, axis=1))
    c_raw = float(_plaquette_sum_scalar(lt, lp)) / (2 * np.pi)
    return -c_raw / 2


def chern_number_link_variable(p: ModelParams, labels: Sequence[int] | int,
                               mesh: SphereMesh | None = None) -> ChernResult:
    """Gauge-invariant Chern number of a level or degenerate cluster.

    Always evaluated on a uniform n_theta x phi_max grid (plaquette
    phases only telescope exactly on aligned rings); the mesh argument
    supplies the resolution.
    """
    mesh = mesh or SphereMesh()
    labels = (labels,) if isinstance(labels, int) else tuple(labels)
    positions = _positions_for(p, labels)
    w, v = _eigen_grid(_happer_builder(p), mesh.n_theta, mesh.phi_max)
    _check_isolated(w, positions, "link-variable Chern")
    value = _link_chern_subspace(v[..., list(positions)])
    _check_quantized(value, "link-variable Chern")
    return ChernResult.from_fourpi(value)


def chern_spectrum_link_variable(p: ModelParams, mesh: SphereMesh | None = None,
                                 h_builder: HBuilder | None = None,
                                 check: bool = True) -> list[ChernResult]:
    """Per-band Chern numbers (ascending energy order) in one grid pass."""
    mesh = mesh or SphereMesh()
    builder = h_builder or _happer_builder(p)
    w, v = _eigen_grid(builder, mesh.n_theta, mesh.phi_max)
    values = _link_chern_per_position(v)
    results = [ChernResult.from_fourpi(float(c)) for c in values]
    if check:
        for i, r in enumerate(results):
            _check_quantized(r.fourpi, f"band {i}")
    return results


def _positions_for(p: ModelParams, labels: Sequence[int]) -> tuple[int, ...]:
    pos = level_positions(p)
    return tuple(sorted(int(pos[lab - 1]) for lab in labels))


# ---------------------------------------------------------------------------
# smoothed-gauge connection / curvature pipeline


@dataclass
class _Row:
    theta: float
    phis: np.ndarray
    frames: np.ndarray  # (n, dim, d_sub)


@dataclass
class FrameField:
    """Smoothly gauged orthonormal frames on the mesh corner rows.

    Rows run north to south; the first mesh ring (touching theta = 0) is
    dropped, per-cell rows are exposed through ring_top / ring_bottom.
    """

    mesh: SphereMesh
    labels: tuple[int, ...]
    positions: tuple[int, ...]
    ring_start: int
    rows: list[_Row]
    top_index: dict[int, int]
    bottom_index: dict[int, int]

    @property
    def d_sub(self) -> int:
        return self.rows[0].frames.shape[-1]

    def ring_top(self, ring: int) -> _Row:
        return self.rows[self.top_index[ring]]

    def ring_bottom(self, ring: int) -> _Row:
        return self.rows[self.bottom_index[ring]]


def _align_rows(frames: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Rotate each frame by the polar unitary of its overlap with a reference."""
    m = np.einsum("nda,ndb->nab", frames.conj(), ref)
    u, s, vh = np.linalg.svd(m)
    if np.min(s) < 1e-6:
        raise SubspaceIsolationError("frame alignment is singular; subspace is not continuous")
    return np.einsum("nda,nab->ndb", frames, u @ vh)


def _nearest_phi_map(phis: np.ndarray, target_count: int) -> np.ndarray:
    return np.rint(phis * target_count / (2 * np.pi)).astype(int) % target_count


def _raw_frames_row(h_builder: HBuilder, theta: float, phis: np.ndarray,
                    positions: Sequence[int]) -> np.ndarray:
    th = np.full_like(phis, theta)
    w, v = np.linalg.eigh(h_builder(th, phis))
    lo, hi = min(positions), max(positions)
    gaps = np.full(len(phis), np.inf)
    if lo > 0:
        gaps = np.minimum(gaps, w[:, lo] - w[:, lo - 1])
    if hi < w.shape[-1] - 1:
        gaps = np.minimum(gaps, w[:, hi + 1] - w[:, hi])
    worst = int(np.argmin(gaps))
    if gaps[worst] < TOL.subspace_isolation:
        raise SubspaceIsolationError(
            f"subspace dimension is ambiguous at cell (theta={theta:.6f}, "
            f"phi={phis[worst]:.6f}): gap {gaps[worst]:.2e}")
    return v[..., list(positions)]


_ANALYTIC_POLE_MARGIN = 0.1


def smooth_gauge_states(p: ModelParams, labels: Sequence[int], mesh: SphereMesh | None = None,
                        source: str = "numerical") -> FrameField:
    """Orthonormal frames of the labelled subspace in a smooth gauge.

    Numerical frames are parallel-transported from a seed at the south
    pole: every corner row is aligned to the row below it by the polar
    unitary of the overlap matrix, which makes neighbouring frames agree
    to O(mesh spacing) everywhere (the transported gauge is single
    valued on the sphere minus the dropped north cap).

    With ``source="analytic"`` the closed-form degenerate bases are used
    directly wherever they are well conditioned (away from the poles),
    with numerically transported rows filling the polar margins; valid
    only for the full cluster at the crossing coupling, L in {1, 2}.
    """
    mesh = mesh or SphereMesh()
    labels = tuple(sorted(labels))
    positions = _positions_for(p, labels)
    builder = _happer_builder(p)
    edges = mesh.theta_edges()
    ring_start = 1

    # row coordinate plan, north to south; uniform meshes share rows
    plan: list[tuple[float, np.ndarray]] = []
    top_index: dict[int, int] = {}
    bottom_index: dict[int, int] = {}
    if mesh.scheme == "uniform":
        phis = mesh.ring_phis(ring_start)
        for r in range(ring_start, mesh.n_theta + 1):
            plan.append((float(edges[r]), phis))
        for r in range(ring_start, mesh.n_theta):
            top_index[r] = r - ring_start
            bottom_index[r] = r - ring_start + 1
    else:
        for r in range(ring_start, mesh.n_theta):
            phis = mesh.ring_phis(r)
            top_index[r] = len(plan)
            plan.append((float(edges[r]), phis))
            bottom_index[r] = len(plan)
            plan.append((float(edges[r + 1]), phis))

    if source == "analytic":
        lo, seeds = _analytic_seed(p, labels, plan)
    elif source == "numerical":
        lo, seeds = _south_pole_seed(builder, positions, plan)
    else:
        raise ValueError(f"unknown frame source {source!r}")
    rows = _transport(builder, positions, plan, lo, seeds)
    return FrameField(mesh, labels, positions, ring_start, rows, top_index, bottom_index)


def _south_pole_seed(builder: HBuilder, positions: Sequence[int],
                     plan: list[tuple[float, np.ndarray]]) -> tuple[int, list[np.ndarray]]:
    """Numerical frames of the southernmost row; one shared frame on the exact pole."""
    south = len(plan) - 1
    theta, phis = plan[south]
    raw = _raw_frames_row(builder, theta, phis, positions)
    if abs(theta - np.pi) < 1e-12:
        raw = np.broadcast_to(raw[0], raw.shape).copy()
    return south, [raw]


def _analytic_seed(p: ModelParams, labels: Sequence[int],
                   plan: list[tuple[float, np.ndarray]]) -> tuple[int, list[np.ndarray]]:
    """Closed-form frames of the rows at least _ANALYTIC_POLE_MARGIN from the poles."""
    l = {2: 1, 4: 2}.get(p.nuclear_two_l)
    if l is None:
        raise ValueError("analytic frames exist for L in {1, 2} only")
    x_star = p.crossing_x()
    if abs(p.x - x_star) > 1e-9:
        raise ValueError(f"analytic frames are defined at the crossing x = {x_star}")
    positions = _positions_for(p, labels)
    if len(positions) != p.nuclear_two_l + 1:
        raise ValueError("analytic frames cover the full degenerate cluster")
    idx = [i for i, (theta, _) in enumerate(plan)
           if _ANALYTIC_POLE_MARGIN < theta < np.pi - _ANALYTIC_POLE_MARGIN]
    if not idx:
        raise ValueError("mesh too coarse for analytic frames: no rows away from the poles")
    return idx[0], [gram_schmidt(raw_degenerate_vectors(l, np.full_like(phis, theta), phis))
                    for theta, phis in (plan[i] for i in idx)]


def _transport(builder: HBuilder, positions: Sequence[int],
               plan: list[tuple[float, np.ndarray]], lo: int,
               seeds: list[np.ndarray]) -> list[_Row]:
    """Rows lo.. hold the seeds; every other row is aligned to its neighbour, outward.

    A row that coincides with its neighbour (same theta and phi count)
    copies the neighbour's frames instead of being re-solved.
    """
    rows: list[_Row | None] = [None] * len(plan)
    for i, frames in enumerate(seeds, lo):
        rows[i] = _Row(*plan[i], frames)
    hi = lo + len(seeds) - 1
    outward = [(i, i - 1) for i in range(hi + 1, len(plan))]
    outward += [(i, i + 1) for i in range(lo - 1, -1, -1)]
    for i, n in outward:
        theta, phis = plan[i]
        ref = rows[n]
        if theta == ref.theta and len(phis) == len(ref.phis):
            frames = ref.frames.copy()
        else:
            raw = _raw_frames_row(builder, theta, phis, positions)
            frames = _align_rows(raw, ref.frames[_nearest_phi_map(phis, len(ref.phis))])
        rows[i] = _Row(theta, phis, frames)
    return rows  # type: ignore[return-value]


@dataclass
class ConnectionField:
    """Edge-integrated connection matrices per ring (finite-difference form)."""

    field: FrameField
    a_theta: dict[int, np.ndarray]       # (n_r, d, d) left theta-edges, top corners
    a_phi_top: dict[int, np.ndarray]     # (n_r, d, d) phi-edges along the top row
    a_phi_bottom: dict[int, np.ndarray]  # (n_r, d, d) phi-edges along the bottom row


def connection_discrete(frames: FrameField) -> ConnectionField:
    """Discrete connection one-form A = i(<frame|neighbour frame> - 1) per edge."""
    d = frames.d_sub
    eye = np.eye(d)
    a_theta: dict[int, np.ndarray] = {}
    a_phi_top: dict[int, np.ndarray] = {}
    a_phi_bottom: dict[int, np.ndarray] = {}
    for r in range(frames.ring_start, frames.mesh.n_theta):
        top = frames.ring_top(r).frames
        bottom = frames.ring_bottom(r).frames
        a_theta[r] = 1j * (np.einsum("nda,ndb->nab", top.conj(), bottom) - eye)
        a_phi_top[r] = 1j * (np.einsum("nda,ndb->nab", top.conj(), np.roll(top, -1, axis=0)) - eye)
        a_phi_bottom[r] = 1j * (np.einsum("nda,ndb->nab", bottom.conj(), np.roll(bottom, -1, axis=0)) - eye)
    return ConnectionField(frames, a_theta, a_phi_top, a_phi_bottom)


@dataclass
class CurvatureField:
    """Per-plaquette curvature matrices over the meshed sphere."""

    mesh: SphereMesh
    labels: tuple[int, ...]
    ring_start: int
    ring_theta: dict[int, float]
    ring_phis: dict[int, np.ndarray]
    curvature: dict[int, np.ndarray]     # (n_r, d, d) per ring
    solid_angle: dict[int, np.ndarray]

    def trace_sum(self) -> float:
        return float(sum(np.trace(f, axis1=-2, axis2=-1).real.sum()
                         for f in self.curvature.values()))

    def cap_compensation(self) -> float:
        """Estimated curvature content of the dropped north cap."""
        r0 = self.ring_start
        tr = np.trace(self.curvature[r0], axis1=-2, axis2=-1).real.sum()
        omega = self.solid_angle[r0].sum()
        return float(tr / omega * self.mesh.cap_solid_angle(r0))

    def to_csv(self, path) -> None:
        """Columns: theta, phi, Re tr F, cell solid angle."""
        with open(path, "w") as fh:
            fh.write("# schema=1\n")
            fh.write("theta,phi,re_tr_curvature,solid_angle\n")
            for r in sorted(self.curvature):
                tr = np.trace(self.curvature[r], axis1=-2, axis2=-1).real
                for phi, t, om in zip(self.ring_phis[r], tr, self.solid_angle[r]):
                    fh.write(f"{self.ring_theta[r]:.12g},{phi:.12g},{t:.12g},{om:.12g}\n")


def curvature_discrete(connections: ConnectionField) -> CurvatureField:
    """Per-plaquette curvature F = dA + i[A_theta, A_phi] from the edge connections."""
    frames = connections.field
    mesh = frames.mesh
    ring_theta: dict[int, float] = {}
    ring_phis: dict[int, np.ndarray] = {}
    curvature: dict[int, np.ndarray] = {}
    solid: dict[int, np.ndarray] = {}
    for r, a1 in connections.a_theta.items():
        a2t = connections.a_phi_top[r]
        a2b = connections.a_phi_bottom[r]
        a1_right = np.roll(a1, -1, axis=0)
        comm = np.einsum("nab,nbc->nac", a1, a2t) - np.einsum("nab,nbc->nac", a2t, a1)
        curvature[r] = a2b - a2t - a1_right + a1 + 1j * comm
        ring_theta[r] = frames.ring_top(r).theta
        ring_phis[r] = frames.ring_top(r).phis
        solid[r] = mesh.ring_solid_angle(r)
    return CurvatureField(mesh, frames.labels, frames.ring_start,
                          ring_theta, ring_phis, curvature, solid)


def chern_number(field: CurvatureField) -> ChernResult:
    """Traced curvature integral over the sphere, 1/(4 pi) normalization.

    The dropped polar cap is compensated by its solid angle times the
    curvature density of the nearest ring.
    """
    total = field.trace_sum() + field.cap_compensation()
    value = total / (4 * np.pi)
    _check_quantized(value, "curvature-integral Chern")
    return ChernResult.from_fourpi(value)


def curvature_field(p: ModelParams, labels: Sequence[int], mesh: SphereMesh | None = None,
                    source: str = "numerical") -> CurvatureField:
    """Convenience: smoothed frames -> connection -> curvature in one call."""
    frames = smooth_gauge_states(p, labels, mesh, source=source)
    return curvature_discrete(connection_discrete(frames))


def chern_number_curvature(p: ModelParams, labels: Sequence[int] | int,
                           mesh: SphereMesh | None = None,
                           source: str = "numerical") -> ChernResult:
    """Chern number via the smoothed-gauge curvature scheme."""
    labels = (labels,) if isinstance(labels, int) else tuple(labels)
    return chern_number(curvature_field(p, labels, mesh, source=source))


def loop_phase(p: ModelParams, labels: Sequence[int] | int, loop,
               mesh: SphereMesh | None = None, source: str = "numerical") -> float:
    """Geometric phase of a closed constant-latitude loop, by curvature sum.

    The loop must be given as a closed point sequence (first point
    repeated last).  The traced curvature of the enclosed north-side
    region is summed (Stokes form) and returned on the branch nearest
    that sum; a zero-area loop gives exactly 0.  Traversal direction
    follows the supplied phi ordering.  Defaults to a uniform mesh,
    where the partial curvature sum is markedly more accurate than on
    an equal-area one.
    """
    loop = np.asarray(loop, dtype=float)
    if loop.ndim != 2 or loop.shape[1] != 2:
        raise ValueError("loop must be a sequence of (theta, phi) points")
    dphi_close = np.angle(np.exp(1j * (loop[-1, 1] - loop[0, 1])))
    if abs(loop[0, 0] - loop[-1, 0]) > 1e-9 or abs(dphi_close) > 1e-9:
        raise ValueError("loop is not closed: first and last points differ")
    body = loop[:-1]
    if len(body) < 1:
        raise ValueError("empty loop")
    if np.allclose(body, body[0], atol=1e-12):
        return 0.0
    thetas = body[:, 0]
    if np.max(thetas) - np.min(thetas) > 1e-9:
        raise ValueError("only constant-latitude loops are supported")
    theta_loop = float(thetas[0])
    dphi = np.angle(np.exp(1j * np.diff(loop[:, 1])))
    winding = dphi.sum() / (2 * np.pi)
    if abs(abs(winding) - 1.0) > 1e-6:
        raise ValueError("loop must wind the sphere exactly once in phi")
    orientation = np.sign(winding)

    mesh = mesh or SphereMesh(scheme="uniform")
    labels = (labels,) if isinstance(labels, int) else tuple(labels)
    field = curvature_field(p, labels, mesh, source=source)
    pos = theta_loop / (np.pi / mesh.n_theta)
    r_loop = int(np.floor(pos + 1e-9))
    frac = pos - r_loop
    if r_loop <= field.ring_start:
        cap = field.cap_compensation()
        weight = (1 - np.cos(theta_loop)) / (1 - np.cos(mesh.theta_edges()[field.ring_start]))
        return float(orientation * cap * weight)
    total = field.cap_compensation()
    for r in range(field.ring_start, r_loop):
        total += float(np.trace(field.curvature[r], axis1=-2, axis2=-1).real.sum())
    if frac > 1e-9 and r_loop < mesh.n_theta:
        total += frac * float(np.trace(field.curvature[r_loop], axis1=-2, axis2=-1).real.sum())
    return float(orientation * total)
