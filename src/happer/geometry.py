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

Every model eigensolve on the sphere goes through _eigen_grid.  When H
is covariant under rotations about z, v(theta, phi) = e^{-i phi J_z}
v(theta, 0), and only the phi = 0 meridian is solved.  Every link Chern
number is read from that meridian: a tilted axis is rotated onto z
together with the mesh (_link_meridian), a caller's h_builder supplies
H(theta, 0) and its J_z diagonal, and every plaquette of a ring carries
the same phase (_link_chern).  Only the frames of a tilted axis, which
expose fields in mesh coordinates, are solved point by point.

The curvature scheme is factored the same way.  z-covariant frames are
F(theta, phi) = R(phi) F(theta, 0) D(phi), with R(phi) = e^{-i phi J_z} and
D a unitary representation of the phi rotations (_meridian_rows), so every
edge connection and every plaquette curvature of a ring is
D(phi_n)^dag X D(phi_n) for one d x d matrix X per ring.  Chern numbers,
loop phases and the curvature CSV read n_phi tr X per ring; the per-point
frames, connections and curvatures are built only when read.  Rings that
meet at the same (theta, phi count) share one frame row.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .degenerate import degenerate_energy, gram_schmidt, raw_degenerate_vectors
from .errors import MeshResolutionError, SubspaceIsolationError
from .mesh import SphereMesh
from .model import (ModelParams, _jz_diagonal, _z_covariant, build_hamiltonian,
                    hamiltonian_batch)
from .spectrum import _check_isolated, _half_grid, _resolve_labels
from .tolerances import TOL

FrameBuilder = Callable[[np.ndarray, np.ndarray], np.ndarray]  # (thetas, phis) -> frames
_Covariant = tuple[Callable[[np.ndarray], np.ndarray], np.ndarray]  # (thetas -> H(theta, 0), m)


@dataclass(frozen=True)
class ChernResult:
    """A quantized curvature integral in both normalizations."""

    fourpi: float
    twopi: float
    rounded: int | float
    deviation: float

    @classmethod
    def from_fourpi(cls, value: float, half: bool = False) -> "ChernResult":
        """Round onto the integers, or onto Z + 1/2 when ``half`` (see _half_grid)."""
        rounded = float(np.floor(value) + 0.5) if half else int(np.rint(value))
        return cls(float(value), float(2 * value), rounded, abs(value - rounded))


def _check_quantized(result: ChernResult, context: str) -> ChernResult:
    """Quantization gate on the result's own grid (Z or Z + 1/2, see _half_grid)."""
    if result.deviation > TOL.chern_integer:
        raise MeshResolutionError(
            f"{context}: deviation {result.deviation:.3f} from the quantized grid; refine the mesh")
    return result


def _eigen_grid(p: ModelParams, thetas: np.ndarray,
                phis: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs on the thetas x phis grid, shapes (n_t, n_p, d) and (n_t, n_p, d, d).

    One batched eigh, point by point: _meridian_rows and the link scheme
    call it at phi = 0 only, and _transport one ring at a time.
    """
    th, ph = np.meshgrid(thetas, phis, indexing="ij")
    return np.linalg.eigh(hamiltonian_batch(p, th, ph))


def _link_meridian(p: ModelParams, mesh: SphereMesh, h_builder: _Covariant | None = None
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs (w0, F0) at phi = 0 on the mesh's theta edges, and the J_z diagonal m.

    The model is solved with its axis along z.  With Q a rotation taking
    z to the axis a and D(Q) its spin representation,
    H(Q n; a) = D H(n; z) D^dag, so the z-axis meridian is the tilted
    problem on a mesh whose poles lie along a: link overlaps do not see
    D, and n -> Q n keeps orientation, so every link Chern number is
    unchanged and H is covariant under rotations about z.  A caller's
    h_builder supplies H(theta, 0) and m instead.
    """
    edges = mesh.theta_edges()
    if h_builder is not None:
        h0, m = h_builder
        w0, f0 = np.linalg.eigh(h0(edges))
        return w0, f0, np.asarray(m, dtype=float)
    w0, f0 = _eigen_grid(replace(p, axis=(0.0, 0.0, 1.0)), edges, np.zeros(1))
    return w0[:, 0], f0[:, 0], _jz_diagonal(p.nuclear_two_l)


def _link_chern(frames: np.ndarray, m: np.ndarray, phi_max: int) -> np.ndarray:
    """fourpi-convention Chern of band sets from their phi = 0 frames.

    frames has shape (n_theta + 1, n_sets, d, k): each set's k
    eigenvectors on the ring edges.  With v(theta, phi) =
    e^{-i phi J_z} v(theta, 0), every theta-link of ring edge i is
    lt_i = det F_i^dag F_i+1 and every phi-link lp_i = det F_i^dag R F_i,
    R = e^{-i dphi m}, so each of the phi_max plaquettes of ring i has
    the phase arg(lp_i+1 conj(lp_i)) (Fukui, Hatsugai & Suzuki, J. Phys.
    Soc. Jpn. 74, 1674 (2005)).  For half-integer m the wrap link picks
    up det e^{2 pi i m} = (-1)^k on both edges of a plaquette, which
    cancels.  The phase sum is an integer multiple of 2 pi on any mesh,
    so it cannot show a mesh too coarse for the band's winding; a
    plaquette phase beyond TOL.plaquette_angle does, and raises.
    """
    rot = np.exp(-2j * np.pi / phi_max * m)
    lt = np.linalg.det(np.einsum("tsda,tsdb->tsab", frames[:-1].conj(), frames[1:]))
    lp = np.linalg.det(np.einsum("tsda,d,tsdb->tsab", frames.conj(), rot, frames))
    if min(np.min(np.abs(lt)), np.min(np.abs(lp))) < 1e-8:
        raise MeshResolutionError("singular band overlap on a mesh edge; refine the mesh")
    angles = np.angle(lp[1:] * lp[:-1].conj())
    largest = float(np.max(np.abs(angles)))
    if largest > TOL.plaquette_angle:
        raise MeshResolutionError(
            f"plaquette phase {largest:.3f} exceeds {TOL.plaquette_angle:.3f}; refine the mesh")
    return -phi_max * angles.sum(axis=0) / (4 * np.pi)


def _check_contiguous(positions: tuple[int, ...], context: str) -> None:
    """Refuse a Chern band set whose ascending positions leave a gap."""
    if positions[-1] - positions[0] != len(positions) - 1:
        raise ValueError(f"{context}: band positions must be contiguous, got {positions}")


def _link_sets(p: ModelParams, mesh: SphereMesh | None, h_builder: _Covariant | None,
               sets: Sequence[Sequence[int]] | None, context: str) -> list[ChernResult]:
    """Link Chern numbers of band sets (ascending positions), or of every band when sets is None.

    One meridian solve (_link_meridian), one isolation gate per set on
    the ring edges, one _link_chern call, and rounding on the grid of the
    solved Hamiltonian's dimension (_half_grid).
    """
    mesh = mesh or SphereMesh()
    w0, f0, m = _link_meridian(p, mesh, h_builder)
    sets = [(k,) for k in range(w0.shape[-1])] if sets is None else sets
    edges = mesh.theta_edges()
    for positions in sets:
        _check_isolated(w0, positions, context, edges)
    values = _link_chern(np.moveaxis(f0[..., np.array(sets)], -2, 1), m, mesh.phi_max)
    half = _half_grid(w0.shape[-1], len(sets[0]))
    return [ChernResult.from_fourpi(float(c), half) for c in values]


def chern_number_link_variable(p: ModelParams, labels: Sequence[int] | int,
                               mesh: SphereMesh | None = None) -> ChernResult:
    """Gauge-invariant Chern number of a level or degenerate cluster.

    Always evaluated on a uniform n_theta x phi_max grid (plaquette
    phases only telescope exactly on aligned rings), read from its
    phi = 0 meridian (_link_chern); the mesh argument supplies the
    resolution.  For a tilted axis the grid's rings are circles about
    the axis (_link_meridian), on each of which the spectrum is
    constant, so the isolation check refuses a band set that touches the
    rest along a mesh ring's circle.
    """
    _, positions = _resolve_labels(p, labels)
    _check_contiguous(positions, "link-variable Chern")
    result = _link_sets(p, mesh, None, [positions], "link-variable Chern")[0]
    return _check_quantized(result, "link-variable Chern")


def chern_spectrum_link_variable(p: ModelParams, mesh: SphereMesh | None = None,
                                 h_builder: _Covariant | None = None,
                                 check: bool = True) -> list[ChernResult]:
    """Per-band Chern numbers (ascending energy order) from one meridian solve.

    h_builder replaces the model by any H covariant under rotations
    about z, H(theta, phi) = e^{-i phi J_z} H(theta, 0) e^{i phi J_z}.  It
    is a pair: a function taking an array of thetas to the batch of
    H(theta, 0), and the diagonal of J_z in the basis of those matrices
    (for a spin-j k.F, semimetal_batch at phi = 0 and the m values of F_z).

    Rounded on the grid of the solved Hamiltonian's own dimension d, also
    when h_builder is given: a single level sits on Z + 1/2 exactly when d
    is even (_half_grid; d = 3(2L + 1) for the model and 2j + 1 for a
    spin-j k.F builder).  Bands that touch a neighbour on a mesh ring
    have no Chern number of their own and are refused, whatever ``check``
    says; ``check`` gates only the quantization.
    """
    results = _link_sets(p, mesh, h_builder, None, "per-band link Chern")
    if check:
        for i, r in enumerate(results):
            _check_quantized(r, f"band {i}")
    return results


# ---------------------------------------------------------------------------
# smoothed-gauge connection / curvature pipeline


@dataclass
class _Row:
    """Frames F(theta, phi_n) of one mesh row, (n, dim, d_sub) point by point.

    A z-covariant row is stored factored, F(theta, phi) = R(phi) F(theta, 0)
    D(phi) (_meridian_rows): ``factors`` holds F(theta, 0) (dim, d_sub), the
    diagonal of R(phi_n) (n, dim) and D(phi_n) (n, d_sub, d_sub), the last
    two shared by every row of the same phi count, and ``frames`` builds
    the per-point array on first read.  Rows that are not z-covariant
    (_transport) hold per-point frames only.
    """

    theta: float
    phis: np.ndarray
    points: np.ndarray | None = None
    factors: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def frames(self) -> np.ndarray:
        if self.points is None:
            f0, rot, rep = self.factors
            self.points = rot[:, :, None] * (f0 @ rep)
        return self.points

    @property
    def rep(self) -> np.ndarray | None:
        """D(phi_n) of a factored row; None for a per-point one."""
        return None if self.factors is None else self.factors[2]


@dataclass
class FrameField:
    """Smoothly gauged orthonormal frames on the mesh corner rows.

    Rows run north to south, one per distinct (theta, phi count), so a
    ring's bottom row is the next ring's top row when their phi counts
    match; the first mesh ring (touching theta = 0) is dropped, per-cell
    rows are exposed through ring_top / ring_bottom.  z-covariant rows are
    factored (see _Row); their per-point frames are built only when read.
    """

    mesh: SphereMesh
    labels: tuple[int, ...]
    nuclear_two_l: int
    ring_start: int
    rows: list[_Row]
    top_index: dict[int, int]
    bottom_index: dict[int, int]

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


def _raw_frames(p: ModelParams, thetas: np.ndarray, phis: np.ndarray,
                positions: Sequence[int]) -> np.ndarray:
    """Grid frames (n_t, n_p, dim, d_sub); raises where they touch the rest of the spectrum."""
    w, v = _eigen_grid(p, thetas, phis)
    _check_isolated(w, positions, "smoothed-gauge frames", thetas, phis)
    return v[..., list(positions)]


_ANALYTIC_POLE_MARGIN = 0.1


def smooth_gauge_states(p: ModelParams, labels: Sequence[int] | int,
                        mesh: SphereMesh | None = None, source: str = "numerical") -> FrameField:
    """Orthonormal frames of the labelled subspace in a smooth gauge.

    Frames are parallel-transported: each is aligned to its neighbour
    toward a seed by the polar unitary of their overlap matrix, which makes
    neighbouring frames agree to O(mesh spacing) everywhere (the gauge is
    single valued on the sphere minus the dropped north cap).  Numerical
    frames are seeded at the south pole, on one row per distinct (theta,
    phi count) of either mesh scheme.  For z-covariant H only the phi = 0
    meridian is transported and rotated out to every phi (_meridian_rows);
    otherwise every mesh point is aligned (_transport).

    With ``source="analytic"`` the closed-form degenerate bases seed every
    latitude where they are well conditioned (away from the poles), with
    numerically transported latitudes filling the polar margins, on the
    same meridian; valid only for the full cluster at the crossing
    coupling with y = 0, L in {1, 2}.
    """
    mesh = mesh or SphereMesh()
    labels, positions = _resolve_labels(p, labels)
    _check_contiguous(positions, "smoothed-gauge frames")
    edges = mesh.theta_edges()
    ring_start = 1

    # row coordinate plan, north to south, one row per (theta, phi count)
    plan: list[tuple[float, np.ndarray]] = []
    row_of: dict[tuple[float, int], int] = {}
    top_index: dict[int, int] = {}
    bottom_index: dict[int, int] = {}
    for r in range(ring_start, mesh.n_theta):
        phis = mesh.ring_phis(r)
        for index, theta in ((top_index, float(edges[r])), (bottom_index, float(edges[r + 1]))):
            if (theta, len(phis)) not in row_of:
                row_of[theta, len(phis)] = len(plan)
                plan.append((theta, phis))
            index[r] = row_of[theta, len(phis)]

    if source == "analytic":
        rows = _meridian_rows(p, positions, plan, _analytic_frames(p, positions))
    elif source != "numerical":
        raise ValueError(f"unknown frame source {source!r}")
    elif _z_covariant(p.y, p.axis):
        rows = _meridian_rows(p, positions, plan)
    else:
        rows = _transport(p, positions, plan)
    return FrameField(mesh, labels, p.nuclear_two_l, ring_start, rows, top_index, bottom_index)


def _analytic_frames(p: ModelParams, positions: Sequence[int]) -> FrameBuilder:
    """Closed-form orthonormal frames of the crossing multiplet, batched over (thetas, phis)."""
    l = {2: 1, 4: 2}.get(p.nuclear_two_l)
    if l is None:
        raise ValueError("analytic frames exist for L in {1, 2} only")
    if abs(p.x - p.crossing_x()) > 1e-9 or p.y != 0.0:
        raise ValueError(f"analytic frames are defined at the crossing x = {p.crossing_x()}, y = 0")
    energies = np.linalg.eigvalsh(build_hamiltonian(p))[list(positions)]
    if (len(positions) != p.nuclear_two_l + 1 or np.max(np.abs(
            energies - degenerate_energy(p.nuclear_two_l))) > TOL.subspace_isolation):
        raise ValueError("analytic frames cover exactly the crossing multiplet")
    return lambda thetas, phis: gram_schmidt(raw_degenerate_vectors(l, thetas, phis))


def _meridian_rows(p: ModelParams, positions: Sequence[int], plan: list[tuple[float, np.ndarray]],
                   closed_form: FrameBuilder | None = None) -> list[_Row]:
    """Frames transported along the phi = 0 meridian, rotated out to every phi.

    The seed latitudes are the south pole for numerical frames, or every
    latitude at least _ANALYTIC_POLE_MARGIN from the poles for a closed
    form (one batched call); every other latitude is aligned outward from
    the nearest seed latitude, one SVD each.  For z-covariant H a frame
    field on a seed latitude theta_s has unitary D(phi) = F(theta_s, 0)^dag
    R(phi)^dag F(theta_s, phi), R(phi) = e^{-i phi J_z} (F0^dag R^dag F0 at
    the pole, whose frame spans a J_z-invariant subspace; the same D on
    every latitude for the covariant closed forms, read from one call at
    theta_s over every phi count's grid).  An overlap with a reference
    R F(theta', 0) D is M(theta, 0) D, and polar(M D) = polar(M) D, so
    F(theta, phi) = R F(theta, 0) D is the per-point polar transport at
    any phi, with phi-independent singular values.  Rows are returned
    factored, (F(theta, 0), R, D) with R and D shared per phi count (_Row).
    """
    thetas = np.unique([theta for theta, _ in plan])[::-1]  # south pole first
    zeros = np.zeros(1)
    if closed_form is None:
        frames = _raw_frames(p, thetas, zeros, positions)[:, 0]
        lo = hi = s = 0  # s: the seed latitude D is read on
    else:
        seeded = (thetas > _ANALYTIC_POLE_MARGIN) & (thetas < np.pi - _ANALYTIC_POLE_MARGIN)
        if not seeded.any():
            raise ValueError("mesh too coarse for analytic frames: no rows away from the poles")
        frames = np.empty((len(thetas), p.dim, len(positions)), dtype=complex)
        frames[~seeded] = _raw_frames(p, thetas[~seeded], zeros, positions)[:, 0]
        frames[seeded] = closed_form(thetas[seeded], zeros)
        lo, hi = np.flatnonzero(seeded)[[0, -1]]
        s = lo + int(np.argmin(np.abs(thetas[lo:hi + 1] - np.pi / 2)))  # best conditioned
    outward = [(i, i - 1) for i in range(hi + 1, len(thetas))]  # northward
    outward += [(i, i + 1) for i in range(lo - 1, -1, -1)]  # southward
    for i, ref in outward:
        frames[i] = _align_rows(frames[i][None], frames[ref][None])[0]
    at = dict(zip(thetas, frames))
    grids = {len(phis): phis for _, phis in plan}  # one phi grid per count
    if closed_form is None:
        on_s = [frames[s]] * len(grids)
    else:  # one closed-form call at theta_s for every count's phis
        every = np.concatenate(list(grids.values()))
        on_s = np.split(closed_form(np.full_like(every, thetas[s]), every),
                        np.cumsum(list(grids))[:-1])
    per_count = {}
    for (n, phis), on in zip(grids.items(), on_s):
        rot = np.exp(-1j * np.multiply.outer(phis, _jz_diagonal(p.nuclear_two_l)))
        per_count[n] = rot, frames[s].conj().T @ (rot.conj()[:, :, None] * on)
    return [_Row(theta, phis, factors=(at[theta], *per_count[len(phis)])) for theta, phis in plan]


def _transport(p: ModelParams, positions: Sequence[int],
               plan: list[tuple[float, np.ndarray]]) -> list[_Row]:
    """Per-point transport for H that is not z-covariant, northward from the south pole.

    The pole row shares one frame; every other row is aligned to the row
    south of it, one SVD per mesh point against that row's nearest-phi
    frame.
    """
    theta, phis = plan[-1]
    raw = _raw_frames(p, np.array([theta]), phis, positions)[0]
    rows = [_Row(theta, phis, np.broadcast_to(raw[0], raw.shape).copy())]
    for theta, phis in plan[-2::-1]:
        ref = rows[-1]
        raw = _raw_frames(p, np.array([theta]), phis, positions)[0]
        nearest = np.rint(phis * len(ref.phis) / (2 * np.pi)).astype(int) % len(ref.phis)
        rows.append(_Row(theta, phis, _align_rows(raw, ref.frames[nearest])))
    return rows[::-1]


def _per_point(x: np.ndarray, rep: np.ndarray | None) -> np.ndarray:
    """(n, d, d) per-point matrices of a ring: x itself, or D(phi_n)^dag x D(phi_n) when factored."""
    return x if rep is None else rep.conj().swapaxes(-1, -2) @ x @ rep


@dataclass
class ConnectionField:
    """Edge-integrated connection matrices per ring (finite-difference form).

    Each ring holds one (m, d, d) array per edge type: per point (m = n_r),
    or, on factored frames, the phi = 0 matrix X alone (m = 1), every edge
    of the ring being D(phi_n)^dag X D(phi_n).  a_theta / a_phi_top /
    a_phi_bottom give (n_r, d, d) per point, built on first access.
    """

    field: FrameField
    x_theta: dict[int, np.ndarray]       # left theta-edges, top corners
    x_phi_top: dict[int, np.ndarray]     # phi-edges along the top row
    x_phi_bottom: dict[int, np.ndarray]  # phi-edges along the bottom row

    def _expand(self, x: dict[int, np.ndarray]) -> dict[int, np.ndarray]:
        return {r: _per_point(a, self.field.ring_top(r).rep) for r, a in x.items()}

    @cached_property
    def a_theta(self) -> dict[int, np.ndarray]:
        return self._expand(self.x_theta)

    @cached_property
    def a_phi_top(self) -> dict[int, np.ndarray]:
        return self._expand(self.x_phi_top)

    @cached_property
    def a_phi_bottom(self) -> dict[int, np.ndarray]:
        return self._expand(self.x_phi_bottom)


def _links(top: np.ndarray, top_east: np.ndarray, bottom: np.ndarray,
           bottom_east: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A = i(<frame|neighbour frame> - 1) on theta-edges and top and bottom phi-edges.

    Batched over the leading axis: the points of one ring, or the rings of
    a factored field.
    """
    eye = np.eye(top.shape[-1])

    def link(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return 1j * (a.conj().swapaxes(-1, -2) @ b - eye)

    return link(top, bottom), link(top, top_east), link(bottom, bottom_east)


def _factored_east(rows: list[_Row]) -> tuple[np.ndarray, np.ndarray]:
    """phi = 0 frames F of factored rows and their neighbours R(dphi) F D(dphi), stacked."""
    f0 = np.stack([row.factors[0] for row in rows])
    rot = np.stack([row.factors[1][1] for row in rows])
    rep = np.stack([row.rep[1] for row in rows])
    return f0, rot[:, :, None] * (f0 @ rep)


def connection_discrete(frames: FrameField) -> ConnectionField:
    """Discrete connection one-form A = i(<frame|neighbour frame> - 1) per edge.

    On factored rows (see _Row) three d x d matrices per ring stand for all
    its edges, formed for every ring in one batch: A_theta = i(F_t^dag F_b
    - 1) and A_phi = i(F^dag R(dphi) F D(dphi) - 1) on the top and bottom
    rows, F = F(theta, 0), the edge at phi_n being D(phi_n)^dag A
    D(phi_n).  Other rows are formed point by point, one ring at a time.
    """
    rings = range(frames.ring_start, frames.mesh.n_theta)
    tops = [frames.ring_top(r) for r in rings]
    bottoms = [frames.ring_bottom(r) for r in rings]
    if frames.rows[0].factors is None:
        per_ring = [_links(t.frames, np.roll(t.frames, -1, axis=0),
                           b.frames, np.roll(b.frames, -1, axis=0)) for t, b in zip(tops, bottoms)]
        x_theta, x_phi_top, x_phi_bottom = zip(*per_ring)
    else:  # (1, d, d) per ring
        x_theta, x_phi_top, x_phi_bottom = (
            x[:, None] for x in _links(*_factored_east(tops), *_factored_east(bottoms)))
    return ConnectionField(frames, dict(zip(rings, x_theta)), dict(zip(rings, x_phi_top)),
                           dict(zip(rings, x_phi_bottom)))


@dataclass
class CurvatureField:
    """Per-plaquette curvature matrices over the meshed sphere.

    Each ring holds an (m, d, d) array: per point (m = n_r), or one matrix C
    for a factored ring (m = 1), every cell being D(phi_n)^dag C D(phi_n)
    with the trace tr C.  A ring's theta, phis and D are those of its top
    row in ``field``.  Traces are read from those arrays; ``curvature``
    gives (n_r, d, d) per point, built on first access.
    """

    field: FrameField
    x_curvature: dict[int, np.ndarray]

    @cached_property
    def curvature(self) -> dict[int, np.ndarray]:
        return {r: _per_point(c, self.field.ring_top(r).rep) for r, c in self.x_curvature.items()}

    def _ring_trace(self, r: int) -> float:
        """Re tr F summed over ring r: n_r / m times the traces of its m matrices."""
        x = self.x_curvature[r]
        return float(len(self.field.ring_top(r).phis) / len(x)
                     * np.trace(x, axis1=-2, axis2=-1).real.sum())

    def trace_sum(self) -> float:
        return sum(self._ring_trace(r) for r in self.x_curvature)

    def cap_compensation(self) -> float:
        """Estimated curvature content of the dropped north cap."""
        r0, mesh = self.field.ring_start, self.field.mesh
        omega = mesh.ring_solid_angle(r0).sum()
        return float(self._ring_trace(r0) / omega * mesh.cap_solid_angle(r0))

    def to_csv(self, path) -> None:
        """Columns: theta, phi, Re tr F, cell solid angle."""
        with open(path, "w") as fh:
            fh.write("# schema=1\n")
            fh.write("theta,phi,re_tr_curvature,solid_angle\n")
            for r in sorted(self.x_curvature):
                top = self.field.ring_top(r)
                tr = np.trace(self.x_curvature[r], axis1=-2, axis2=-1).real
                for phi, t, om in zip(top.phis, np.broadcast_to(tr, top.phis.shape),
                                      self.field.mesh.ring_solid_angle(r)):
                    fh.write(f"{top.theta:.12g},{phi:.12g},{t:.12g},{om:.12g}\n")


def _plaquettes(a1: np.ndarray, a2t: np.ndarray, a2b: np.ndarray,
                a1_east: np.ndarray) -> np.ndarray:
    """F = dA + i[A_theta, A_phi,t], batched over the leading axis (see _links)."""
    comm = a1 @ a2t - a2t @ a1
    return a2b - a2t - a1_east + a1 + 1j * comm


def curvature_discrete(connections: ConnectionField) -> CurvatureField:
    """Per-plaquette curvature F = dA + i[A_theta, A_phi] from the edge connections.

    On factored rings one matrix serves every cell, formed for every ring in
    one batch: C = A_phi,b - A_phi,t - D(dphi)^dag A_theta D(dphi) + A_theta
    + i[A_theta, A_phi,t], the cell at phi_n being D(phi_n)^dag C D(phi_n).
    """
    frames = connections.field
    a1, a2t, a2b = (list(x.values()) for x in (
        connections.x_theta, connections.x_phi_top, connections.x_phi_bottom))
    if frames.rows[0].factors is None:
        curvature = [_plaquettes(t, pt, pb, np.roll(t, -1, axis=0))
                     for t, pt, pb in zip(a1, a2t, a2b)]
    else:  # (1, d, d) per ring
        a1, a2t, a2b = (np.concatenate(a) for a in (a1, a2t, a2b))
        rep = np.stack([frames.ring_top(r).rep[1] for r in connections.x_theta])
        curvature = _plaquettes(a1, a2t, a2b, rep.conj().swapaxes(-1, -2) @ a1 @ rep)[:, None]
    return CurvatureField(frames, dict(zip(connections.x_theta, curvature)))


def chern_number(field: CurvatureField) -> ChernResult:
    """Traced curvature integral over the sphere, 1/(4 pi) normalization.

    The dropped polar cap is compensated by its solid angle times the
    curvature density of the nearest ring.
    """
    total = field.trace_sum() + field.cap_compensation()
    frames = field.field
    half = _half_grid(ModelParams(frames.nuclear_two_l, 0.0).dim, len(frames.labels))
    result = ChernResult.from_fourpi(total / (4 * np.pi), half)
    return _check_quantized(result, "curvature-integral Chern")


def curvature_field(p: ModelParams, labels: Sequence[int] | int,
                    mesh: SphereMesh | None = None, source: str = "numerical") -> CurvatureField:
    """Convenience: smoothed frames -> connection -> curvature in one call."""
    frames = smooth_gauge_states(p, labels, mesh, source=source)
    return curvature_discrete(connection_discrete(frames))


def chern_number_curvature(p: ModelParams, labels: Sequence[int] | int,
                           mesh: SphereMesh | None = None,
                           source: str = "numerical") -> ChernResult:
    """Chern number via the smoothed-gauge curvature scheme."""
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
    field = curvature_field(p, labels, mesh, source=source)
    pos = theta_loop / (np.pi / mesh.n_theta)
    r_loop = int(np.floor(pos + 1e-9))
    frac = pos - r_loop
    ring_start = field.field.ring_start
    if r_loop <= ring_start:
        cap = field.cap_compensation()
        weight = (1 - np.cos(theta_loop)) / (1 - np.cos(mesh.theta_edges()[ring_start]))
        return float(orientation * cap * weight)
    total = field.cap_compensation()
    for r in range(ring_start, r_loop):
        total += field._ring_trace(r)
    if frac > 1e-9 and r_loop < mesh.n_theta:
        total += frac * field._ring_trace(r_loop)
    return float(orientation * total)
