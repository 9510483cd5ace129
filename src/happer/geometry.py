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

Every axis is the z axis.  With Q a rotation taking z to the axis a and
D(Q) its spin representation, H(Q n; a) = D H(n; z) D^dag: the model with
its axis along z is the tilted problem on a mesh whose poles lie along a,
and it is covariant about z, v(theta, phi) = e^{-i phi J_z} v(theta, 0).
So every sphere quantity reads the eigenpairs of that phi = 0 meridian,
with the one isolation gate for every band set a call reads (_meridian),
and tilted fields report angles about the axis.  For y != 0, or a caller's
h_builder, the meridian is one batched eigh over its latitudes.  At y = 0
the model is covariant under every rotation of J, so the meridian is the
one labelled solve of a call (spectrum._levels, the field along z) turned
about y by Wigner small-d matrices (_turned), with no lab Hamiltonian.
Link Chern numbers read the meridian directly (_link_sets; a caller's
h_builder supplies H(theta, 0) and its J_z diagonal).

The curvature scheme is factored the same way.  Frames are
F(theta, phi) = R(phi) F(theta, 0) D(phi), with R(phi) = e^{-i phi J_z} and
D a unitary representation of the phi rotations (_meridian_frames), so every
edge connection and every plaquette curvature of a ring is
D(phi_n)^dag X D(phi_n) for one d x d matrix X per ring.  Fields hold one
stack of X over the rings; Chern numbers and the curvature CSV read n_phi
tr X per ring and D at the ring's step dphi alone.  No per-point frame and
no D(phi_n) is ever formed.

Curvature Chern numbers read one Stokes integral, CurvatureField.flux(theta),
the traced curvature north of latitude theta: chern_number reads flux(pi),
and refuses a phi step the linearised connection cannot follow
(_check_phi_steps).
loop_phase(p, labels, theta0), the phase of the loop at polar angle theta0
about z, is read with no curvature field (_orbit_phases): at y = 0 from
the labelled spectrum alone, -2 pi m (1 - cos theta0) per level, and
otherwise from the same meridian, whose latitudes the mesh sets for the
isolation gate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .degenerate import degenerate_energy, gram_schmidt, raw_degenerate_vectors
from .errors import MeshResolutionError, SubspaceIsolationError
from .mesh import SphereMesh
from .model import ModelParams, _jz_diagonal, hamiltonian_batch
from .operators import _turned
from .spectrum import _check_isolated, _half_grid, _levels, _resolve_labels
from .table import _csv_text
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


def _meridian(p: ModelParams, thetas: np.ndarray, sets: Sequence[Sequence[int]], context: str,
              h_builder: _Covariant | None = None, levels: tuple | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs at phi = 0 on thetas, shapes (n, d) and (n, d, d); every set gated on them.

    For y != 0, or a caller's h_builder, one batched eigh of the model with
    its axis along z (thetas are angles about the axis) or of the builder.
    At y = 0, H(theta, 0) = U H(z) U^dag with U = e^{-i theta J_y}: every
    row keeps the energies of levels = _levels(p) (solved when None) and
    turns its vectors from +z by Wigner small-d (_turned); a row at -z, the
    frames' seed, is exactly the solve's reversed and signed (-1)^(1+L+m).
    One isolation gate checks every set of ascending positions in one pass
    (_check_isolated), naming a touching's theta, or at y = 0 the whole sphere.
    """
    everywhere = h_builder is None and p.y == 0.0
    if everywhere:
        w0, _, _, v0 = _levels(p) if levels is None else levels
        flip = (-1.0) ** np.rint(1 + p.nuclear_two_l / 2 + _jz_diagonal(p.nuclear_two_l))
        w, v = np.broadcast_to(w0, (len(thetas), p.dim)), _turned(v0, thetas)
        v[thetas == np.pi] = flip[:, None] * v0[::-1]  # e^{-i pi J_y} v0, exactly
    else:
        w, v = np.linalg.eigh(h_builder[0](thetas) if h_builder else hamiltonian_batch(
            replace(p, axis=(0.0, 0.0, 1.0)), thetas, np.zeros_like(thetas)))
    _check_isolated(w, sets, context, lambda i: " on the whole sphere" if everywhere
                    else f" at (theta={thetas[i]:.6f}, phi=0.000000)")
    return w, v


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
               sets: Sequence[Sequence[int]] | None, levels: tuple | None = None,
               context: str = "per-band link Chern, angles about the axis") -> list[ChernResult]:
    """Link Chern numbers of band sets (ascending positions), or of every band when sets is None.

    One meridian solve and gate on the ring edges (_meridian), one
    _link_chern call, and rounding on the grid of the solved Hamiltonian's
    dimension (_half_grid).  Link overlaps do not see D(Q), and n -> Q n
    keeps orientation, so the axis along z gives a tilted axis's numbers.
    """
    mesh = mesh or SphereMesh()
    m = _jz_diagonal(p.nuclear_two_l) if h_builder is None else np.asarray(h_builder[1], float)
    sets = [(k,) for k in range(len(m))] if sets is None else sets
    w0, f0 = _meridian(p, mesh.theta_edges(), sets, context, h_builder, levels)
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
    the axis (_link_sets), on each of which the spectrum is
    constant, so the isolation check refuses a band set that touches the
    rest along a mesh ring's circle.
    """
    levels = _levels(p)
    _, positions = _resolve_labels(levels, labels)
    _check_contiguous(positions, "link-variable Chern")
    result = _link_sets(p, mesh, None, [positions], levels,
                        "link-variable Chern, angles about the axis")[0]
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
    results = _link_sets(p, mesh, h_builder, None)
    if check:
        for i, r in enumerate(results):
            _check_quantized(r, f"band {i}")
    return results


# ---------------------------------------------------------------------------
# smoothed-gauge connection / curvature pipeline


@dataclass
class FrameField:
    """Smoothly gauged orthonormal frames on the kept rings, stored factored.

    F(theta, phi) = R(phi) F(theta, 0) D(phi) (_meridian_frames).
    ``meridian`` holds F(theta, 0) (n_rings + 1, dim, d_sub) on the ring
    edges from ring_start to the south pole, so ring r's top and bottom
    frames are meridian[r - ring_start] and meridian[r - ring_start + 1];
    ``rot`` (n_rings, dim) the diagonal of R(dphi) and ``step`` (n_rings,
    d_sub, d_sub) D(dphi), each at the ring's own phi step dphi.  The first
    mesh ring (touching theta = 0) is dropped.  theta and phi are angles
    about the axis.
    """

    mesh: SphereMesh
    labels: tuple[int, ...]
    dim: int
    ring_start: int
    meridian: np.ndarray
    rot: np.ndarray
    step: np.ndarray


def _polar(m: np.ndarray) -> np.ndarray:
    """Polar unitaries u vh of a stack of frame overlaps m = u s vh, from one batched SVD."""
    u, s, vh = np.linalg.svd(m)
    if np.min(s) < 1e-6:
        raise SubspaceIsolationError("frame alignment is singular; subspace is not continuous")
    return u @ vh


_ANALYTIC_POLE_MARGIN = 0.1


def smooth_gauge_states(p: ModelParams, labels: Sequence[int] | int,
                        mesh: SphereMesh | None = None, source: str = "numerical") -> FrameField:
    """Orthonormal frames of the labelled subspace in a smooth gauge.

    Frames are parallel-transported: each is aligned to its neighbour
    toward a seed by the polar unitary of their overlap matrix, which makes
    neighbouring frames agree to O(mesh spacing) everywhere (the gauge is
    single valued on the sphere minus the dropped north cap).  Numerical
    frames are seeded at the south pole.  Only the phi = 0 meridian is
    solved and transported (_frame_sets); for a tilted axis theta and phi
    are angles about the axis.

    With ``source="analytic"`` the closed-form degenerate bases seed every
    latitude where they are well conditioned (away from the poles), with
    numerically transported latitudes filling the polar margins, on the
    same meridian; valid only for the full cluster at the crossing
    coupling with y = 0, L in {1, 2}.
    """
    mesh = mesh or SphereMesh()
    levels = _levels(p)
    labels, positions = _resolve_labels(levels, labels)
    _check_contiguous(positions, "smoothed-gauge frames")
    if source not in ("numerical", "analytic"):
        raise ValueError(f"unknown frame source {source!r}")
    closed_form = _analytic_frames(p, positions, levels[0]) if source == "analytic" else None
    return replace(_frame_sets(p, mesh, [positions], closed_form, levels)[0], labels=labels)


def _frame_sets(p: ModelParams, mesh: SphereMesh, sets: Sequence[Sequence[int]],
                closed_form: FrameBuilder | None, levels: tuple) -> list[FrameField]:
    """Unlabelled frames of band sets (ascending positions), one solve of the kept ring edges.

    Every set is gated on that solve (_meridian) and its columns are
    transported (_meridian_frames).  A closed form (one set) seeds every
    latitude at least _ANALYTIC_POLE_MARGIN from the poles, so only the
    polar rows are solved.
    """
    thetas = mesh.theta_edges()[1:][::-1]  # south pole first
    seeded = ((thetas > _ANALYTIC_POLE_MARGIN) & (thetas < np.pi - _ANALYTIC_POLE_MARGIN)
              if closed_form else np.arange(len(thetas)) == 0)  # numerical: the south pole
    if not seeded.any():
        raise ValueError("mesh too coarse for analytic frames: no rows away from the poles")
    solved = ~seeded if closed_form else np.ones_like(seeded)
    _, v = _meridian(p, thetas[solved], sets, "smoothed-gauge frames, angles about the axis",
                     levels=levels)
    counts = [mesh.ring_phi_count(r) for r in range(1, mesh.n_theta)]
    fields = []
    for positions in sets:
        frames = np.empty((len(thetas), p.dim, len(positions)), dtype=complex)
        frames[solved] = v[..., list(positions)]
        if closed_form:
            frames[seeded] = closed_form(thetas[seeded], np.zeros(1))
        factors = _meridian_frames(p, thetas, frames, seeded, counts, closed_form)
        fields.append(FrameField(mesh, (), p.dim, 1, *factors))  # the first ring is dropped
    return fields


def _analytic_frames(p: ModelParams, positions: Sequence[int], w: np.ndarray) -> FrameBuilder:
    """Closed-form orthonormal frames of the crossing multiplet (energies w) over (thetas, phis)."""
    l = {2: 1, 4: 2}.get(p.nuclear_two_l)
    if l is None:
        raise ValueError("analytic frames exist for L in {1, 2} only")
    if abs(p.x - p.crossing_x()) > 1e-9 or p.y != 0.0:
        raise ValueError(f"analytic frames are defined at the crossing x = {p.crossing_x()}, y = 0")
    energies = w[list(positions)]
    if (len(positions) != p.nuclear_two_l + 1 or np.max(np.abs(
            energies - degenerate_energy(p.nuclear_two_l))) > TOL.subspace_isolation):
        raise ValueError("analytic frames cover exactly the crossing multiplet")
    return lambda thetas, phis: gram_schmidt(raw_degenerate_vectors(l, thetas, phis))


def _meridian_frames(p: ModelParams, thetas: np.ndarray, frames: np.ndarray, seeded: np.ndarray,
                     counts: Sequence[int], closed_form: FrameBuilder | None = None
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw frames (n, dim, d_sub) on thetas, south pole first, transported and rotated out.

    The ``seeded`` latitudes (one run: the south pole, or a closed form's
    rows) keep their frames; every other latitude is aligned outward from
    the nearest seed latitude.  Aligning latitude i to its aligned
    neighbour F_ref U_ref takes polar(F_i^dag F_ref U_ref) = polar(M_i)
    U_ref for the raw overlap M_i = F_i^dag F_ref, so one SVD of every raw
    overlap gives every polar factor W_i, with the singular values of the
    latitude-by-latitude transport, and U_i = W_i U_ref is a chain of d x d
    products back to the seed (U = 1).  With the axis along z H is covariant
    under rotations about z, so a frame field on a seed latitude theta_s has
    unitary D(phi) = F(theta_s, 0)^dag R(phi)^dag F(theta_s, phi), R(phi) =
    e^{-i phi J_z} (F0^dag R^dag F0 at the pole, whose frame spans a
    J_z-invariant subspace; the same D on every latitude for the covariant
    closed forms, read from one call at theta_s with one point, dphi, per
    phi count; theta_s is the seed nearest the equator).  An overlap with a
    reference R F(theta', 0) D is M(theta, 0) D, and polar(M D) = polar(M)
    D, so F(theta, phi) = R F(theta, 0) D is the per-point polar transport
    at any phi, with phi-independent singular values.  Returns the factors
    of FrameField: F(theta, 0) north to south, and R(dphi) and D(dphi) per
    ring of phi count ``counts``, formed once per count.
    """
    lo, hi = np.flatnonzero(seeded)[[0, -1]]
    s = lo + int(np.argmin(np.abs(thetas[lo:hi + 1] - np.pi / 2)))  # the seed D is read on
    outward = [(i, i - 1) for i in range(hi + 1, len(thetas))]  # northward
    outward += [(i, i + 1) for i in range(lo - 1, -1, -1)]  # southward
    index, ref = np.array(outward).T
    polar = _polar(frames[index].conj().swapaxes(-1, -2) @ frames[ref])
    turns = np.tile(np.eye(frames.shape[-1], dtype=complex), (len(thetas), 1, 1))  # seeds: U = 1
    for i, r, w in zip(index, ref, polar):  # every ref is a seed or aligned before i
        turns[i] = w @ turns[r]
    distinct, ring_count = np.unique(counts, return_inverse=True)
    dphis = 2 * np.pi / distinct
    on_s = frames[s] if closed_form is None else closed_form(np.full_like(dphis, thetas[s]), dphis)
    rots = np.exp(-1j * np.multiply.outer(dphis, _jz_diagonal(p.nuclear_two_l)))
    steps = frames[s].conj().T @ (rots.conj()[:, :, None] * on_s)
    return (frames @ turns)[::-1], rots[ring_count], steps[ring_count]


@dataclass
class ConnectionField:
    """Edge-integrated connection matrices, one (n_rings, d, d) stack per edge type.

    Ring r's matrix X (row r - ring_start) is its edge at phi = 0, every
    edge of the ring being D(phi_n)^dag X D(phi_n).
    """

    field: FrameField
    x_theta: np.ndarray       # left theta-edges, top corners
    x_phi_top: np.ndarray     # phi-edges along the top edge
    x_phi_bottom: np.ndarray  # phi-edges along the bottom edge


def _links(top: np.ndarray, top_east: np.ndarray, bottom: np.ndarray,
           bottom_east: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A = i(<frame|neighbour frame> - 1) on theta-edges and top and bottom phi-edges.

    Batched over the leading axis, the rings of a field.
    """
    eye = np.eye(top.shape[-1])

    def link(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return 1j * (a.conj().swapaxes(-1, -2) @ b - eye)

    return link(top, bottom), link(top, top_east), link(bottom, bottom_east)


def connection_discrete(frames: FrameField) -> ConnectionField:
    """Discrete connection one-form A = i(<frame|neighbour frame> - 1) per edge.

    Three d x d matrices per ring stand for all its edges (see FrameField),
    formed for every ring in one batch: A_theta = i(F_t^dag F_b - 1) and
    A_phi = i(F^dag R(dphi) F D(dphi) - 1) on the top and bottom edges,
    F = F(theta, 0), the edge at phi_n being D(phi_n)^dag A D(phi_n).
    """
    top, bottom = frames.meridian[:-1], frames.meridian[1:]
    rot = frames.rot[:, :, None]
    return ConnectionField(frames, *_links(top, rot * (top @ frames.step),
                                           bottom, rot * (bottom @ frames.step)))


@dataclass
class CurvatureField:
    """Per-plaquette curvature matrices over the meshed sphere.

    x_curvature holds one matrix C per kept ring (n_rings, d, d): every cell
    of the ring is D(phi_n)^dag C D(phi_n), of trace tr C, with D and phi_n
    those of ``field``; for a tilted axis theta and phi are angles about the
    axis.
    """

    field: FrameField
    x_curvature: np.ndarray

    def flux(self, theta: float) -> float:
        """Re tr F integrated over the cap north of latitude theta about the axis (Stokes sum).

        Down to the bottom edge of the first kept ring the flux is that
        ring's curvature density times the solid angle north of theta,
        2 pi (1 - cos theta), which also stands for the dropped north cap;
        below it every ring adds its trace times the fraction of its theta
        width that lies north of theta.  flux(pi) is the whole sphere.
        """
        r0, mesh = self.field.ring_start, self.field.mesh
        cells = np.array([mesh.ring_phi_count(r) for r in range(r0, mesh.n_theta)])
        traces = cells * self.x_curvature.diagonal(0, -2, -1).real.sum(axis=-1)  # Re tr F per ring
        density = traces[0] / mesh.ring_solid_angle(r0).sum()
        first = density * 2 * np.pi * (1 - np.cos(min(theta, mesh.theta_edges()[r0 + 1])))
        north = np.clip(theta / np.pi * mesh.n_theta - np.arange(r0 + 1, mesh.n_theta), 0, 1)
        return float(first + north @ traces[1:])

    def to_csv(self, path) -> None:
        """Columns: theta, phi (angles about the axis), Re tr F, cell solid angle."""
        r0, mesh = self.field.ring_start, self.field.mesh
        traces = np.trace(self.x_curvature, axis1=-2, axis2=-1).real
        rows = []
        for r, theta, tr in zip(range(r0, mesh.n_theta), mesh.theta_edges()[r0:-1], traces):
            rows += np.column_stack(np.broadcast_arrays(
                theta, mesh.ring_phis(r), tr, mesh.ring_solid_angle(r))).tolist()
        Path(path).write_text(_csv_text(["theta", "phi", "re_tr_curvature", "solid_angle"], rows))


def _plaquettes(a1: np.ndarray, a2t: np.ndarray, a2b: np.ndarray,
                a1_east: np.ndarray) -> np.ndarray:
    """F = dA + i[A_theta, A_phi,t], batched over the rings (see _links)."""
    comm = a1 @ a2t - a2t @ a1
    return a2b - a2t - a1_east + a1 + 1j * comm


def curvature_discrete(connections: ConnectionField) -> CurvatureField:
    """Per-plaquette curvature F = dA + i[A_theta, A_phi] from the edge connections.

    One matrix serves every cell of a ring, formed for every ring in one
    batch: C = A_phi,b - A_phi,t - D(dphi)^dag A_theta D(dphi) + A_theta
    + i[A_theta, A_phi,t], the cell at phi_n being D(phi_n)^dag C D(phi_n).
    """
    step, a1 = connections.field.step, connections.x_theta
    return CurvatureField(connections.field, _plaquettes(
        a1, connections.x_phi_top, connections.x_phi_bottom,
        step.conj().swapaxes(-1, -2) @ a1 @ step))


def _check_phi_steps(connections: ConnectionField) -> None:
    """Refuse a connection that cannot follow the phi steps of its frames.

    A_phi = i(M - 1) keeps the linear term of the phi-edge overlap M =
    F^dag R(dphi) F D(dphi), F = F(theta, 0) (connection_discrete).  The
    theta-links and the commutator drop out of the trace, so each ring's
    Re tr C is Im tr M_top - Im tr M_bottom, and Im tr M = sum |l| sin(arg
    l) over the eigenvalues l of M.  That sum follows the eigenphases only
    while the sine rises, |arg l| <= pi/2: beyond it a growing phase reads
    as a shrinking one, so the flux loses a unit of winding and can still
    land on the grid.  An eigenphase beyond TOL.plaquette_angle, the bound
    the link scheme puts on its plaquette phases (_link_chern), raises.
    Every l lies in a Gershgorin disc |l - M_ii| <= sum_{j != i} |M_ij|, and
    |z| <= |Re z| + |Im z|, so an edge whose widened discs all lie in
    Re l > 0 keeps every |arg l| < pi/2, and only the other edges are solved.
    """
    a = np.concatenate([connections.x_phi_top, connections.x_phi_bottom])  # M = 1 - i A
    diagonal = np.diagonal(a, 0, -2, -1)
    radius = np.abs(a.view(float)).sum(axis=-1) - np.abs(diagonal.real) - np.abs(diagonal.imag)
    far = np.eye(a.shape[-1]) - 1j * a[(1 + diagonal.imag <= radius).any(axis=-1)]
    largest = float(np.max(np.abs(np.angle(np.linalg.eigvals(far))), initial=0.0))
    if largest > TOL.plaquette_angle:
        raise MeshResolutionError(f"phi-edge overlap eigenphase {largest:.3f} exceeds "
                                  f"{TOL.plaquette_angle:.3f}; refine the mesh")


def _bounded_curvature(frames: FrameField) -> CurvatureField:
    """Curvature of frames whose phi steps their connection follows (_check_phi_steps)."""
    connections = connection_discrete(frames)
    _check_phi_steps(connections)
    return curvature_discrete(connections)


def _rounded_flux(field: CurvatureField) -> ChernResult:
    """field.flux(pi) / (4 pi) on the grid of its frames' band count (_half_grid), ungated."""
    half = _half_grid(field.field.dim, field.field.meridian.shape[-1])
    return ChernResult.from_fourpi(field.flux(np.pi) / (4 * np.pi), half)


def chern_number(field: CurvatureField) -> ChernResult:
    """Traced curvature flux through the whole sphere, field.flux(pi), 1/(4 pi) normalization.

    The dropped north cap enters as in CurvatureField.flux: its solid
    angle times the curvature density of the nearest ring.  Frames whose
    phi steps the connection cannot follow are refused (_check_phi_steps).
    """
    _check_phi_steps(connection_discrete(field.field))
    return _check_quantized(_rounded_flux(field), "curvature-integral Chern")


def curvature_field(p: ModelParams, labels: Sequence[int] | int,
                    mesh: SphereMesh | None = None, source: str = "numerical") -> CurvatureField:
    """Smoothed frames -> connection -> curvature in one call, about the axis for a tilted one."""
    frames = smooth_gauge_states(p, labels, mesh, source=source)
    return curvature_discrete(connection_discrete(frames))


def chern_number_curvature(p: ModelParams, labels: Sequence[int] | int,
                           mesh: SphereMesh | None = None,
                           source: str = "numerical") -> ChernResult:
    """Chern number via the smoothed-gauge curvature scheme, gated as chern_number gates it."""
    field = _bounded_curvature(smooth_gauge_states(p, labels, mesh, source=source))
    return _check_quantized(_rounded_flux(field), "curvature-integral Chern")


def _curvature_sets(p: ModelParams, mesh: SphereMesh, sets: Sequence[Sequence[int]],
                    levels: tuple) -> list[ChernResult]:
    """Curvature Chern numbers of band sets (ascending positions), the twin of _link_sets.

    One meridian solve and gate for every set (_frame_sets); each flux is
    bounded (_check_phi_steps) and rounded as chern_number rounds it, with
    no quantization gate.
    """
    return [_rounded_flux(_bounded_curvature(f)) for f in _frame_sets(p, mesh, sets, None, levels)]


_PANEL_NODES = 16  # Gauss-Legendre nodes per panel of the integral across the axis circles
_PANEL_TOL = 1e-10  # a panel is kept once its halves' set phases agree with it to this
_MAX_LEVELS = 40
_PHASE_CONTEXT = "loop phase, angles about the axis"


def _orbit_phases(p: ModelParams, theta0: float, mesh: SphereMesh,
                  sets: Sequence[Sequence[int]], levels: tuple | None = None) -> np.ndarray:
    """Per-position phases of the loop at polar angle theta0 about z, shape (d,).

    The flux through the cap of angle alpha about the axis is Phi(alpha) =
    2 pi [tr(P(alpha) J_z) - tr(P(0) J_z)] on the axis meridian (Berry,
    Proc. R. Soc. A 392, 45 (1984)).  The loop's cap holds the fraction
    f(alpha) = arccos((cos theta0 - cos alpha cos beta) / (sin alpha sin
    beta)) / pi of the circle at alpha, beta the angle between the axis and
    z (in [0, pi/2], as (a.S)^2 is even in a), so by parts

        int Phi' f = fpi Phi(pi) + (f0 - fpi) Phi(lo) - int_lo^hi (Phi - Phi(lo)) f',

    f being f0 = [theta0 > beta] below lo = |theta0 - beta| and fpi =
    [theta0 + beta > pi] above hi = min(theta0 + beta, 2 pi - theta0 - beta)
    (1/2 at equality).  The integral runs over u, alpha = lo + (hi - lo)
    sin^2 u, which smooths the square-root kinks of f, with the vanishing
    factors of f' formed from exact differences; panels of u are halved
    until every set in ``sets`` (ascending positions) has a phase on the two
    halves within _PANEL_TOL of the panel's, and passes the isolation gate
    at every solved angle and at the mesh's ring edges.

    At y = 0 (beta = 0) no meridian is solved: a level of n.J = m has
    Phi(theta0) = -2 pi m (1 - cos theta0) exactly, with m read from the
    one block solve levels = _levels(p) (solved when None), whose energies
    the isolation gate checks on the whole sphere (no level depends on n).
    """
    if p.y == 0.0:
        w, j, _, _ = _levels(p) if levels is None else levels
        _check_isolated(w, sets, _PHASE_CONTEXT, lambda i: " on the whole sphere")
        return -2 * np.pi * j * (1 - np.cos(theta0)) + 0.0  # + 0.0: no phase reads -0
    a = p.axis
    beta = float(np.arctan2(np.hypot(a[0], a[1]), abs(a[2])))
    lo, hi = abs(theta0 - beta), min(theta0 + beta, 2 * np.pi - theta0 - beta)
    f0, fpi = (np.sign(theta0 - beta) + 1) / 2, (np.sign(theta0 + beta - np.pi) + 1) / 2
    m = _jz_diagonal(p.nuclear_two_l)

    def jz(thetas: np.ndarray, rows) -> np.ndarray:
        _, v = _meridian(p, thetas, sets, _PHASE_CONTEXT)
        return np.einsum("tda,d,tda->ta", v[rows].conj(), m, v[rows]).real

    ends = jz(np.concatenate(([lo], mesh.theta_edges())), [0, 1, -1])  # lo, the poles
    phi_lo, _, phi_pi = 2 * np.pi * (ends - ends[1])
    phase = fpi * phi_pi + (f0 - fpi) * phi_lo
    if hi <= lo:
        return phase + 0.0
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)

    def integrals(panels: np.ndarray) -> np.ndarray:
        """(k, d) integrals of -(Phi - Phi(lo)) f' over (k, 2) panels of u."""
        half = (panels[:, 1] - panels[:, 0]) / 2
        u = (panels.mean(axis=1)[:, None] + half[:, None] * x).ravel()
        d_lo, d_hi = (hi - lo) * np.sin(u) ** 2, (hi - lo) * np.cos(u) ** 2
        alphas = lo + d_lo
        root_n = 2 * np.sqrt(np.sin(d_lo / 2) * np.sin(lo + d_lo / 2)
                             * np.sin(d_hi / 2) * np.sin(hi - d_hi / 2))
        slope = (np.cos(beta) - np.cos(theta0) * np.cos(alphas)) / (np.pi * np.sin(alphas) * root_n)
        phi = 2 * np.pi * (jz(alphas, slice(None)) - ends[1]) - phi_lo
        g = (slope * (hi - lo) * np.sin(2 * u))[:, None] * phi
        return half[:, None] * np.einsum("n,knd->kd", w, g.reshape(len(panels), len(x), -1))

    panels = np.array([[0.0, np.pi / 2]])
    values = integrals(panels)
    for _ in range(_MAX_LEVELS):
        mid = panels.mean(axis=1)
        halves = np.column_stack([panels[:, 0], mid, mid, panels[:, 1]]).reshape(-1, 2)
        fine = integrals(halves).reshape(len(panels), 2, -1)
        change = fine.sum(axis=1) - values
        done = np.ones(len(panels), dtype=bool)
        for positions in sets:
            done &= np.abs(change[:, list(positions)].sum(axis=-1)) <= _PANEL_TOL
        phase = phase + fine[done].sum(axis=(0, 1))
        if done.all():
            return phase + 0.0
        panels = halves.reshape(-1, 2, 2)[~done].reshape(-1, 2)
        values = fine[~done].reshape(len(panels), -1)
    raise MeshResolutionError(
        f"loop phase: the integral across the circles about the axis does not converge in "
        f"{_MAX_LEVELS} halvings")


def loop_phase(p: ModelParams, labels: Sequence[int] | int, theta0: float,
               mesh: SphereMesh | None = None) -> float:
    """Geometric phase of the loop at polar angle theta0, traversed toward increasing phi.

    The traced curvature flux through the cap north of the loop, on the
    branch nearest that sum: theta0 = 0 gives 0, theta0 = pi the whole
    sphere, 4 pi times the fourpi Chern number.  The reverse loop's phase
    is the negative.  At y = 0 it is -m 2 pi (1 - cos theta0) exactly,
    summed over the set, for levels of n.J = m, read from the labelled
    spectrum with no meridian (_orbit_phases).  Otherwise it is read from
    the meridian about the axis: with the axis along z the closed form
    2 pi [tr(P(theta0) J_z) - tr(P(0) J_z)], for a tilted axis a 1-D
    integral of that closed form.  The mesh (uniform by default) sets only
    the latitudes, about the axis, of the y != 0 isolation gate.
    """
    if not 0.0 <= theta0 <= np.pi:
        raise ValueError(f"loop latitude theta0 must lie in [0, pi], got {theta0}")
    mesh = mesh or SphereMesh(scheme="uniform")
    levels = _levels(p)
    _, positions = _resolve_labels(levels, labels)
    _check_contiguous(positions, "loop phase")
    return float(_orbit_phases(p, theta0, mesh, [positions], levels)[list(positions)].sum())
