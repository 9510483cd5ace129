"""Eigendecomposition, persistent level labels, and crossing detection.

Every labelled quantity reads one object, _Sectors, and its pencil
H(x) = F + x X, built in the field frame where n_B.J is J_z (only
eigensystem_with_j turns eigenvectors back to the lab).  _Sectors alone
decides whether n_B.J is conserved: at y = 0, or with the field along
+-a, F and X are block diagonal in the J_z sectors, sets of
product-basis rows that no eigensolve finds, so every state is an
(m, rank) slot, the rank-th lowest level of the m-sector.  Ranks never change because levels of
equal m repel.  Otherwise the pencil is one sector and its slots are
the ascending positions.  Labels 1..dim are the slots in
stable ascending energy order at x = 2.5, beyond every crossing (the
last y = 0 crossing sits at x* <= 2), for sweeps, crossing annotations
and per-point quantities alike.  This reproduces maximal-overlap
continuation everywhere and stays well defined inside degenerate
clusters, where bare eigenvector overlaps are ambiguous.  With sectors,
sweeps, the per-point eigensystem and label positions solve the blocks
(of size 1, 2 or 3) directly, and crossings are the roots of every
sector pair's pencil, solved as one padded stack, each confirmed on
that pair's two blocks.  Without them labels are positions (adiabatic
labelling) and crossings are that sector's minimum-gap anti-crossings.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from itertools import combinations
from numbers import Integral
from typing import Callable, Sequence

import numpy as np

from .errors import SubspaceIsolationError, TrackingError
from .model import ModelParams, _hamiltonians, _jz_diagonal
from .operators import _turned, require_hermitian
from .tolerances import TOL


@dataclass
class EigenSystem:
    """Ascending eigenvalues and phase-fixed orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    lead = vectors[idx, np.arange(vectors.shape[1])]
    phase = lead / np.abs(lead)
    return vectors * phase.conj()


def eigensystem(h: np.ndarray) -> EigenSystem:
    """Full Hermitian eigendecomposition with deterministic phases."""
    w, v = np.linalg.eigh(require_hermitian(np.asarray(h), what="eigensystem input"))
    return EigenSystem(w, fix_phases(v))


_X_LABELS = 2.5  # labels are numbered by energy here, beyond every crossing (x* <= 2)
_ALONG_AXIS = 1e-14  # |n_B x a| below which the field lies along the axis


def _frame_axis(p: ModelParams) -> tuple[float, float, float]:
    """The axis a in the field frame, R^-1 a = (e_theta.a, e_phi.a, n_B.a), R(theta, phi) z = n_B."""
    theta, phi = p.field.theta, p.field.phi
    frame = np.array([[np.cos(theta) * np.cos(phi), np.cos(theta) * np.sin(phi), -np.sin(theta)],
                      [-np.sin(phi), np.cos(phi), 0.0], p.field.unit_vector()])
    return tuple((frame @ np.asarray(p.axis, dtype=float)).tolist())


@lru_cache(maxsize=16)
def _sector_plan(nuclear_two_l: int) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]],
                                               np.ndarray]:
    """The J_z sectors of the product basis: 2m of each slot, the sectors by size, the off-block mask.

    J_z is diagonal in the product basis, so a sector is a set of its rows.
    Slots list the sectors in ascending m.  Each size group holds the slots
    and the rows of its sectors, both of shape (n_sectors, size).  The mask
    is True at the (row, column) entries that couple two sectors.  All of
    them are read-only.
    """
    two_m_of_row = np.rint(2 * _jz_diagonal(nuclear_two_l)).astype(int)
    rows_by_slot = np.argsort(two_m_of_row, kind="stable")
    two_m = two_m_of_row[rows_by_slot]
    starts = np.flatnonzero(np.diff(two_m, prepend=two_m[0] - 1))
    sizes = np.diff(starts, append=len(two_m))
    groups = []
    for k in np.unique(sizes):
        slots = starts[sizes == k][:, None] + np.arange(k)
        groups.append((slots, rows_by_slot[slots]))
    off = np.not_equal.outer(two_m_of_row, two_m_of_row)
    for a in (two_m, off, *(a for group in groups for a in group)):
        a.flags.writeable = False
    return two_m, groups, off


class _Sectors:
    """The labelled spectrum of H(x) = F + x X at the field, axis and y of p.

    F and X are built in the field frame, where n_B points along z and
    n_B.J is J_z: there H is the model at theta = 0, with the axis turned
    to R^-1 a.  When n_B.J commutes with H (y = 0, or n_B along +-a to
    _ALONG_AXIS), H is block diagonal in the J_z sectors, which are sets
    of product-basis rows (_sector_plan), so no eigensolve finds them.
    Slot s is the s-th state of the sectors in ascending m, and inside a
    sector the k-th slot carries the k-th lowest energy.  Sectors of equal
    size (1, 2 or 3 for S = 1) are stacked, so energies over a whole x grid
    cost one batched eigvalsh per block size above 1.  Otherwise the whole
    pencil is one sector and slot s is the ascending position s.  Either
    way eigh solves the blocks at one x in the field frame; only
    eigensystem_with_j turns its eigenvectors to the lab.
    Label k + 1 is slot slot_of_label[k], the stable energy order of the
    slots at _X_LABELS.
    """

    def __init__(self, p: ModelParams) -> None:
        self.p = p
        self.split = (p.y == 0.0
                      or np.linalg.norm(np.cross(p.field.unit_vector(), p.axis)) < _ALONG_AXIS)
        frame = p if p.y == 0.0 else replace(p, axis=_frame_axis(p))
        h0, h1 = require_hermitian(_hamiltonians(frame, 0.0, 0.0, np.array([0.0, 1.0]), p.y),
                                   what="swept Hamiltonian")
        x_op = h1 - h0
        if self.split:
            self.two_m, groups, off = _sector_plan(p.nuclear_two_l)
            leak = max(np.max(np.abs(h0[off]), initial=0.0), np.max(np.abs(x_op[off]), initial=0.0))
            if leak > 1e-9:
                raise TrackingError(f"H is not block diagonal in n_B.J (off-block {leak:.3e})")
        else:  # one sector, whose slots are its positions, in ascending energy order at every x
            every = np.arange(p.dim)[None]
            groups = [(every, every)]
        self.blocks = [(slots, rows, h0[rows[:, :, None], rows[:, None, :]],
                        x_op[rows[:, :, None], rows[:, None, :]]) for slots, rows in groups]
        self.slot_of_label = (np.argsort(self.levels([_X_LABELS])[0][0], kind="stable")
                              if self.split else np.arange(p.dim))

    def levels(self, x_grid) -> tuple[np.ndarray, np.ndarray]:
        """Energy and <n_B.J> of every slot at each coupling of x_grid, each (len(x_grid), dim).

        <n_B.J> is the slot's m exactly where H splits, and the expectation
        value in the one sector's eigenvectors otherwise.
        """
        x = np.asarray(x_grid, dtype=float)
        if not self.split:
            (_, _, (f,), (x_op,)), = self.blocks
            e, v = np.linalg.eigh(f + x[:, None, None] * x_op)
            return e, _frame_j(self.p.nuclear_two_l, v)
        e = np.empty((len(x), self.p.dim))
        for slots, _, f, x_op in self.blocks:
            e[:, slots] = _energies(f + x[:, None, None, None] * x_op)
        return e, np.broadcast_to(self.two_m / 2, e.shape)

    def eigh(self, x: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slot energies, field-frame slot eigenvectors (columns) and <n_B.J> of each slot at x.

        A 1x1 sector is its own energy and eigenvector, read off as levels
        reads it; larger blocks are solved by eigh.
        """
        e = np.empty(self.p.dim)
        v = np.zeros((self.p.dim, self.p.dim), dtype=complex)
        for slots, rows, f, x_op in self.blocks:
            if f.shape[-1] == 1:
                e[slots], v[rows, slots] = _energies(f + x * x_op), 1.0
            else:
                e[slots], v[rows[:, :, None], slots[:, None, :]] = np.linalg.eigh(f + x * x_op)
        return e, v, self.two_m / 2 if self.split else _frame_j(self.p.nuclear_two_l, v)


def _energies(h: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each block of a stack; a 1x1 block is its own energy."""
    return np.linalg.eigvalsh(h) if h.shape[-1] > 1 else h[..., 0].real


def _frame_j(nuclear_two_l: int, v: np.ndarray) -> np.ndarray:
    """<n_B.J> = sum_i |v_i|^2 m_i (J_z of the field frame) of each column of v, or of a stack."""
    return (np.abs(v) ** 2 * _jz_diagonal(nuclear_two_l)[:, None]).sum(-2)


def _levels(p: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Ascending energies of H(p), <n_B.J>, the position of each label, and the eigenvectors.

    One block solve of _Sectors(p) at p.x, eigenvectors (columns) in the
    field frame.  Positions are its slots in stable ascending energy order,
    so energies and label positions agree inside exact clusters too.
    """
    sectors = _Sectors(p)
    e, v, j = sectors.eigh(p.x)
    order = np.argsort(e, kind="stable")
    return e[order], j[order], np.argsort(order)[sectors.slot_of_label], v[:, order]


def eigensystem_with_j(p: ModelParams) -> tuple[EigenSystem, np.ndarray]:
    """Ascending eigensystem of H(p) and <n_B.J> of each position.

    j is each level's m exactly where n_B.J is conserved, inside exact
    clusters too; positions agree with level_positions(p).  The solve of
    _levels, its eigenvectors turned to the lab by e^{-i phi J_z} e^{-i theta J_y}.
    """
    e, j, _, v = _levels(p)
    turn_z = np.exp(-1j * p.field.phi * _jz_diagonal(p.nuclear_two_l))[:, None]
    return EigenSystem(e, fix_phases(turn_z * _turned(v, np.array([p.field.theta]))[0])), j


def level_positions(p: ModelParams) -> np.ndarray:
    """Ascending-energy position (0-based) of each label 1..dim at coupling p.x.

    Labels are those of _Sectors, as in track_levels and find_degeneracies;
    positions agree with eigensystem_with_j(p).
    """
    return _levels(p)[2]


def _resolve_labels(levels: tuple, labels) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ascending labels and ascending positions of a band set in the solve levels = _levels(p).

    labels is one label or a sequence of them, each an int or a numpy
    integer; labels outside 1..dim, repeated labels and non-integers are
    refused with a ValueError.
    """
    dim = len(levels[0])
    items = [labels] if np.ndim(labels) == 0 else list(labels)
    resolved = sorted(int(lab) for lab in items if isinstance(lab, Integral))
    if not resolved or len(resolved) != len(items) or len(set(resolved)) != len(resolved) \
            or resolved[0] < 1 or resolved[-1] > dim:
        raise ValueError(f"labels must be distinct integers in 1..{dim}, got {labels!r}")
    positions = levels[2][np.array(resolved) - 1]
    return tuple(resolved), tuple(sorted(positions.tolist()))


def _check_isolated(w: np.ndarray, sets: Sequence[Sequence[int]], context: str,
                    where: Callable[[int], str] | None = None,
                    advice: str = "so the subspace dimension is ambiguous; perturb x or y away "
                                  "from the touching or treat the whole cluster") -> float:
    """Refuse band sets of which one comes within TOL.subspace_isolation of the rest of the spectrum.

    w holds ascending eigenvalues, (d,) at one point or (n, d) on n points,
    and sets the band sets of one solve, each a sequence of positions.  A
    set is isolated when every boundary between a member position and a
    non-member one keeps a gap, so one pass over the union of the sets'
    boundaries raises exactly when some set would alone.  It names the
    boundary of smallest gap over all sets (and where(i) of its point i)
    and returns that gap, inf when no set has a boundary.
    """
    member = np.zeros((len(sets), w.shape[-1]), dtype=bool)
    member[[k for k, s in enumerate(sets) for _ in s], [b for s in sets for b in s]] = True
    lower = np.flatnonzero((member[:, :-1] != member[:, 1:]).any(axis=0))  # boundaries (b, b + 1)
    if not lower.size:
        return np.inf
    gaps = w[..., lower + 1] - w[..., lower]
    at = np.unravel_index(np.argmin(gaps), gaps.shape)
    if gaps[at] < TOL.subspace_isolation:
        b = lower[at[-1]]
        place = where(at[0]) if where else ""
        raise SubspaceIsolationError(f"{context}: bands at positions {b} and {b + 1} "
                                     f"touch{place} (gap {gaps[at]:.2e}), {advice}")
    return float(gaps[at])


def _half_grid(dim: int, n_levels: int) -> bool:
    """Whether the fourpi Chern of n_levels levels of a dim-level spectrum sits on Z + 1/2.

    Each level carries -<J>, a half-integer exactly when dim is even (2L
    odd for the model's dim = 3(2L + 1), j half-integer for a spin-j k.F),
    so a set of k levels lands on Z + 1/2 when dim is even and k is odd,
    and on Z otherwise.
    """
    return dim % 2 == 0 and n_levels % 2 == 1


@dataclass
class LevelTrack:
    """Labelled energies along an x sweep.

    labels[i, pos] is the label of the pos-th lowest state at x_grid[i];
    energies[i, lab-1] and j_values[i, lab-1] are indexed by label.
    """

    x_grid: np.ndarray
    labels: np.ndarray
    energies: np.ndarray
    j_values: np.ndarray


def track_levels(p0: ModelParams, x_grid) -> LevelTrack:
    """Follow levels across an ascending x grid under the labels of _Sectors(p0).

    A label keeps its slot along the whole grid, so the same level carries
    the same label in every sweep window, in find_degeneracies and in
    level_positions (and with it the chern, phase and dynamics commands).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if not np.all(np.isfinite(x_grid)):  # NaN fails no comparison, so refuse it by name
        raise ValueError(f"x_grid must be finite, got {x_grid[~np.isfinite(x_grid)][0]}")
    if x_grid.ndim != 1 or len(x_grid) < 2 or np.any(np.diff(x_grid) <= 0):
        raise ValueError("x_grid must be ascending with at least two points")
    sectors = _Sectors(p0)
    e, j = sectors.levels(x_grid)
    slots = sectors.slot_of_label
    labels = (np.argsort(slots) + 1)[np.argsort(e, axis=1, kind="stable")]
    return LevelTrack(x_grid, labels, e[:, slots], j[:, slots])


@dataclass(frozen=True)
class DegeneracyPoint:
    """One detected crossing (exact, gap 0) or anti-crossing (minimum gap)."""

    x: float
    labels: tuple[int, ...]
    energy: float
    multiplicity: int
    exact: bool
    gap: float


def find_degeneracies(p: ModelParams, x_range: tuple[float, float],
                      scan_points: int = 201,
                      max_gap: float = 0.05) -> list[DegeneracyPoint]:
    """Locate level crossings where n_B.J is conserved, minimum-gap anti-crossings elsewhere.

    _Sectors(p) makes that decision and numbers the labels, as in
    track_levels and level_positions.  Exact crossings are the real roots
    of one pencil per pair of n_B.J sectors, tangencies (the E = 0 cluster
    at x = 0) included.  Anti-crossings are the gap minima on a
    scan_points grid, which only they use, refined together by
    safeguarded Newton steps on the squared gap and reported below max_gap
    (raise it to explore strongly split spectra, where one crossing splits
    into several minimum-gap points).
    """
    lo, hi = float(x_range[0]), float(x_range[1])
    if not np.isfinite([lo, hi]).all():
        raise ValueError(f"x_range must be finite, got ({lo}, {hi})")
    if not hi > lo:
        raise ValueError("x_range must be increasing")
    sectors = _Sectors(p)
    if sectors.split:
        return _exact_crossings(sectors, lo, hi)
    return _anti_crossings(sectors, np.linspace(lo, hi, scan_points), max_gap)


def _kron_difference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) I - I (x) b^T for stacks of a and b, singular where a and b share an eigenvalue."""
    n, m = a.shape[-1], b.shape[-1]
    eye_a, eye_b = np.eye(n)[:, None, :, None], np.eye(m)[None, :, None, :]
    diff = a[..., :, None, :, None] * eye_b - eye_a * np.swapaxes(b, -1, -2)[..., None, :, None, :]
    return diff.reshape(*diff.shape[:-4], n * m, n * m)


# Pencil shifts, as points of the complex plane in units of the window
# [lo, hi] -> [0, 1]; each lies off the real axis by 0.38 to 1 window widths.
_SHIFTS = (0.5 + 0.5j, 0.381966 + 0.618034j, 0.618034 + 0.381966j, 0.5 + 1.0j)
_SHIFT_COND = 1e6


def _pencil_roots(a: np.ndarray, b: np.ndarray, lo: float, hi: float) -> list[np.ndarray]:
    """Real roots in [lo, hi] of det(a_k - x b_k) = 0, for each pencil of an equal-size stack.

    By shift and invert: x is a root where mu = 1 / (x - sigma) is an
    eigenvalue of (a - sigma b)^-1 b, so an infinite root is mu = 0.
    sigma is the first of the _SHIFTS at which a - sigma b is well
    conditioned.  Off the real axis it keeps 0.38 window widths or more
    from every real root, so a simple root in the window comes out to
    ~1e-14 and a tangency, a double root, to ~1e-8.  A pencil that is
    ill-conditioned at every shift is singular for every x and has no roots.
    """
    sigma = np.empty(len(a), dtype=complex)
    todo = np.arange(len(a))
    for shift in _SHIFTS:
        sigma[todo] = lo + (hi - lo) * shift
        todo = todo[np.linalg.cond(a[todo] - sigma[todo, None, None] * b[todo]) > _SHIFT_COND]
        if not todo.size:
            break
    ok = np.ones(len(a), dtype=bool)
    ok[todo] = False
    roots = [np.empty(0)] * len(a)
    sigma = sigma[ok]
    mu = np.linalg.eigvals(np.linalg.solve(a[ok] - sigma[:, None, None] * b[ok], b[ok]))
    # a root in the window is no farther from sigma than the window's ends,
    # so its mu is far from 0
    reach = np.maximum(np.abs(lo - sigma), np.abs(hi - sigma)) + 1e-6
    near = np.abs(mu) * reach[:, None] >= 1
    x = sigma[:, None] + 1 / np.where(near, mu, 1)
    # a tangency is a pair of roots with |Im x| ~ 1e-8; a root within its
    # accuracy of the window belongs to it
    hit = near & (np.abs(x.imag) <= 1e-6) & (lo - 1e-7 <= x.real) & (x.real <= hi + 1e-7)
    for k, row, keep in zip(np.flatnonzero(ok), np.clip(x.real, lo, hi), hit):
        roots[k] = row[keep]
    return roots


def _pair_pencils(sectors: _Sectors) -> tuple[list[tuple[int, int]], np.ndarray, np.ndarray]:
    """Every pair of sectors, as (block group, index in it) of s and t, and the stack of their pencils.

    Slots of sectors s and t meet where a - x b = (F_s + x X_s) (x) I - I (x)
    (F_t + x X_t)^T is singular.  Each pencil is padded to the largest with
    the identity in a and zero in b, which adds only infinite roots.
    """
    sector_list = [(g, j) for g, (slots, _, _, _) in enumerate(sectors.blocks)
                   for j in range(len(slots))]
    pairs = list(combinations(sector_list, 2))
    by_sizes: dict[tuple[int, int], list[int]] = {}
    for k, ((g_s, _), (g_t, _)) in enumerate(pairs):
        by_sizes.setdefault((g_s, g_t), []).append(k)
    size = max(sectors.blocks[g_s][2].shape[-1] * sectors.blocks[g_t][2].shape[-1]
               for g_s, g_t in by_sizes)
    a = np.zeros((len(pairs), size, size), dtype=complex)
    a[:, np.arange(size), np.arange(size)] = 1.0
    b = np.zeros_like(a)
    for (g_s, g_t), ks in by_sizes.items():
        j_s, j_t = [pairs[k][0][1] for k in ks], [pairs[k][1][1] for k in ks]
        _, _, f_s, x_s = sectors.blocks[g_s]
        _, _, f_t, x_t = sectors.blocks[g_t]
        n = f_s.shape[-1] * f_t.shape[-1]
        a[ks, :n, :n] = _kron_difference(f_s[j_s], f_t[j_t])
        b[ks, :n, :n] = -_kron_difference(x_s[j_s], x_t[j_t])
    return pairs, a, b


def _exact_crossings(sectors: _Sectors, lo: float, hi: float) -> list[DegeneracyPoint]:
    """Crossings of labelled levels on [lo, hi], as roots of sector-pair pencils.

    The roots are the finite real eigenvalues x of every sector pair's
    pencil, of size at most 9x9 (a two-parameter eigenvalue problem),
    solved as one padded stack (_pair_pencils).  A root counts where a slot
    of s and a slot of t agree to 1e-9 on the pair's own two blocks, and
    the blocks of one size are solved at all their roots as one stack.
    Roots are grouped by (x, E), and the full spectrum is solved at each
    group's root, every slot within TOL.degeneracy_gap of E a member, with
    gap 0; members spread by TOL.degeneracy_gap or more mark a crossing
    just outside the window, clipped onto it, and are dropped.  Groups come
    in ascending order of their root, and of energy among the groups that
    share one.
    """
    pairs, a, b = _pair_pencils(sectors)
    roots_of = _pencil_roots(a, b, lo, hi)
    roots = np.concatenate(roots_of)
    # (block group, index in it) of the sectors s and t of each root's pair,
    # and their energies there, NaN-padded to the largest block
    tag = np.repeat(np.array(pairs), [len(x) for x in roots_of], axis=0)
    e = np.full((len(roots), 2, max(f.shape[-1] for _, _, f, _ in sectors.blocks)), np.nan)
    for g, (_, _, f, x_op) in enumerate(sectors.blocks):
        at, side = np.nonzero(tag[..., 0] == g)
        block = tag[at, side, 1]
        e[at, side, :f.shape[-1]] = _energies(f[block] + roots[at, None, None] * x_op[block])
    r, i, j = np.nonzero(np.abs(e[:, 0, :, None] - e[:, 1, None, :]) < 1e-9)
    if not r.size:
        return []
    x_hit, e_hit = roots[r], (e[r, 0, i] + e[r, 1, j]) / 2
    first = _hit_groups(x_hit, e_hit)
    results = []
    for k, w in zip(first, sectors.levels(x_hit[first])[0][:, sectors.slot_of_label]):
        members = np.flatnonzero(np.abs(w - e_hit[k]) < TOL.degeneracy_gap)
        if np.ptp(w[members]) < TOL.degeneracy_gap:
            results.append(DegeneracyPoint(
                x=float(x_hit[k]), labels=tuple(int(lab) + 1 for lab in members),
                energy=float(np.mean(w[members])), multiplicity=len(members), exact=True, gap=0.0))
    return results


def _hit_groups(x_hit: np.ndarray, e_hit: np.ndarray) -> np.ndarray:
    """The first hit of each group of hits, by root and then by energy.

    Sorted by x, hits less than 1e-7 apart share a root; sorted by energy
    at one root, hits less than TOL.subspace_isolation apart share a group.
    Steps chain, so a tangency whose roots scatter over a few 1e-7 stays one
    group.  Sorting takes O(n log n) time and O(n) memory.
    """
    by_x = np.argsort(x_hit, kind="stable")
    x = x_hit[by_x]
    root = np.empty(len(x_hit), dtype=int)
    root[by_x] = np.cumsum(np.concatenate(([True], x[1:] - x[:-1] >= 1e-7)))
    order = np.lexsort((e_hit, root))
    r, e = root[order], e_hit[order]
    steps = (r[1:] != r[:-1]) | (e[1:] - e[:-1] >= TOL.subspace_isolation)
    starts = np.concatenate(([True], steps))
    return np.minimum.reduceat(order, np.flatnonzero(starts))


_NEWTON_STEPS = 60  # enough to bisect a grid step down to the tolerance


def _curvature(w: np.ndarray, xm: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Second derivative of level n[i] of each eigensystem i from perturbation theory.

    E_n'' = 2 sum_{m != n} |X_mn|^2 / (E_n - E_m), with w the eigenvalues
    and xm the dH/dx matrix in the eigenbasis.
    """
    rows = np.arange(len(n))
    denom = w[rows, n][:, None] - w
    denom[rows, n] = np.inf
    return 2 * np.sum(np.abs(xm[rows, :, n]) ** 2 / denom, axis=1)


def _gap_minima(f: np.ndarray, x_op: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minima of the gaps g = E[lower + 1] - E[lower] of H = f + x x_op, one per seed x in (lo, hi).

    f + x x_op is the field-frame pencil of an unsplit _Sectors, its one
    sector.  Safeguarded Newton on g^2, with the step -g g' / (g'^2 + g g''), which
    is exact where two levels anti-cross alone.  g' is the Hellmann-Feynman
    slope and g'' comes from second-order perturbation theory, both from one
    batched eigh of every unfinished seed, with dH/dx = x_op.  The sign of
    g' shrinks each seed's bracket, and a step that leaves it is a
    bisection step.  Returns the minima and the ascending eigenvalues there.
    """
    x, lo, hi = x.copy(), lo.copy(), hi.copy()
    e = np.empty((len(x), f.shape[-1]))
    todo = np.arange(len(x))
    for count in range(1, _NEWTON_STEPS + 1):
        if not todo.size:
            break
        w, v = np.linalg.eigh(f + x[todo, None, None] * x_op)
        e[todo] = w
        xm = np.swapaxes(v.conj(), -1, -2) @ x_op @ v
        rows, k = np.arange(len(todo)), lower[todo]
        g = w[rows, k + 1] - w[rows, k]
        slope = xm[rows, k + 1, k + 1].real - xm[rows, k, k].real
        with np.errstate(divide="ignore", invalid="ignore"):  # a level degenerate with k or k + 1
            bend = _curvature(w, xm, k + 1) - _curvature(w, xm, k)
            step = -g * slope / (slope ** 2 + g * bend)
        xt = x[todo]
        lo[todo] = np.where(slope < 0, xt, lo[todo])
        hi[todo] = np.where(slope > 0, xt, hi[todo])
        tol = 1e-14 * np.maximum(1.0, np.abs(xt))
        # a seed still moving at the iteration limit is read where it stands
        done = (np.abs(step) <= tol) | (hi[todo] - lo[todo] <= tol) | (slope == 0) \
            | (count == _NEWTON_STEPS)
        new = xt + step
        inside = (lo[todo] < new) & (new < hi[todo])  # false for a step that is not finite
        x[todo] = np.where(done, xt, np.where(inside, new, (lo[todo] + hi[todo]) / 2))
        todo = todo[~done]
    return x, e


def _anti_crossings(sectors: _Sectors, grid: np.ndarray, max_gap: float) -> list[DegeneracyPoint]:
    """Adjacent-gap minima of the one sector's pencil f + x X: grid minima refined by _gap_minima.

    Minima less than 1e-4 apart in x, from two seeds or of adjacent gaps, merge into one.
    """
    (_, _, (f,), (x_op,)), = sectors.blocks
    energies = np.linalg.eigvalsh(f + grid[:, None, None] * x_op)
    gaps = np.diff(energies, axis=1)
    interior = (gaps[1:-1] < gaps[:-2]) & (gaps[1:-1] <= gaps[2:])
    lower, i = np.nonzero(interior.T)  # the minimum of gap lower sits at grid[i + 1]
    x, e = _gap_minima(f, x_op, grid[i + 1], grid[i], grid[i + 2], lower)
    results: list[DegeneracyPoint] = []
    for pair, x_min, w in zip(lower.tolist(), x.tolist(), e):
        g_min = float(w[pair + 1] - w[pair])
        if g_min < max_gap:
            results.append(DegeneracyPoint(
                x=x_min, labels=(pair + 1, pair + 2), energy=float(np.mean(w[pair:pair + 2])),
                multiplicity=2, exact=False, gap=g_min))
    merged: list[DegeneracyPoint] = []
    results.sort(key=lambda r: r.x)
    for r in results:
        if merged and abs(merged[-1].x - r.x) < 1e-4:
            prev = merged.pop()
            labels = tuple(sorted(set(prev.labels) | set(r.labels)))
            merged.append(DegeneracyPoint(
                x=(prev.x + r.x) / 2, labels=labels,
                energy=(prev.energy + r.energy) / 2,
                multiplicity=len(labels), exact=False, gap=min(prev.gap, r.gap)))
        else:
            merged.append(r)
    return merged
