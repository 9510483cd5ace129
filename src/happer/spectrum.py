"""Eigendecomposition, persistent level labels, and crossing detection.

Every labelled quantity reads one object, _Sectors.  It alone decides
whether n_B.J is conserved: at y = 0, or with the field along +-a,
H(x) = F + x X is block diagonal in the n_B.J eigenbasis, so every state
is an (m, rank) slot, the rank-th lowest level of the m-sector.  Ranks
never change because levels of equal m repel.  Otherwise the whole
spectrum is one sector and its slots are the ascending positions.
Labels 1..dim are the slots in stable ascending energy order at
x = 2.5, beyond every crossing (the last y = 0 crossing sits at
x* <= 2), for sweeps, crossing annotations and per-point quantities
alike.  This reproduces maximal-overlap continuation everywhere and
stays well defined inside degenerate clusters, where bare eigenvector
overlaps are ambiguous.  With sectors, sweeps, the per-point
eigensystem and label positions solve the blocks (of size 1, 2 or 3)
directly, and crossings are the roots of one pencil per pair of
sectors.  Without them labels are positions (adiabatic labelling) and
crossings are minimum-gap anti-crossings.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import SubspaceIsolationError, TrackingError
from .model import ModelParams, _hamiltonians, _product_operators, conserved_j
from .operators import require_hermitian
from .tolerances import TOL


@dataclass
class EigenSystem:
    """Ascending eigenvalues and phase-fixed orthonormal eigenvectors (columns)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    params: ModelParams | None = None


def fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    lead = vectors[idx, np.arange(vectors.shape[1])]
    phase = lead / np.abs(lead)
    return vectors * phase.conj()


def eigensystem(h: np.ndarray, params: ModelParams | None = None) -> EigenSystem:
    """Full Hermitian eigendecomposition with deterministic phases."""
    w, v = np.linalg.eigh(require_hermitian(np.asarray(h), what="eigensystem input"))
    return EigenSystem(w, fix_phases(v), params)


_X_LABELS = 2.5  # labels are numbered by energy here, beyond every crossing (x* <= 2)
_ALONG_AXIS = 1e-14  # |n_B x a| below which the field lies along the axis


class _Sectors:
    """The labelled spectrum of H(x) = F + x X at the field, axis and y of p.

    When n_B.J commutes with H (y = 0, or n_B along +-a to _ALONG_AXIS), H
    is block diagonal in the n_B.J eigenbasis: slot s is the column s of
    that basis, with the m-sectors in ascending order, and inside a sector
    the k-th slot carries the k-th lowest energy.  Sectors of equal size
    (1, 2 or 3 for S = 1) are stacked, so energies over a whole x grid
    cost one batched eigvalsh per block size above 1.  Otherwise the whole
    spectrum is one sector, solved from the full H, and slot s is the
    ascending position s.  Label k + 1 is slot slot_of_label[k], the
    stable energy order of the slots at _X_LABELS.
    """

    def __init__(self, p: ModelParams) -> None:
        self.p = p
        h0, h1 = require_hermitian(self._full(np.array([0.0, 1.0])), what="swept Hamiltonian")
        self.split = (p.y == 0.0
                      or np.linalg.norm(np.cross(p.field.unit_vector(), p.axis)) < _ALONG_AXIS)
        if self.split:
            jw, self.u = np.linalg.eigh(conserved_j(p))
            self.two_m = np.rint(2 * jw).astype(int)
            f = self.u.conj().T @ h0 @ self.u
            x_op = self.u.conj().T @ (h1 - h0) @ self.u
            off = self.two_m[:, None] != self.two_m[None, :]
            leak = max(np.max(np.abs(f[off]), initial=0.0), np.max(np.abs(x_op[off]), initial=0.0))
            if leak > 1e-9:
                raise TrackingError(f"H is not block diagonal in n_B.J (off-block {leak:.3e})")
            starts = np.flatnonzero(np.diff(self.two_m, prepend=self.two_m[0] - 1))
            sizes = np.diff(starts, append=len(self.two_m))
            self.blocks = []
            for k in np.unique(sizes):
                idx = starts[sizes == k][:, None] + np.arange(k)
                rows, cols = idx[:, :, None], idx[:, None, :]
                self.blocks.append((idx, f[rows, cols], x_op[rows, cols]))
            self.slot_of_label = np.argsort(self.levels([_X_LABELS])[0][0], kind="stable")
        else:  # positions are in ascending energy order at every x
            self.slot_of_label = np.arange(p.dim)

    def _full(self, x) -> np.ndarray:
        """The full H at coupling x, or at each coupling of an array of them."""
        return _hamiltonians(self.p, self.p.field.theta, self.p.field.phi, x, self.p.y)

    def levels(self, x_grid) -> tuple[np.ndarray, np.ndarray]:
        """Energy and <n_B.J> of every slot at each coupling of x_grid, each (len(x_grid), dim).

        <n_B.J> is the slot's m exactly where H splits, and the expectation
        value in the eigenvectors of H otherwise.
        """
        x = np.asarray(x_grid, dtype=float)
        if not self.split:
            e, v = np.linalg.eigh(self._full(x))
            return e, _j_values(self.p, v)
        e = np.empty((len(x), self.p.dim))
        for idx, f, x_op in self.blocks:
            h = f + x[:, None, None, None] * x_op
            e[:, idx] = np.linalg.eigvalsh(h) if idx.shape[1] > 1 else h[..., 0].real
        return e, np.broadcast_to(self.two_m / 2, e.shape)

    def eigh(self, x: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Slot energies, phase-fixed slot eigenvectors (columns) and <n_B.J> of each slot at x."""
        if not self.split:
            e, v = np.linalg.eigh(self._full(x))
            v = fix_phases(v)
            return e, v, _j_values(self.p, v)
        dim = self.p.dim
        e = np.empty(dim)
        w = np.zeros((dim, dim), dtype=complex)
        for idx, f, x_op in self.blocks:
            e[idx], w[idx[:, :, None], idx[:, None, :]] = np.linalg.eigh(f + x * x_op)
        return e, fix_phases(self.u @ w), self.two_m / 2


def _j_values(p: ModelParams, v: np.ndarray) -> np.ndarray:
    """<n_B.J> in each eigenvector column of v, or of each basis in a stack of them."""
    return np.real(np.einsum("...in,ij,...jn->...n", v.conj(), conserved_j(p), v))


def _levels(p: ModelParams) -> tuple[EigenSystem, np.ndarray, np.ndarray]:
    """Ascending eigensystem of H(p), <n_B.J> by position, and the position of each label.

    Positions are the slots of _Sectors(p) in stable ascending energy order
    at p.x, so the eigensystem and the label positions agree inside exact
    clusters too.
    """
    sectors = _Sectors(p)
    e, v, j = sectors.eigh(p.x)
    order = np.argsort(e, kind="stable")
    position_of_slot = np.argsort(order)
    return EigenSystem(e[order], v[:, order], p), j[order], position_of_slot[sectors.slot_of_label]


def eigensystem_with_j(p: ModelParams) -> tuple[EigenSystem, np.ndarray]:
    """Ascending eigensystem of H(p) and <n_B.J> of each position.

    j is each level's m exactly where n_B.J is conserved, inside exact
    clusters too; positions agree with level_positions(p).
    """
    es, jexp, _ = _levels(p)
    return es, jexp


def level_positions(p: ModelParams) -> np.ndarray:
    """Ascending-energy position (0-based) of each label 1..dim at coupling p.x.

    Labels are those of _Sectors, as in track_levels and find_degeneracies;
    positions agree with eigensystem_with_j(p).
    """
    return _levels(p)[2]


def _resolve_labels(p: ModelParams, labels) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Ascending labels and ascending positions (see level_positions) of a band set at p.

    labels is one label or a sequence of them, each an int or a numpy
    integer; labels outside 1..dim, repeated labels and non-integers are
    refused with a ValueError.
    """
    items = [labels] if np.ndim(labels) == 0 else list(labels)
    resolved = sorted(int(lab) for lab in items if isinstance(lab, Integral))
    if not resolved or len(resolved) != len(items) or len(set(resolved)) != len(resolved) \
            or resolved[0] < 1 or resolved[-1] > p.dim:
        raise ValueError(f"labels must be distinct integers in 1..{p.dim}, got {labels!r}")
    positions = level_positions(p)[np.array(resolved) - 1]
    return tuple(resolved), tuple(sorted(positions.tolist()))


def _check_isolated(w: np.ndarray, positions: Sequence[int], context: str,
                    thetas: Sequence[float] = (), phis: Sequence[float] = (0.0,)) -> None:
    """Refuse a band set that comes within TOL.subspace_isolation of the rest of the spectrum.

    w holds ascending eigenvalues: (d,) at one point, (n_theta, d) on a
    meridian or (n_theta, n_phi, d) on a grid.  Every boundary between a
    member position and a non-member one is checked; given the grid's
    thetas (and phis), the message names the point of smallest gap.
    """
    member = np.bincount(positions, minlength=w.shape[-1]) > 0
    lower = np.flatnonzero(member[:-1] != member[1:])  # boundaries (b, b + 1)
    if not lower.size:
        return
    gaps = w[..., lower + 1] - w[..., lower]
    at = np.unravel_index(np.argmin(gaps), gaps.shape)
    if gaps[at] < TOL.subspace_isolation:
        b = lower[at[-1]]
        where = ""
        if len(thetas):
            where = f" at (theta={thetas[at[0]]:.6f}, phi={phis[at[1] if w.ndim == 3 else 0]:.6f})"
        raise SubspaceIsolationError(
            f"{context}: bands at positions {b} and {b + 1} touch{where} (gap {gaps[at]:.2e}), "
            "so the subspace dimension is ambiguous; perturb x or y away from the touching "
            "or treat the whole cluster")


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
    params: ModelParams


def track_levels(p0: ModelParams, x_grid) -> LevelTrack:
    """Follow levels across an ascending x grid under the labels of _Sectors(p0).

    A label keeps its slot along the whole grid, so the same level carries
    the same label in every sweep window, in find_degeneracies and in
    level_positions (and with it the chern, phase and dynamics commands).
    """
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or len(x_grid) < 2 or np.any(np.diff(x_grid) <= 0):
        raise ValueError("x_grid must be ascending with at least two points")
    sectors = _Sectors(p0)
    e, j = sectors.levels(x_grid)
    slots = sectors.slot_of_label
    labels = (np.argsort(slots) + 1)[np.argsort(e, axis=1, kind="stable")]
    return LevelTrack(x_grid, labels, e[:, slots], j[:, slots], p0)


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
    if not hi > lo:
        raise ValueError("x_range must be increasing")
    sectors = _Sectors(p)
    if sectors.split:
        return _exact_crossings(sectors, lo, hi)
    return _anti_crossings(p, np.linspace(lo, hi, scan_points), max_gap)


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


def _exact_crossings(sectors: _Sectors, lo: float, hi: float) -> list[DegeneracyPoint]:
    """Crossings of labelled levels on [lo, hi], as roots of sector-pair pencils.

    Slots of sectors s and t meet where (F_s + x X_s) (x) I - I (x) (F_t + x X_t)^T
    is singular, at a finite real eigenvalue x of a pencil of size at most
    9x9 (a two-parameter eigenvalue problem); pencils of one size are solved
    as one stack.  A root counts where a slot of s and a slot of t agree to
    1e-9; roots are grouped by (x, E), and each group is read at its own
    root, every slot within TOL.degeneracy_gap of E a member, with gap 0 (the
    members' spread there is round-off).  Groups come in ascending order of
    their root, and of energy among the groups that share one.
    """
    sector_list = [(g, j) for g, (idx, _, _) in enumerate(sectors.blocks) for j in range(len(idx))]
    pairs = list(combinations(sector_list, 2))
    by_sizes: dict[tuple[int, int], list[int]] = {}
    for k, ((g_s, _), (g_t, _)) in enumerate(pairs):
        by_sizes.setdefault((g_s, g_t), []).append(k)
    roots_of = [np.empty(0)] * len(pairs)
    for (g_s, g_t), ks in by_sizes.items():
        j_s, j_t = [pairs[k][0][1] for k in ks], [pairs[k][1][1] for k in ks]
        _, f_s, x_s = sectors.blocks[g_s]
        _, f_t, x_t = sectors.blocks[g_t]
        a = _kron_difference(f_s[j_s], f_t[j_t])
        b = -_kron_difference(x_s[j_s], x_t[j_t])
        for k, x in zip(ks, _pencil_roots(a, b, lo, hi)):
            roots_of[k] = x
    roots = np.concatenate(roots_of).tolist()
    slot_pairs = [(sectors.blocks[g_s][0][j_s], sectors.blocks[g_t][0][j_t])
                  for ((g_s, j_s), (g_t, j_t)), x in zip(pairs, roots_of) for _ in x]
    e = sectors.levels(roots)[0]
    hits = []  # (root, energy) of each pair of slots that meet at a root
    for r, (s, t) in enumerate(slot_pairs):
        for i, j in zip(*np.nonzero(np.abs(e[r, s][:, None] - e[r, t]) < 1e-9)):
            hits.append((r, (e[r, s[i]] + e[r, t[j]]) / 2))
    if not hits:
        return []
    r, e_hit = (np.array(column) for column in zip(*hits))
    x_hit = np.asarray(roots)[r]
    # clusters lie far apart in (x, E), so the first hit near a hit names its
    # group, and the first hit at the same root names its root
    same_root = np.abs(x_hit[:, None] - x_hit) < 1e-7
    same_energy = np.abs(e_hit[:, None] - e_hit) < TOL.subspace_isolation
    first = np.unique(np.argmax(same_root & same_energy, axis=1))
    results = []
    for k in first:
        w = e[r[k], sectors.slot_of_label]
        members = np.flatnonzero(np.abs(w - e_hit[k]) < TOL.degeneracy_gap)
        results.append(DegeneracyPoint(
            x=float(x_hit[k]), labels=tuple(int(lab) + 1 for lab in members),
            energy=float(np.mean(w[members])), multiplicity=len(members), exact=True, gap=0.0))
    root = x_hit[np.argmax(same_root, axis=1)][first]
    return [results[i] for i in np.lexsort(([d.energy for d in results], root))]


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


def _gap_minima(p: ModelParams, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                lower: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minima of the gaps g = E[lower + 1] - E[lower], one per seed x in (lo, hi).

    Safeguarded Newton on g^2, with the step -g g' / (g'^2 + g g''), which
    is exact where two levels anti-cross alone.  g' is the Hellmann-Feynman
    slope and g'' comes from second-order perturbation theory, both from one
    batched eigh of every unfinished seed.  The sign of g' shrinks each
    seed's bracket, and a step that leaves it is a bisection step.  Returns
    the minima and the ascending eigenvalues there.
    """
    exchange = _product_operators(p.nuclear_two_l)[4]  # dH/dx
    x, lo, hi = x.copy(), lo.copy(), hi.copy()
    e = np.empty((len(x), p.dim))
    todo = np.arange(len(x))
    for count in range(1, _NEWTON_STEPS + 1):
        if not todo.size:
            break
        w, v = np.linalg.eigh(_hamiltonians(p, p.field.theta, p.field.phi, x[todo], p.y))
        e[todo] = w
        xm = np.swapaxes(v.conj(), -1, -2) @ exchange @ v
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


def _anti_crossings(p: ModelParams, grid: np.ndarray, max_gap: float) -> list[DegeneracyPoint]:
    """Adjacent-gap minima of the y != 0 spectrum: grid minima refined by _gap_minima."""
    energies = np.linalg.eigvalsh(_hamiltonians(p, p.field.theta, p.field.phi, grid, p.y))
    gaps = np.diff(energies, axis=1)
    interior = (gaps[1:-1] < gaps[:-2]) & (gaps[1:-1] <= gaps[2:])
    lower, i = np.nonzero(interior.T)
    i = i + 1
    x, e = _gap_minima(p, grid[i], grid[i - 1], grid[i + 1], lower)
    results: list[DegeneracyPoint] = []
    for pair, x_min, w in zip(lower.tolist(), x.tolist(), e):
        g_min = float(w[pair + 1] - w[pair])
        seen = any(abs(r.x - x_min) < 1e-6 and pair + 1 in r.labels for r in results)
        if g_min < max_gap and not seen:
            results.append(DegeneracyPoint(
                x=x_min, labels=(pair + 1, pair + 2), energy=float(np.mean(w[pair:pair + 2])),
                multiplicity=2, exact=False, gap=g_min))
    # merge anti-crossings that share an x location
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
