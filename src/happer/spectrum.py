"""Eigendecomposition, persistent level labels, and crossing detection.

Levels are labelled 1..dim by ascending energy at the large-x end of a
sweep and followed continuously as x decreases.  At y = 0 this is done
through the conserved quantity n_B.J: H(x) = F + x X is block diagonal
in the n_B.J eigenbasis, so every state is an (m, rank) slot, the
rank-th lowest level of the m-sector.  Ranks never change because
levels of equal m repel, so the label of a state is the label of the
same slot at large x.  This reproduces maximal-overlap continuation
everywhere and stays well defined inside degenerate clusters, where
bare eigenvector overlaps are ambiguous.  Sweeps, the per-point
eigensystem and label positions all solve the sectors (blocks of size
1, 2 or 3) directly, and crossings are the roots of one pencil per pair
of sectors; there is no full-matrix solve at y = 0.

For y != 0 there are no exact crossings and labels simply follow the
energy order (adiabatic labelling), matching how per-level quantities
are indexed in anti-crossing scans.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import SubspaceIsolationError, TrackingError
from .model import ModelParams, _hamiltonians, _product_operators, build_hamiltonian, conserved_j
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


class _Sectors:
    """H(x) = F + x X at y = 0, block diagonal in the n_B.J eigenbasis.

    Slot s is the column s of that basis, with the m-sectors in ascending
    order; inside a sector the k-th slot carries the k-th lowest energy.
    Sectors of equal size (1, 2 or 3 for S = 1) are stacked, so energies
    over a whole x grid cost one batched eigvalsh per block size above 1.
    """

    def __init__(self, p: ModelParams) -> None:
        jw, self.u = np.linalg.eigh(conserved_j(p))
        self.two_m = np.rint(2 * jw).astype(int)
        h0, h1 = _hamiltonians(p, p.field.theta, p.field.phi, np.array([0.0, 1.0]), p.y)
        f = self.u.conj().T @ h0 @ self.u
        x_op = self.u.conj().T @ (h1 - h0) @ self.u
        off = self.two_m[:, None] != self.two_m[None, :]
        leak = max(np.max(np.abs(f[off]), initial=0.0), np.max(np.abs(x_op[off]), initial=0.0))
        if leak > 1e-9:
            raise TrackingError(f"H is not block diagonal in n_B.J (off-block {leak:.3e}); is y = 0?")
        starts = np.flatnonzero(np.diff(self.two_m, prepend=self.two_m[0] - 1))
        sizes = np.diff(starts, append=len(self.two_m))
        self.blocks = []
        for k in np.unique(sizes):
            idx = starts[sizes == k][:, None] + np.arange(k)
            rows, cols = idx[:, :, None], idx[:, None, :]
            self.blocks.append((idx, f[rows, cols], x_op[rows, cols]))

    def energies(self, x_grid) -> np.ndarray:
        """Energy of every slot at each coupling of x_grid, shape (len(x_grid), dim)."""
        x = np.asarray(x_grid, dtype=float)[:, None, None, None]
        e = np.empty((x.shape[0], len(self.two_m)))
        for idx, f, x_op in self.blocks:
            h = f + x * x_op
            e[:, idx] = np.linalg.eigvalsh(h) if idx.shape[1] > 1 else h[..., 0].real
        return e

    def labelled_energies(self, x_grid) -> tuple[np.ndarray, np.ndarray]:
        """Slot energies over x_grid and the slot of each label, numbered at x_grid[-1]."""
        e = self.energies(x_grid)
        return e, np.argsort(e[-1], kind="stable")

    def eigh(self, x: float) -> tuple[np.ndarray, np.ndarray]:
        """Slot energies and slot eigenvectors (columns, in the original basis) at coupling x."""
        dim = len(self.two_m)
        e = np.empty(dim)
        w = np.zeros((dim, dim), dtype=complex)
        for idx, f, x_op in self.blocks:
            e[idx], w[idx[:, :, None], idx[:, None, :]] = np.linalg.eigh(f + x * x_op)
        return e, self.u @ w


def _j_values(p: ModelParams, v: np.ndarray) -> np.ndarray:
    """<n_B.J> in each eigenvector column of v, or of each basis in a stack of them."""
    return np.real(np.einsum("...in,ij,...jn->...n", v.conj(), conserved_j(p), v))


def _levels(p: ModelParams) -> tuple[EigenSystem, np.ndarray, np.ndarray]:
    """Ascending eigensystem of H(p), <n_B.J> by position, and the position of each label.

    At y = 0 the sector blocks are solved at p.x and at a reference
    coupling beyond the last crossing.  Labels 1..dim are the slots in
    stable ascending energy order at the reference, positions the slots
    in stable ascending order at p.x, and j is the slot's m exactly, so
    the eigensystem and the label positions agree inside exact clusters
    too.  At y != 0 there are no exact crossings; labels are positions.
    """
    if p.y != 0.0:
        es = eigensystem(build_hamiltonian(p), p)
        return es, _j_values(p, es.eigenvectors), np.arange(p.dim)
    sectors = _Sectors(p)
    _, slot_of_label = sectors.labelled_energies([max(2.5, abs(p.x) + 1.0)])
    e, v = sectors.eigh(p.x)
    order = np.argsort(e, kind="stable")
    position_of_slot = np.empty(p.dim, dtype=int)
    position_of_slot[order] = np.arange(p.dim)
    es = EigenSystem(e[order], fix_phases(v[:, order]), p)
    return es, sectors.two_m[order] / 2, position_of_slot[slot_of_label]


def eigensystem_with_j(p: ModelParams) -> tuple[EigenSystem, np.ndarray]:
    """Ascending eigensystem of H(p) and <n_B.J> of each position.

    At y = 0 the eigenvectors are n_B.J eigenstates, also inside exact
    clusters, and j is each level's m exactly; positions agree with
    level_positions(p).  At y != 0 there are no exact crossings and j is
    the expectation value in the eigenvectors of H.
    """
    es, jexp, _ = _levels(p)
    return es, jexp


def level_positions(p: ModelParams) -> np.ndarray:
    """Ascending-energy position (0-based) of each label 1..dim at coupling p.x.

    At y = 0 labels are numbered by energy at a reference coupling beyond
    the last crossing and keep their n_B.J slot; positions agree with
    eigensystem_with_j(p).  At y != 0 there are no exact crossings and
    labels are the positions themselves.
    """
    if p.y != 0.0:
        return np.arange(p.dim)
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
    """Follow levels across an ascending x grid, labelled from the top end."""
    x_grid = np.asarray(x_grid, dtype=float)
    if x_grid.ndim != 1 or len(x_grid) < 2 or np.any(np.diff(x_grid) <= 0):
        raise ValueError("x_grid must be ascending with at least two points")
    n, dim = len(x_grid), p0.dim
    if p0.y == 0.0:
        sectors = _Sectors(p0)
        e, slot_of_label = sectors.labelled_energies(x_grid)
        label_of_slot = np.empty(dim, dtype=int)
        label_of_slot[slot_of_label] = np.arange(1, dim + 1)
        labels = label_of_slot[np.argsort(e, axis=1, kind="stable")]
        j_values = np.tile(sectors.two_m[slot_of_label] / 2, (n, 1))
        return LevelTrack(x_grid, labels, e[:, slot_of_label], j_values, p0)
    h = _hamiltonians(p0, p0.field.theta, p0.field.phi, x_grid, p0.y)
    energies, v = np.linalg.eigh(require_hermitian(h, what="swept Hamiltonian"))
    j_values = _j_values(p0, v)
    labels = np.tile(np.arange(1, dim + 1), (n, 1))
    return LevelTrack(x_grid, labels, energies, j_values, p0)


@dataclass(frozen=True)
class DegeneracyPoint:
    """One detected crossing (exact) or anti-crossing (minimum gap)."""

    x: float
    labels: tuple[int, ...]
    energy: float
    multiplicity: int
    exact: bool
    gap: float


def find_degeneracies(p: ModelParams, x_range: tuple[float, float],
                      scan_points: int = 201,
                      max_gap: float = 0.05) -> list[DegeneracyPoint]:
    """Locate level crossings (y = 0) or minimum-gap anti-crossings (y != 0).

    Exact crossings are the real roots of one pencil per pair of n_B.J
    sectors, tangencies (the E = 0 cluster at x = 0) included; labels are
    numbered at the top of the range.  Anti-crossings are the gap minima
    on a scan_points grid, which only they use, refined together by
    safeguarded Newton steps on the squared gap and reported below max_gap
    (raise it to explore strongly split spectra, where one crossing splits
    into several minimum-gap points).
    """
    lo, hi = float(x_range[0]), float(x_range[1])
    if not hi > lo:
        raise ValueError("x_range must be increasing")
    if p.y == 0.0:
        return _exact_crossings(p, lo, hi)
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


def _exact_crossings(p: ModelParams, lo: float, hi: float) -> list[DegeneracyPoint]:
    """Crossings of labelled y = 0 levels on [lo, hi], as roots of sector-pair pencils.

    Slots of sectors s and t meet where (F_s + x X_s) (x) I - I (x) (F_t + x X_t)^T
    is singular, at a finite real eigenvalue x of a pencil of size at most
    9x9 (a two-parameter eigenvalue problem); pencils of one size are solved
    as one stack.  A root counts where a slot of s and a slot of t agree to
    1e-9; roots are grouped by (x, E), and each group is read at its own
    root, every slot at E a member.  Groups come in ascending order of their
    root, and of energy among the groups that share one.
    """
    sectors = _Sectors(p)
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
    e, slot_of_label = sectors.labelled_energies([*roots, hi])
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
        w = e[r[k], slot_of_label]
        members = np.flatnonzero(np.abs(w - e_hit[k]) < TOL.degeneracy_gap)
        results.append(DegeneracyPoint(
            x=float(x_hit[k]), labels=tuple(int(lab) + 1 for lab in members),
            energy=float(np.mean(w[members])), multiplicity=len(members), exact=True,
            gap=float(np.ptp(w[members]))))
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
