"""Eigendecomposition, persistent level labels, and crossing detection.

Levels are labelled 1..dim by ascending energy at the large-x end of a
sweep and followed continuously as x decreases.  At y = 0 this is done
through the conserved quantity n_B.J: states are grouped by its (exact)
eigenvalue m and ranked by energy inside each m group; ranks never
change because levels of equal m repel, so the label of a state is the
label of the same (m, rank) slot at large x.  This reproduces
maximal-overlap continuation everywhere and stays well defined inside
degenerate clusters, where bare eigenvector overlaps are ambiguous.

For y != 0 there are no exact crossings and labels simply follow the
energy order (adiabatic labelling), matching how per-level quantities
are indexed in anti-crossing scans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .errors import HermiticityError, TrackingError
from .model import ModelParams, build_hamiltonian, conserved_j
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
    h = np.asarray(h)
    asym = np.max(np.abs(h - h.conj().T))
    if asym > 1e-10:
        raise HermiticityError(f"eigensystem needs a Hermitian matrix, asymmetry {asym:.3e}")
    w, v = np.linalg.eigh(h)
    return EigenSystem(w, fix_phases(v), params)


def _resolve_clusters_by_j(w: np.ndarray, v: np.ndarray, jmat: np.ndarray,
                           hmat: np.ndarray,
                           cluster_tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonalize n_B.J inside each numerically degenerate eigenvalue cluster.

    Valid when [J, H] = 0, where the rotated vectors are again exact H
    eigenvectors; their energies are therefore recomputed as Rayleigh
    quotients (the eigensolver cannot attribute energies inside a
    near-degenerate cluster) and the cluster re-sorted by them.  Returns
    (energies, vectors, J expectations).
    """
    w = w.copy()
    v = v.copy()
    n = len(w)
    start = 0
    while start < n:
        stop = start + 1
        while stop < n and w[stop] - w[stop - 1] < cluster_tol:
            stop += 1
        if stop - start > 1:
            block = v[:, start:stop]
            jb = block.conj().T @ jmat @ block
            jb = (jb + jb.conj().T) / 2
            _, u = np.linalg.eigh(jb)
            block = block @ u
            energies = np.real(np.einsum("in,ij,jn->n", block.conj(), hmat, block))
            order = np.argsort(energies, kind="stable")
            v[:, start:stop] = block[:, order]
            w[start:stop] = energies[order]
        start = stop
    v = fix_phases(v)
    jexp = np.real(np.einsum("in,ij,jn->n", v.conj(), jmat, v))
    return w, v, jexp


def eigensystem_with_j(p: ModelParams) -> tuple[EigenSystem, np.ndarray]:
    """Eigensystem of H(p) with degenerate clusters split along n_B.J."""
    h = build_hamiltonian(p)
    es = eigensystem(h, p)
    w, v, jexp = _resolve_clusters_by_j(es.eigenvalues, es.eigenvectors,
                                        conserved_j(p), h, TOL.cluster_resolve)
    es.eigenvalues = w
    es.eigenvectors = v
    return es, jexp


def _slots(jexp: np.ndarray) -> list[tuple[int, int]]:
    """(2m, energy rank within m) of each ascending-energy position.

    2m comes from the J expectation on the half-integer grid (an exact
    integer); positions of equal m are ranked in ascending energy.
    """
    doubled = np.round(2 * jexp).astype(int)
    if np.max(np.abs(2 * jexp - doubled)) > 1e-6:
        raise TrackingError("J expectations are not on the half-integer grid; is y = 0?")
    ranks: dict[int, int] = {}
    slots = []
    for m2 in doubled.tolist():
        r = ranks.get(m2, 0)
        ranks[m2] = r + 1
        slots.append((m2, r))
    return slots


def _labels_from_reference(p_ref: ModelParams) -> dict[tuple[int, int], int]:
    """(2m, energy-rank-within-m) -> label map, built at the reference coupling p_ref.x."""
    _, jexp = eigensystem_with_j(p_ref)
    return {slot: position + 1 for position, slot in enumerate(_slots(jexp))}  # 1-based


def level_positions(p: ModelParams) -> np.ndarray:
    """Ascending-energy position (0-based) of each label 1..dim at coupling p.x.

    For y != 0 labels are the positions themselves.  At y = 0 labels are
    read at a reference coupling beyond the last crossing.
    """
    if p.y != 0.0:
        return np.arange(p.dim)
    mapping = _labels_from_reference(p.with_x(max(2.5, abs(p.x) + 1.0)))
    _, jexp = eigensystem_with_j(p)
    positions = np.empty(p.dim, dtype=int)
    for position, slot in enumerate(_slots(jexp)):
        positions[mapping[slot] - 1] = position
    return positions


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
    dim = p0.dim
    n = len(x_grid)
    labels = np.empty((n, dim), dtype=int)
    energies = np.empty((n, dim))
    j_values = np.empty((n, dim))
    if p0.y == 0.0:
        mapping = _labels_from_reference(p0.with_x(float(x_grid[-1])))
        for i, x in enumerate(x_grid):
            es, jexp = eigensystem_with_j(p0.with_x(float(x)))
            for position, slot in enumerate(_slots(jexp)):
                lab = mapping[slot]
                labels[i, position] = lab
                energies[i, lab - 1] = es.eigenvalues[position]
                j_values[i, lab - 1] = jexp[position]
    else:
        for i, x in enumerate(x_grid):
            p = p0.with_x(float(x))
            es = eigensystem(build_hamiltonian(p), p)
            jm = conserved_j(p)
            jexp = np.real(np.einsum("in,ij,jn->n", es.eigenvectors.conj(), jm, es.eigenvectors))
            labels[i] = np.arange(1, dim + 1)
            energies[i] = es.eigenvalues
            j_values[i] = jexp
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


def _sorted_energies(p: ModelParams, x: float) -> np.ndarray:
    return np.linalg.eigvalsh(build_hamiltonian(p.with_x(x)))


def find_degeneracies(p: ModelParams, x_range: tuple[float, float],
                      scan_points: int = 201,
                      max_gap: float = 0.05) -> list[DegeneracyPoint]:
    """Locate level crossings (y = 0) or minimum-gap anti-crossings (y != 0).

    Exact crossings are refined by root finding on tracked energy
    differences to |x* - root| < 1e-10; anti-crossings by a bounded
    scalar minimization of the local gap, reported when the minimum is
    below max_gap (raise it to explore strongly split spectra, where one
    crossing separates into several distinct minimum-gap points).
    """
    lo, hi = float(x_range[0]), float(x_range[1])
    if not hi > lo:
        raise ValueError("x_range must be increasing")
    grid = np.linspace(lo, hi, scan_points)
    track = track_levels(p, grid)
    dim = p.dim

    if p.y == 0.0:
        # pairs of labels whose energies swap order somewhere in the grid
        results: list[DegeneracyPoint] = []
        diffs = track.energies[:, :, None] - track.energies[:, None, :]
        crossing_pairs = []
        for a in range(dim):
            for b in range(a + 1, dim):
                d = diffs[:, a, b]
                sign = np.sign(d)
                flips = np.nonzero((sign[:-1] * sign[1:] < 0) | (sign[:-1] == 0))[0]
                for i in flips:
                    crossing_pairs.append((a, b, grid[i], grid[i + 1]))
        # refine each pair and cluster the roots
        roots: list[tuple[float, int, int]] = []
        for a, b, xl, xr in crossing_pairs:
            def split(x: float, a=a, b=b) -> float:
                t = track_levels(p, np.array([x, max(grid[-1], x + 1.0)]))
                return float(t.energies[0, a] - t.energies[0, b])
            if split(xl) * split(xr) > 0:
                continue
            x_root = brentq(split, xl, xr, xtol=TOL.crossing_refine)
            roots.append((float(x_root), a, b))
        # group roots that coincide (a multi-level crossing refines to one x*)
        roots.sort()
        used = np.zeros(len(roots), dtype=bool)
        for i, (x0, a0, b0) in enumerate(roots):
            if used[i]:
                continue
            members = {a0 + 1, b0 + 1}
            for k in range(i + 1, len(roots)):
                xk, ak, bk = roots[k]
                if abs(xk - x0) < 1e-7:
                    used[k] = True
                    members.update((ak + 1, bk + 1))
            used[i] = True
            t0 = track_levels(p, np.array([x0, max(grid[-1], x0 + 1.0)]))
            cluster_e = [t0.energies[0, lab - 1] for lab in sorted(members)]
            spread = max(cluster_e) - min(cluster_e)
            if spread < max(TOL.degeneracy_gap, 1e-8):
                results.append(DegeneracyPoint(
                    x=x0, labels=tuple(sorted(members)),
                    energy=float(np.mean(cluster_e)),
                    multiplicity=len(members), exact=True, gap=float(spread)))
        results.sort(key=lambda r: r.x)
        return results

    # y != 0: adjacent-gap minima
    sorted_e = np.sort(track.energies, axis=1)
    gaps = np.diff(sorted_e, axis=1)
    results = []
    for pair in range(dim - 1):
        g = gaps[:, pair]
        interior = (g[1:-1] < g[:-2]) & (g[1:-1] <= g[2:])
        for i in np.nonzero(interior)[0] + 1:
            xl, xr = grid[max(i - 1, 0)], grid[min(i + 1, len(grid) - 1)]

            def gap_at(x: float, pair=pair) -> float:
                w = _sorted_energies(p, x)
                return float(w[pair + 1] - w[pair])

            res = minimize_scalar(gap_at, bounds=(xl, xr), method="bounded",
                                  options={"xatol": 1e-12})
            x_min, g_min = float(res.x), float(res.fun)
            if g_min < max_gap and not any(abs(r.x - x_min) < 1e-6 and pair + 1 in r.labels for r in results):
                results.append(DegeneracyPoint(
                    x=x_min, labels=(pair + 1, pair + 2),
                    energy=float(np.mean(_sorted_energies(p, x_min)[pair:pair + 2])),
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
