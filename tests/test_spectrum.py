import tracemalloc
import warnings
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import happer.spectrum as spectrum
from happer.degenerate import degenerate_energy
from happer.errors import HermiticityError, SubspaceIsolationError, TrackingError
from happer.model import (FieldDirection, ModelParams, _product_operators, build_hamiltonian,
                          conserved_j, spin_axis_commutator)
from happer.spectrum import (eigensystem, eigensystem_with_j, find_degeneracies,
                             level_positions, track_levels)
from happer.tolerances import TOL

# Reference y = 0 labelling from the full matrix: one eigh of H, n_B.J
# diagonalized inside each numerically degenerate cluster, then each
# ascending-energy position mapped to its (2m, rank) slot.  The library
# reads the same slots from the n_B.J sectors directly.


def oracle_eigensystem_with_j(p):
    """Energies, eigenvectors and <n_B.J> by position, clusters split along n_B.J."""
    cluster_tol = 1e-7  # levels this close count as one cluster
    h = build_hamiltonian(p)
    es = eigensystem(h)
    w, v, jmat = es.eigenvalues.copy(), es.eigenvectors.copy(), conserved_j(p)
    start = 0
    while start < len(w):
        stop = start + 1
        while stop < len(w) and w[stop] - w[stop - 1] < cluster_tol:
            stop += 1
        if stop - start > 1:
            block = v[:, start:stop]
            jb = block.conj().T @ jmat @ block
            _, u = np.linalg.eigh((jb + jb.conj().T) / 2)
            block = block @ u
            # rotated vectors are exact H eigenvectors; re-sort by Rayleigh quotient
            energies = np.real(np.einsum("in,ij,jn->n", block.conj(), h, block))
            order = np.argsort(energies, kind="stable")
            v[:, start:stop] = block[:, order]
            w[start:stop] = energies[order]
        start = stop
    v = spectrum.fix_phases(v)
    return w, v, np.real(np.einsum("in,ij,jn->n", v.conj(), jmat, v))


def oracle_slots(jexp):
    """(2m, energy rank within m) of each ascending-energy position."""
    doubled = np.round(2 * jexp).astype(int)
    assert np.max(np.abs(2 * jexp - doubled)) < 1e-6
    ranks: dict[int, int] = {}
    slots = []
    for m2 in doubled.tolist():
        r = ranks.get(m2, 0)
        ranks[m2] = r + 1
        slots.append((m2, r))
    return slots


def oracle_level_positions(p, x_ref):
    """Position of each label 1..dim at p.x, labels numbered at coupling x_ref."""
    mapping = {slot: position for position, slot in
               enumerate(oracle_slots(oracle_eigensystem_with_j(p.with_x(x_ref))[2]))}
    positions = np.empty(p.dim, dtype=int)
    for position, slot in enumerate(oracle_slots(oracle_eigensystem_with_j(p)[2])):
        positions[mapping[slot]] = position
    return positions


def per_point_track(p0, x_grid):
    """Reference labelling, one eigensolve per x: (2m, rank) slots numbered at _X_LABELS."""
    labels = np.empty((len(x_grid), p0.dim), dtype=int)
    energies = np.empty((len(x_grid), p0.dim))
    j_values = np.empty((len(x_grid), p0.dim))
    for i, x in enumerate(x_grid):
        p = p0.with_x(float(x))
        w, _, jexp = oracle_eigensystem_with_j(p)
        positions = oracle_level_positions(p, spectrum._X_LABELS)
        labels[i, positions] = np.arange(1, p0.dim + 1)
        energies[i] = w[positions]
        j_values[i] = jexp[positions]
    return labels, energies, j_values


def test_eigensystem_sorts_ascending():
    es = eigensystem(np.diag([3.0, 1.0, 2.0]).astype(complex))
    assert np.allclose(es.eigenvalues, [1.0, 2.0, 3.0])


def test_eigensystem_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        eigensystem(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))


def test_eigensystem_invariants_random():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    h = (a + a.conj().T) / 2
    es = eigensystem(h)
    v = es.eigenvectors
    assert np.max(np.abs(h @ v - v * es.eigenvalues)) < 1e-10
    gram = v.conj().T @ v
    assert np.max(np.abs(gram - np.eye(12))) < 1e-10
    # deterministic phase: the dominant component of each column is real positive
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(12)]
    assert np.max(np.abs(lead.imag)) < 1e-12
    assert np.min(lead.real) > 0


def test_crossing_energy_for_l1():
    p = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.9, 0.2))
    es = eigensystem(build_hamiltonian(p))
    assert np.sum(np.abs(es.eigenvalues + 1 / 3) < 1e-10) == 3


def test_crossing_energy_for_l2_matches_extremal_block():
    # Oracle: the one-dimensional extremal J_z product state |S_z=-1, L_z=-L>
    # pins the crossing energy to -1 + L x* = -1/(2L+1).
    two_l = 4
    x_star = 2 / (two_l + 1)
    oracle = -1.0 + (two_l / 2) * x_star
    assert abs(oracle - degenerate_energy(two_l)) < 1e-15
    p = ModelParams(two_l, x_star, 0.0, FieldDirection(0.7, 1.1))
    es = eigensystem(build_hamiltonian(p))
    assert np.sum(np.abs(es.eigenvalues - oracle) < 1e-10) == 5


def test_track_levels_meet_at_crossing():
    for two_l, labels in ((1, (2, 3)), (2, (3, 4, 5)), (4, (5, 6, 7, 8, 9))):
        p = ModelParams(two_l, 0.5, 0.0, FieldDirection(0.6, 0.1))
        x_star = p.crossing_x()
        track = track_levels(p, np.array([x_star, x_star + 0.5, 2.5]))
        cluster = [track.energies[0, lab - 1] for lab in labels]
        assert max(cluster) - min(cluster) < 1e-9
        # labels coincide with ascending order at the top of the grid
        assert list(track.labels[-1]) == list(range(1, p.dim + 1))


def test_track_levels_eigvector_continuity():
    p = ModelParams(2, 1.0, 0.0, FieldDirection(0.5, 0.3))
    grid = np.linspace(0.8, 1.4, 25)
    prev = None
    for x in grid:
        es, _ = eigensystem_with_j(p.with_x(float(x)))
        if prev is not None:
            overlaps = np.abs(np.einsum("in,in->n", prev.conj(), es.eigenvectors))
            assert np.min(overlaps) > 0.9
        prev = es.eigenvectors


def test_conserved_quantity_constant_along_track():
    p = ModelParams(2, 1.0, 0.0, FieldDirection(0.8, 0.6))
    track = track_levels(p, np.linspace(0.2, 2.0, 31))
    spread = track.j_values.max(axis=0) - track.j_values.min(axis=0)
    assert np.max(spread) < 1e-8


def test_level_sum_matches_trace():
    p = ModelParams(4, 0.77, 0.0, FieldDirection(0.8, 0.6))
    track = track_levels(p, np.linspace(0.3, 1.5, 7))
    assert np.max(np.abs(track.energies.sum(axis=1))) < 1e-10


@pytest.mark.parametrize("two_l,mult", [(1, 2), (2, 3), (3, 4), (4, 5)])
def test_find_degeneracies_locates_crossing(two_l, mult):
    p = ModelParams(two_l, 0.5, 0.0, FieldDirection(0.7, 0.3))
    degs = find_degeneracies(p, (0.1, 1.5))
    x_star = 2.0 / (two_l + 1)
    assert len(degs) == 1
    d = degs[0]
    assert abs(d.x - x_star) < 1e-8
    assert d.multiplicity == mult
    assert d.exact
    assert abs(d.energy - degenerate_energy(two_l)) < 1e-9


def test_find_degeneracies_empty_range():
    p = ModelParams(2, 0.5, 0.0, FieldDirection(0.7, 0.3))
    assert find_degeneracies(p, (1.0, 1.5)) == []


@pytest.mark.parametrize("y,field", [(0.0, FieldDirection(0.7, 0.3)),
                                     (0.01, FieldDirection(0.7, 0.3))])
def test_non_finite_x_windows_are_refused_by_name(y, field):
    # a NaN passes the ascending check, and an infinite end reaches LAPACK
    p = ModelParams(2, 0.5, y, field)
    for window in [(0.0, np.inf), (-np.inf, 1.0), (np.nan, 1.0)]:
        with pytest.raises(ValueError, match=r"x_range must be finite"):
            find_degeneracies(p, window)
    for grid in [[0.1, np.nan, 0.5], [0.1, 0.5, np.inf]]:
        with pytest.raises(ValueError, match=r"x_grid must be finite, got (nan|inf)"):
            track_levels(p, grid)


@st.composite
def _spectrum_and_sets(draw):
    """An ascending spectrum, (d,) or (n, d) with d <= 12 and gaps of 1e-7 and 1e-5 injected,
    and contiguous position sets of it: overlapping runs, the empty list, or a partition."""
    d, n = draw(st.integers(2, 12)), draw(st.integers(1, 4))
    gaps = np.array(draw(st.lists(st.floats(1e-3, 1.0), min_size=n * (d - 1),
                                  max_size=n * (d - 1)))).reshape(n, d - 1)
    for row, b, gap in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, d - 2),
                                               st.sampled_from([1e-7, 1e-5])), max_size=3)):
        gaps[row, b] = gap
    w = np.cumsum(np.concatenate([np.full((n, 1), draw(st.floats(-2, 2))), gaps], axis=1), axis=1)
    if draw(st.booleans()):
        cuts = sorted(set(draw(st.lists(st.integers(1, d - 1), max_size=d))))
        sets = [tuple(range(a, b)) for a, b in zip([0, *cuts], [*cuts, d])]
    else:
        runs = draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d)), max_size=5))
        sets = [tuple(range(a, min(a + k, d))) for a, k in runs]
    return (w[0] if draw(st.booleans()) else w), sets


def _gap_of_one_set(w: np.ndarray, positions) -> float:
    """The smallest gap at a member / non-member boundary of one set, by hand (inf: none)."""
    inside = [b in positions for b in range(w.shape[-1])]
    gaps = [np.min(w[..., b + 1] - w[..., b]) for b in range(w.shape[-1] - 1)
            if inside[b] != inside[b + 1]]
    return min(gaps, default=np.inf)


@settings(max_examples=150, deadline=None)
@given(drawn=_spectrum_and_sets())
def test_one_isolation_pass_refuses_exactly_what_one_set_would(drawn):
    w, sets = drawn
    alone = []  # each set's gap alone, None where it is refused
    for positions in sets:
        try:
            alone.append(spectrum._check_isolated(w, [positions], "one set"))
        except SubspaceIsolationError:
            alone.append(None)
        expected = _gap_of_one_set(w, positions)
        assert alone[-1] == (None if expected < TOL.subspace_isolation else expected)
    if None in alone:
        with pytest.raises(SubspaceIsolationError, match=r"every set: bands at positions"):
            spectrum._check_isolated(w, sets, "every set")
    else:
        assert spectrum._check_isolated(w, sets, "every set") == min(alone, default=np.inf)


def test_axis_term_opens_a_gap():
    p = ModelParams(2, 0.5, 0.001, FieldDirection(1.0, 0.3))
    degs = find_degeneracies(p, (0.55, 0.8))
    assert degs, "expected at least one anti-crossing"
    for d in degs:
        assert not d.exact
        assert d.gap > 0
        assert abs(d.x - 2 / 3) < 0.05


def test_level_positions_identity_at_large_x():
    p = ModelParams(2, 2.5, 0.0, FieldDirection(0.4, 0.2))
    assert list(level_positions(p)) == list(range(9))
    # below the crossing the cluster labels permute
    p2 = ModelParams(2, 0.5, 0.0, FieldDirection(0.4, 0.2))
    pos = level_positions(p2)
    assert sorted(pos) == list(range(9))
    assert list(pos) != list(range(9))


def test_positions_trivial_when_axis_coupling_present():
    p = ModelParams(2, 0.5, 0.01, FieldDirection(0.4, 0.2))
    assert list(level_positions(p)) == list(range(9))


@pytest.mark.parametrize("two_l", [0, 1, 2, 3, 4, 5, 6])
def test_per_point_levels_match_the_full_matrix_oracle(two_l):
    p0 = ModelParams(two_l, 0.5, 0.0, FieldDirection(1.1, 2.3))
    x_star = p0.crossing_x()
    xs = np.r_[np.random.default_rng(two_l).uniform(-2.5, 2.5, 25), 0.0, x_star, -x_star]
    for x in xs:
        p = p0.with_x(float(x))
        es, jexp = eigensystem_with_j(p)
        positions = level_positions(p)
        w, _, j_oracle = oracle_eigensystem_with_j(p)
        oracle = oracle_level_positions(p, max(2.5, abs(p.x) + 1.0))
        assert np.max(np.abs(es.eigenvalues[positions] - w[oracle])) < 1e-10, x
        assert np.max(np.abs(jexp[positions] - j_oracle[oracle])) < 1e-9, x
        # each label's j is its m exactly, also inside the clusters at 0 and +-x*
        assert np.array_equal(jexp[positions], np.rint(2 * j_oracle[oracle]) / 2), x
        if np.min(np.diff(w)) > 1e-6:
            assert np.array_equal(positions, oracle), x
        v = es.eigenvectors
        h = build_hamiltonian(p)
        assert np.max(np.abs(h @ v - v * es.eigenvalues)) < TOL.eigen_residual, x
        assert np.max(np.abs(v.conj().T @ v - np.eye(p.dim))) < TOL.orthonormality, x


def _equivalence_grids(two_l):
    x_star = 2 / (two_l + 1)
    return {
        "positive": np.linspace(0.1, 1.5, 29),
        "through_zero": np.linspace(-1.2, 0.9, 31),
        "on_both_crossings": np.sort(np.r_[np.linspace(-1.5, 1.6, 24), -x_star, 0.0, x_star]),
        "negative": np.sort(np.r_[np.linspace(-2.0, -0.1, 15), -x_star]),
    }


@pytest.mark.parametrize("two_l", [1, 2, 3, 4, 5, 6])
def test_track_levels_matches_per_point_labelling(two_l):
    p = ModelParams(two_l, 0.5, 0.0, FieldDirection(1.1, 2.3))
    for name, grid in _equivalence_grids(two_l).items():
        track = track_levels(p, grid)
        labels, energies, j_values = per_point_track(p, grid)
        assert np.max(np.abs(track.energies - energies)) < 1e-10, name
        assert np.max(np.abs(track.j_values - j_values)) < 1e-9, name
        # away from crossings the ascending order is unambiguous and must agree
        gaps = np.diff(np.sort(energies, axis=1), axis=1).min(axis=1)
        off = gaps > 1e-6
        assert np.any(off) and np.array_equal(track.labels[off], labels[off]), name


def test_track_levels_matches_per_point_eigensystem_at_tilted_axis():
    p = ModelParams(2, 0.5, 0.05, FieldDirection(0.9, 0.4), (0.6, 0.0, 0.8))
    grid = np.linspace(0.3, 1.2, 17)
    track = track_levels(p, grid)
    for i, x in enumerate(grid):
        q = p.with_x(float(x))
        es = eigensystem(build_hamiltonian(q))
        v = es.eigenvectors
        jexp = np.real(np.einsum("in,ij,jn->n", v.conj(), conserved_j(q), v))
        assert np.max(np.abs(track.energies[i] - es.eigenvalues)) < 1e-10
        assert np.max(np.abs(track.j_values[i] - jexp)) < 1e-9
        assert list(track.labels[i]) == list(range(1, p.dim + 1))
        # the per-point functions follow the same y != 0 convention
        es_j, j_point = eigensystem_with_j(q)
        assert np.max(np.abs(es_j.eigenvalues - es.eigenvalues)) < 1e-10
        assert np.max(np.abs(j_point - jexp)) < 1e-9
        assert list(level_positions(q)) == list(range(p.dim))


@pytest.mark.parametrize("y", [0.0, 0.1])
def test_track_levels_rejects_non_hermitian_hamiltonians(monkeypatch, y):
    hamiltonians = spectrum._hamiltonians

    def skewed(*args):
        h = hamiltonians(*args)
        return h + np.triu(np.ones(h.shape[-2:]), 1)

    monkeypatch.setattr(spectrum, "_hamiltonians", skewed)
    p = ModelParams(2, 0.5, y, FieldDirection(0.4, 0.2), (1.0, 0.0, 0.0))
    with pytest.raises(HermiticityError):
        track_levels(p, np.linspace(0.4, 0.8, 5))


def test_sectors_refuse_an_axis_term_that_breaks_the_symmetry(monkeypatch):
    # Off the axis at y != 0 n_B.J is not conserved; told that the field
    # lies along the axis, _Sectors finds the off-block terms and refuses.
    monkeypatch.setattr(spectrum, "_ALONG_AXIS", np.inf)
    p = ModelParams(2, 0.5, 0.1, FieldDirection(0.4, 0.2), (0.6, 0.0, 0.8))
    with pytest.raises(TrackingError):
        spectrum._Sectors(p)


def lab_sectors(p):
    """The labelled spectrum built in the lab, the oracle of the field-frame _Sectors.

    Where n_B.J is conserved, H is rotated into n_B.J's eigenbasis and
    split into its sectors; otherwise the full H is one sector, its slots
    the ascending positions, and 2m is None.  Returns 2m by slot, the slot
    of each label, and eigh(x): slot energies, phase-fixed slot
    eigenvectors and <n_B.J> of each slot, as v^dag n_B.J v.
    """
    h0, h1 = build_hamiltonian(p.with_x(0.0)), build_hamiltonian(p.with_x(1.0))
    jmat = conserved_j(p)
    if np.max(np.abs(spin_axis_commutator(p))) > 1e-12:
        def full_eigh(x):
            e, w = np.linalg.eigh(h0 + x * (h1 - h0))
            return e, spectrum.fix_phases(w), np.einsum("in,ij,jn->n", w.conj(), jmat, w).real

        return None, np.arange(p.dim), full_eigh
    jw, u = np.linalg.eigh(jmat)
    two_m = np.rint(2 * jw).astype(int)
    f, x_op = u.conj().T @ h0 @ u, u.conj().T @ (h1 - h0) @ u
    starts = np.flatnonzero(np.diff(two_m, prepend=two_m[0] - 1))
    sizes = np.diff(starts, append=len(two_m))
    blocks = []
    for k in np.unique(sizes):
        idx = starts[sizes == k][:, None] + np.arange(k)
        rows, cols = idx[:, :, None], idx[:, None, :]
        blocks.append((idx, f[rows, cols], x_op[rows, cols]))

    def eigh(x):
        e, w = np.empty(p.dim), np.zeros((p.dim, p.dim), dtype=complex)
        for idx, f_k, x_k in blocks:
            e[idx], w[idx[:, :, None], idx[:, None, :]] = np.linalg.eigh(f_k + x * x_k)
        return e, spectrum.fix_phases(u @ w), two_m / 2

    return two_m, np.argsort(eigh(spectrum._X_LABELS)[0], kind="stable"), eigh


def sector_fields(rng):
    """y = 0 at both poles and two random fields; y != 0 with the field along +a and along -a.

    The last draw, y != 0 with a random field and axis, conserves no n_B.J.
    """
    for theta, phi in [(0.0, 0.0), (np.pi, 0.0), (np.pi, 2.0),
                       *zip(rng.uniform(0.0, np.pi, 2), rng.uniform(0.0, 2 * np.pi, 2))]:
        yield 0.0, FieldDirection(theta, phi), (0.0, 0.0, 1.0)
    a = rng.normal(size=3)
    a /= np.linalg.norm(a)
    for n in (a, -a):
        yield rng.uniform(-0.5, 0.5), FieldDirection(np.arccos(n[2]), np.arctan2(n[1], n[0])), tuple(a)
    a = rng.normal(size=3)
    yield (rng.uniform(-0.5, 0.5), FieldDirection(rng.uniform(0.0, np.pi), rng.uniform(0.0, 2 * np.pi)),
           tuple(a / np.linalg.norm(a)))


@pytest.mark.parametrize("two_l", [0, 1, 2, 3])
def test_the_field_frame_hamiltonian_turns_into_the_lab_one(two_l):
    # H(n_B; a) = U H(z; R^-1 a) U^dag with U = e^{-i phi J_z} e^{-i theta J_y}
    # and R(theta, phi) z = n_B, for any field, axis and y.
    _, _, big_s, big_l, _ = _product_operators(two_l)
    j_y, j_z = big_s[1] + big_l[1], big_s[2] + big_l[2]
    rng = np.random.default_rng(two_l)
    for _ in range(4):
        a = rng.normal(size=3)
        p = ModelParams(two_l, rng.uniform(-1, 1), rng.uniform(-1, 1),
                        FieldDirection(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi)),
                        tuple(a / np.linalg.norm(a)))
        frame = ModelParams(two_l, p.x, p.y, FieldDirection(0.0, 0.0), spectrum._frame_axis(p))
        u = expm(-1j * p.field.phi * j_z) @ expm(-1j * p.field.theta * j_y)
        lab = u @ build_hamiltonian(frame) @ u.conj().T
        assert np.max(np.abs(lab - build_hamiltonian(p))) < 1e-12, p


@pytest.mark.parametrize("two_l", [*range(9), 17])
def test_field_frame_sectors_match_the_lab_construction(two_l):
    rng = np.random.default_rng(two_l)
    _, _, big_s, big_l, _ = _product_operators(two_l)
    j_y, j_z = big_s[1] + big_l[1], big_s[2] + big_l[2]
    for y, field, axis in sector_fields(rng):
        p = ModelParams(two_l, 0.5, y, field, axis)
        sectors = spectrum._Sectors(p)
        u = expm(-1j * field.phi * j_z) @ expm(-1j * field.theta * j_y)  # field frame -> lab
        two_m, slot_of_label, lab_eigh = lab_sectors(p)
        assert sectors.split == (two_m is not None), p
        assert not sectors.split or np.array_equal(sectors.two_m, two_m), p
        assert np.array_equal(sectors.slot_of_label, slot_of_label), p
        for x in (*rng.uniform(-2.5, 2.5, 3), 0.31, p.crossing_x()):
            e, v, j = sectors.eigh(x)
            v = u @ v  # the block solve is in the field frame
            e_ref, v_ref, j_ref = lab_eigh(x)
            assert np.max(np.abs(e - e_ref)) < 1e-12, (p, x)
            # m exactly where n_B.J splits H, <n_B.J> to rounding otherwise
            assert np.array_equal(j, j_ref) if sectors.split else np.max(np.abs(j - j_ref)) < 1e-12
            # equal up to one phase per column
            overlap = np.sum(v_ref.conj() * v, axis=0)
            assert np.max(np.abs(v - v_ref * (overlap / np.abs(overlap)))) < 1e-12, (p, x)
            (e_grid,), (j_grid,) = sectors.levels([x])
            assert np.max(np.abs(e_grid - e_ref)) < 1e-12, (p, x)
            assert np.max(np.abs(j_grid - j_ref)) < 1e-12, (p, x)


@pytest.mark.parametrize("axis,theta,phi", [
    ((0.0, 0.0, 1.0), 0.0, 0.0), ((0.0, 0.0, 1.0), np.pi, 0.0),
    ((0.6, 0.0, 0.8), np.arccos(0.8), 0.0), ((0.6, 0.0, 0.8), np.pi - np.arccos(0.8), np.pi)],
    ids=["+z", "-z", "+tilted", "-tilted"])
def test_a_field_along_the_axis_gives_exact_crossings(axis, theta, phi):
    # With n_B along +-a, n_B.J commutes with H at any y, so levels of
    # different m cross exactly, three times near x* = 2/3 at 2L = 2.
    p = ModelParams(2, 0.5, 1e-3, FieldDirection(theta, phi), axis)
    assert np.max(np.abs(spin_axis_commutator(p))) < 1e-15
    degs = find_degeneracies(p, (0.1, 1.5))
    assert len(degs) == 3
    for d in degs:
        assert d.exact and d.gap == 0 and d.multiplicity == 2
        w = np.linalg.eigvalsh(build_hamiltonian(p.with_x(d.x)))
        assert np.sum(np.abs(w - d.energy) < 1e-9) == 2, d
        energies = track_levels(p, [d.x, 1.5]).energies[0, np.array(d.labels) - 1]
        assert np.ptp(energies) < 1e-9, d


def test_a_sweep_below_the_crossing_labels_levels_as_level_positions_does():
    # The window 0.05..0.5 ends below x* = 1 at 2L = 1.  At x = 0.25 the
    # level at E = -0.875 is the second lowest and carries label 3, in the
    # sweep as in level_positions(ModelParams(1, 0.25)) = [0, 2, 1, 3, 4, 5].
    p = ModelParams(1, 0.25)
    track = track_levels(p, np.linspace(0.05, 0.5, 10))
    assert np.flatnonzero(np.abs(track.energies[4] + 0.875) < 1e-12).tolist() == [2]
    assert list(level_positions(p)) == [0, 2, 1, 3, 4, 5]
    assert track.labels[4, 1] == 3


@pytest.mark.parametrize("two_l", [1, 2, 3, 4])
def test_negative_range_reports_the_whole_crossing(two_l):
    # The window lies below the x = 0 degeneracy, across it from x = 2.5
    # where labels are numbered; the members are read by energy at the root.
    p = ModelParams(two_l, 0.5, 0.0, FieldDirection(0.7, 0.3))
    x_star = 2 / (two_l + 1)
    degs = [d for d in find_degeneracies(p, (-3, -0.05)) if abs(d.x + x_star) < 1e-8]
    assert len(degs) == 1
    d = degs[0]
    assert d.exact
    assert d.multiplicity == two_l + 1
    assert abs(d.energy - 1 / (two_l + 1)) < 1e-9


@pytest.mark.parametrize("field", [(0.7, 0.3), (np.pi / 6, 0.0), (0.5, 0.3), (1.0, 0.3), (2.2, 0.3),
                                   (0.98, 0.0), (2.6, 0.0)])
@pytest.mark.parametrize("scan_points", [200, 201])
@pytest.mark.parametrize("two_l", [1, 2, 3, 4])
def test_clusters_meeting_at_x_zero_are_all_reported(two_l, scan_points, field):
    # H(0) = n_B.S, so three (2L+1)-fold clusters meet at x = 0.  The E = -1
    # and E = +1 clusters cross transversally; the E = 0 cluster is a
    # tangency, whose roots land ~1e-8 from 0, so each cluster is read at
    # its own root.  None of this may depend on scan_points, and the
    # spectrum is isotropic, so neither may their order: ascending energy.
    p = ModelParams(two_l, 0.5, 0.0, FieldDirection(*field))
    degs = find_degeneracies(p, (-0.3, 0.3), scan_points=scan_points)
    assert len(degs) == 3
    assert [round(d.energy) for d in degs] == [-1, 0, 1]
    for energy, x_tol in ((-1.0, 1e-8), (0.0, 1e-7), (1.0, 1e-8)):
        hits = [d for d in degs if abs(d.x) < x_tol and abs(d.energy - energy) < 1e-9]
        assert len(hits) == 1, energy
        assert hits[0].exact and hits[0].multiplicity == two_l + 1
    for d in degs:
        energies = track_levels(p, [d.x, 0.3]).energies[0, np.array(d.labels) - 1]
        assert np.ptp(energies) < 1e-9


@pytest.mark.parametrize("below", [True, False], ids=["window-below", "window-above"])
@pytest.mark.parametrize("end", [-1, 0, 1], ids=["-x*", "0", "x*"])
@pytest.mark.parametrize("two_l", [1, 2, 3, 4])
def test_a_crossing_at_the_window_end_is_reported(two_l, end, below):
    # Its root lands within rounding (1e-8 at the E = 0 tangency) of the
    # end, on either side; it belongs to the window all the same.
    x_end = end * 2 / (two_l + 1)
    window = (x_end - 0.3, x_end) if below else (x_end, x_end + 0.3)
    for theta in (0.5, 1.0, 2.2):
        degs = find_degeneracies(ModelParams(two_l, 0.5, 0.0, FieldDirection(theta, 0.3)), window)
        assert len(degs) == (3 if end == 0 else 1), theta
        for d in degs:
            assert window[0] <= d.x <= window[1] and d.multiplicity == two_l + 1, theta


@settings(max_examples=100, deadline=None)
@given(two_l=st.integers(1, 4), theta=st.floats(0, np.pi), phi=st.floats(0, 2 * np.pi),
       lo=st.floats(-2.0, 1.9), width=st.floats(0.05, 4.0))
@example(two_l=3, theta=0.0, phi=0.0, lo=3.3664556714358904e-10, width=1.0)  # x = 0 just outside
def test_crossings_match_a_dense_sign_change_scan(two_l, theta, phi, lo, width):
    p = ModelParams(two_l, 0.5, 0.0, FieldDirection(theta, phi))
    hi = min(lo + width, 2.0)
    degs = find_degeneracies(p, (lo, hi))
    for d in degs:
        assert d.exact and lo <= d.x <= hi
        xs = np.union1d([lo, hi], [d.x])
        energies = track_levels(p, xs).energies[np.searchsorted(xs, d.x)]
        assert np.ptp(energies[np.array(d.labels) - 1]) < 1e-9
    # every sign change of a labelled energy difference lies in a reported crossing
    grid = np.linspace(lo, hi, 4001)
    e = track_levels(p, grid).energies
    a, b = np.triu_indices(p.dim, 1)
    sign = np.sign(e[:, a] - e[:, b])
    for i, pair in zip(*np.nonzero(sign[:-1] * sign[1:] < 0)):
        labels = {a[pair] + 1, b[pair] + 1}
        assert any(labels <= set(d.labels) and grid[i] - 1e-6 <= d.x <= grid[i + 1] + 1e-6
                   for d in degs), (grid[i], labels)


def all_pairs_hit_groups(x_hit, e_hit):
    """The all-pairs grouping of crossing hits (n x n memory), kept as an oracle.

    Each hit joins the first hit within 1e-7 in x and TOL.subspace_isolation
    in E; groups come by the x of the first hit at their root, then by E.
    """
    same_root = np.abs(x_hit[:, None] - x_hit) < 1e-7
    same_energy = np.abs(e_hit[:, None] - e_hit) < TOL.subspace_isolation
    first = np.unique(np.argmax(same_root & same_energy, axis=1))
    root = x_hit[np.argmax(same_root, axis=1)][first]
    return first[np.lexsort((e_hit[first], root))]


def first_of_each_linked_set(x_hit, e_hit):
    """The first hit of each set of hits linked by chains of all-pairs neighbours."""
    near = ((np.abs(x_hit[:, None] - x_hit) < 1e-7)
            & (np.abs(e_hit[:, None] - e_hit) < TOL.subspace_isolation))
    first = np.arange(len(x_hit))
    while True:
        linked = np.where(near, first, len(first)).min(axis=1)
        if np.array_equal(linked, first):
            return set(first.tolist())
        first = linked


def spy_hit_groups(monkeypatch):
    """Record the (x, E) hits that each _exact_crossings call groups."""
    seen, groups = [], spectrum._hit_groups
    monkeypatch.setattr(spectrum, "_hit_groups",
                        lambda x_hit, e_hit: seen.append((x_hit, e_hit)) or groups(x_hit, e_hit))
    return seen


def split_fields(two_l, rng):
    """y = 0 at a random field, and y != 0 with the field along a random axis."""
    yield ModelParams(two_l, 1.0, 0.0, FieldDirection(rng.uniform(0.1, 3.0), rng.uniform(0, 6.0)))
    for _ in range(2):
        a = rng.normal(size=3)
        a /= np.linalg.norm(a)
        yield ModelParams(two_l, 1.0, rng.uniform(-0.3, 0.3),
                          FieldDirection(np.arccos(a[2]), np.arctan2(a[1], a[0])), tuple(a))


def test_sorted_hit_groups_match_the_all_pairs_rule(monkeypatch):
    rng = np.random.default_rng(28)
    seen = spy_hit_groups(monkeypatch)
    same = 0
    for two_l in range(1, 13):
        for p in split_fields(two_l, rng):
            seen.clear()
            find_degeneracies(p, (-1.0, 2.0))
            (x_hit, e_hit), = seen
            sorted_runs = spectrum._hit_groups(x_hit, e_hit).tolist()
            all_pairs = all_pairs_hit_groups(x_hit, e_hit).tolist()
            assert set(sorted_runs) == first_of_each_linked_set(x_hit, e_hit), p
            if len(sorted_runs) == len(all_pairs):
                assert sorted_runs == all_pairs, p
                same += 1
            else:
                # the x = 0 tangency's roots can scatter past 1e-7 from 2L = 7 on, and
                # the all-pairs rule then reports that one crossing two to five times
                assert set(sorted_runs) < set(all_pairs), p
                assert all(abs(x_hit[k]) < 1e-6 for k in set(all_pairs) - set(sorted_runs)), p
    assert same >= 24  # of 36 (32 with OpenBLAS on x86-64)


def full_spectrum_hits(sectors, lo, hi):
    """The (x, E) hits of every root of the padded pencil stack, confirmed on sectors.levels."""
    pairs, a, b = spectrum._pair_pencils(sectors)
    x_hit, e_hit = [], []
    for ((g_s, j_s), (g_t, j_t)), roots in zip(pairs, spectrum._pencil_roots(a, b, lo, hi)):
        s, t = sectors.blocks[g_s][0][j_s], sectors.blocks[g_t][0][j_t]
        for x in roots:
            e = sectors.levels([x])[0][0]
            for i, j in zip(*np.nonzero(np.abs(e[s][:, None] - e[t]) < 1e-9)):
                x_hit.append(x)
                e_hit.append((e[s[i]] + e[t[j]]) / 2)
    return np.array(x_hit), np.array(e_hit)


@pytest.mark.parametrize("two_l", [3, 6, 12])
def test_roots_confirmed_on_their_blocks_match_the_full_spectrum(monkeypatch, two_l):
    # Each root is confirmed on the two sector blocks of its own pair; the
    # hits, in pair, root and slot order, are those of the full spectrum.
    seen = spy_hit_groups(monkeypatch)
    for p in split_fields(two_l, np.random.default_rng(two_l)):
        seen.clear()
        assert find_degeneracies(p, (-1.0, 2.0))
        (x_hit, e_hit), = seen
        x_ref, e_ref = full_spectrum_hits(spectrum._Sectors(p), -1.0, 2.0)
        assert x_hit.tobytes() == x_ref.tobytes() and e_hit.tobytes() == e_ref.tobytes(), p


def roots_by_size_pair(sectors, lo, hi):
    """Each sector pair's pencil roots from one unpadded stack per pair of block sizes."""
    pairs = list(combinations([(g, j) for g, (slots, _, _, _) in enumerate(sectors.blocks)
                               for j in range(len(slots))], 2))
    by_sizes = {}
    for k, ((g_s, _), (g_t, _)) in enumerate(pairs):
        by_sizes.setdefault((g_s, g_t), []).append(k)
    roots_of = [None] * len(pairs)
    for (g_s, g_t), ks in by_sizes.items():
        j_s, j_t = [pairs[k][0][1] for k in ks], [pairs[k][1][1] for k in ks]
        _, _, f_s, x_s = sectors.blocks[g_s]
        _, _, f_t, x_t = sectors.blocks[g_t]
        a = spectrum._kron_difference(f_s[j_s], f_t[j_t])
        b = -spectrum._kron_difference(x_s[j_s], x_t[j_t])
        for k, x in zip(ks, spectrum._pencil_roots(a, b, lo, hi)):
            roots_of[k] = x
    return roots_of


@pytest.mark.parametrize("two_l", range(1, 13))
def test_padded_pencil_roots_match_one_stack_per_size_pair(two_l):
    # Padding a pencil with the identity in a and zero in b adds only
    # infinite roots; its finite roots move by a few ulps.  The x = 0
    # tangency's roots are accurate to ~1e-8 only, so they are left out.
    for p in split_fields(two_l, np.random.default_rng(100 + two_l)):
        sectors = spectrum._Sectors(p)
        _, a, b = spectrum._pair_pencils(sectors)
        padded = spectrum._pencil_roots(a, b, -1.0, 2.0)
        reference = roots_by_size_pair(sectors, -1.0, 2.0)
        assert len(padded) == len(reference)
        for x, x_ref in zip(padded, reference):
            x, x_ref = np.sort(x[np.abs(x) > 1e-6]), np.sort(x_ref[np.abs(x_ref) > 1e-6])
            assert len(x) == len(x_ref), p
            assert np.max(np.abs(x - x_ref), initial=0.0) < 1e-12, p


def test_crossing_memory_is_not_quadratic_in_the_hits(monkeypatch):
    # 2L = 40 has 8,585 hits in (0, 1); the all-pairs rule held n x n float
    # differences, 590 MB, and `happer spectrum --l 20` peaked near 1.2 GB.
    # The spectra at all its roots at once took 57 MB, and 21 MB in chunks of
    # 1,024 roots; confirmed on each root's own two blocks, the peak is 6.4 MB.
    seen = spy_hit_groups(monkeypatch)
    p = ModelParams(40, 0.0, 0.0, FieldDirection(np.pi / 6, 0.0))
    bound = 32e6
    tracemalloc.start()
    try:
        degs = find_degeneracies(p, (0.0, 1.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (x_hit, _), = seen
    assert len(x_hit) ** 2 * 8 > 16 * bound
    assert peak < bound
    assert [d.multiplicity for d in degs if abs(d.x) < 1e-6] == [41, 41, 41]


def test_infinite_pencil_roots_raise_no_warning():
    # At phi = 5e-324 a sector pencil has roots at (near) infinity.  They
    # come out of the shift and invert as eigenvalues mu ~ 0, which are
    # dropped before x = sigma + 1 / mu is formed, so nothing divides by 0.
    p = ModelParams(1, 0.5, 0.0, FieldDirection(np.pi / 2, 5e-324))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert find_degeneracies(p, (-2.0, -1.95)) == []


def test_a_shift_on_a_pencil_root_is_picked_again():
    # Model pencils have real roots only (tangencies within 1e-8 of the real
    # axis), which no shift comes near; a hand-built pencil puts its root on
    # the first shift of the window (0, 1), where a - sigma b is singular.
    # The second pencil is regular there and has an infinite root.
    sigma = spectrum._SHIFTS[0]
    a = np.array([np.diag([sigma, 0.3]), np.diag([0.7, 0.2])])
    b = np.array([np.eye(2), np.diag([1.0, 0.0])], dtype=complex)
    assert np.linalg.cond(a[0] - sigma * b[0]) == np.inf
    roots = spectrum._pencil_roots(a, b, 0.0, 1.0)
    assert len(roots) == 2
    assert np.allclose(roots[0], [0.3], rtol=0, atol=1e-15)
    assert np.allclose(roots[1], [0.7], rtol=0, atol=1e-15)


def gap_slope(p, x, k):
    """Hellmann-Feynman slope of the gap between ascending positions k and k + 1 at coupling x."""
    _, v = np.linalg.eigh(build_hamiltonian(p.with_x(x)))
    dh = build_hamiltonian(p.with_x(1.0)) - build_hamiltonian(p.with_x(0.0))
    slopes = np.real(np.einsum("in,ij,jn->n", v.conj(), dh, v))
    return slopes[k + 1] - slopes[k]


@pytest.mark.parametrize("field", [(0.7, 0.3), (1.0, 0.0)])
def test_anti_crossings_sit_on_the_zero_of_the_gap_slope(field):
    # Each reported x is the gap minimum to 1e-12, the zero of its
    # Hellmann-Feynman slope, found here by bisection to rounding.
    p = ModelParams(2, 0.5, 1e-3, FieldDirection(*field))
    degs = find_degeneracies(p, (0.55, 0.8))
    assert len(degs) == 2
    for d in degs:
        assert d.multiplicity == 2 and not d.exact
        k = d.labels[0] - 1
        lo, hi = d.x - 1e-6, d.x + 1e-6
        assert gap_slope(p, lo, k) < 0 < gap_slope(p, hi, k)
        for _ in range(60):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if gap_slope(p, mid, k) < 0 else (lo, mid)
        assert abs(d.x - lo) <= 1e-12
        w = np.linalg.eigvalsh(build_hamiltonian(p.with_x(d.x)))
        assert d.gap == pytest.approx(w[k + 1] - w[k], rel=0, abs=1e-15)


def test_adjacent_gap_minima_at_one_x_merge_into_one_anti_crossing():
    # At 2L = 6 the crossing opens into several anti-crossings; the minima of
    # the gaps (8, 9) and (9, 10) lie 4e-7 apart.  Both are kept and merged
    # into one three-level point, with the smaller of the two gaps.
    p = ModelParams(6, 0.5, -0.003790313193279047,
                    FieldDirection(0.29866123499312813, 3.983762719134254),
                    (-0.42276179068467123, 0.6026797490881574, -0.6767936084037186))
    degs = find_degeneracies(p, (0.05, 2.0), max_gap=0.5)
    d, = [d for d in degs if 9 in d.labels]
    assert d.labels == (8, 9, 10) and d.multiplicity == 3 and not d.exact
    for k in (7, 8):  # each gap's slope changes sign within the merge distance of d.x
        assert gap_slope(p, d.x - 1e-4, k) < 0 < gap_slope(p, d.x + 1e-4, k)
    # d.x is the mean of the two minima, where gap (8, 9) is just above its minimum
    w = np.linalg.eigvalsh(build_hamiltonian(p.with_x(d.x)))
    assert 0 <= w[8] - w[7] - d.gap < 1e-9 and w[8] - w[7] < w[9] - w[8]


@settings(max_examples=40, deadline=None)
@given(two_l=st.sampled_from([1, 2, 3]), lo=st.floats(-2.0, -0.05), hi=st.floats(0.05, 2.0),
       n=st.integers(3, 30), theta=st.floats(0, np.pi), phi=st.floats(0, 2 * np.pi))
@example(two_l=3, lo=-1.0, hi=0.5, n=3, theta=1.0, phi=0.0)  # the grid ends on x* = 0.5
def test_labels_are_stable_through_x_zero(two_l, lo, hi, n, theta, phi):
    p = ModelParams(two_l, hi, 0.0, FieldDirection(theta, phi))
    grid = np.linspace(lo, hi, n)
    track = track_levels(p, grid)
    # the top row labels the levels as level_positions does there; inside an
    # exact cluster the order of the positions is arbitrary, so each label's
    # energy and m are compared
    es, jexp = eigensystem_with_j(p)
    positions = level_positions(p)
    assert np.max(np.abs(track.energies[-1] - es.eigenvalues[positions])) < 1e-10
    assert np.array_equal(track.j_values[-1], jexp[positions])
    # each label keeps one m, on the half-integer grid
    m = np.rint(2 * track.j_values[-1]) / 2
    assert np.max(np.abs(track.j_values - m)) < 1e-9
    jm = conserved_j(p)
    for i, x in enumerate(grid):
        h = build_hamiltonian(p.with_x(float(x)))
        assert np.max(np.abs(np.sort(track.energies[i]) - np.linalg.eigvalsh(h))) < 1e-10
        # H + s n_B.J shifts each level by s m: the (energy, m) pairing is right
        shifted = np.sort(track.energies[i] + 0.37 * m)
        assert np.max(np.abs(shifted - np.linalg.eigvalsh(h + 0.37 * jm))) < 1e-10
    # inside each m-sector the energy order of the labels never changes
    for m_value in np.unique(m):
        sector = np.flatnonzero(m == m_value)
        order = np.argsort(track.energies[:, sector], axis=1)
        assert np.all(order == order[-1])


# ---------------------------------------------------------------------------
# label lookups stop at the field-frame block solve: the energies, j and
# positions of _levels are those of eigensystem_with_j, which alone turns
# its eigenvectors to the lab


def label_lookup_fields(two_l, rng):
    """y = 0, y != 0 with the field along the axis (n_B.J conserved), and a tilted y != 0."""
    yield ModelParams(two_l, 0.5, 0.0, FieldDirection(*rng.uniform(0.0, np.pi, 2)))
    yield ModelParams(two_l, 0.5, 0.05, FieldDirection(np.arccos(0.8), np.pi / 2), (0.0, 0.6, 0.8))
    yield ModelParams(two_l, 0.5, 0.1, FieldDirection(*rng.uniform(0.0, np.pi, 2)), (1.0, 0.0, 0.0))


@pytest.mark.parametrize("two_l", range(7))
def test_label_lookups_are_the_eigensystem_bit_for_bit(two_l):
    rng = np.random.default_rng(two_l)
    x_star = 2 / (two_l + 1)
    for p0, split in zip(label_lookup_fields(two_l, rng), (True, True, False)):
        assert spectrum._Sectors(p0).split == split, p0
        for x in (0.0, x_star, -x_star, *rng.uniform(-2.5, 2.5, 3)):
            p = p0.with_x(float(x))
            energies, j, positions, _ = spectrum._levels(p)
            es, jexp = eigensystem_with_j(p)
            assert np.array_equal(energies, es.eigenvalues), p
            assert np.array_equal(j, jexp), p
            assert np.array_equal(positions, level_positions(p)), p
