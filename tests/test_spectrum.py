import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import happer.spectrum as spectrum
from happer.degenerate import degenerate_energy
from happer.errors import HermiticityError, TrackingError
from happer.model import (FieldDirection, ModelParams, build_hamiltonian, conserved_j,
                          spin_axis_commutator)
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
    es = eigensystem(h, p)
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
    es = eigensystem(build_hamiltonian(p), p)
    assert np.sum(np.abs(es.eigenvalues + 1 / 3) < 1e-10) == 3


def test_crossing_energy_for_l2_matches_extremal_block():
    # Oracle: the one-dimensional extremal J_z product state |S_z=-1, L_z=-L>
    # pins the crossing energy to -1 + L x* = -1/(2L+1).
    two_l = 4
    x_star = 2 / (two_l + 1)
    oracle = -1.0 + (two_l / 2) * x_star
    assert abs(oracle - degenerate_energy(two_l)) < 1e-15
    p = ModelParams(two_l, x_star, 0.0, FieldDirection(0.7, 1.1))
    es = eigensystem(build_hamiltonian(p), p)
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
        es = eigensystem(build_hamiltonian(q), q)
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
