import numpy as np
import pytest

from happer.errors import SubspaceIsolationError
from happer.geometry import (ChernResult, chern_number, chern_number_curvature,
                             chern_number_link_variable, chern_spectrum_link_variable,
                             connection_discrete, curvature_discrete, curvature_field,
                             loop_phase, smooth_gauge_states)
from happer.mesh import SphereMesh
from happer.model import (FieldDirection, ModelParams, hamiltonian_batch, semimetal_batch,
                          zeeman_params)
from happer.operators import SpinQuantumNumber
from happer.spectrum import level_positions

RING_LOOP = [(np.pi / 6, ph) for ph in np.linspace(0.0, 2 * np.pi, 73)]
CAP_SOLID_ANGLE = 2 * np.pi * (1 - np.cos(np.pi / 6))  # 0.841787...


def test_mesh_tiles_the_sphere():
    for scheme in ("uniform", "equal-area"):
        mesh = SphereMesh(24, 48, scheme)
        total = sum(mesh.ring_solid_angle(r).sum() for r in range(mesh.n_theta))
        assert abs(total - 4 * np.pi) < 1e-9


def test_equal_area_cells_are_comparable_where_unclamped():
    mesh = SphereMesh(64, 128, "equal-area")
    floor = max(16, 128 // 8)
    omegas = [mesh.ring_solid_angle(r)[0] for r in range(mesh.n_theta)
              if mesh.ring_phi_count(r) > floor]
    assert max(omegas) / min(omegas) < 2.0


def test_mesh_validation():
    with pytest.raises(ValueError):
        SphereMesh(2)
    with pytest.raises(ValueError):
        SphereMesh(10, scheme="random")


def test_chern_result_conventions():
    r = ChernResult.from_fourpi(-1.98)
    assert r.twopi == 2 * r.fourpi
    assert r.rounded == -2
    assert abs(r.deviation - 0.02) < 1e-12


def test_zeeman_bands_link_variable():
    res = chern_spectrum_link_variable(zeeman_params(), SphereMesh(60, 120, "uniform"))
    assert [r.rounded for r in res] == [1, 0, -1]  # ascending energy = k -1, 0, +1
    assert max(r.deviation for r in res) < 1e-10


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
def test_zeeman_bands_curvature(scheme):
    p = zeeman_params()
    mesh = SphereMesh(80, 160, scheme)
    for label, expected in ((1, 1), (2, 0), (3, -1)):
        r = chern_number_curvature(p, label, mesh)
        assert r.rounded == expected
        assert r.deviation < 0.02


def test_cluster_chern_link_and_curvature():
    p = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.5, 0.3))
    link = chern_number_link_variable(p, (3, 4, 5), SphereMesh(60, 120))
    assert link.rounded == 1 and link.deviation < 1e-9
    curv = chern_number_curvature(p, (3, 4, 5), SphereMesh(100, 200, "uniform"))
    assert curv.rounded == 1 and curv.deviation < 0.02
    analytic = chern_number_curvature(p, (3, 4, 5), SphereMesh(100, 200, "uniform"),
                                      source="analytic")
    assert analytic.rounded == 1 and analytic.deviation < 0.02


@pytest.mark.parametrize("x", [0.4, 1.0])
def test_schemes_agree_on_every_level(x):
    p = ModelParams(2, x, 0.0, FieldDirection(0.5, 0.3))
    mesh = SphereMesh(100, 200, "uniform")
    link = chern_spectrum_link_variable(p, mesh)
    for label in range(1, 10):
        pos = level_positions(p)[label - 1]
        curv = chern_number_curvature(p, label, mesh)
        assert abs(curv.fourpi - link[pos].fourpi) < 0.02


def test_chern_equals_minus_conserved_j():
    from happer.spectrum import eigensystem_with_j
    for x in (0.5, 1.0):
        p = ModelParams(2, x, 0.0, FieldDirection(0.4, 0.9))
        link = chern_spectrum_link_variable(p, SphereMesh(60, 120))
        _, jexp = eigensystem_with_j(p)
        for pos in range(9):
            assert link[pos].rounded == -int(np.rint(jexp[pos]))


def test_band_sum_is_zero_over_the_full_model():
    # Tr J = 0 forces the fourpi Chern numbers to sum to zero over all levels.
    p = ModelParams(2, 1.0, 0.0, FieldDirection(0.4, 0.9))
    link = chern_spectrum_link_variable(p, SphereMesh(60, 120))
    assert abs(sum(r.fourpi for r in link)) < 1e-9


@pytest.mark.parametrize("two_j,expected", [(1, [1, -1]), (2, [2, 0, -2]), (3, [3, 1, -1, -3])])
def test_semimetal_band_charges(two_j, expected):
    mesh = SphereMesh(60, 120, "uniform")
    builder = lambda th, ph: semimetal_batch(SpinQuantumNumber(two_j), 1.0, th, ph)
    res = chern_spectrum_link_variable(zeeman_params(), mesh, h_builder=builder, check=False)
    assert [r.twopi for r in res] == pytest.approx(expected, abs=1e-9)
    assert sum(r.fourpi for r in res) == pytest.approx(0.0, abs=1e-9)


def test_refinement_reduces_curvature_deviation():
    p = zeeman_params()
    devs = [chern_number_curvature(p, 3, SphereMesh(n, 2 * n, "equal-area")).deviation
            for n in (100, 200, 400)]
    assert devs[1] < devs[0] and devs[2] < devs[1]
    assert devs[2] < 0.02


def test_cluster_lowest_band_jumps_across_crossing():
    # The energy-lowest member of the crossing multiplet carries Chern 2
    # below the crossing coupling and 0 above it.
    mesh = SphereMesh(80, 160, "uniform")
    for x, expected in ((0.5, 2), (1.0, 0)):
        p = ModelParams(2, x, 0.0, FieldDirection(0.5, 0.3))
        positions = sorted(level_positions(p)[lab - 1] for lab in (3, 4, 5))
        per_position = chern_spectrum_link_variable(p, mesh)
        assert per_position[positions[0]].rounded == expected


def test_constant_frames_give_zero_connection_and_curvature():
    p = ModelParams(0, 0.0, 0.0, FieldDirection(0.0, 0.0))
    mesh = SphereMesh(12, 24, "uniform")
    frames = smooth_gauge_states(p, (1,), mesh)
    for r in range(frames.ring_start, mesh.n_theta):
        frames.ring_top(r).frames[:] = frames.rows[-1].frames[:1]
        frames.ring_bottom(r).frames[:] = frames.rows[-1].frames[:1]
    conn = connection_discrete(frames)
    assert max(np.max(np.abs(a)) for a in conn.a_theta.values()) < 1e-14
    field = curvature_discrete(conn)
    assert max(np.max(np.abs(f)) for f in field.curvature.values()) < 1e-14


def test_smooth_gauge_neighbour_overlap():
    p = ModelParams(2, 1.0, 0.0, FieldDirection(0.5, 0.3))
    frames = smooth_gauge_states(p, (5,), SphereMesh(40, 80, "uniform"))
    for r in range(frames.ring_start, 40):
        top = frames.ring_top(r).frames[:, :, 0]
        bottom = frames.ring_bottom(r).frames[:, :, 0]
        along_theta = np.abs(np.einsum("nd,nd->n", top.conj(), bottom))
        along_phi = np.abs(np.einsum("nd,nd->n", top.conj(), np.roll(top, -1, axis=0)))
        assert np.min(along_theta) > 0.99
        assert np.min(along_phi) > 0.99


def test_pole_states_are_phi_independent():
    p = ModelParams(2, 0.8, 0.0, FieldDirection(0.0, 0.0))
    phis = np.linspace(0, 2 * np.pi, 7)
    h = hamiltonian_batch(p, np.zeros_like(phis), phis)
    assert np.max(np.abs(h - h[0])) < 1e-14
    w, v = np.linalg.eigh(h)
    assert np.max(np.abs(v - v[0])) < 1e-12


def test_gauge_invariance_under_smooth_rotation():
    rng = np.random.default_rng(31)
    p = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.5, 0.3))
    mesh = SphereMesh(60, 120, "uniform")
    frames = smooth_gauge_states(p, (3, 4, 5), mesh)
    base = chern_number(curvature_discrete(connection_discrete(frames))).fourpi
    gens = []
    for _ in range(3):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        gens.append((a + a.conj().T) / 2)
    coeff = rng.normal(size=(3, 3)) * 0.2

    def twist(theta, phi):
        angles = [coeff[k, 0] * np.sin(theta) * np.cos(phi)
                  + coeff[k, 1] * np.cos(theta)
                  + coeff[k, 2] * np.sin(theta) * np.sin(phi) for k in range(3)]
        gen = sum(a * g for a, g in zip(angles, gens))
        w, u = np.linalg.eigh(gen)
        return (u * np.exp(1j * w)) @ u.conj().T

    for row in frames.rows:
        for i, phi in enumerate(row.phis):
            row.frames[i] = row.frames[i] @ twist(row.theta, phi)
    rotated = chern_number(curvature_discrete(connection_discrete(frames))).fourpi
    assert abs(rotated - base) < 1e-3


def test_loop_phase_zeeman_closed_form():
    p = zeeman_params()
    g = loop_phase(p, 1, RING_LOOP, SphereMesh(120, 240, "uniform"))
    assert abs(g - CAP_SOLID_ANGLE) < 2e-3
    g3 = loop_phase(p, 3, RING_LOOP, SphereMesh(120, 240, "uniform"))
    assert abs(g3 + CAP_SOLID_ANGLE) < 2e-3


def test_loop_phase_interpolates_off_grid_latitudes():
    p = zeeman_params()
    g = loop_phase(p, 1, RING_LOOP, SphereMesh(100, 200, "uniform"))  # pi/6 not on grid
    assert abs(g - CAP_SOLID_ANGLE) < 5e-3


def test_loop_phase_edge_cases():
    p = zeeman_params()
    assert loop_phase(p, 1, [(0.5, 0.3)] * 3) == 0.0
    with pytest.raises(ValueError, match="closed"):
        loop_phase(p, 1, [(0.5, 0.0), (0.5, 1.0), (0.5, 2.0)])
    bad = [(0.4 + 0.01 * i, ph) for i, ph in enumerate(np.linspace(0, 2 * np.pi, 30))]
    bad.append(bad[0])
    with pytest.raises(ValueError, match="latitude"):
        loop_phase(p, 1, bad)


def test_cluster_loop_phase_additivity():
    mesh = SphereMesh(100, 200, "uniform")
    p_star = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.5, 0.3))
    g_deg = loop_phase(p_star, (3, 4, 5), RING_LOOP, mesh)
    eps = 0.03
    total = 0.0
    for side in (2 / 3 - eps, 2 / 3 + eps):
        p_side = p_star.with_x(side)
        side_sum = sum(loop_phase(p_side, lab, RING_LOOP, mesh) for lab in (3, 4, 5))
        total += 0.5 * side_sum
    assert abs(g_deg - total) < 1e-2


def test_analytic_frames_match_numerical_loop_phase():
    # The two frame sources differ by a gauge; the Stokes sums agree as
    # O(1/n^2), reaching the 1e-3 level around 480 rings.
    mesh = SphereMesh(480, 960, "uniform")
    p_star = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.5, 0.3))
    g_num = loop_phase(p_star, (3, 4, 5), RING_LOOP, mesh)
    g_ana = loop_phase(p_star, (3, 4, 5), RING_LOOP, mesh, source="analytic")
    assert abs(g_num - g_ana) < 1e-3


def test_isolated_band_refused_at_crossing():
    p = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.5, 0.3))
    with pytest.raises(SubspaceIsolationError):
        chern_number_link_variable(p, 4, SphereMesh(16, 32, "uniform"))


def test_noncontiguous_cluster_rejected():
    p = ModelParams(2, 1.0, 0.0, FieldDirection(0.5, 0.3))
    with pytest.raises(ValueError, match="contiguous"):
        chern_number_link_variable(p, (1, 9), SphereMesh(16, 32, "uniform"))


def test_curvature_csv_export(tmp_path):
    p = zeeman_params()
    field = curvature_field(p, (1,), SphereMesh(16, 32, "uniform"))
    out = tmp_path / "curv.csv"
    field.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert lines[1] == "theta,phi,re_tr_curvature,solid_angle"
    assert len(lines) > 100
    row = lines[2].split(",")
    assert len(row) == 4
