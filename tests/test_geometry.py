import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import happer.geometry as geometry
from happer.degenerate import gram_schmidt, raw_degenerate_vectors
from happer.errors import MeshResolutionError, SubspaceIsolationError
from happer.geometry import (ChernResult, chern_number, chern_number_curvature,
                             chern_number_link_variable, chern_spectrum_link_variable,
                             connection_discrete, curvature_discrete, curvature_field,
                             loop_phase, smooth_gauge_states)
from happer.mesh import SphereMesh
from happer.model import (FieldDirection, ModelParams, _jz_diagonal, build_hamiltonian,
                          hamiltonian_batch, projected_hamiltonian, semimetal_batch,
                          zeeman_params)
from happer.operators import SpinQuantumNumber
from happer.spectrum import eigensystem, eigensystem_with_j, level_positions
from happer.tolerances import TOL

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


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
@pytest.mark.parametrize("n_theta,n_phi_max", [(4, None), (50, None), (100, None), (201, None),
                                               (21, 37)])
def test_ring_phi_counts_match_the_scalar_formula(n_theta, n_phi_max, scheme):
    # The per-mesh table must round as Python's round does, half to even:
    # on SphereMesh(21, 37) ring 3 wants 37 sin(theta) = 18.5 exactly.
    mesh = SphereMesh(n_theta, n_phi_max, scheme)
    edges = np.linspace(0.0, np.pi, n_theta + 1)
    if n_phi_max == 37:
        assert 37 * np.sin(0.5 * (edges[3] + edges[4])) == 18.5
    for ring in range(n_theta):
        if scheme == "uniform":
            expected = mesh.phi_max
        else:
            mid = 0.5 * (edges[ring] + edges[ring + 1])
            floor = max(16, mesh.phi_max // 8)
            expected = int(np.clip(round(mesh.phi_max * np.sin(mid)), floor, mesh.phi_max))
        assert mesh.ring_phi_count(ring) == expected
        assert np.array_equal(mesh.ring_phis(ring), np.arange(expected) * (2 * np.pi / expected))
        band = np.cos(edges[ring]) - np.cos(edges[ring + 1])
        assert np.array_equal(mesh.ring_solid_angle(ring), np.full(expected, band * 2 * np.pi / expected))


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


def test_chern_result_rounds_on_the_model_grid():
    assert ChernResult.from_fourpi(0.5).deviation == 0.5  # integer L: still flagged
    assert ChernResult.from_fourpi(0.5).deviation > TOL.chern_integer
    half = ChernResult.from_fourpi(-0.49, half=True)
    assert half.rounded == -0.5 and abs(half.deviation - 0.01) < 1e-12
    assert ChernResult.from_fourpi(0.98, half=True).rounded == 0.5


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


def _semimetal(two_j: int):
    """A spin-j k.F as the covariant builder pair and as a per-point oracle builder."""
    spin = SpinQuantumNumber(two_j)
    meridian = (lambda th: semimetal_batch(spin, 1.0, th, np.zeros_like(th)), spin.m_values())
    return meridian, lambda th, ph: semimetal_batch(spin, 1.0, th, ph)


@pytest.mark.parametrize("two_j,expected", [(1, [1, -1]), (2, [2, 0, -2]), (3, [3, 1, -1, -3])])
def test_semimetal_band_charges(two_j, expected):
    mesh = SphereMesh(60, 120, "uniform")
    meridian, per_point = _semimetal(two_j)
    res = chern_spectrum_link_variable(zeeman_params(), mesh, h_builder=meridian, check=False)
    _assert_matches_oracle(res, _oracle_spectrum(per_point, mesh))
    assert [r.twopi for r in res] == pytest.approx(expected, abs=1e-9)
    assert sum(r.fourpi for r in res) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("two_j", [1, 3])
def test_builder_spectrum_rounds_on_the_builder_grid(two_j):
    # p has L = 0, but a spin-j k.F builder with half-integer j puts every
    # band on Z + 1/2; the rounding follows the solved matrices.
    mesh = SphereMesh(60, 120, "uniform")
    meridian, per_point = _semimetal(two_j)
    res = chern_spectrum_link_variable(zeeman_params(), mesh, h_builder=meridian, check=True)
    _assert_matches_oracle(res, _oracle_spectrum(per_point, mesh))
    assert [r.rounded for r in res] == [two_j / 2 - k for k in range(two_j + 1)]
    assert max(r.deviation for r in res) < 1e-9


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


def test_constant_frames_give_zero_connection_and_curvature(monkeypatch):
    # Written in place, so on per-point rows: a factored row's frames are
    # only a view of its factors, which the connection reads.
    _general(monkeypatch)
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


def test_gauge_invariance_under_smooth_rotation(monkeypatch):
    _general(monkeypatch)  # the twist is written in place, see above
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
    for scheme in ("uniform", "equal-area"):
        mesh = SphereMesh(16, 32, scheme)
        with pytest.raises(SubspaceIsolationError, match="ambiguous"):
            chern_number_curvature(p, 4, mesh)
        with pytest.raises(SubspaceIsolationError, match="ambiguous"):
            loop_phase(p, 4, RING_LOOP, mesh)


def test_noncontiguous_cluster_rejected():
    p = ModelParams(2, 1.0, 0.0, FieldDirection(0.5, 0.3))
    with pytest.raises(ValueError, match="contiguous"):
        chern_number_link_variable(p, (1, 9), SphereMesh(16, 32, "uniform"))
    # Label 4 sits inside the three-fold cluster at x = 2/3: gapped at its
    # outer ends, the set still splits the cluster, on either scheme.
    p_star = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.5, 0.3))
    mesh = SphereMesh(60, 120, "equal-area")
    for call in (lambda: chern_number_link_variable(p_star, (4, 9), mesh),
                 lambda: chern_number_curvature(p_star, (4, 9), mesh),
                 lambda: loop_phase(p_star, (4, 9), RING_LOOP, mesh)):
        with pytest.raises(ValueError, match="contiguous"):
            call()


# L = 1 at x = 1, away from the crossing: nine isolated levels.
LABEL_P = ModelParams(2, 1.0, 0.0, FieldDirection(0.5, 0.3))
LABEL_MESH = SphereMesh(60, 120, "uniform")
LABEL_CALLS = {
    "link": lambda labels: chern_number_link_variable(LABEL_P, labels, LABEL_MESH).fourpi,
    "curvature": lambda labels: chern_number_curvature(LABEL_P, labels, LABEL_MESH).fourpi,
    "loop-phase": lambda labels: loop_phase(LABEL_P, labels, RING_LOOP, LABEL_MESH),
    "frames": lambda labels: smooth_gauge_states(LABEL_P, labels, LABEL_MESH).labels,
    "projection": lambda labels: projected_hamiltonian(
        LABEL_P, labels, eigensystem(build_hamiltonian(LABEL_P), LABEL_P)),
}


@pytest.mark.parametrize("call", LABEL_CALLS.values(), ids=LABEL_CALLS.keys())
@pytest.mark.parametrize("labels", [0, -1, 10, (3, 3), 3.0],
                         ids=["zero", "negative", "dim+1", "repeated", "float"])
def test_labels_outside_1_to_dim_are_refused(call, labels):
    # 0 and -1 must not wrap round to the top labels, 10 must not reach an
    # IndexError, and (3, 3) is a repeat, not a gap in a contiguous set.
    with pytest.raises(ValueError, match=r"in 1\.\.9"):
        call(labels)


@pytest.mark.parametrize("call", LABEL_CALLS.values(), ids=LABEL_CALLS.keys())
def test_int_and_numpy_integer_labels_are_one_label_set(call):
    expected = call((2,))
    for labels in (2, np.int64(2), np.int32(2), [np.int64(2)]):
        np.testing.assert_array_equal(call(labels), expected)


@pytest.mark.parametrize("n,scheme", [(11, "equal-area"), (10, "uniform")])
def test_quantization_gate_uses_each_results_own_grid(n, scheme):
    # The L = 1 cluster has three levels, so it sits on Z: a value near a
    # half-integer is half a unit off, whatever it rounds to.
    p = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.5, 0.3))
    with pytest.raises(MeshResolutionError, match="quantized grid"):
        chern_number_curvature(p, (3, 4, 5), SphereMesh(n, 2 * n, scheme))
    half = ChernResult.from_fourpi(0.46, half=True)
    assert geometry._check_quantized(half, "half").rounded == 0.5
    with pytest.raises(MeshResolutionError, match="quantized grid"):
        geometry._check_quantized(ChernResult.from_fourpi(0.46), "integer")


@pytest.mark.parametrize("y,axis,labels", [(0.1, (0.0, 0.0, 1.0), (3, 4, 5)),
                                           (0.01, (1.0, 0.0, 0.0), (3, 4, 5)),
                                           (0.0, (0.0, 0.0, 1.0), (6, 7, 8))],
                         ids=["y", "tilted-axis", "gapped-triple"])
def test_analytic_source_needs_the_crossing_multiplet_at_y_zero(y, axis, labels):
    # The closed forms are the y = 0 crossing multiplet; (6, 7, 8) is a
    # gapped triple above it.
    p = ModelParams(2, 2 / 3, y, FieldDirection(1.1, 2.0), axis)
    with pytest.raises(ValueError, match="y = 0|crossing multiplet"):
        chern_number_curvature(p, labels, SphereMesh(60, 120, "uniform"), source="analytic")


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


def test_link_gate_refuses_a_mesh_too_coarse_for_the_winding():
    # At 4 rings the L = 2 table has plaquette phases of pi and a wrong band list.
    coarse = SphereMesh(4, 8, "uniform")
    with pytest.raises(MeshResolutionError, match="plaquette"):
        chern_spectrum_link_variable(ModelParams(4, 1.0), coarse, check=False)
    with pytest.raises(MeshResolutionError, match="plaquette"):
        chern_number_link_variable(ModelParams(4, 1.0), 12, coarse)
    res = chern_spectrum_link_variable(ModelParams(2, 1.0), coarse)  # L = 1 resolves
    assert sorted(r.rounded for r in res) == [-2, -1, -1, 0, 0, 0, 1, 1, 2]


# ---------------------------------------------------------------------------
# per-point link oracle: every point of the (n_theta+1) x phi_max link grid
# solved on its own and its links formed around each ring (Fukui, Hatsugai
# & Suzuki, J. Phys. Soc. Jpn. 74, 1674 (2005)); the library reads the same
# Chern numbers from the phi = 0 meridian alone


def _oracle_grid(builder, mesh: SphereMesh) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of builder(theta, phi) at every point of the uniform link grid."""
    phis = np.arange(mesh.phi_max) * (2 * np.pi / mesh.phi_max)
    th, ph = np.meshgrid(mesh.theta_edges(), phis, indexing="ij")
    return np.linalg.eigh(builder(th, ph))


def _oracle_link_chern(frames: np.ndarray) -> float:
    """fourpi Chern of one band set, frames (n_theta+1, phi_max, d, k), by overlap determinants."""

    def link(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        det = np.linalg.det(np.einsum("ijda,ijdb->ijab", a.conj(), b))
        mag = np.abs(det)
        if np.min(mag) < 1e-8:
            raise MeshResolutionError("oracle: singular overlap on a mesh edge")
        return det / mag

    lt = link(frames[:-1], frames[1:])
    lp = link(frames, np.roll(frames, -1, axis=1))
    angles = np.angle(lt * lp[1:] * np.conj(np.roll(lt, -1, axis=1)) * np.conj(lp[:-1]))
    if np.max(np.abs(angles)) > TOL.plaquette_angle:
        raise MeshResolutionError("oracle: plaquette phase beyond pi/2")
    return float(-angles.sum() / (4 * np.pi))


def _oracle_spectrum(builder, mesh: SphereMesh) -> list[ChernResult]:
    """Per-band link Chern numbers on the per-point grid, rounded on the grid of d."""
    _, v = _oracle_grid(builder, mesh)
    half = v.shape[-1] % 2 == 0
    return [ChernResult.from_fourpi(_oracle_link_chern(v[..., [k]]), half)
            for k in range(v.shape[-1])]


def _model(p: ModelParams):
    return lambda th, ph: hamiltonian_batch(p, th, ph)


def _assert_matches_oracle(results: list[ChernResult], oracle: list[ChernResult]) -> None:
    for a, b in zip(results, oracle, strict=True):
        assert abs(a.fourpi - b.fourpi) < 1e-9
        assert a.rounded == b.rounded


COVARIANT_CASES = [(1, 0.0), (2, 0.0), (3, 0.0), (4, 0.0), (2, 0.001)]


def _general(monkeypatch):
    monkeypatch.setattr(geometry, "_z_covariant", lambda y, axis: False)


@pytest.mark.parametrize("two_l,y", COVARIANT_CASES)
def test_factorised_grid_matches_per_point_solve(two_l, y):
    # The link scheme's premise: the phi = 0 meridian rotated out by
    # e^{-i phi J_z} is the per-point grid, band projector by projector.
    p = ModelParams(two_l, 0.9, y)
    mesh = SphereMesh(10, 20, "uniform")
    w0, f0, m = geometry._link_meridian(p, mesh)
    w_g, v_g = _oracle_grid(_model(p), mesh)
    phis = np.arange(mesh.phi_max) * (2 * np.pi / mesh.phi_max)
    v_f = np.exp(-1j * np.multiply.outer(phis, m))[None, :, :, None] * f0[:, None]
    assert np.max(np.abs(w0[:, None] - w_g)) < 1e-12
    proj_f = np.einsum("tpdk,tpek->tpkde", v_f, v_f.conj())
    proj_g = np.einsum("tpdk,tpek->tpkde", v_g, v_g.conj())
    assert np.max(np.abs(proj_f - proj_g)) < 1e-10


@pytest.mark.parametrize("two_l,y", COVARIANT_CASES)
def test_factorised_link_chern_matches_per_point_solve(two_l, y):
    p = ModelParams(two_l, 0.9, y)
    mesh = SphereMesh(50, 100, "uniform")
    _assert_matches_oracle(chern_spectrum_link_variable(p, mesh), _oracle_spectrum(_model(p), mesh))


def test_link_spectrum_memory_does_not_grow_with_the_phi_count():
    # The per-point v grid of 2L = 4 on 200 rings would be
    # 201 * 400 * 15 * 15 complex128 = 289 MB; the meridian is 0.7 MB.
    tracemalloc.start()
    try:
        chern_spectrum_link_variable(ModelParams(4, 0.9), SphereMesh(200, 400, "uniform"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6


@pytest.mark.parametrize("two_l,labels", [(2, (3, 4, 5)), (1, (1,))])
def test_factorised_curvature_chern_matches_per_point_solve(monkeypatch, two_l, labels):
    p = ModelParams(two_l, 2 / (two_l + 1) if len(labels) > 1 else 0.7)
    mesh = SphereMesh(100, 200, "uniform")
    fact = chern_number_curvature(p, labels, mesh)
    _general(monkeypatch)
    general = chern_number_curvature(p, labels, mesh)
    assert abs(fact.fourpi - general.fourpi) < 1e-9
    assert fact.rounded == general.rounded


@pytest.mark.parametrize("two_l,labels", [(2, (3, 4, 5)), (1, (1,))])
def test_factorised_curvature_chern_on_equal_area_is_no_further_off(monkeypatch, two_l, labels):
    # Rotated meridian frames replace the per-point path's nearest-phi
    # alignment between rings of different phi counts: the gauge moves at
    # mesh-error level and the deviation may only shrink.
    p = ModelParams(two_l, 2 / (two_l + 1) if len(labels) > 1 else 0.7)
    mesh = SphereMesh(100, 200, "equal-area")
    fact = chern_number_curvature(p, labels, mesh)
    _general(monkeypatch)
    general = chern_number_curvature(p, labels, mesh)
    assert fact.rounded == general.rounded
    assert fact.deviation <= general.deviation


@pytest.mark.parametrize("n", [20, 60])
@pytest.mark.parametrize("two_l", [1, 2, 3, 4])
def test_meridian_frames_match_per_point_transport(monkeypatch, two_l, n):
    mesh = SphereMesh(n, 2 * n, "uniform")
    step = 1 if n < 60 else 4  # the per-point reference takes one SVD per mesh point
    cases = [(ModelParams(two_l, 0.8), (label,))
             for label in range(1, 3 * (two_l + 1) + 1, step)]
    if two_l == 2:
        cases.append((ModelParams(2, 2 / 3), (3, 4, 5)))
    for p, labels in cases:
        fact = smooth_gauge_states(p, labels, mesh)
        with monkeypatch.context() as m:
            _general(m)
            general = smooth_gauge_states(p, labels, mesh)
        assert [r.theta for r in fact.rows] == [r.theta for r in general.rows]
        worst = max(np.max(np.abs(a.frames - b.frames)) for a, b in zip(fact.rows, general.rows))
        assert worst < 1e-12, (labels, worst)


@pytest.mark.parametrize("two_l,labels", [(1, (2,)), (2, (3, 4, 5)), (4, (7,))])
def test_meridian_frames_are_orthonormal_on_equal_area(two_l, labels):
    p = ModelParams(two_l, 2 / (two_l + 1) if len(labels) > 1 else 0.8)
    frames = smooth_gauge_states(p, labels, SphereMesh(40, 80, "equal-area"))
    eye = np.eye(len(labels))
    for row in frames.rows:
        assert row.frames.flags.owndata and row.frames.flags.writeable  # tests write in place
        gram = np.einsum("nda,ndb->nab", row.frames.conj(), row.frames)
        assert np.max(np.abs(gram - eye)) < TOL.orthonormality


@pytest.mark.parametrize("n", [16, 100])
def test_frame_rows_are_one_per_theta_and_phi_count(n):
    # A ring's bottom row is the next ring's top row when their phi counts
    # match, on an equal-area mesh as on a uniform one.
    mesh = SphereMesh(n, 2 * n, "equal-area")
    edges = mesh.theta_edges()
    keys = {(edges[r + k], mesh.ring_phi_count(r)) for r in range(1, n) for k in (0, 1)}
    frames = smooth_gauge_states(ModelParams(2, 0.8), (1,), mesh)
    assert sorted((row.theta, len(row.phis)) for row in frames.rows) == sorted(keys)


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
@pytest.mark.parametrize("p", [ModelParams(2, 0.8), ModelParams(2, 1.3, 0.1, axis=(1.0, 0.0, 0.0))],
                         ids=["covariant", "tilted-axis"])
def test_ring_rows_are_the_ring_edges_at_the_ring_phis(p, scheme):
    mesh = SphereMesh(16, 32, scheme)
    edges = mesh.theta_edges()
    frames = smooth_gauge_states(p, (1,), mesh)
    for r in range(frames.ring_start, mesh.n_theta):
        for row, theta in ((frames.ring_top(r), edges[r]), (frames.ring_bottom(r), edges[r + 1])):
            assert row.theta == theta and np.array_equal(row.phis, mesh.ring_phis(r))


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
def test_covariant_frames_align_once_per_latitude(monkeypatch, scheme):
    sizes: list[int] = []
    real = geometry._align_rows

    def spy(frames, ref):
        sizes.append(len(frames))
        return real(frames, ref)
    monkeypatch.setattr(geometry, "_align_rows", spy)
    mesh = SphereMesh(8, 16, scheme)  # 16 phis on every ring of either scheme
    for y, per_latitude in ((0.0, 1), (0.1, 16)):
        sizes.clear()
        smooth_gauge_states(ModelParams(2, 1.3, y, axis=(1.0, 0.0, 0.0)), (1,), mesh)
        assert sizes == [per_latitude] * (mesh.n_theta - 1)


def _fields(frames) -> list[dict[int, np.ndarray]]:
    conn = connection_discrete(frames)
    return [conn.a_theta, conn.a_phi_top, conn.a_phi_bottom, curvature_discrete(conn).curvature]


def _worst(a: list[dict[int, np.ndarray]], b: list[dict[int, np.ndarray]]) -> float:
    assert all(x.keys() == y.keys() for x, y in zip(a, b, strict=True))
    return max(np.max(np.abs(x[r] - y[r])) for x, y in zip(a, b) for r in x)


@pytest.mark.parametrize("source", ["numerical", "analytic"])
@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
@pytest.mark.parametrize("two_l,labels", [(2, (3, 4, 5)), (4, (5, 6, 7, 8, 9))])
def test_factored_fields_match_the_per_point_computation(monkeypatch, two_l, labels, scheme,
                                                         source):
    # Factored rows give one matrix per ring and edge type; expanded by
    # D(phi_n), they are the per-point connection and curvature of the same
    # frames, and on a uniform mesh those of per-point transport too.
    p = ModelParams(two_l, 2 / (two_l + 1))
    mesh = SphereMesh(30, 60, scheme)
    fact = smooth_gauge_states(p, labels, mesh, source=source)
    assert all(row.factors is not None for row in fact.rows)
    fields = _fields(fact)
    assert all(row.points is None for row in fact.rows)  # expanded without per-point frames
    per_point = replace(fact, rows=[geometry._Row(row.theta, row.phis, row.frames.copy())
                                    for row in fact.rows])
    assert _worst(fields, _fields(per_point)) < 1e-12
    if source == "numerical" and scheme == "uniform":
        _general(monkeypatch)
        assert _worst(fields, _fields(smooth_gauge_states(p, labels, mesh))) < 1e-12


def test_uniform_trace_sum_is_minus_the_first_ring_phi_connection():
    # On a uniform mesh the theta-edge and commutator terms cancel around
    # each ring and the rows are shared, so the phi-edge traces telescope to
    # the first ring's (the south pole's vanish).
    frames = smooth_gauge_states(ModelParams(2, 2 / 3), (3, 4, 5), SphereMesh(40, 80, "uniform"))
    conn = connection_discrete(frames)
    first = -np.trace(conn.a_phi_top[frames.ring_start], axis1=-2, axis2=-1).real.sum()
    assert abs(first - 12.156343803323004) < 1e-12
    assert abs(curvature_discrete(conn).trace_sum() - first) < 1e-12


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
def test_covariant_traces_build_no_per_point_array(monkeypatch, tmp_path, scheme):
    # Chern numbers, loop phases and the CSV read one d x d matrix per ring.
    built: list[str] = []
    real_per_point = geometry._per_point

    def per_point_spy(x, rep):
        built.append("per-point matrices")
        return real_per_point(x, rep)

    def frames_spy(row):
        built.append("per-point frames")
        return row.points

    monkeypatch.setattr(geometry, "_per_point", per_point_spy)
    monkeypatch.setattr(geometry._Row, "frames", property(frames_spy))
    p = ModelParams(2, 2 / 3)
    mesh = SphereMesh(100, 200, scheme)
    for source in ("numerical", "analytic"):
        assert chern_number_curvature(p, (3, 4, 5), mesh, source=source).rounded == 1
        loop_phase(p, (3, 4, 5), RING_LOOP, mesh, source=source)
        curvature_field(p, (3, 4, 5), mesh, source=source).to_csv(tmp_path / "curv.csv")
    assert built == []
    curvature_field(p, (3, 4, 5), mesh).curvature  # the spies do see an expansion
    assert built == ["per-point matrices"] * (mesh.n_theta - 1)


def test_factored_csv_matches_the_per_point_one(tmp_path):
    p = ModelParams(2, 2 / 3)
    frames = smooth_gauge_states(p, (3, 4, 5), SphereMesh(16, 32, "equal-area"))
    per_point = replace(frames, rows=[geometry._Row(row.theta, row.phis, row.frames.copy())
                                      for row in frames.rows])
    tables = []
    for field in (frames, per_point):
        curvature_discrete(connection_discrete(field)).to_csv(tmp_path / "curv.csv")
        tables.append(np.loadtxt(tmp_path / "curv.csv", delimiter=",", skiprows=2))
    assert tables[0].shape == tables[1].shape
    assert np.max(np.abs(tables[0] - tables[1])) < 1e-9


ANALYTIC_CASES = [(2, (3, 4, 5), 1e-10), (4, (5, 6, 7, 8, 9), 1e-6)]


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
@pytest.mark.parametrize("n", [20, 100])
@pytest.mark.parametrize("two_l,labels,tol", ANALYTIC_CASES)
def test_analytic_interior_rows_are_the_closed_forms(two_l, labels, tol, n, scheme):
    # Rotated out from phi = 0, the rows away from the poles stay the closed
    # forms at their own phi; the L = 2 forms carry csc^6 factors and lose
    # digits near the pole margin.
    p = ModelParams(two_l, 2 / (two_l + 1))
    frames = smooth_gauge_states(p, labels, SphereMesh(n, 2 * n, scheme), source="analytic")
    margin = geometry._ANALYTIC_POLE_MARGIN
    interior = [row for row in frames.rows if margin < row.theta < np.pi - margin]
    assert interior
    for row in interior:
        closed = gram_schmidt(raw_degenerate_vectors(two_l // 2, np.full_like(row.phis, row.theta),
                                                     row.phis))
        assert np.max(np.abs(row.frames - closed)) < tol


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
def test_analytic_frames_take_the_meridian(monkeypatch, scheme):
    # One closed-form call for the seed latitudes at phi = 0, one for the
    # rotation at every phi count, and one aligned frame per polar-margin
    # latitude.
    calls: list[int] = []
    sizes: list[int] = []
    real_raw, real_align = geometry.raw_degenerate_vectors, geometry._align_rows

    def raw_spy(l, theta, phi):
        calls.append(1)
        return real_raw(l, theta, phi)

    def align_spy(frames, ref):
        sizes.append(len(frames))
        return real_align(frames, ref)
    monkeypatch.setattr(geometry, "raw_degenerate_vectors", raw_spy)
    monkeypatch.setattr(geometry, "_align_rows", align_spy)
    mesh = SphereMesh(100, 200, scheme)
    smooth_gauge_states(ModelParams(4, 0.4), (5, 6, 7, 8, 9), mesh, source="analytic")
    counts = {mesh.ring_phi_count(r) for r in range(1, mesh.n_theta)}
    margin = geometry._ANALYTIC_POLE_MARGIN
    polar = [t for t in mesh.theta_edges()[1:] if not margin < t < np.pi - margin]
    assert len(counts) == (1 if scheme == "uniform" else 45)
    assert len(calls) == 2
    assert sizes == [1] * len(polar)


def _count_matrices(monkeypatch) -> list[int]:
    counts: list[int] = []
    real = geometry.hamiltonian_batch

    def spy(p, theta, phi):
        h = real(p, theta, phi)
        counts.append(int(np.prod(h.shape[:-2])))
        return h
    monkeypatch.setattr(geometry, "hamiltonian_batch", spy)
    return counts


@pytest.mark.parametrize("y,axis,factorised", [(0.0, (1.0, 0.0, 0.0), True),
                                               (0.001, (0.0, 0.0, 1.0), True),
                                               (0.1, (1.0, 0.0, 0.0), False)])
def test_tilted_axis_takes_the_per_point_path(monkeypatch, y, axis, factorised):
    # Link Chern numbers are read from the phi = 0 meridian with the axis
    # along z for every axis, one matrix per ring edge; only a tilted axis's
    # frames are solved and transported point by point, since they expose
    # fields in mesh coordinates.
    counts = _count_matrices(monkeypatch)
    p = ModelParams(2, 1.3, y, axis=axis)
    mesh = SphereMesh(8, 16, "uniform")
    chern_spectrum_link_variable(p, mesh, check=False)
    assert counts == [mesh.n_theta + 1]
    counts.clear()
    smooth_gauge_states(p, (1,), mesh)
    assert sum(counts) == (8 if factorised else 8 * 16)


@st.composite
def _tilted_params(draw) -> ModelParams:
    two_l = draw(st.integers(0, 4))
    x = draw(st.floats(0.2, 2.0))
    assume(abs(x - 2 / (two_l + 1)) >= 0.05)
    theta, phi = draw(st.floats(0, np.pi)), draw(st.floats(0, 2 * np.pi))
    axis = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    return ModelParams(two_l, x, draw(st.floats(-0.5, 0.5)), axis=axis)


TILTED_MESH = SphereMesh(40, 80, "uniform")


def _axis_line_spectrum(p: ModelParams) -> np.ndarray:
    """Eigenvalues along a half great circle from the axis a to -a.

    The spectrum at n depends only on the angle between n and a, so a band
    set is isolated on the sphere iff it is along this line.  Its 2001
    points include every ring latitude of TILTED_MESH.
    """
    a = np.asarray(p.axis)
    u = np.cross(a, np.eye(3)[np.argmin(np.abs(a))])
    s = np.linspace(0, np.pi, 2001)[:, None]
    n = np.cos(s) * a + np.sin(s) * u / np.linalg.norm(u)
    return np.linalg.eigvalsh(hamiltonian_batch(
        p, np.arccos(np.clip(n[:, 2], -1, 1)), np.arctan2(n[:, 1], n[:, 0])))


@settings(max_examples=25, deadline=None)
@given(p=_tilted_params())
def test_tilted_link_spectrum_matches_per_point_solve(p):
    try:
        results = chern_spectrum_link_variable(p, TILTED_MESH)
    except SubspaceIsolationError:
        # Refused only where neighbouring bands touch on a mesh ring.
        assert np.min(np.diff(_axis_line_spectrum(p), axis=-1)) < TOL.subspace_isolation
        return
    try:
        oracle = _oracle_spectrum(_model(p), TILTED_MESH)
    except MeshResolutionError:
        assume(False)
    _assert_matches_oracle(results, oracle)


def test_link_isolation_sees_a_touching_circle_about_the_axis():
    # At 2L = 3, x = y = 0.25 levels 4 and 5 touch the rest wherever n . a = 0;
    # at the L = 1 crossing three levels touch everywhere.  Refining the mesh
    # cannot separate them, so the refusal names the touching, not the mesh.
    p = ModelParams(3, 0.25, 0.25, axis=(0.6, 0.0, 0.8))
    mesh = SphereMesh(40, 80, "uniform")
    for call in (lambda: chern_number_link_variable(p, (4, 5), mesh),
                 lambda: chern_spectrum_link_variable(p, mesh),
                 lambda: chern_spectrum_link_variable(p, mesh, check=False),
                 lambda: chern_spectrum_link_variable(ModelParams(2, 2 / 3), mesh, check=False)):
        with pytest.raises(SubspaceIsolationError, match="touch"):
            call()
    # The circle n . a = 0 is the axis frame's equator, ring edge 20 of 40.
    with pytest.raises(SubspaceIsolationError,
                       match=r"positions 4 and 5 touch at \(theta=1\.570796"):
        chern_spectrum_link_variable(p, mesh, check=False)


@settings(max_examples=25, deadline=None)
@given(p=_tilted_params(), first=st.integers(0, 13))
def test_tilted_link_band_pair_matches_per_point_solve(p, first):
    first %= p.dim - 1
    pos = level_positions(p)
    labels = [int(np.flatnonzero(pos == k)[0]) + 1 for k in (first, first + 1)]
    w, v = _oracle_grid(_model(p), TILTED_MESH)
    # A per-point grid can miss a touching on a whole circle about a
    # (2L = 3, x = y = 0.25: the circle n . a = 0), and the axis-frame
    # meridian, whose ring edges lie on such circles, may hit it exactly;
    # the a to -a line sees both.
    try:
        geometry._check_isolated(w, (first, first + 1), "oracle")
        geometry._check_isolated(_axis_line_spectrum(p), (first, first + 1), "oracle, a to -a")
        oracle = ChernResult.from_fourpi(_oracle_link_chern(v[..., first:first + 2]))
    except (MeshResolutionError, SubspaceIsolationError):
        assume(False)
    result = chern_number_link_variable(p, labels, TILTED_MESH)
    assert abs(result.fourpi - oracle.fourpi) < 1e-9
    assert result.rounded == oracle.rounded


@settings(max_examples=40, deadline=None)
@given(two_l=st.integers(0, 5), x=st.floats(-2, 2), y=st.floats(-0.5, 0.5),
       theta=st.floats(0, np.pi), phi=st.floats(0, 2 * np.pi), on_axis=st.booleans())
def test_spectrum_and_eigenvectors_rotate_about_z(two_l, x, y, theta, phi, on_axis):
    # Either the axis lies along z, or y = 0 with an arbitrary axis.
    axis = (0.0, 0.0, 1.0) if on_axis else (0.6, 0.0, 0.8)
    p = ModelParams(two_l, x, y if on_axis else 0.0, axis=axis)
    h_phi = build_hamiltonian(p.with_field(theta, phi))
    w0, v0 = np.linalg.eigh(build_hamiltonian(p.with_field(theta, 0.0)))
    assert np.max(np.abs(np.linalg.eigvalsh(h_phi) - w0)) < 1e-10
    rotated = np.exp(-1j * phi * _jz_diagonal(two_l))[:, None] * v0
    assert np.max(np.abs(h_phi @ rotated - rotated * w0)) < 1e-10
    w, v = geometry._eigen_grid(p, np.array([theta]), np.array([phi]))
    assert np.max(np.abs(h_phi @ v[0, 0] - v[0, 0] * w[0, 0])) < 1e-10


@settings(max_examples=60, deadline=None)
@given(two_l=st.sampled_from([1, 2, 3]), x=st.floats(0.2, 2.0),
       theta=st.floats(0, np.pi), phi=st.floats(0, 2 * np.pi))
def test_level_chern_is_minus_j_and_bands_sum_to_zero(two_l, x, theta, phi):
    # Below x = 0.2 the levels bunch towards the x = 0 degeneracy.
    assume(abs(x - 2 / (two_l + 1)) >= 0.05)
    p = ModelParams(two_l, x, 0.0, FieldDirection(theta, phi))
    link = chern_spectrum_link_variable(p, SphereMesh(50, 100, "uniform"))
    _, jexp = eigensystem_with_j(p)
    for r, j in zip(link, jexp):
        assert abs(r.rounded + j) < 1e-9
        assert r.deviation < 1e-9
    assert abs(sum(r.fourpi for r in link)) < 1e-9
