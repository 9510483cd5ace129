import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import happer.geometry as geometry
import happer.model as model
import happer.spectrum as spectrum
from happer.cli import ScanConfig, cmd_chern, cmd_phase, cmd_weyl_compare
from happer.degenerate import gram_schmidt, raw_degenerate_vectors
from happer.errors import MeshResolutionError, SubspaceIsolationError
from happer.geometry import (ChernResult, chern_number, chern_number_curvature,
                             chern_number_link_variable, chern_spectrum_link_variable,
                             connection_discrete, curvature_discrete, curvature_field,
                             loop_phase, smooth_gauge_states)
from happer.mesh import SphereMesh
from happer.model import (FieldDirection, ModelParams, _jz_diagonal, build_hamiltonian,
                          hamiltonian_batch, projected_hamiltonian, semimetal_batch, zeeman_params)
from happer.operators import SpinQuantumNumber
from happer.spectrum import eigensystem, eigensystem_with_j, level_positions
from happer.tolerances import TOL
from test_dynamics import csv_rows_per_value

LOOP_THETA = np.pi / 6  # latitude of the test loops
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
    # counts the mesh cannot use: a float ring count, no phi step, and one
    # phi-link that is the whole circle
    with pytest.raises(ValueError, match="n_theta must be an integer of at least 4, got 50.5"):
        SphereMesh(50.5)
    with pytest.raises(ValueError, match="n_phi_max must be an integer of at least 4, got 0"):
        SphereMesh(50, 0)
    with pytest.raises(ValueError, match="n_phi_max must be an integer of at least 4, got 1"):
        SphereMesh(50, 1, "uniform")
    assert SphereMesh(np.int64(4), 4).phi_max == 4


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


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
def test_constant_frames_give_zero_connection_and_curvature(scheme):
    # Every edge the south pole's frame, with R(dphi) = 1 and D(dphi) = 1,
    # so every per-point matrix is its ring's phi = 0 one.
    p = ModelParams(0, 0.0, 0.0, FieldDirection(0.0, 0.0))
    mesh = SphereMesh(12, 24, scheme)
    frames = smooth_gauge_states(p, (1,), mesh)
    frames = replace(frames, meridian=np.broadcast_to(frames.meridian[-1], frames.meridian.shape),
                     rot=np.ones_like(frames.rot), step=np.ones_like(frames.step))
    conn = connection_discrete(frames)
    assert np.max(np.abs(conn.x_theta)) < 1e-14
    field = curvature_discrete(conn)
    assert np.max(np.abs(field.x_curvature)) < 1e-14


def test_smooth_gauge_neighbour_overlap():
    p = ModelParams(2, 1.0, 0.0, FieldDirection(0.5, 0.3))
    frames = smooth_gauge_states(p, (5,), SphereMesh(40, 80, "uniform"))
    for r in range(frames.ring_start, 40):
        top = _frames(frames, r, 0)[:, :, 0]
        bottom = _frames(frames, r, 1)[:, :, 0]
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
    # The twist is not a rotation about z, so the twisted frames are per
    # point, and the per-point oracle reads them.
    rng = np.random.default_rng(31)
    p = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.5, 0.3))
    mesh = SphereMesh(60, 120, "uniform")
    frames = smooth_gauge_states(p, (3, 4, 5), mesh)
    base = chern_number(curvature_discrete(connection_discrete(frames))).fourpi
    per_point = _library_frames(frames)
    assert abs(_oracle_chern(frames, _oracle_fields(per_point)).fourpi - base) < 1e-12
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

    edges = mesh.theta_edges()
    twisted = [[np.array([f @ twist(edges[r + edge], phi)
                          for f, phi in zip(ring, mesh.ring_phis(r), strict=True)])
                for edge, ring in enumerate(pair)]
               for r, pair in zip(_rings(frames), per_point, strict=True)]
    rotated = _oracle_chern(frames, _oracle_fields(twisted)).fourpi
    assert abs(rotated - base) < 1e-3


def test_loop_phase_zeeman_closed_form():
    # The Stokes sum on the mesh; loop_phase itself is the closed form here.
    p = zeeman_params()
    mesh = SphereMesh(120, 240, "uniform")
    g = curvature_field(p, 1, mesh).flux(LOOP_THETA)
    assert abs(g - CAP_SOLID_ANGLE) < 2e-3
    g3 = curvature_field(p, 3, mesh).flux(LOOP_THETA)
    assert abs(g3 + CAP_SOLID_ANGLE) < 2e-3


def test_loop_phase_interpolates_off_grid_latitudes():
    p = zeeman_params()
    g = curvature_field(p, 1, SphereMesh(100, 200, "uniform")).flux(LOOP_THETA)  # pi/6 off grid
    assert abs(g - CAP_SOLID_ANGLE) < 5e-3


def test_loop_phase_edge_cases():
    p = zeeman_params()
    assert loop_phase(p, 1, 0.0) == 0.0  # a zero-area loop
    for theta0 in (-0.1, np.pi + 0.1, float("nan")):
        with pytest.raises(ValueError, match=r"\[0, pi\]"):
            loop_phase(p, 1, theta0)


FLUX_CASES = {
    "uniform": (ModelParams(2, 1.0, 0.0, FieldDirection(0.5, 0.3)), 1,
                SphereMesh(60, 120, "uniform")),
    "equal-area": (ModelParams(2, 1.0, 0.0, FieldDirection(0.5, 0.3)), 1,
                   SphereMesh(60, 120, "equal-area")),
    "cluster": (ModelParams(2, 2 / 3), (3, 4, 5), SphereMesh(60, 120, "uniform")),
    "tilted": (ModelParams(2, 0.8, 0.1, axis=(0.6, 0.0, 0.8)), 1,
               SphereMesh(60, 120, "uniform")),
}


@pytest.mark.parametrize("p,labels,mesh", FLUX_CASES.values(), ids=FLUX_CASES.keys())
def test_loop_phase_and_chern_read_one_flux(p, labels, mesh):
    # The Chern number reads CurvatureField.flux: the loop at pi encloses the
    # sphere, the loop at 0 nothing, and inside the dropped cap the flux is
    # the first kept ring's density times 2 pi (1 - cos theta0).  loop_phase
    # is the closed form, whose loop at pi is 4 pi times the Chern number.
    field = curvature_field(p, labels, mesh)
    whole = field.flux(np.pi)
    chern = chern_number_curvature(p, labels, mesh)
    assert abs(whole - 4 * np.pi * chern.fourpi) < 1e-12
    assert abs(loop_phase(p, labels, np.pi, mesh) - 4 * np.pi * chern.rounded) < 1e-12
    assert field.flux(0.0) == 0.0
    cap = np.pi / mesh.n_theta  # the dropped ring's bottom edge
    inside = [field.flux(t * cap) / (1 - np.cos(t * cap)) for t in (0.3, 0.9)]
    assert inside[0] != 0.0
    assert abs(inside[0] - inside[1]) < 1e-12 * abs(inside[0])
    # A tilted axis's field lives on the mesh about the axis: it is the field
    # of the axis along z, whose loops are symmetry orbits, so its flux is
    # near the closed form there.
    axis_frame = replace(p, axis=(0.0, 0.0, 1.0))
    assert curvature_field(axis_frame, labels, mesh).flux(LOOP_THETA) == field.flux(LOOP_THETA)
    if p.y != 0.0:
        assert abs(field.flux(LOOP_THETA) - loop_phase(axis_frame, labels, LOOP_THETA)) < 1e-4


# flux(pi) and flux(0.7) of the factored curvature scheme as it stood when a
# ring's frames were stored as shared (theta, phi count) rows; the per-ring
# stacks must reproduce them to rounding.
FLUX_PINS = [
    ("L1-cluster-uniform50", ModelParams(2, 2 / 3), (3, 4, 5),
     SphereMesh(50, 100, "uniform"), "numerical", 12.314935791441965, 1.4125414423150078),
    ("L1-cluster-uniform100-analytic", ModelParams(2, 2 / 3), (3, 4, 5),
     SphereMesh(100, 200, "uniform"), "analytic", 12.526128749070702, 1.489314397787523),
    ("L1-cluster-equal-area100", ModelParams(2, 2 / 3), (3, 4, 5),
     SphereMesh(100, 200, "equal-area"), "numerical", 12.337756719230734, 1.3150156852696662),
    ("L1-cluster-equal-area50-analytic", ModelParams(2, 2 / 3), (3, 4, 5),
     SphereMesh(50, 100, "equal-area"), "analytic", 12.316730558200842, 1.969628761277569),
    ("L1-level1-uniform50", ModelParams(2, 1.0), 1,
     SphereMesh(50, 100, "uniform"), "numerical", 5.790698412707831e-17, 1.7925065523723146e-16),
    ("L1-level5-equal-area100", ModelParams(2, 1.0), 5,
     SphereMesh(100, 200, "equal-area"), "numerical", 24.89972434938743, 2.7949161721466655),
    ("L1-level9-uniform100", ModelParams(2, 0.4), 9,
     SphereMesh(100, 200, "uniform"), "numerical", -25.066646739982428, -2.939567444130988),
    ("L1-tilted-level1-uniform50", ModelParams(2, 0.8, 0.1, axis=(0.6, 0.0, 0.8)), 1,
     SphereMesh(50, 100, "uniform"), "numerical", 3.959313082584699e-06, -0.013109384813736783),
    ("L1-tilted-level2-equal-area100", ModelParams(2, 0.8, 0.1, axis=(0.6, 0.0, 0.8)), 2,
     SphereMesh(100, 200, "equal-area"), "numerical", 12.540450184338809, 1.6489850411391807),
    ("L3/2-level1-uniform50", ModelParams(3, 0.5), 1,
     SphereMesh(50, 100, "uniform"), "numerical", -6.27905182277296, -0.7403845819693228),
    ("L3/2-level3-equal-area100", ModelParams(3, 0.5), 3,
     SphereMesh(100, 200, "equal-area"), "numerical", 18.764467305514206, 2.165833413272854),
    ("L3/2-tilted-level2-uniform100", ModelParams(3, 0.25, 0.25, axis=(0.6, 0.0, 0.8)), 2,
     SphereMesh(100, 200, "uniform"), "numerical", 6.281948600867296, 1.490138788202956),
    ("L3/2-cluster-uniform50", ModelParams(3, 0.5), (4, 5, 6, 7),
     SphereMesh(50, 100, "uniform"), "numerical", 12.077038217897162, 1.344028987175656),
    ("L2-cluster-uniform100", ModelParams(4, 0.4), (5, 6, 7, 8, 9),
     SphereMesh(100, 200, "uniform"), "numerical", 12.354020308216858, 1.4178954566335604),
    ("L2-cluster-uniform100-analytic", ModelParams(4, 0.4), (5, 6, 7, 8, 9),
     SphereMesh(100, 200, "uniform"), "analytic", 12.469869405309629, 1.5317117407151573),
    ("L2-cluster-equal-area50-analytic", ModelParams(4, 0.4), (5, 6, 7, 8, 9),
     SphereMesh(50, 100, "equal-area"), "analytic", 11.733163062304962, 2.9176988767620675),
    ("L2-level1-uniform50", ModelParams(4, 0.9), 1,
     SphereMesh(50, 100, "uniform"), "numerical", -12.533323352673055, -1.473395468677555),
    ("L2-level7-equal-area100", ModelParams(4, 0.9), 7,
     SphereMesh(100, 200, "equal-area"), "numerical", -12.582193509988626, -1.5110827951963701),
    ("L2-tilted-level3-uniform50", ModelParams(4, 0.6, 0.2, axis=(0.6, 0.0, 0.8)), 3,
     SphereMesh(50, 100, "uniform"), "numerical", 12.533142163064298, 2.1089879799879836),
    ("zeeman-level1-equal-area50", zeeman_params(), 1,
     SphereMesh(50, 100, "equal-area"), "numerical", 12.466989032957526, 1.4223939764380218),
]


@pytest.mark.parametrize("p,labels,mesh,source,whole,at_07", [c[1:] for c in FLUX_PINS],
                         ids=[c[0] for c in FLUX_PINS])
def test_flux_is_pinned_to_the_row_layout_values(p, labels, mesh, source, whole, at_07):
    field = curvature_field(p, labels, mesh, source=source)
    assert abs(field.flux(np.pi) - whole) < 1e-12
    assert abs(field.flux(0.7) - at_07) < 1e-12


def test_cluster_loop_phase_additivity():
    mesh = SphereMesh(100, 200, "uniform")
    p_star = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.5, 0.3))
    g_deg = loop_phase(p_star, (3, 4, 5), LOOP_THETA, mesh)
    eps = 0.03
    total = 0.0
    for side in (2 / 3 - eps, 2 / 3 + eps):
        p_side = p_star.with_x(side)
        side_sum = sum(loop_phase(p_side, lab, LOOP_THETA, mesh) for lab in (3, 4, 5))
        total += 0.5 * side_sum
    assert abs(g_deg - total) < 1e-2


@pytest.mark.parametrize("two_l,axis", [(2, (0.0, 0.0, 1.0)), (3, (0.6, 0.0, 0.8))])
def test_loop_phase_is_minus_m_times_the_cap_at_y_zero(two_l, axis):
    # At y = 0 the loop is an orbit of e^{-i phi J_z}, so a level of n.J = m
    # has the phase -m 2 pi (1 - cos theta0) exactly, whatever the axis.
    p = ModelParams(two_l, 1.0, 0.0, FieldDirection(0.5, 0.3), axis)
    _, m = eigensystem_with_j(p)
    positions = level_positions(p)
    for theta0 in (0.0, LOOP_THETA, 2.0, np.pi):
        cap = 2 * np.pi * (1 - np.cos(theta0))
        for lab in range(1, p.dim + 1):
            assert abs(loop_phase(p, lab, theta0) + m[positions[lab - 1]] * cap) < 1e-12


@pytest.mark.parametrize("two_l,labels", [(2, (3, 4, 5)), (4, (5, 6, 7, 8, 9))])
def test_crossing_cluster_loop_phase_is_the_cap(two_l, labels):
    # tr(P J_z) does not depend on the basis inside the cluster, whose
    # fourpi Chern number is +1.
    p = ModelParams(two_l, 2 / (two_l + 1), 0.0, FieldDirection(0.5, 0.3))
    for theta0 in (LOOP_THETA, 2.0, np.pi):
        assert abs(loop_phase(p, labels, theta0) - 2 * np.pi * (1 - np.cos(theta0))) < 1e-12


def test_axis_along_z_loop_phase_is_the_fine_mesh_limit():
    # With y != 0 and the axis along z, the Stokes sum converges to the
    # closed form like 1/n^2: 1.1e-2, 2.7e-3, 6.8e-4 at 120, 240, 480 rings
    # (largest over the nine labels, label 5).
    p = ModelParams(2, 1.0, 0.1, FieldDirection(0.5, 0.3))
    mesh = SphereMesh(480, 960, "uniform")
    for lab in range(1, p.dim + 1):
        flux = curvature_field(p, lab, mesh).flux(LOOP_THETA)
        assert abs(loop_phase(p, lab, LOOP_THETA) - flux) < 1e-3


TILTED_P = ModelParams(2, 0.8, 0.1, axis=(1.0, 0.0, 0.0))
PHASE_MESH = SphereMesh(50, 100, "uniform")


def _phases(p: ModelParams, theta0: float) -> np.ndarray:
    """Loop phases of every position, each converged and gated on its own."""
    return geometry._orbit_phases(p, theta0, PHASE_MESH, [(k,) for k in range(p.dim)])


def _closed_form_phases(p: ModelParams, theta0: float) -> np.ndarray:
    """2 pi [<J_z>(theta0) - <J_z>(0)] per position, one eigh per latitude at phi = 0."""
    vectors = [np.linalg.eigh(build_hamiltonian(p.with_field(t, 0.0)))[1] for t in (theta0, 0.0)]
    jz = [np.einsum("da,d,da->a", v.conj(), _jz_diagonal(p.nuclear_two_l), v).real for v in vectors]
    return 2 * np.pi * (jz[0] - jz[1])


@pytest.mark.parametrize("two_l", [1, 2, 3])
@pytest.mark.parametrize("y,axis", [(0.1, (0.0, 0.0, 1.0)), (0.1, (0.0, 0.0, -1.0)),
                                    (0.0, (0.6, 0.0, 0.8)), (0.0, (1.0, 0.0, 0.0))])
def test_covariant_loop_phases_are_the_closed_form(two_l, y, axis):
    # The axis along +-z, or y = 0 with any axis: the angle beta between the
    # axis and z is 0, the interval across the axis circles is empty, and
    # the phase is the closed form at theta0 itself.
    p = ModelParams(two_l, 0.8, y, axis=axis)
    for theta0 in (0.3, LOOP_THETA, 2.0, np.pi):
        assert np.max(np.abs(_phases(p, theta0) - _closed_form_phases(p, theta0))) < 1e-12


def test_tilted_loop_phase_at_the_ends_of_the_range():
    # theta0 = 0 encloses nothing, theta0 = pi the whole sphere, 4 pi times
    # the link Chern number; just short of pi the interval across the axis
    # circles is 5e-6 wide (beta = pi / 2) and the phase stays finite.
    link = chern_spectrum_link_variable(TILTED_P, PHASE_MESH)
    fourpi = 4 * np.pi * np.array([r.fourpi for r in link])
    assert np.all(_phases(TILTED_P, 0.0) == 0.0)
    assert np.max(np.abs(_phases(TILTED_P, np.pi) - fourpi)) < 1e-9
    near = _phases(TILTED_P, 3.14159)
    assert np.all(np.isfinite(near)) and np.max(np.abs(near - fourpi)) < 1e-3
    for label in range(1, 10):
        assert loop_phase(TILTED_P, label, 0.0, PHASE_MESH) == 0.0
        position = level_positions(TILTED_P)[label - 1]
        assert abs(loop_phase(TILTED_P, label, np.pi, PHASE_MESH) - fourpi[position]) < 1e-9
    assert abs(loop_phase(TILTED_P, 5, 3.14159, PHASE_MESH) - 25.1327) < 1e-3


def test_tilted_loop_phase_is_the_fine_mesh_limit():
    # Label 5 at pi / 6: the Stokes sum in mesh coordinates on 200 and 400
    # uniform rings, extrapolated as 1/n^2 (Richardson), gives 1.3417080.
    assert abs(loop_phase(TILTED_P, 5, LOOP_THETA, PHASE_MESH) - 1.3417080) < 1e-6
    for n in (8, 32):  # converged in the node count
        with pytest.MonkeyPatch.context() as m:
            m.setattr(geometry, "_PANEL_NODES", n)
            assert abs(loop_phase(TILTED_P, 5, LOOP_THETA, PHASE_MESH) - 1.3417081129) < 2e-9


def test_nearly_z_axis_loop_phases_are_the_z_axis_ones():
    # beta = 1e-9: a 2e-9 wide interval across the axis circles.
    tilted = replace(TILTED_P, axis=(np.sin(1e-9), 0.0, np.cos(1e-9)))
    along_z = replace(TILTED_P, axis=(0.0, 0.0, 1.0))
    for theta0 in (0.3, LOOP_THETA, 2.0):
        assert np.max(np.abs(_phases(tilted, theta0) - _phases(along_z, theta0))) < 1e-8


def test_tilted_loop_phase_resolves_a_near_crossing():
    # Two levels come within 2.4e-3 on the meridian about the axis, so each
    # one's Phi turns within a few milliradians; the panels halve there.  The
    # reference is the Stieltjes sum of f against Phi on 20000 meridian steps,
    # good to about 1e-5.
    p = ModelParams(3, 0.45, 0.17, axis=(np.sin(2.25), 0.0, np.cos(2.25)))
    theta0, beta = 1.25, np.pi - 2.25
    alpha = np.linspace(0, np.pi, 20001)
    _, v = geometry._meridian(p, alpha, [], "reference")
    phi = 2 * np.pi * np.einsum("tda,d,tda->ta", v.conj(), _jz_diagonal(3), v).real
    mid = (alpha[1:] + alpha[:-1]) / 2
    f = np.arccos(np.clip((np.cos(theta0) - np.cos(mid) * np.cos(beta))
                          / (np.sin(mid) * np.sin(beta)), -1, 1)) / np.pi
    assert np.max(np.abs(_phases(p, theta0) - f @ np.diff(phi, axis=0))) < 2e-5


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
def test_tilted_curvature_chern_is_the_z_axis_one(scheme):
    # Frames and curvature of a tilted axis live on the mesh about the axis.
    # Labels 3 and 4 sit at swapped positions for the two axes (the z-axis
    # levels cross in the x sweep that numbers them), so they pair by position.
    mesh = SphereMesh(100, 200, scheme)
    along_z = replace(TILTED_P, axis=(0.0, 0.0, 1.0))
    z_label = np.argsort(level_positions(along_z)) + 1  # per position
    link = chern_spectrum_link_variable(TILTED_P, mesh)
    for label, position in enumerate(level_positions(TILTED_P), start=1):
        tilted = chern_number_curvature(TILTED_P, label, mesh)
        assert tilted.fourpi == chern_number_curvature(along_z, z_label[position], mesh).fourpi
        assert tilted.rounded == link[position].rounded


def test_analytic_frames_match_numerical_loop_phase():
    # The two frame sources differ by a gauge; the Stokes sums agree as
    # O(1/n^2), reaching the 1e-3 level around 480 rings.
    mesh = SphereMesh(480, 960, "uniform")
    p_star = ModelParams(2, 2 / 3, 0.0, FieldDirection(0.5, 0.3))
    g_num = curvature_field(p_star, (3, 4, 5), mesh).flux(LOOP_THETA)
    g_ana = curvature_field(p_star, (3, 4, 5), mesh, source="analytic").flux(LOOP_THETA)
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
            loop_phase(p, 4, LOOP_THETA, mesh)


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
                 lambda: loop_phase(p_star, (4, 9), LOOP_THETA, mesh)):
        with pytest.raises(ValueError, match="contiguous"):
            call()


# L = 1 at x = 1, away from the crossing: nine isolated levels.
LABEL_P = ModelParams(2, 1.0, 0.0, FieldDirection(0.5, 0.3))
LABEL_MESH = SphereMesh(60, 120, "uniform")
LABEL_CALLS = {
    "link": lambda labels: chern_number_link_variable(LABEL_P, labels, LABEL_MESH).fourpi,
    "curvature": lambda labels: chern_number_curvature(LABEL_P, labels, LABEL_MESH).fourpi,
    "loop-phase": lambda labels: loop_phase(LABEL_P, labels, LOOP_THETA, LABEL_MESH),
    "frames": lambda labels: smooth_gauge_states(LABEL_P, labels, LABEL_MESH).labels,
    "projection": lambda labels: projected_hamiltonian(
        LABEL_P, labels, eigensystem(build_hamiltonian(LABEL_P))),
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
    # byte for byte the per-value formatting; a tilted axis's field is
    # factored too, on the mesh about the axis: the z-axis field's table
    tilted = ModelParams(2, 0.8, 0.1, FieldDirection(0.4, 0.2), (0.6, 0.0, 0.8))
    tables = []
    for p in (zeeman_params(), tilted, replace(tilted, axis=(0.0, 0.0, 1.0))):
        mesh = SphereMesh(16, 32, "equal-area")
        field = curvature_field(p, (1,), mesh)
        rows = []
        for r, c in zip(_rings(field.field), field.x_curvature, strict=True):
            tr = np.trace(c).real
            rows += [[mesh.theta_edges()[r], phi, tr, om] for phi, om in
                     zip(mesh.ring_phis(r), mesh.ring_solid_angle(r), strict=True)]
        assert len(rows) > 100
        out = tmp_path / "curv.csv"
        field.to_csv(out)
        tables.append(out.read_text())
        assert tables[-1] == ("# schema=1\ntheta,phi,re_tr_curvature,solid_angle\n"
                              + csv_rows_per_value(rows))
    assert tables[1] == tables[2]


def test_link_gate_refuses_a_mesh_too_coarse_for_the_winding():
    # At 4 rings the L = 2 table has plaquette phases of pi and a wrong band list.
    coarse = SphereMesh(4, 8, "uniform")
    with pytest.raises(MeshResolutionError, match="plaquette"):
        chern_spectrum_link_variable(ModelParams(4, 1.0), coarse, check=False)
    with pytest.raises(MeshResolutionError, match="plaquette"):
        chern_number_link_variable(ModelParams(4, 1.0), 12, coarse)
    res = chern_spectrum_link_variable(ModelParams(2, 1.0), coarse)  # L = 1 resolves
    assert sorted(r.rounded for r in res) == [-2, -1, -1, 0, 0, 0, 1, 1, 2]


@pytest.mark.parametrize("p,label,mesh,wrong,right", [
    (ModelParams(13, 0.3, 0.01, FieldDirection(0.6, 0.2)), 25,
     SphereMesh(200, 400, "equal-area"), -5.5, -6.5),
    (ModelParams(9, 0.3, 0.0, FieldDirection(0.6, 0.2)), 19, SphereMesh(50, 100, "equal-area"),
     4.5, 5.5),
], ids=["2L=13-200-rings", "2L=9-50-rings"])
def test_curvature_refuses_a_phi_step_its_connection_cannot_follow(p, label, mesh, wrong, right):
    # Past an eigenphase of pi/2 the phi-edge overlap's Im tr falls as the
    # phase grows, so the flux lost a unit of winding and landed on the grid
    # (on `wrong`, within the quantization gate); the link scheme gives `right`.
    with pytest.raises(MeshResolutionError, match=r"phi-edge overlap eigenphase \d\.\d+ exceeds "
                                                  r"1\.571; refine the mesh"):
        chern_number_curvature(p, label, mesh)
    frames = smooth_gauge_states(p, label, mesh)
    flux = curvature_discrete(connection_discrete(frames)).flux(np.pi) / (4 * np.pi)
    assert abs(flux - wrong) < TOL.chern_integer
    assert chern_number_link_variable(p, label, SphereMesh(mesh.n_theta, scheme="uniform")).rounded \
        == right


def test_curvature_refuses_four_phis_per_ring_for_every_winding_band():
    # One phi step of pi/2 turns an m = +-1 or +-2 band by pi/2 or more, and
    # every label read 0; only the m = 0 bands, with M = 1, are still read.
    p = ModelParams(2, 0.8, 0.0, FieldDirection(0.7, 0.3))
    mesh = SphereMesh(50, 4, "uniform")
    truth = [r.rounded for r in chern_spectrum_link_variable(p, SphereMesh(50, 100, "uniform"))]
    read = {}
    for label, position in enumerate(level_positions(p), start=1):
        try:
            read[label] = chern_number_curvature(p, label, mesh).rounded
        except MeshResolutionError as exc:
            assert "refine the mesh" in str(exc)
    assert [truth[position] for position in level_positions(p)] == [0, 1, 0, -1, 2, 1, 0, -1, -2]
    assert read == {1: 0, 3: 0}


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


@pytest.mark.parametrize("two_l,y", COVARIANT_CASES)
def test_factorised_grid_matches_per_point_solve(two_l, y):
    # The link scheme's premise: the phi = 0 meridian rotated out by
    # e^{-i phi J_z} is the per-point grid, band projector by projector.
    p = ModelParams(two_l, 0.9, y)
    mesh = SphereMesh(10, 20, "uniform")
    w0, f0 = geometry._meridian(p, mesh.theta_edges(), [], "")
    m = _jz_diagonal(two_l)
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


# ---------------------------------------------------------------------------
# per-point frame oracle: every mesh point solved on its own and aligned to
# the nearest-phi frame of the edge south of it, one SVD per point, with
# per-point links and plaquettes around each ring; the library transports
# the phi = 0 meridian alone and rotates it out.  The oracle solves in mesh
# coordinates, which are the library's for y = 0 or the axis along z.


def _rings(field) -> range:
    return range(field.ring_start, field.mesh.n_theta)


def _powers(step: np.ndarray, n: int) -> np.ndarray:
    """D(phi_k) = D(dphi)^k for k < n, shape (n, d, d), by repeated squaring."""
    rep = np.empty((n, *step.shape), dtype=complex)
    rep[0] = np.eye(len(step))
    done, power = 1, step  # power = D(dphi)^done
    while done < n:
        rep[done:2 * done] = rep[:min(done, n - done)] @ power
        done, power = 2 * done, power @ power
    return rep


def _frames(field, ring: int, edge: int) -> np.ndarray:
    """Per-point frames (n_phi, dim, d_sub) of a ring's top (edge 0) or bottom (edge 1) edge.

    F(theta, phi_n) = R(dphi)^n F(theta, 0) D(dphi)^n, expanded from the
    factored field.
    """
    k = ring - field.ring_start
    n = field.mesh.ring_phi_count(ring)
    rot_n = field.rot[k] ** np.arange(n)[:, None]
    return rot_n[:, :, None] * (field.meridian[k + edge] @ _powers(field.step[k], n))


def _library_frames(field) -> list[tuple[np.ndarray, np.ndarray]]:
    """The library's per-point (top, bottom) frames, ring by ring."""
    return [(_frames(field, r, 0), _frames(field, r, 1)) for r in _rings(field)]


def _expanded(field, x: np.ndarray) -> list[np.ndarray]:
    """Per-point matrices D(phi_n)^dag X D(phi_n) of a per-ring stack X, ring by ring."""
    reps = [_powers(step, field.mesh.ring_phi_count(r))
            for r, step in zip(_rings(field), field.step, strict=True)]
    return [rep.conj().swapaxes(-1, -2) @ a @ rep for rep, a in zip(reps, x, strict=True)]


def _oracle_transport(p: ModelParams, labels, mesh: SphereMesh):
    """The library's frame field and, per ring, (top, bottom) frames solved point by point.

    Edges are taken south to north, each ring's bottom edge and then its
    top edge at the ring's phis, an edge the ring south of it already took
    (the same theta and phi count) taken once: the south pole's edge
    shares one frame, in the library's gauge there, and every other edge
    is aligned to the edge before it, each point against that edge's
    nearest-phi frame.
    """
    field = smooth_gauge_states(p, labels, mesh)
    positions = list(geometry._resolve_labels(spectrum._levels(p), labels)[1])
    edges = mesh.theta_edges()

    def raw(theta, phis):
        h = hamiltonian_batch(p, np.full_like(phis, theta), phis)
        return np.linalg.eigh(h)[1][..., positions]

    pole = raw(edges[-1], mesh.ring_phis(mesh.n_theta - 1))
    u, _, vh = np.linalg.svd(pole[0].conj().T @ field.meridian[-1])
    last = np.broadcast_to(pole[0] @ u @ vh, pole.shape).copy()
    aligned = {(edges[-1], len(last)): last}
    for r in _rings(field)[::-1]:
        phis = mesh.ring_phis(r)
        for theta in (edges[r + 1], edges[r]):
            if (theta, len(phis)) not in aligned:
                nearest = np.rint(phis * len(last) / (2 * np.pi)).astype(int) % len(last)
                frames = raw(theta, phis)
                u, _, vh = np.linalg.svd(frames.conj().swapaxes(-1, -2) @ last[nearest])
                last = frames @ u @ vh
                aligned[theta, len(phis)] = last
    return field, [(aligned[edges[r], mesh.ring_phi_count(r)],
                    aligned[edges[r + 1], mesh.ring_phi_count(r)]) for r in _rings(field)]


def _oracle_fields(frames: list[tuple[np.ndarray, np.ndarray]]) -> list[list[np.ndarray]]:
    """Per-point A_theta, A_phi,top, A_phi,bottom and curvature of per-ring frames, ring by ring."""
    out: list[list[np.ndarray]] = [[], [], [], []]
    for top, bottom in frames:
        links = geometry._links(top, np.roll(top, -1, axis=0), bottom, np.roll(bottom, -1, axis=0))
        curvature = geometry._plaquettes(*links, np.roll(links[0], -1, axis=0))
        for fields, x in zip(out, (*links, curvature)):
            fields.append(x)
    return out


def _oracle_chern(field, fields: list[list[np.ndarray]]) -> ChernResult:
    """Chern number of per-point curvature; the first kept ring's density covers the dropped cap."""
    edges, r0 = field.mesh.theta_edges(), field.ring_start
    traces = [np.trace(c, axis1=-2, axis2=-1).real.sum() for c in fields[-1]]
    cap = (1 - np.cos(edges[r0 + 1])) / (np.cos(edges[r0]) - np.cos(edges[r0 + 1]))
    half = geometry._half_grid(field.dim, len(field.labels))
    return ChernResult.from_fourpi((cap * traces[0] + sum(traces[1:])) / (4 * np.pi), half)


def _oracle_general(p: ModelParams, labels, mesh: SphereMesh):
    """The library's frame field and the oracle's per-point fields of transported frames."""
    field, frames = _oracle_transport(p, labels, mesh)
    return field, _oracle_fields(frames)


@pytest.mark.parametrize("two_l,labels", [(2, (3, 4, 5)), (1, (1,))])
def test_factorised_curvature_chern_matches_per_point_solve(two_l, labels):
    p = ModelParams(two_l, 2 / (two_l + 1) if len(labels) > 1 else 0.7)
    mesh = SphereMesh(100, 200, "uniform")
    fact = chern_number_curvature(p, labels, mesh)
    general = _oracle_chern(*_oracle_general(p, labels, mesh))
    assert abs(fact.fourpi - general.fourpi) < 1e-9
    assert fact.rounded == general.rounded


@pytest.mark.parametrize("two_l,labels", [(2, (3, 4, 5)), (1, (1,))])
def test_factorised_curvature_chern_on_equal_area_is_no_further_off(two_l, labels):
    # Rotated meridian frames replace the per-point oracle's nearest-phi
    # alignment between rings of different phi counts: the gauge moves at
    # mesh-error level and the deviation may only shrink.
    p = ModelParams(two_l, 2 / (two_l + 1) if len(labels) > 1 else 0.7)
    mesh = SphereMesh(100, 200, "equal-area")
    fact = chern_number_curvature(p, labels, mesh)
    general = _oracle_chern(*_oracle_general(p, labels, mesh))
    assert fact.rounded == general.rounded
    assert fact.deviation <= general.deviation


@pytest.mark.parametrize("n", [20, 60])
@pytest.mark.parametrize("two_l", [1, 2, 3, 4])
def test_meridian_frames_match_per_point_transport(two_l, n):
    mesh = SphereMesh(n, 2 * n, "uniform")
    step = 1 if n < 60 else 4  # the per-point reference takes one SVD per mesh point
    cases = [(ModelParams(two_l, 0.8), (label,))
             for label in range(1, 3 * (two_l + 1) + 1, step)]
    if two_l == 2:
        cases.append((ModelParams(2, 2 / 3), (3, 4, 5)))
    for p, labels in cases:
        fact, general = _oracle_transport(p, labels, mesh)
        worst = max(np.max(np.abs(a - b)) for pair, oracle in
                    zip(_library_frames(fact), general, strict=True)
                    for a, b in zip(pair, oracle))
        assert worst < 1e-12, (labels, worst)


@pytest.mark.parametrize("two_l,labels", [(1, (2,)), (2, (3, 4, 5)), (4, (7,))])
def test_meridian_frames_are_orthonormal_on_equal_area(two_l, labels):
    p = ModelParams(two_l, 2 / (two_l + 1) if len(labels) > 1 else 0.8)
    frames = smooth_gauge_states(p, labels, SphereMesh(40, 80, "equal-area"))
    eye = np.eye(len(labels))
    for pair in _library_frames(frames):
        for f in pair:
            assert f.flags.owndata and f.flags.writeable  # tests write in place
            gram = np.einsum("nda,ndb->nab", f.conj(), f)
            assert np.max(np.abs(gram - eye)) < TOL.orthonormality


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
@pytest.mark.parametrize("p", [ModelParams(2, 0.8), ModelParams(2, 1.3, 0.1, axis=(1.0, 0.0, 0.0))],
                         ids=["covariant", "tilted-axis"])
def test_ring_rows_are_the_ring_edges_at_the_ring_phis(p, scheme):
    # Each edge's frames span the level at the edge's theta and the ring's
    # phis, about the axis: the eigenvectors of the axis-along-z model there.
    mesh = SphereMesh(16, 32, scheme)
    edges = mesh.theta_edges()
    frames = smooth_gauge_states(p, (1,), mesh)
    position = level_positions(p)[0]
    for r, pair in zip(_rings(frames), _library_frames(frames), strict=True):
        phis = mesh.ring_phis(r)
        for theta, f in zip((edges[r], edges[r + 1]), pair, strict=True):
            h = hamiltonian_batch(replace(p, axis=(0.0, 0.0, 1.0)), np.full_like(phis, theta), phis)
            v = np.linalg.eigh(h)[1][..., [position]]
            assert f.shape == v.shape
            assert np.max(np.abs(f @ f.conj().swapaxes(-1, -2)
                                 - v @ v.conj().swapaxes(-1, -2))) < 1e-10


def _spy_polar(monkeypatch) -> list[int]:
    """Overlap counts of the batched SVDs that align frames, one entry per SVD."""
    sizes: list[int] = []
    real = geometry._polar

    def spy(m):
        sizes.append(len(m))
        return real(m)
    monkeypatch.setattr(geometry, "_polar", spy)
    return sizes


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
def test_covariant_frames_align_once_per_latitude(monkeypatch, scheme):
    # The meridian takes one SVD of its n_theta - 1 raw overlaps, for a
    # tilted axis at y != 0 too, whose meridian has the axis along z.
    sizes = _spy_polar(monkeypatch)
    mesh = SphereMesh(8, 16, scheme)  # 16 phis on every ring of either scheme
    for y in (0.0, 0.1):
        sizes.clear()
        smooth_gauge_states(ModelParams(2, 1.3, y, axis=(1.0, 0.0, 0.0)), (1,), mesh)
        assert sizes == [mesh.n_theta - 1]


def _fields(frames) -> list[list[np.ndarray]]:
    """The library's connection and curvature stacks, expanded per point."""
    conn = connection_discrete(frames)
    stacks = (conn.x_theta, conn.x_phi_top, conn.x_phi_bottom, curvature_discrete(conn).x_curvature)
    return [_expanded(frames, x) for x in stacks]


def _worst(a: list[list[np.ndarray]], b: list[list[np.ndarray]]) -> float:
    return max(np.max(np.abs(x - y)) for u, v in zip(a, b, strict=True)
               for x, y in zip(u, v, strict=True))


@pytest.mark.parametrize("source", ["numerical", "analytic"])
@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
@pytest.mark.parametrize("two_l,labels", [(2, (3, 4, 5)), (4, (5, 6, 7, 8, 9))])
def test_factored_fields_match_the_per_point_computation(two_l, labels, scheme, source):
    # Factored frames give one matrix per ring and edge type; expanded by
    # D(phi_n), they are the per-point connection and curvature of the same
    # frames, and on a uniform mesh those of per-point transport too.
    p = ModelParams(two_l, 2 / (two_l + 1))
    mesh = SphereMesh(30, 60, scheme)
    fact = smooth_gauge_states(p, labels, mesh, source=source)
    fields = _fields(fact)
    assert _worst(fields, _oracle_fields(_library_frames(fact))) < 1e-12
    if source == "numerical" and scheme == "uniform":
        assert _worst(fields, _oracle_general(p, labels, mesh)[1]) < 1e-12


def test_uniform_ring_flux_is_minus_the_first_ring_phi_connection():
    # On a uniform mesh the theta-edge and commutator terms cancel around
    # each ring and the edges are shared, so the phi-edge traces telescope to
    # the first ring's (the south pole's vanish).  The flux south of the
    # dropped cap is the sum of the ring traces.
    frames = smooth_gauge_states(ModelParams(2, 2 / 3), (3, 4, 5), SphereMesh(40, 80, "uniform"))
    conn = connection_discrete(frames)
    first = -np.trace(_expanded(frames, conn.x_phi_top)[0], axis1=-2, axis2=-1).real.sum()
    assert abs(first - 12.156343803323004) < 1e-12
    field = curvature_discrete(conn)
    rings = field.flux(np.pi) - field.flux(frames.mesh.theta_edges()[frames.ring_start])
    assert abs(rings - first) < 1e-12


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
def test_covariant_traces_build_no_per_point_array(monkeypatch, tmp_path, scheme):
    # Chern numbers, loop phases and the CSV read one d x d matrix per ring.
    # The per-point expansions are this module's oracle helpers alone.
    assert not hasattr(geometry, "_powers") and not hasattr(geometry.FrameField, "frames")
    built: list[str] = []
    here = sys.modules[__name__]
    real_powers, real_frames = _powers, _frames

    def powers_spy(step, n):
        built.append("D(phi_n)")
        return real_powers(step, n)

    def frames_spy(field, ring, edge):
        built.append("per-point frames")
        return real_frames(field, ring, edge)

    monkeypatch.setattr(here, "_powers", powers_spy)
    monkeypatch.setattr(here, "_frames", frames_spy)
    p = ModelParams(2, 2 / 3)
    mesh = SphereMesh(100, 200, scheme)
    for source in ("numerical", "analytic"):
        assert chern_number_curvature(p, (3, 4, 5), mesh, source=source).rounded == 1
        curvature_field(p, (3, 4, 5), mesh, source=source).flux(LOOP_THETA)
        curvature_field(p, (3, 4, 5), mesh, source=source).to_csv(tmp_path / "curv.csv")
    assert built == []
    _frames(smooth_gauge_states(p, (3, 4, 5), mesh), 1, 0)  # the spies do see an expansion
    assert built == ["per-point frames", "D(phi_n)"]


def test_factored_csv_matches_the_per_point_one(tmp_path):
    p = ModelParams(2, 2 / 3)
    frames = smooth_gauge_states(p, (3, 4, 5), SphereMesh(16, 32, "equal-area"))
    mesh = frames.mesh
    curvature = _oracle_fields(_library_frames(frames))[-1]
    per_point = np.concatenate([np.column_stack(np.broadcast_arrays(
        mesh.theta_edges()[r], mesh.ring_phis(r),
        np.trace(c, axis1=-2, axis2=-1).real, mesh.ring_solid_angle(r)))
        for r, c in zip(_rings(frames), curvature, strict=True)])
    curvature_discrete(connection_discrete(frames)).to_csv(tmp_path / "curv.csv")
    table = np.loadtxt(tmp_path / "curv.csv", delimiter=",", skiprows=2)
    assert table.shape == per_point.shape
    assert np.max(np.abs(table - per_point)) < 1e-9


ANALYTIC_CASES = [(2, (3, 4, 5), 1e-10), (4, (5, 6, 7, 8, 9), 1e-6)]


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
@pytest.mark.parametrize("n", [20, 100])
@pytest.mark.parametrize("two_l,labels,tol", ANALYTIC_CASES)
def test_analytic_interior_rows_are_the_closed_forms(two_l, labels, tol, n, scheme):
    # Rotated out from phi = 0, the ring edges away from the poles stay the
    # closed forms at their own phi; the L = 2 forms carry csc^6 factors and
    # lose digits near the pole margin.
    p = ModelParams(two_l, 2 / (two_l + 1))
    mesh = SphereMesh(n, 2 * n, scheme)
    frames = smooth_gauge_states(p, labels, mesh, source="analytic")
    margin = geometry._ANALYTIC_POLE_MARGIN
    edges = mesh.theta_edges()
    interior = [(r, edge) for r in _rings(frames) for edge in (0, 1)
                if margin < edges[r + edge] < np.pi - margin]
    assert interior
    for r, edge in interior:
        phis = mesh.ring_phis(r)
        closed = gram_schmidt(raw_degenerate_vectors(
            two_l // 2, np.full_like(phis, edges[r + edge]), phis))
        assert np.max(np.abs(_frames(frames, r, edge) - closed)) < tol


@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
def test_analytic_frames_take_the_meridian(monkeypatch, scheme):
    # One closed-form call for the seed latitudes at phi = 0, one for the
    # rotation with one point, dphi, per phi count, and one SVD of the
    # polar-margin latitudes' overlaps.
    points: list[int] = []
    real_raw = geometry.raw_degenerate_vectors

    def raw_spy(l, theta, phi):
        points.append(np.size(phi))
        return real_raw(l, theta, phi)
    monkeypatch.setattr(geometry, "raw_degenerate_vectors", raw_spy)
    sizes = _spy_polar(monkeypatch)
    mesh = SphereMesh(100, 200, scheme)
    smooth_gauge_states(ModelParams(4, 0.4), (5, 6, 7, 8, 9), mesh, source="analytic")
    counts = {mesh.ring_phi_count(r) for r in range(1, mesh.n_theta)}
    margin = geometry._ANALYTIC_POLE_MARGIN
    polar = [t for t in mesh.theta_edges()[1:] if not margin < t < np.pi - margin]
    assert len(counts) == (1 if scheme == "uniform" else 45)
    assert len(points) == 2 and points[1] == len(counts)
    assert sizes == [len(polar)]


def _sequential_meridian(p: ModelParams, labels, mesh: SphereMesh, source: str) -> dict:
    """F(theta, 0) per latitude, aligned latitude by latitude to the frame just aligned.

    The reference for the batched meridian transport: the same seeds (the
    south pole, or the closed forms away from the poles), then one SVD per
    latitude outward from the seeds.
    """
    positions = geometry._resolve_labels(spectrum._levels(p), labels)[1]
    thetas = mesh.theta_edges()[1:][::-1]  # south pole first
    frames = geometry._meridian(p, thetas, [positions], "reference")[1][..., list(positions)]
    seeded = np.arange(len(thetas)) == 0
    if source == "analytic":
        margin = geometry._ANALYTIC_POLE_MARGIN
        seeded = (thetas > margin) & (thetas < np.pi - margin)
        frames[seeded] = gram_schmidt(raw_degenerate_vectors(
            p.nuclear_two_l // 2, thetas[seeded], np.zeros(1)))
    lo, hi = np.flatnonzero(seeded)[[0, -1]]
    for i, ref in [(i, i - 1) for i in range(hi + 1, len(thetas))] + [
            (i, i + 1) for i in range(lo - 1, -1, -1)]:
        u, _, vh = np.linalg.svd(frames[i].conj().T @ frames[ref])
        frames[i] = frames[i] @ u @ vh
    return dict(zip(thetas, frames))


@pytest.mark.parametrize("n", [50, 400])
@pytest.mark.parametrize("source", ["numerical", "analytic"])
@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
@pytest.mark.parametrize("two_l,labels", [(2, (3, 4, 5)), (4, (5, 6, 7, 8, 9))])
def test_batched_meridian_matches_latitude_by_latitude_transport(two_l, labels, scheme, source,
                                                                 n):
    p = ModelParams(two_l, 2 / (two_l + 1))
    mesh = SphereMesh(n, 2 * n, scheme)
    reference = _sequential_meridian(p, labels, mesh, source)
    frames = smooth_gauge_states(p, labels, mesh, source=source)
    kept = mesh.theta_edges()[frames.ring_start:]
    assert set(kept) == set(reference)
    worst = np.max(np.abs(frames.meridian - np.array([reference[t] for t in kept])))
    assert worst < 1e-12, worst


@pytest.mark.parametrize("source", ["numerical", "analytic"])
def test_singular_meridian_overlap_is_refused(monkeypatch, source):
    # The raw frame next to the south pole made orthogonal to the pole's:
    # their overlap has no polar factor, whichever of the two the chain
    # aligns to the other (the numerical chain starts at the pole, the
    # analytic one ends there).
    real = geometry._meridian

    def orthogonal_at(p, thetas, sets, context, levels=None):
        w, v = real(p, thetas, sets, context, levels=levels)  # south pole first
        cols = list(sets[0])
        f, pole = v[1][:, cols], v[0][:, cols]
        f -= pole @ (pole.conj().T @ f)
        v[1][:, cols] = f / np.linalg.norm(f, axis=0)
        return w, v
    monkeypatch.setattr(geometry, "_meridian", orthogonal_at)
    p = ModelParams(2, 2 / 3)
    with pytest.raises(SubspaceIsolationError, match="frame alignment is singular"):
        smooth_gauge_states(p, (3, 4, 5), SphereMesh(40, 80, "uniform"), source=source)


@pytest.mark.parametrize("n", [80, 100])
@pytest.mark.parametrize("source", ["numerical", "analytic"])
@pytest.mark.parametrize("scheme", ["uniform", "equal-area"])
def test_row_rep_is_the_power_of_its_phi_step(source, scheme, n):
    # Rings keep D(dphi) alone; D(phi_k) is its k-th power, by repeated squaring.
    mesh = SphereMesh(n, 2 * n, scheme)
    frames = smooth_gauge_states(ModelParams(2, 2 / 3), (3, 4, 5), mesh, source=source)
    for r, step in zip(_rings(frames), frames.step, strict=True):
        by_hand = [np.eye(3)]
        for _ in mesh.ring_phis(r)[1:]:
            by_hand.append(by_hand[-1] @ step)
        powers = _powers(step, mesh.ring_phi_count(r))
        assert np.max(np.abs(powers - np.array(by_hand))) < 1e-12


def _count_matrices(monkeypatch) -> list[int]:
    counts: list[int] = []
    real = geometry.hamiltonian_batch

    def spy(p, theta, phi):
        h = real(p, theta, phi)
        counts.append(int(np.prod(h.shape[:-2])))
        return h
    monkeypatch.setattr(geometry, "hamiltonian_batch", spy)
    return counts


@pytest.mark.parametrize("y,axis", [(0.0, (1.0, 0.0, 0.0)), (0.001, (0.0, 0.0, 1.0)),
                                    (0.1, (1.0, 0.0, 0.0))])
def test_every_axis_solves_one_meridian(monkeypatch, y, axis):
    # Link Chern numbers and frames are read from the phi = 0 meridian with
    # the axis along z for every axis: one matrix per ring edge, and per
    # frame latitude below the dropped north ring.  The curvature table
    # solves that meridian once per x for all its labels, and labels its
    # levels from one _Sectors per x.  At y = 0 no lab matrix is built: the
    # meridian is that labelled solve, turned about y.
    def rows(n: int) -> list[int]:
        return [] if y == 0.0 else [n]

    counts = _count_matrices(monkeypatch)
    p = ModelParams(2, 1.3, y, axis=axis)
    mesh = SphereMesh(8, 16, "uniform")
    chern_spectrum_link_variable(p, mesh, check=False)
    assert counts == rows(mesh.n_theta + 1)
    counts.clear()
    smooth_gauge_states(p, (1,), mesh)
    assert counts == rows(mesh.n_theta)
    counts.clear()
    builds: list[ModelParams] = []
    real_init = spectrum._Sectors.__init__

    def spy(self, params):
        builds.append(params)
        real_init(self, params)
    monkeypatch.setattr(spectrum._Sectors, "__init__", spy)
    cfg = ScanConfig(two_l=2, x_grid=(1.2, 1.3), y=y, axis=axis, mesh=50,
                     mesh_scheme="uniform", scheme="curvature")
    table = cmd_chern(cfg)
    assert len(table.rows) == 2 * p.dim
    assert counts == rows(cfg.sphere_mesh().n_theta) * 2
    assert [b.x for b in builds] == [1.2, 1.3]
    # per-band tables at 2L = 6: one isolation gate per meridian solve, with every band
    gates, meridians = [], []
    real_gate, real_meridian = geometry._check_isolated, geometry._meridian

    def gate(w, sets, *args):
        gates.append(len(sets))
        return real_gate(w, sets, *args)

    def meridian(*args, **kwargs):
        meridians.append(1)
        return real_meridian(*args, **kwargs)
    monkeypatch.setattr(geometry, "_check_isolated", gate)
    monkeypatch.setattr(geometry, "_meridian", meridian)
    q = ModelParams(6, 1.3, y, axis=axis)
    chern_spectrum_link_variable(q, mesh, check=False)
    cmd_chern(replace(cfg, two_l=6, x_grid=(1.3,)))
    assert len(meridians) == 2 and gates == [q.dim] * 2


@pytest.mark.parametrize("two_l", [16, 17, 40])
def test_a_y0_meridian_builds_one_matrix_at_any_l(monkeypatch, two_l):
    # At any L a y = 0 meridian turns the labelled solve and builds no lab matrix.
    counts = _count_matrices(monkeypatch)
    geometry._meridian(ModelParams(two_l, 0.5), SphereMesh(8, 16, "uniform").theta_edges(), [], "")
    assert counts == []


def _counted_solves(monkeypatch) -> dict[str, int]:
    """_Sectors builds, and lab Hamiltonians built by any happer module's name for them."""
    counts = {"sectors": 0, "lab": 0}
    real_init = spectrum._Sectors.__init__

    def init(self, params):
        counts["sectors"] += 1
        real_init(self, params)
    monkeypatch.setattr(spectrum._Sectors, "__init__", init)
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "happer"]
    for name in ("hamiltonian_batch", "build_hamiltonian"):
        real = getattr(model, name)

        def lab(*args, real=real):
            counts["lab"] += 1
            return real(*args)
        for module in modules:
            if vars(module).get(name) is real:
                monkeypatch.setattr(module, name, lab)
    return counts


Y0_P, Y0_MESH = ModelParams(2, 0.8), SphereMesh(20, 40, "uniform")
Y0_SOLVES = {  # at y = 0, 2L = 2: each call and its _Sectors builds, one per call and x
    "loop_phase": (lambda: loop_phase(Y0_P, 1, LOOP_THETA, Y0_MESH), 1),
    "chern_number_link_variable": (lambda: chern_number_link_variable(Y0_P, 1, Y0_MESH), 1),
    "smooth_gauge_states": (lambda: smooth_gauge_states(Y0_P, 1, Y0_MESH), 1),
    "smooth_gauge_states-analytic": (lambda: smooth_gauge_states(
        Y0_P.with_x(2 / 3), (3, 4, 5), Y0_MESH, source="analytic"), 1),
    "cmd_phase": (lambda: cmd_phase(ScanConfig(x_grid=(0.8, 1.2), mesh=50)), 2),
    "cmd_chern-link": (lambda: cmd_chern(ScanConfig(
        x_grid=(0.8, 1.2), mesh=50, mesh_scheme="uniform")), 2),
    "cmd_chern-curvature": (lambda: cmd_chern(ScanConfig(
        x_grid=(0.8, 1.2), mesh=50, mesh_scheme="uniform", scheme="curvature")), 2),
    "cmd_weyl_compare": (lambda: cmd_weyl_compare(ScanConfig(
        k_grid=(1.0, 2.0), mesh=50, mesh_scheme="uniform")), 1 + 2),  # + its cluster's solve
    # --cluster: the _cluster_labels solve, plus one
    "cmd_phase-cluster": (lambda: cmd_phase(ScanConfig(cluster=True, mesh=50)), 2),
    "cmd_chern-cluster-link": (lambda: cmd_chern(ScanConfig(cluster=True, mesh=50)), 2),
    "cmd_chern-cluster-curvature": (lambda: cmd_chern(ScanConfig(
        cluster=True, mesh=80, mesh_scheme="uniform", scheme="curvature")), 2),
}


@pytest.mark.parametrize("name", Y0_SOLVES)
def test_a_y0_point_is_one_labelled_solve_and_no_lab_matrix(monkeypatch, name):
    # The labels, the meridian and the gate of a y = 0 point all read one
    # _levels solve, turned about y; no lab Hamiltonian is built.
    call, builds = Y0_SOLVES[name]
    counts = _counted_solves(monkeypatch)
    call()
    assert counts == {"sectors": builds, "lab": 0}


# ---------------------------------------------------------------------------
# the y = 0 turn: one latitude solved, the others turned about y; each row
# against its own eigh, and every sphere quantity against a meridian solved
# row by row


def _solved_meridian(p, thetas, sets, context, h_builder=None, levels=None):
    """Per-row eigh of H(theta, 0) with the axis along z, ungated: the turn's oracle."""
    return np.linalg.eigh(hamiltonian_batch(replace(p, axis=(0.0, 0.0, 1.0)), thetas,
                                            np.zeros_like(thetas)))


def _band_sets(w: np.ndarray) -> list[list[int]]:
    """Positions grouped where neighbouring levels lie within 1e-9: isolated levels and clusters."""
    cuts = np.flatnonzero(np.diff(w) > 1e-9) + 1
    return [list(c) for c in np.split(np.arange(len(w)), cuts)]


TURN_THETAS = {
    "south-first": np.linspace(np.pi, 0.0, 25),
    "north-first": np.linspace(0.0, np.pi, 25),
    "mid-meridian": np.concatenate(([1.2], np.linspace(0.0, np.pi, 24), [-0.3, 4.0])),
}


@pytest.mark.parametrize("two_l,thetas", [  # 2L = 40 on one theta set: each costs about 2 s
    pytest.param(two_l, thetas, id=f"{two_l}-{name}")
    for two_l in [*range(7), 17, 40] for name, thetas in TURN_THETAS.items()
    if two_l < 40 or name == "mid-meridian"])
def test_turned_rows_are_eigenvectors_of_their_own_row(two_l, thetas):
    for x in (0.45, 2 / (two_l + 1), 1.3):  # the middle one is the crossing
        p = ModelParams(two_l, x)
        w, v = geometry._meridian(p, thetas, [], "")
        h = hamiltonian_batch(p, thetas, np.zeros_like(thetas))
        w_row, v_row = np.linalg.eigh(h)
        assert np.max(np.abs(h @ v - v * w[:, None, :])) < 1e-13
        gram = v.conj().swapaxes(-1, -2) @ v
        assert np.max(np.abs(gram - np.eye(p.dim))) < 1e-13
        assert np.max(np.abs(w - w_row)) < 1e-13
        sets = _band_sets(w[0])
        if x == 2 / (two_l + 1) and two_l > 0:
            assert [len(s) for s in sets].count(two_l + 1) == 1  # the crossing cluster
        for positions in sets:
            proj = v[..., positions] @ v[..., positions].conj().swapaxes(-1, -2)
            proj_row = v_row[..., positions] @ v_row[..., positions].conj().swapaxes(-1, -2)
            assert np.max(np.abs(proj - proj_row)) < 1e-11, (x, positions)


@pytest.mark.parametrize("thetas", TURN_THETAS.values(), ids=TURN_THETAS.keys())
@pytest.mark.parametrize("two_l", [1, 2, 4])
def test_the_first_row_is_its_own_eigh_bit_for_bit(two_l, thetas):
    # The south-pole seed of the frames keeps the gauge of its own solve, the
    # labelled block eigh: every row keeps its energies, the north pole's row
    # is its columns, and the south pole's their signed reversal, exactly.
    p = ModelParams(two_l, 0.8)
    w, v = geometry._meridian(p, thetas, [], "")
    w0, _, _, v0 = spectrum._levels(p)
    assert all(row.tobytes() == w0.tobytes() for row in w)
    (north,), (south,) = v[thetas == 0.0], v[thetas == np.pi]
    assert np.array_equal(north, v0)
    assert np.array_equal(np.abs(south), np.abs(v0[::-1]))
    h = hamiltonian_batch(p, np.array([np.pi]), np.zeros(1))[0]
    assert np.max(np.abs(h @ south - south * w0)) < 1e-13


@pytest.mark.parametrize("two_l", [1, 2, 3, 17])
def test_turned_sphere_quantities_match_a_meridian_solved_row_by_row(monkeypatch, two_l):
    p, cluster = ModelParams(two_l, 0.8), ModelParams(two_l, 2 / (two_l + 1))
    members = tuple(range(two_l + 1, 2 * two_l + 2))  # labels of the crossing cluster
    mesh, equal_area = SphereMesh(50, 100, "uniform"), SphereMesh(40, 80, "equal-area")

    def quantities():
        links = [r.fourpi for r in chern_spectrum_link_variable(p, mesh, check=False)]
        fluxes = [curvature_field(q, labels, m).flux(theta)
                  for q, labels in ((p, (1,)), (p, (p.dim,)), (cluster, members))
                  for m in (mesh, equal_area) for theta in (LOOP_THETA, np.pi)]
        phases = [loop_phase(p, label, LOOP_THETA, mesh) for label in range(1, p.dim + 1)]
        return np.array(links), np.array(fluxes), np.array(phases)

    turned = quantities()
    monkeypatch.setattr(geometry, "_meridian", _solved_meridian)
    for a, b in zip(turned, quantities(), strict=True):
        assert np.max(np.abs(a - b)) < 1e-12


@st.composite
def _tilted_params(draw) -> ModelParams:
    two_l = draw(st.integers(0, 4))
    x = draw(st.floats(0.2, 2.0))
    assume(abs(x - 2 / (two_l + 1)) >= 0.05)
    theta, phi = draw(st.floats(0, np.pi)), draw(st.floats(0, 2 * np.pi))
    axis = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
    return ModelParams(two_l, x, draw(st.floats(-0.5, 0.5)), axis=axis)


TILTED_MESH = SphereMesh(40, 80, "uniform")
FINE_TILTED_MESH = SphereMesh(80, 160, "uniform")


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
# Bands 10 and 11 come within 7.3e-5 near 3.096 rad from the axis; the 40-ring
# oracle aliases there and swaps their Chern numbers, the 80-ring one refuses.
@example(p=ModelParams(4, 0.50390625, -0.5,
                       axis=(0.8414709848078965, 0.0, 0.5403023058681398)))
def test_tilted_link_spectrum_matches_per_point_solve(p):
    try:
        results = chern_spectrum_link_variable(p, TILTED_MESH)
    except SubspaceIsolationError:
        # Refused only where neighbouring bands touch on a mesh ring.
        assert np.min(np.diff(_axis_line_spectrum(p), axis=-1)) < TOL.subspace_isolation
        return
    try:
        oracle = _oracle_spectrum(_model(p), TILTED_MESH)
        if [r.rounded for r in results] != [r.rounded for r in oracle]:
            # A per-point grid can alias a near-touching between its rings without
            # tripping its gate; on twice the rings it resolves the pair or refuses.
            oracle = _oracle_spectrum(_model(p), FINE_TILTED_MESH)
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
        with pytest.raises(SubspaceIsolationError,
                           match=r"angles about the axis: bands at positions \d+ and \d+ touch"):
            call()
    # The circle n . a = 0 is the axis frame's equator, ring edge 20 of 40.
    with pytest.raises(SubspaceIsolationError, match=r"per-band link Chern, angles about the "
                       r"axis: bands at positions 4 and 5 touch at \(theta=1\.570796"):
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
        geometry._check_isolated(w, [(first, first + 1)], "oracle")
        geometry._check_isolated(_axis_line_spectrum(p), [(first, first + 1)],
                                  "oracle, a to -a")
        oracle = ChernResult.from_fourpi(_oracle_link_chern(v[..., first:first + 2]))
    except (MeshResolutionError, SubspaceIsolationError):
        assume(False)
    result = chern_number_link_variable(p, labels, TILTED_MESH)
    assert abs(result.fourpi - oracle.fourpi) < 1e-9
    assert result.rounded == oracle.rounded


@settings(max_examples=40, deadline=None)
@given(two_l=st.integers(0, 5), x=st.floats(-2, 2), y=st.floats(-0.5, 0.5),
       theta=st.floats(0, np.pi), phi=st.floats(0, 2 * np.pi), on_axis=st.booleans())
@example(two_l=3, x=0.0, y=9.20104655745367e-160, theta=9.20104655745367e-160, phi=0.0,
         on_axis=True)
def test_spectrum_and_eigenvectors_rotate_about_z(two_l, x, y, theta, phi, on_axis):
    # Either the axis lies along z, or y = 0 with an arbitrary axis.
    axis = (0.0, 0.0, 1.0) if on_axis else (0.6, 0.0, 0.8)
    p = ModelParams(two_l, x, y if on_axis else 0.0, axis=axis)
    h_phi = build_hamiltonian(p.with_field(theta, phi))
    w0, v0 = np.linalg.eigh(build_hamiltonian(p.with_field(theta, 0.0)))
    assert np.max(np.abs(np.linalg.eigvalsh(h_phi) - w0)) < 1e-10
    rotated = np.exp(-1j * phi * _jz_diagonal(two_l))[:, None] * v0
    assert np.max(np.abs(h_phi @ rotated - rotated * w0)) < 1e-10
    w, v = geometry._meridian(p, np.array([theta]), [], "")  # the meridian, rotated out to phi
    v_phi = np.exp(-1j * phi * _jz_diagonal(two_l))[:, None] * v[0]
    assert np.max(np.abs(h_phi @ v_phi - v_phi * w[0])) < 1e-10


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


# ---------------------------------------------------------------------------
# y = 0 loop phases: -2 pi m (1 - cos theta0) exactly, m read from the
# labelled spectrum, with no meridian solved


def _counted_meridians(monkeypatch) -> list[int]:
    calls: list[int] = []
    real = geometry._meridian

    def spy(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)
    monkeypatch.setattr(geometry, "_meridian", spy)
    return calls


@pytest.mark.parametrize("two_l", range(1, 7))
def test_y0_loop_phases_are_exact_and_solve_no_meridian(monkeypatch, two_l):
    calls = _counted_meridians(monkeypatch)
    p = ModelParams(two_l, 0.8, 0.0, FieldDirection(1.1, 2.3))
    cluster = p.with_x(p.crossing_x())
    members = tuple(range(two_l + 1, 2 * two_l + 2))  # labels of the crossing cluster
    _, j = eigensystem_with_j(p)
    _, j_cluster = eigensystem_with_j(cluster)
    member_positions = sorted(level_positions(cluster)[np.array(members) - 1])
    for theta0 in (0.0, 0.3, LOOP_THETA, 2.0, np.pi):
        for label, position in enumerate(level_positions(p), start=1):
            phase = loop_phase(p, label, theta0)
            assert phase == -2 * np.pi * j[position] * (1 - np.cos(theta0)) + 0.0, (label, theta0)
            assert phase != 0.0 or not np.signbit(phase), (label, theta0)  # no -0
        values = -2 * np.pi * j_cluster[member_positions] * (1 - np.cos(theta0)) + 0.0
        phase = loop_phase(cluster, members, theta0)
        assert phase == values.sum()
        assert abs(phase - 2 * np.pi * (1 - np.cos(theta0))) < 1e-12
        # the phase table reads the same values, per label and for the cluster
        table = cmd_phase(ScanConfig(two_l=two_l, x=p.x, theta0=theta0, mesh=50))
        assert [row[2] for row in table.rows] == [loop_phase(p, label, theta0)
                                                  for label in range(1, p.dim + 1)]
        table = cmd_phase(ScanConfig(two_l=two_l, theta0=theta0, mesh=50, cluster=True))
        assert table.rows == [[cluster.x, f"deg({'+'.join(map(str, members))})", phase]]
    assert calls == []
    # the tilted phase at y != 0 does read a meridian
    loop_phase(TILTED_P, 1, LOOP_THETA)
    assert calls
