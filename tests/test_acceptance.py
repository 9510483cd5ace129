"""Acceptance suite: one test per quantitative claim, with stated tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from happer.degenerate import degenerate_energy, raw_degenerate_vectors
from happer.dynamics import (DriveProtocol, adiabatic_omega, extract_geometric_phase,
                             initial_eigenstate, landau_zener_scan, propagate)
from happer.geometry import (chern_number_curvature, chern_number_link_variable,
                             chern_spectrum_link_variable, loop_phase)
from happer.mesh import SphereMesh
from happer.model import (FieldDirection, ModelParams, build_hamiltonian, conserved_j,
                          semimetal_batch, spin_axis_commutator, zeeman_params)
from happer.operators import SpinQuantumNumber, commutator
from happer.spectrum import (eigensystem, eigensystem_with_j, find_degeneracies,
                             level_positions)

CAP = 2 * np.pi * (1 - np.cos(np.pi / 6))


@contextmanager
def criterion(number: int, description: str):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number:2d}: FAIL - {description} "
              f"({time.time() - start:.1f}s)")
        raise
    print(f"[acceptance] criterion {number:2d}: PASS - {description} "
          f"({time.time() - start:.1f}s)")


def test_criterion_1_zeeman_calibration():
    with criterion(1, "pure-precession bands carry Chern -k in both schemes"):
        p = zeeman_params()
        expected = [1, 0, -1]  # ascending energies are k = -1, 0, +1
        link = chern_spectrum_link_variable(p, SphereMesh(200, 400, "uniform"))
        assert [r.rounded for r in link] == expected
        assert max(r.deviation for r in link) < 0.02
        mesh = SphereMesh(200, 400, "equal-area")
        for label, want in zip((1, 2, 3), expected):
            r = chern_number_curvature(p, label, mesh)
            assert r.rounded == want
            assert r.deviation < 0.02


def test_criterion_2_degeneracy_loci():
    with criterion(2, "(2L+1)-fold crossings at x* = 2/(2L+1), energy -1/3 for L=1"):
        for two_l in (1, 2, 3, 4):
            p = ModelParams(two_l, 0.5, 0.0, FieldDirection(0.7, 0.3))
            degs = find_degeneracies(p, (0.1, 1.5))
            assert len(degs) == 1
            d = degs[0]
            assert abs(d.x - 2.0 / (two_l + 1)) < 1e-8
            assert d.multiplicity == two_l + 1
            if two_l == 2:
                assert abs(d.energy - (-1.0 / 3.0)) < 1e-10


def test_criterion_3_chern_equals_minus_j():
    with criterion(3, "every level's Chern equals -<J> (L=1 and L=2)"):
        cases = [(2, 0.5, 150), (2, 1.0, 150), (4, 0.25, 120), (4, 1.0, 120)]
        for two_l, x, rings in cases:
            p = ModelParams(two_l, x, 0.0, FieldDirection(0.6, 0.9))
            mesh = SphereMesh(rings, 2 * rings, "uniform")
            link = chern_spectrum_link_variable(p, mesh)
            _, jexp = eigensystem_with_j(p)
            for pos in range(p.dim):
                res = link[pos]
                assert res.deviation < 0.02
                assert res.rounded == -int(np.rint(jexp[pos]))


def test_criterion_4_cluster_chern_and_additivity():
    with criterion(4, "degenerate-cluster Chern is 1 for L in {1,2,3}, additive in members"):
        for two_l, rings in ((2, 120), (4, 120), (6, 100)):
            p = ModelParams(two_l, 0.5, 0.0, FieldDirection(0.5, 0.3))
            x_star = p.crossing_x()
            degs = find_degeneracies(p, (x_star - 0.1, x_star + 0.1), scan_points=81)
            labels = degs[0].labels
            mesh = SphereMesh(rings, 2 * rings, "uniform")
            deg = chern_number_link_variable(p.with_x(x_star), labels, mesh)
            assert deg.rounded == 1
            assert deg.deviation < 0.02
            for x_side in (x_star - 0.08, x_star + 0.08):
                p_side = p.with_x(x_side)
                per_position = chern_spectrum_link_variable(p_side, mesh, check=False)
                positions = level_positions(p_side)
                side_sum = sum(per_position[positions[lab - 1]].rounded for lab in labels)
                assert side_sum == deg.rounded


def test_criterion_5_commutator_identity():
    with criterion(5, "[n.J, H] equals the axis-term closed form; zero iff n = +-a"):
        rng = np.random.default_rng(42)
        for _ in range(100):
            axis = rng.normal(size=3)
            axis = axis / np.linalg.norm(axis)
            p = ModelParams(int(rng.choice([2, 4])), rng.uniform(0.0, 2.0),
                            rng.uniform(-0.5, 0.5),
                            FieldDirection(rng.uniform(0.0, np.pi),
                                           rng.uniform(0.0, 2 * np.pi)),
                            tuple(axis))
            lhs = commutator(conserved_j(p), build_hamiltonian(p))
            rhs = spin_axis_commutator(p)
            assert np.max(np.abs(lhs - rhs)) < 1e-12
        # aligned and anti-aligned fields conserve n.J even with y != 0
        for theta in (0.0, np.pi):
            p = ModelParams(2, 0.7, 0.3, FieldDirection(theta, 0.0), (0.0, 0.0, 1.0))
            assert np.max(np.abs(commutator(conserved_j(p), build_hamiltonian(p)))) < 1e-12
        p = ModelParams(2, 0.7, 0.3, FieldDirection(1.1, 0.4), (0.0, 0.0, 1.0))
        assert np.max(np.abs(commutator(conserved_j(p), build_hamiltonian(p)))) > 1e-3


def test_criterion_6_analytic_degenerate_states():
    with criterion(6, "closed-form degenerate bases are eigenvectors and span the eigenspace"):
        rng = np.random.default_rng(7)
        for l, two_l in ((1, 2), (2, 4)):
            x_star = 2.0 / (two_l + 1)
            e_star = degenerate_energy(two_l)
            for _ in range(50):
                theta = rng.uniform(0.12, np.pi - 0.12)
                phi = rng.uniform(0.0, 2 * np.pi)
                p = ModelParams(two_l, x_star, 0.0, FieldDirection(theta, phi))
                h = build_hamiltonian(p)
                raw = raw_degenerate_vectors(l, theta, phi)
                for k in range(raw.shape[1]):
                    v = raw[:, k]
                    assert np.linalg.norm(h @ v - e_star * v) / np.linalg.norm(v) < 1e-8
                q = np.linalg.qr(raw)[0]
                es = eigensystem(h)
                idx = np.nonzero(np.abs(es.eigenvalues - e_star) < 1e-9)[0]
                numeric = es.eigenvectors[:, idx]
                assert np.linalg.norm(q @ q.conj().T - numeric @ numeric.conj().T) < 1e-8


def test_criterion_7_weyl_sphere_transition():
    with criterion(7, "projected lowest band jumps 0 -> 2 across |k| = 3/2; sums 1 vs 0"):
        mesh = SphereMesh(120, 240, "uniform")
        p_ref = ModelParams(2, 0.5, 0.0, FieldDirection(0.5, 0.3))
        labels = find_degeneracies(p_ref, (0.5, 0.8), scan_points=81)[0].labels
        for k_mag, want_lowest in ((1.6, 2), (2.0, 2), (3.0, 2), (0.5, 0), (1.0, 0), (1.4, 0)):
            p = p_ref.with_x(1.0 / k_mag)
            per_position = chern_spectrum_link_variable(p, mesh, check=False)
            positions = sorted(level_positions(p)[lab - 1] for lab in labels)
            bands = [per_position[pos] for pos in positions]
            assert all(r.deviation < 0.02 for r in bands)
            assert bands[0].rounded == want_lowest
            assert sum(r.rounded for r in bands) == 1
        spin = SpinQuantumNumber(2)
        sm = chern_spectrum_link_variable(
            p_ref, mesh,
            h_builder=(lambda th: semimetal_batch(spin, 1.0, th, np.zeros_like(th)),
                       spin.m_values()),
            check=False)
        assert sum(r.rounded for r in sm) == 0


def test_criterion_8_axis_perturbation_chern_jumps():
    with criterion(8, "with y = 0.001 only the crossing levels change Chern across x*"):
        field = FieldDirection(1.0, 0.3)
        # L = 1: levels 3 and 5 jump across 2/3; 1, 2, 6-9 stay put on [0.5, 0.85]
        xs = (0.5, 0.6, 0.72, 0.85)
        tables = []
        for x in xs:
            p = ModelParams(2, x, 1e-3, field)
            res = chern_spectrum_link_variable(p, SphereMesh(150, 300, "uniform"))
            tables.append([r.rounded for r in res])
        for lab in (1, 2, 6, 7, 8, 9):
            values = {t[lab - 1] for t in tables}
            assert len(values) == 1, f"level {lab} should keep its Chern number"
        for lab in (3, 5):
            assert tables[1][lab - 1] != tables[2][lab - 1], f"level {lab} should jump"
        # L = 2: levels 5, 6, 8, 9 jump across 2/5
        below, above = [], []
        for x, store in ((0.34, below), (0.46, above)):
            p = ModelParams(4, x, 1e-3, field)
            res = chern_spectrum_link_variable(p, SphereMesh(120, 240, "uniform"))
            store.extend(r.rounded for r in res)
        for lab in (5, 6, 8, 9):
            assert below[lab - 1] != above[lab - 1], f"level {lab} should jump"


def test_criterion_9_dynamics_geometry_consistency():
    with criterion(9, "adiabatic phases match curvature loop phases and the closed form"):
        # pure-precession baseline against -k * solid angle to 1e-3
        pz = zeeman_params()
        proto = DriveProtocol(np.pi / 6, 1e-3, 1)
        for pos, expected in ((0, CAP), (1, 0.0), (2, -CAP)):
            psi0 = initial_eigenstate(pz, proto, pos)
            traj = propagate(pz, proto, psi0, steps_per_period=8000, record_every=40)
            gamma = extract_geometric_phase(traj, pz, proto)
            assert abs(np.angle(np.exp(1j * (gamma - expected)))) < 1e-3
        # all six never-crossing levels of L = 1 at x = 1 against the loop phase
        p = ModelParams(2, 1.0, 0.0, FieldDirection(np.pi / 6, 0.0))
        omega = adiabatic_omega(p, np.pi / 6)
        proto = DriveProtocol(np.pi / 6, omega, 1)
        mesh = SphereMesh(150, 300, "uniform")
        positions = level_positions(p)
        for label in (1, 2, 6, 7, 8, 9):
            psi0 = initial_eigenstate(p, proto, int(positions[label - 1]))
            traj = propagate(p, proto, psi0, steps_per_period=32000, record_every=160)
            g_dyn = extract_geometric_phase(traj, p, proto)
            g_geo = loop_phase(p, label, np.pi / 6, mesh)
            assert abs(np.angle(np.exp(1j * (g_dyn - g_geo)))) < 1e-2


def test_criterion_10_landau_zener_monotonicity():
    with criterion(10, "ramp transition probability rises monotonically over 3 decades"):
        p = ModelParams(2, 0.5, 1e-3, FieldDirection(1.0, 0.3))
        rates = [2.5e-7, 2.5e-6, 2.5e-5, 2.5e-4]
        results = landau_zener_scan(p, 0.61, 0.72, rates, level=3, dt_max=2.0)
        probs = [r.transition_probability for r in results]
        assert probs[0] < 0.05
        assert probs[-1] > 0.95
        assert all(a < b for a, b in zip(probs, probs[1:]))
