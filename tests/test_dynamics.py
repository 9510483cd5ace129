import numpy as np
import pytest

from happer.dynamics import (DriveProtocol, adiabatic_omega, cone_fit,
                             extract_geometric_phase, geometric_phase_diagnostics,
                             initial_eigenstate, landau_zener_scan, propagate)
from happer.errors import AdiabaticityError
from happer.geometry import loop_phase
from happer.mesh import SphereMesh
from happer.model import (FieldDirection, ModelParams, build_hamiltonian, conserved_j,
                          zeeman_params)
from happer.operators import SpinQuantumNumber, spin_operators

OMEGA_CAP = 2 * np.pi * (1 - np.cos(np.pi / 6))


def rotating_frame_solution(p, protocol, psi0, t):
    """Closed-form evolution for a rotating field at constant couplings.

    With J_z the total z angular momentum, H(t) = R(t) H(0) R(t)^dag for
    R(t) = exp(-i omega t J_z), so psi(t) = R(t) exp(-i (H0 - omega Jz) t) psi0.
    Valid whenever the axis term is z-symmetric (y = 0 or axis = z).
    """
    s = spin_operators(SpinQuantumNumber(2))
    l = spin_operators(SpinQuantumNumber(p.nuclear_two_l))
    jz = np.kron(s.sz, np.eye(l.dim)) + np.kron(np.eye(3), l.sz)
    p0 = ModelParams(p.nuclear_two_l, p.x, p.y, FieldDirection(protocol.theta0, 0.0), p.axis)
    h0 = build_hamiltonian(p0)
    gen = h0 - protocol.omega * jz
    w, v = np.linalg.eigh(gen)
    inner = (v * np.exp(-1j * w * t)) @ (v.conj().T @ psi0)
    wz, vz = np.linalg.eigh(jz)
    rot = (vz * np.exp(-1j * protocol.omega * t * wz)) @ vz.conj().T
    return rot @ inner


@pytest.mark.parametrize("two_l,x", [(0, 0.0), (2, 1.0)])
def test_propagator_matches_rotating_frame_solution(two_l, x):
    p = ModelParams(two_l, x, 0.0, FieldDirection(0.4, 0.0))
    proto = DriveProtocol(0.4, 0.05, 1)
    psi0 = initial_eigenstate(p, proto, 1)
    traj = propagate(p, proto, psi0, steps_per_period=8000, record_every=800)
    for i, t in enumerate(traj.times):
        exact = rotating_frame_solution(p, proto, psi0, float(t))
        assert np.max(np.abs(traj.states[i] - exact)) < 1e-6


def test_fast_and_generic_paths_agree():
    p = ModelParams(2, 0.8, 0.0, FieldDirection(0.4, 0.0))
    proto_fast = DriveProtocol(0.7, 0.02, 1)
    proto_slow = DriveProtocol(0.7, 0.02, 1, x=(0.8, 0.8))  # ramp spec forces generic path
    psi0 = initial_eigenstate(p, proto_fast, 3)
    t1 = propagate(p, proto_fast, psi0, steps_per_period=500, record_every=500)
    t2 = propagate(p, proto_slow, psi0, steps_per_period=500, record_every=500)
    assert np.max(np.abs(t1.states[-1] - t2.states[-1])) < 1e-10


def test_norm_and_total_spin_identities():
    p = ModelParams(2, 0.6, 0.05, FieldDirection(0.8, 0.0), (0.0, 0.0, 1.0))
    proto = DriveProtocol(0.8, 0.01, 10)
    psi0 = initial_eigenstate(p, proto, 4)
    traj = propagate(p, proto, psi0, steps_per_period=300, record_every=1)
    assert traj.norm_drift < 1e-10
    assert np.max(np.abs(traj.j_avg - (traj.s_avg + traj.l_avg))) == 0.0


def test_energy_conserved_for_static_field():
    # theta0 = 0: the rotating drive leaves the Hamiltonian constant.
    p = ModelParams(2, 0.9, 0.0, FieldDirection(0.0, 0.0))
    proto = DriveProtocol(0.0, 0.1, 1)
    rng = np.random.default_rng(4)
    psi0 = rng.normal(size=9) + 1j * rng.normal(size=9)
    psi0 /= np.linalg.norm(psi0)
    traj = propagate(p, proto, psi0, steps_per_period=400, record_every=40)
    h = build_hamiltonian(p)
    energies = np.einsum("ni,ij,nj->n", traj.states.conj(), h, traj.states).real
    assert np.ptp(energies) < 1e-10


def test_expectation_follows_field():
    p = zeeman_params()
    omega = 1e-3
    proto = DriveProtocol(np.pi / 6, omega, 1)
    for pos, sign in ((2, 1.0), (0, -1.0)):  # ascending: k = -1, 0, +1
        psi0 = initial_eigenstate(p, proto, pos)
        traj = propagate(p, proto, psi0, steps_per_period=3000, record_every=30)
        n_t = np.stack([np.sin(proto.theta0) * np.cos(omega * traj.times),
                        np.sin(proto.theta0) * np.sin(omega * traj.times),
                        np.full_like(traj.times, np.cos(proto.theta0))], axis=1)
        unit = traj.s_avg / np.linalg.norm(traj.s_avg, axis=1)[:, None]
        cosang = np.clip(np.einsum("ni,ni->n", unit, sign * n_t), -1, 1)
        assert np.max(np.arccos(cosang)) < 3 * omega


def test_zeeman_geometric_phase_closed_form():
    p = zeeman_params()
    proto = DriveProtocol(np.pi / 6, 1e-3, 1)
    for pos, expected in ((2, -OMEGA_CAP), (0, +OMEGA_CAP), (1, 0.0)):
        psi0 = initial_eigenstate(p, proto, pos)
        traj = propagate(p, proto, psi0, steps_per_period=4000, record_every=20)
        gamma = extract_geometric_phase(traj, p, proto)
        assert abs(np.angle(np.exp(1j * (gamma - expected)))) < 1e-3


def test_geometric_phase_matches_curvature_loop():
    p = ModelParams(2, 1.0, 0.0, FieldDirection(np.pi / 6, 0.0))
    omega = adiabatic_omega(p, np.pi / 6)
    proto = DriveProtocol(np.pi / 6, omega, 1)
    mesh = SphereMesh(150, 300, "uniform")
    loop = [(np.pi / 6, ph) for ph in np.linspace(0, 2 * np.pi, 61)]
    from happer.spectrum import level_positions
    positions = level_positions(p)
    for label in (2, 9):
        psi0 = initial_eigenstate(p, proto, int(positions[label - 1]))
        traj = propagate(p, proto, psi0, steps_per_period=32000, record_every=200)
        g_dyn = extract_geometric_phase(traj, p, proto)
        g_geo = np.angle(np.exp(1j * loop_phase(p, label, loop, mesh)))
        assert abs(np.angle(np.exp(1j * (g_dyn - g_geo)))) < 1e-2


def test_total_spin_traces_closed_cone():
    p = ModelParams(2, 1.0, 0.0, FieldDirection(np.pi / 6, 0.0))
    omega = adiabatic_omega(p, np.pi / 6)
    proto = DriveProtocol(np.pi / 6, omega, 1)
    psi0 = initial_eigenstate(p, proto, 8)
    traj = propagate(p, proto, psi0, steps_per_period=16000, record_every=80)
    assert np.max(np.abs(traj.j_avg[0] - traj.j_avg[-1])) < 1e-3  # closes after a period
    axis, _, _, dev = cone_fit(traj.j_avg)
    assert dev < 1e-2  # a small residual wobble comes from the bare-state start
    assert abs(abs(axis[2]) - 1.0) < 1e-3  # cone about the rotation axis


def test_solid_angle_law():
    # The trajectory cone lags the field cone by O(omega), so the drive
    # must be slow for the solid angles to agree at the 1e-3 level.
    p = zeeman_params()
    proto = DriveProtocol(np.pi / 4, 1e-4, 1)
    psi0 = initial_eigenstate(p, proto, 2)  # k = +1
    traj = propagate(p, proto, psi0, steps_per_period=20000, record_every=100)
    gamma = extract_geometric_phase(traj, p, proto)
    _, opening, solid, dev = cone_fit(traj.s_avg)
    assert dev < 1e-3
    assert abs(abs(gamma) - solid) < 1e-3


def test_leakage_raises():
    p = zeeman_params()
    proto = DriveProtocol(np.pi / 3, 0.9, 1)  # far from adiabatic
    psi0 = initial_eigenstate(p, proto, 2)
    traj = propagate(p, proto, psi0, steps_per_period=400)
    with pytest.raises(AdiabaticityError):
        extract_geometric_phase(traj, p, proto)
    _, fid = geometric_phase_diagnostics(traj, p, proto)
    assert fid < 0.99


def test_fidelity_improves_when_slower():
    p = ModelParams(2, 1.0, 0.0, FieldDirection(0.5, 0.0))
    leaks = []
    for omega in (2e-3, 1e-3):
        proto = DriveProtocol(0.5, omega, 1)
        psi0 = initial_eigenstate(p, proto, 0)
        traj = propagate(p, proto, psi0, steps_per_period=20000, record_every=100)
        _, fid = geometric_phase_diagnostics(traj, p, proto)
        leaks.append(1.0 - fid)
    assert leaks[1] < leaks[0]


def test_cone_fit_rejects_degenerate_input():
    with pytest.raises(ValueError):
        cone_fit(np.zeros((5, 3)))


def test_landau_zener_guards():
    p_no_y = ModelParams(2, 0.5, 0.0, FieldDirection(1.0, 0.3))
    with pytest.raises(ValueError, match="y != 0"):
        landau_zener_scan(p_no_y, 0.6, 0.75, [1e-4], 3)
    p = ModelParams(2, 0.5, 1e-3, FieldDirection(1.0, 0.3))
    with pytest.raises(ValueError, match="does not cross"):
        landau_zener_scan(p, 0.8, 1.2, [1e-4], 3)


def test_landau_zener_rate_ordering():
    p = ModelParams(2, 0.5, 1e-3, FieldDirection(1.0, 0.3))
    res = landau_zener_scan(p, 0.63, 0.70, [3e-5, 3e-3], level=3, dt_max=1.0)
    assert res[0].transition_probability < res[1].transition_probability
    for r in res:
        assert abs(r.populations.sum() - 1.0) < 1e-9
