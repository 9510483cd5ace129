import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import happer.dynamics as dynamics
from happer.dynamics import (DriveProtocol, Trajectory, adiabatic_omega, cone_fit,
                             extract_geometric_phase, geometric_phase_diagnostics,
                             initial_eigenstate, instantaneous_hamiltonian,
                             landau_zener_scan, propagate)
from happer.errors import AdiabaticityError, SubspaceIsolationError
from happer.geometry import loop_phase
from happer.mesh import SphereMesh
from happer.model import (FieldDirection, ModelParams, _hamiltonians, _product_operators,
                          build_hamiltonian, conserved_j, zeeman_params)
from happer.operators import SpinQuantumNumber, spin_operators
from happer.table import _csv_text

OMEGA_CAP = 2 * np.pi * (1 - np.cos(np.pi / 6))


def total_jz(two_l):
    """J_z = S_z + L_z on the product space, from the spin matrices."""
    s = spin_operators(SpinQuantumNumber(2))
    l = spin_operators(SpinQuantumNumber(two_l))
    return np.kron(s.sz, np.eye(l.dim)) + np.kron(np.eye(s.dim), l.sz)


def rotation(jz, phi):
    """R(phi) = exp(-i phi J_z)."""
    w, v = np.linalg.eigh(jz)
    return (v * np.exp(-1j * phi * w)) @ v.conj().T


def rotating_frame_solution(p, protocol, psi0, t):
    """Closed-form evolution for a rotating field at constant couplings.

    With J_z the total z angular momentum, H(t) = R(t) H(0) R(t)^dag for
    R(t) = exp(-i omega t J_z), so psi(t) = R(t) exp(-i (H0 - omega Jz) t) psi0.
    Valid whenever the axis term is z-symmetric (y = 0 or axis = z).
    """
    jz = total_jz(p.nuclear_two_l)
    p0 = ModelParams(p.nuclear_two_l, p.x, p.y, FieldDirection(protocol.theta0, 0.0), p.axis)
    h0 = build_hamiltonian(p0)
    gen = h0 - protocol.omega * jz
    w, v = np.linalg.eigh(gen)
    inner = (v * np.exp(-1j * w * t)) @ (v.conj().T @ psi0)
    return rotation(jz, protocol.omega * t) @ inner


def per_step_drive(p, protocol, psi0, steps_per_period, record_every):
    """Reference loop in the rotating frame chi = R(omega t)^dag psi.

    At each step midpoint build H_rot = R^dag H R - omega J_z, diagonalise
    it and apply exp(-i H_rot dt); rotate back at the recorded steps.
    """
    n_steps = steps_per_period * protocol.n_periods
    dt = protocol.period / steps_per_period
    jz = total_jz(p.nuclear_two_l)
    chi, states = psi0.copy(), [psi0]
    for step in range(n_steps):
        t_mid = (step + 0.5) * dt
        p_t = p.with_field(protocol.theta0, protocol.omega * t_mid)
        r = rotation(jz, protocol.omega * t_mid)
        h_rot = r.conj().T @ build_hamiltonian(p_t) @ r - protocol.omega * jz
        w, v = np.linalg.eigh(h_rot)
        chi = (v * np.exp(-1j * w * dt)) @ (v.conj().T @ chi)
        if (step + 1) % record_every == 0 or step + 1 == n_steps:
            states.append(rotation(jz, protocol.omega * (step + 1) * dt) @ chi)
    return np.array(states)


def per_step_ramp(p, x_start, x_end, rate, level, dt_max=0.25, min_steps=400):
    """Reference loop for one landau_zener_scan rate: final populations."""
    duration = abs(x_end - x_start) / rate
    n_steps = max(min_steps, int(np.ceil(duration / dt_max)))
    dt = duration / n_steps
    psi = np.linalg.eigh(build_hamiltonian(p.with_x(x_start)))[1][:, level - 1]
    for step in range(n_steps):
        x_mid = x_start + (x_end - x_start) * (step + 0.5) / n_steps
        w, v = np.linalg.eigh(build_hamiltonian(p.with_x(x_mid)))
        psi = (v * np.exp(-1j * w * dt)) @ (v.conj().T @ psi)
    return n_steps, np.abs(np.linalg.eigh(build_hamiltonian(p.with_x(x_end)))[1].conj().T @ psi) ** 2


@pytest.mark.parametrize("p,proto,steps,every", [
    # fast path: a stride that does not divide the step count, then every step
    (ModelParams(2, 1.0, 0.0), DriveProtocol(0.5, 0.01, 2), 1000, 300),
    (ModelParams(1, 0.7, 0.05), DriveProtocol(0.9, 0.03, 1), 400, 1),
    # generic path: axis along x, then a tilted axis over two periods
    (ModelParams(2, 0.8, 0.1, axis=(1.0, 0.0, 0.0)), DriveProtocol(1.0, 0.01, 1), 1500, 7),
    (ModelParams(2, 0.6, 0.05, axis=(0.6, 0.0, 0.8)), DriveProtocol(0.7, 0.02, 2), 800, 13),
])
def test_propagate_matches_per_step_loop(p, proto, steps, every):
    psi0 = initial_eigenstate(p, proto, 2)
    traj = propagate(p, proto, psi0, steps_per_period=steps, record_every=every)
    ref = per_step_drive(p, proto, psi0, steps, every)
    assert traj.states.shape == ref.shape
    assert np.max(np.abs(traj.states - ref)) < 1e-10
    if p.y == 0.0 or p.axis[:2] == (0.0, 0.0):
        exact = [rotating_frame_solution(p, proto, psi0, t) for t in traj.times]
        assert np.max(np.abs(traj.states - exact)) < 1e-10


def test_landau_zener_scan_matches_per_step_loop():
    p = ModelParams(2, 0.5, 1e-3, FieldDirection(1.0, 0.3))
    rates = [2e-5, 2.5e-4]
    res = landau_zener_scan(p, 0.61, 0.72, rates, level=3, dt_max=2.0)
    n_long, _ = per_step_ramp(p, 0.61, 0.72, rates[0], 3, dt_max=2.0)
    assert n_long > 2 * 1024  # spans more than two chunks
    for r, rate in zip(res, rates):
        _, ref = per_step_ramp(p, 0.61, 0.72, rate, 3, dt_max=2.0)
        assert np.max(np.abs(r.populations - ref)) < 1e-10


@pytest.mark.parametrize("phi", [0.3, 2.0, 4.5])
def test_z_axis_ramp_matches_the_per_step_loop(phi):
    p = ModelParams(2, 0.5, 1e-3, FieldDirection(1.0, phi))
    rates = [2e-4, 2e-3]
    res = landau_zener_scan(p, 0.61, 0.72, rates, level=3, dt_max=2.0)
    for r, rate in zip(res, rates):
        _, ref = per_step_ramp(p, 0.61, 0.72, rate, 3, dt_max=2.0)
        assert np.max(np.abs(r.populations - ref)) < 1e-10


@pytest.mark.parametrize("axis", [(0.6, 0.0, 0.8), (0.0, 0.6, -0.8)])
def test_tilted_axis_ramp_matches_the_per_step_loop(axis):
    p = ModelParams(2, 0.5, 0.05, FieldDirection(1.0, 0.3), axis=axis)
    _, ref = per_step_ramp(p, 0.5, 0.8, 1e-3, 3)
    [r] = landau_zener_scan(p, 0.5, 0.8, [1e-3], level=3)
    assert np.max(np.abs(r.populations - ref)) < 1e-10


def test_ramp_ends_must_be_finite():
    p = ModelParams(2, 0.5, 1e-3, FieldDirection(1.0, 0.3))
    with pytest.raises(ValueError, match="x_end must be finite, got inf"):
        landau_zener_scan(p, 0.61, np.inf, [1e-3], 3)
    with pytest.raises(ValueError, match="x_start must be finite, got nan"):
        landau_zener_scan(p, np.nan, 0.72, [1e-3], 3)


def test_propagate_refuses_a_state_of_the_wrong_length():
    p = ModelParams(2, 0.8, 0.1, axis=(1.0, 0.0, 0.0))
    proto = DriveProtocol(1.0, 0.01, 1)
    with pytest.raises(ValueError, match="initial state must have 9 components, got 8"):
        propagate(p, proto, np.full(8, 8 ** -0.5), 400)


def test_propagate_refuses_an_empty_block():
    p = ModelParams(2, 1.0, 0.0)
    with pytest.raises(ValueError, match=r"must hold at least one state, got shape \(9, 0\)"):
        propagate(p, DriveProtocol(0.5, 0.01, 1), np.zeros((9, 0)), 400)


def test_geometric_phase_diagnostics_refuses_an_empty_list():
    p = ModelParams(2, 1.0, 0.0)
    with pytest.raises(ValueError, match="needs at least one trajectory, got none"):
        geometric_phase_diagnostics([], p, DriveProtocol(0.5, 0.01, 1))


SPECIAL_FLOATS = [-0.0, np.nan, np.inf, -np.inf, 1e-300, 1e17, 0.1 + 0.2, -1 / 3]


def csv_rows_per_value(rows):
    """Rows formatted one value at a time, the reference for every schema=1 CSV writer:
    floats as f"{v:.12g}", anything else as str(v)."""
    return "".join(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row) + "\n"
                   for row in rows)


def _trajectory_rows(traj, with_state):
    rows = []
    for i, t in enumerate(traj.times):
        row = [t, *traj.s_avg[i], *traj.l_avg[i], *traj.j_avg[i]]
        if with_state:
            row += list(traj.states[i].real) + list(traj.states[i].imag)
        rows.append(row)
    return rows


def test_csv_formatter_matches_per_value_formatting():
    # a float, an int, a string and a numpy-float column; one template serves every row
    rows = [[v, i - 3, f"deg({i}+{i + 1})", np.float64(v) * 3]
            for i, v in enumerate(SPECIAL_FLOATS)]
    text = _csv_text(["f", "n", "tag", "g"], rows, ["command=test", "note: x=1"])
    head = "# schema=1\n# command=test\n# note: x=1\nf,n,tag,g\n"
    assert text == head + csv_rows_per_value(rows)
    assert _csv_text(["f", "n"], [], ["empty"]) == "# schema=1\n# empty\nf,n\n"
    assert _csv_text(["f"], []) == "# schema=1\nf\n"


@pytest.mark.parametrize("with_state", [False, True])
def test_trajectory_csv_matches_per_value_formatting(tmp_path, with_state):
    rng = np.random.default_rng(7)

    def values(cols):  # every column a permutation of the special values
        return np.stack([rng.permutation(SPECIAL_FLOATS) for _ in range(cols)], axis=1)
    states = values(3).astype(complex)
    states.imag = values(3)
    traj = Trajectory(np.array(SPECIAL_FLOATS), states, values(3), values(3), values(3), 0.0)
    path = tmp_path / "traj.csv"
    traj.to_csv(path, with_state=with_state)
    schema, _, body = path.read_text().split("\n", 2)
    assert schema == "# schema=1"
    assert body == csv_rows_per_value(_trajectory_rows(traj, with_state))


def test_instantaneous_hamiltonian_equals_build_hamiltonian():
    p = ModelParams(2, 0.6, 0.05, FieldDirection(0.3, 0.0), (0.6, 0.0, 0.8))
    proto = DriveProtocol(0.7, 0.02, 2)
    for t in (0.0, 123.4, proto.total_time):
        p_t = p.with_field(0.7, 0.02 * t)
        assert np.max(np.abs(instantaneous_hamiltonian(p, proto, t)
                             - build_hamiltonian(p_t))) < 1e-15


@pytest.mark.parametrize("every", [0, -1])
def test_propagate_rejects_record_every_below_one(every):
    p = ModelParams(2, 1.0, 0.0)
    proto = DriveProtocol(0.5, 0.01, 1)
    with pytest.raises(ValueError, match="record_every must be at least 1"):
        propagate(p, proto, initial_eigenstate(p, proto, 0), 400, record_every=every)


@pytest.mark.parametrize("steps,every,message", [
    (150.5, 1, "steps_per_period must be an integer, got 150.5"),
    (400, 2.5, "record_every must be an integer, got 2.5")])
def test_propagate_refuses_non_integral_step_counts(steps, every, message):
    # Both reach range(), where a float would raise a TypeError; numpy integers pass.
    p = ModelParams(2, 1.0, 0.0)
    proto = DriveProtocol(0.5, 0.01, 1)
    psi0 = initial_eigenstate(p, proto, 0)
    with pytest.raises(ValueError, match=message):
        propagate(p, proto, psi0, steps, record_every=every)
    assert len(propagate(p, proto, psi0, np.int64(400), np.int32(200)).times) == 3


def test_drive_protocol_rejects_cone_angle_outside_zero_pi():
    with pytest.raises(ValueError, match="theta"):
        DriveProtocol(3.5, 0.01, 1)


@pytest.mark.parametrize("omega,periods,match", [
    (0.0, 1, "omega must be positive"), (-0.01, 1, "omega must be positive"),
    (float("nan"), 1, "omega must be positive"), (float("inf"), 1, "positive and finite, got inf"),
    (0.01, 0, "at least one period"),
    (0.01, -2, "at least one period"), (0.01, 1.5, "whole number of periods"),
    (0.01, 2.0, "whole number of periods"),
])
def test_drive_protocol_rejects_nonpositive_frequency_and_periods(omega, periods, match):
    with pytest.raises(ValueError, match=match):
        DriveProtocol(0.5, omega, periods)


def test_drive_protocol_takes_numpy_integer_periods():
    assert DriveProtocol(0.5, 0.01, np.int64(2)).n_periods == 2


@pytest.mark.parametrize("two_l", [0, 1, 2, 5])
def test_expectations_match_per_operator_products(two_l):
    # The stacked product against <psi|O|psi> formed operator by operator;
    # its sums run in another order, so the two agree to a few ulps of |O| <= L.
    rng = np.random.default_rng(two_l)
    dim = 3 * (two_l + 1)  # spin-1 electron
    states = rng.normal(size=(401, dim)) + 1j * rng.normal(size=(401, dim))
    states /= np.linalg.norm(states, axis=1)[:, None]
    _, _, big_s, big_l, _ = _product_operators(two_l)
    for avg, ops in zip(dynamics._expectations(states, two_l), (big_s, big_l)):
        reference = np.stack([np.einsum("ni,ij,nj->n", states.conj(), op, states).real
                              for op in ops], axis=1)
        assert avg.shape == reference.shape
        assert np.max(np.abs(avg - reference)) < 1e-14


def eigh_step_unitaries(h, dt):
    """exp(-i H dt) from one batched eigh, the reference for the step interpolant."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)[:, None, :]) @ v.conj().swapaxes(1, 2)


def drive_steps(p, proto, steps_per_period):
    """(H_rot at the drive phase a, dt, step count, phases of the step midpoints).

    H_rot(a) = R(a)^dag H R(a) - omega J_z with J_z diagonal, so R(a)^dag
    turns entry (i, j) of the lab-frame H by e^{i a (m_i - m_j)}.
    """
    m = np.diag(total_jz(p.nuclear_two_l)).real
    turn = np.subtract.outer(m, m)

    def h_at(a):
        h = instantaneous_hamiltonian(p, proto, np.asarray(a) / proto.omega)
        return h * np.exp(1j * np.multiply.outer(a, turn)) - proto.omega * np.diag(m)
    n_steps = steps_per_period * proto.n_periods
    return h_at, proto.period / steps_per_period, n_steps, \
        2 * np.pi * (np.arange(n_steps) + 0.5) / steps_per_period


def ramp_steps(p, x_start, x_end, n_steps, dt):
    """(H at the ramp angle a, dt, step count, angles of the step midpoints)."""
    def h_at(a):
        x = x_start + (x_end - x_start) * (1 - np.cos(a)) / 2
        return np.stack([build_hamiltonian(p.with_x(xi)) for xi in x])
    return h_at, dt, n_steps, np.arccos(1 - 2 * (np.arange(n_steps) + 0.5) / n_steps)


def counted(h_at):
    """h_at and a list that gains the number of angles of each call."""
    asked: list[int] = []

    def h(a):
        asked.append(len(a))
        return h_at(a)
    return h, asked


@settings(max_examples=40, deadline=None)
@given(two_l=st.integers(0, 4), x=st.floats(-1.5, 1.5), y=st.floats(-0.5, 0.5),
       theta=st.floats(0.0, np.pi), axis_theta=st.floats(0.0, np.pi),
       axis_phi=st.floats(0.0, 2 * np.pi), log_omega=st.floats(-4.0, -1.0),
       steps=st.integers(100, 4000), ramp=st.booleans(), ramp_dt=st.floats(0.05, 2.0))
@example(two_l=4, x=1.5, y=0.0, theta=0.0, axis_theta=0.0, axis_phi=0.0, log_omega=-4.0,
         steps=100, ramp=False, ramp_dt=1.0)  # dt = 628: the references differ by 1.3e-12
def test_step_unitaries_match_eigh_unitaries(two_l, x, y, theta, axis_theta, axis_phi,
                                             log_omega, steps, ramp, ramp_dt):
    # Drives in the rotating frame and ramps of x across [x, x + 0.5], each
    # at its own field and axis; 64 steps spread over the run are compared.
    #
    # Any double-precision exp(-iH dt) carries its eigenvalues' rounding,
    # k eps |H|_2, times dt in its phases: on the example, eigh gives one H
    # eigenvalues that differ by up to 2.3 eps |H|_2 between batch slots, so
    # the reference's own unitaries differ by 1.3e-12 = 1.8 eps dt |H|_2.
    # The series weighs its node solves by at most its Lebesgue constant,
    # 3.7 for n <= 1024 nodes cut at n/4, so with k <= 2 per solve the two
    # sides differ by at most (1 + 3.7) 2 eps dt |H|_2 < C eps dt |H|_2 for
    # C = 10.  Ramps (dt <= 2) and most drives stay under the 1e-12 floor.
    axis = (np.sin(axis_theta) * np.cos(axis_phi), np.sin(axis_theta) * np.sin(axis_phi),
            np.cos(axis_theta))
    p = ModelParams(two_l, x, y, FieldDirection(theta, 1.0), axis)
    if ramp:
        h_at, dt, n_steps, angles = ramp_steps(p, x, x + 0.5, 10 * steps, ramp_dt)
    else:
        h_at, dt, n_steps, angles = drive_steps(p, DriveProtocol(theta, 10.0 ** log_omega, 1),
                                                steps)
    sample = angles[np.linspace(0, n_steps - 1, 64).astype(int)]
    h = h_at(sample)
    u = dynamics._step_unitaries(h_at, dt, n_steps)[0](sample)
    rounding = np.finfo(float).eps * dt * np.max(np.abs(np.linalg.eigvalsh(h)))
    assert np.max(np.abs(u - eigh_step_unitaries(h, dt))) < max(1e-12, 10 * rounding)


def test_step_interpolant_takes_as_many_nodes_as_it_needs():
    # dt y |Q| is large here: the series needs at least 128 nodes, and
    # every step it gives is within 1e-12 of its own eigh.
    p = ModelParams(3, 0.6, 0.05, FieldDirection(0.7, 0.0), (0.6, 0.0, 0.8))
    proto = DriveProtocol(0.7, 1e-3, 1)
    h_at, dt, n_steps, angles = drive_steps(p, proto, 400)
    h, asked = counted(h_at)
    steps, _ = dynamics._step_unitaries(h, dt, n_steps)
    solved = sum(asked)
    assert 128 <= solved < n_steps
    u = steps(angles)
    assert sum(asked) == solved  # no step solved on its own
    assert np.max(np.abs(u - eigh_step_unitaries(h_at(angles), dt))) < 1e-12
    psi0 = initial_eigenstate(p, proto, 2)
    traj = propagate(p, proto, psi0, steps_per_period=400, record_every=50)
    assert np.max(np.abs(traj.states - per_step_drive(p, proto, psi0, 400, 50))) < 1e-10


def test_step_unitaries_fall_back_to_direct_solves():
    # At 100 steps per period the series would need as many nodes as there
    # are steps, so each step is solved on its own.
    p = ModelParams(2, 0.8, 0.1, FieldDirection(1.0, 0.0), (1.0, 0.0, 0.0))
    proto = DriveProtocol(1.0, 1e-3, 1)
    h_at, dt, n_steps, angles = drive_steps(p, proto, 100)
    h, asked = counted(h_at)
    steps, _ = dynamics._step_unitaries(h, dt, n_steps)
    asked.clear()
    u = steps(angles)
    assert asked == [n_steps]
    assert np.max(np.abs(u - eigh_step_unitaries(h_at(angles), dt))) < 1e-12
    psi0 = initial_eigenstate(p, proto, 0)
    traj = propagate(p, proto, psi0, steps_per_period=100, record_every=10)
    assert np.max(np.abs(traj.states - per_step_drive(p, proto, psi0, 100, 10))) < 1e-10


def test_step_interpolant_holds_at_most_max_nodes():
    # At omega = 1e-4 and 100 steps per period the series needs 8192 nodes;
    # past _MAX_NODES the steps of a long drive are solved one by one.
    p = ModelParams(2, 0.8, 0.1, FieldDirection(1.0, 0.0), (1.0, 0.0, 0.0))
    h_at, dt, _, angles = drive_steps(p, DriveProtocol(1.0, 1e-4, 1), 100)
    h, asked = counted(h_at)
    steps, _ = dynamics._step_unitaries(h, dt, 100 * len(angles))
    assert sum(asked) == dynamics._MAX_NODES
    asked.clear()
    steps(angles[:7])
    assert asked == [7]


def test_ramp_series_keeps_only_cosines_and_a_tilted_drive_keeps_sines():
    # A ramp's H depends on a only through cos a, so its U is even in a and
    # its sine terms are round-off below _TAIL: with none kept, the series
    # gives U(-a) and U(a) bit for bit.  A tilted drive turns its axis term
    # by e^{i a (m_i - m_j)}, which is not even, so it keeps its sines.
    p = ModelParams(2, 0.5, 0.05, FieldDirection(1.0, 0.3), axis=(0.6, 0.0, 0.8))
    ramp = ramp_steps(p, 0.5, 0.8, 2000, 1.0)
    drive = drive_steps(p, DriveProtocol(0.7, 0.02, 1), 800)
    for (h_at, dt, n_steps, angles), even in ((ramp, True), (drive, False)):
        h, asked = counted(h_at)
        steps, _ = dynamics._step_unitaries(h, dt, n_steps)
        solved = sum(asked)
        u, mirrored = steps(angles), steps(-angles)
        assert sum(asked) == solved  # a series, not direct solves
        assert np.max(np.abs(u - eigh_step_unitaries(h_at(angles), dt))) < 1e-12
        if even:
            assert np.array_equal(mirrored, u)
        else:
            assert np.max(np.abs(mirrored - u)) > 1e-3


def _spy_chunks(monkeypatch) -> list[int]:
    """Record the number of steps in each chunk of step unitaries asked for."""
    chunks: list[int] = []
    real = dynamics._step_unitaries

    def spy(h_at, dt, n_steps):
        steps, chunk = real(h_at, dt, n_steps)

        def counted_steps(a):
            chunks.append(len(a))
            return steps(a)
        return counted_steps, chunk
    monkeypatch.setattr(dynamics, "_step_unitaries", spy)
    return chunks


def test_ramp_with_a_short_last_chunk_matches_per_step_loop(monkeypatch):
    # The 2L = 2 ramp's cosine series keeps 7 rows of 2 * 9^2 columns, so
    # even its largest chunk stays far inside _GEMM_SERIAL.
    p = ModelParams(2, 0.5, 1e-3, FieldDirection(1.0, 0.3))
    n_steps = 4 * dynamics._CHUNK_MAX + 37  # above the 220 steps that dt_max asks for
    chunks = _spy_chunks(monkeypatch)
    [r] = landau_zener_scan(p, 0.61, 0.72, [2.5e-4], 3, dt_max=2.0, min_steps=n_steps)
    assert chunks == [dynamics._CHUNK_MAX] * 4 + [37]
    _, ref = per_step_ramp(p, 0.61, 0.72, 2.5e-4, 3, dt_max=2.0, min_steps=n_steps)
    assert np.max(np.abs(r.populations - ref)) < 1e-10


@pytest.mark.parametrize("case", ["many-rows", "large-dim"])
def test_a_wide_series_asks_for_no_more_than_the_least_chunk(monkeypatch, case):
    # At 64 steps the series product of each already passes _GEMM_SERIAL
    # multiply-adds: the 2L = 4 drive at 1000 steps per period keeps 54
    # rows of 2 * 15^2 columns, and the 2L = 14 ramps 11 and 7 rows of
    # 2 * 45^2.  A longer chunk would only make that product larger.
    chunks = _spy_chunks(monkeypatch)
    if case == "many-rows":
        p = ModelParams(4, 0.8, 0.1, axis=(1.0, 0.0, 0.0))
        proto = DriveProtocol(1.0, adiabatic_omega(p, 1.0), 1)
        propagate(p, proto, initial_eigenstate(p, proto, 0), 1000, 1000)
    else:
        p = ModelParams(14, 0.5, 1e-3, FieldDirection(1.0, 0.3))
        x = p.crossing_x()
        landau_zener_scan(p, x - 0.05, x + 0.06, [2.5e-4, 2e-3], 3, dt_max=2.0)
    assert max(chunks) == dynamics._CHUNK


def random_unitaries(rng, n, dim):
    """n Haar-like random dim x dim unitaries, from the QR of complex Gaussians."""
    z = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None]


@pytest.mark.parametrize("n_steps,every", [
    (150, 1),        # a record after every step
    (4000, 7),       # 36 stretches of 7 steps per chunk; a short stretch of 3 at the end
    (1000, 1000),    # one final record across 4 chunks, the last of 232 steps
    (45, 5),         # fewer steps than one chunk
    (50, 13),        # odd stretches: three of 13 in one chunk, then 11
    (63, 63),        # one odd stretch, odd at every pairing level
])
def test_pairwise_step_products_match_the_step_by_step_loop(n_steps, every):
    # Each product of unitaries, or of a unitary and a unit state, sums dim
    # terms of modulus at most one per entry, each with a complex rounding
    # of at most 2 eps, so it is off by at most 2 dim eps per entry and
    # 2 dim^2 eps in norm; errors carried forward keep their size under the
    # unitary steps that follow.  The loop takes n_steps mat-vecs and the
    # pairs fewer than 2 n_steps products, so the two differ by at most
    # 3 n_steps 2 dim^2 eps.
    dim, rng = 9, np.random.default_rng(n_steps + every)
    u = random_unitaries(rng, n_steps, dim)
    psi = random_unitaries(rng, 1, dim)[0, :, :3].T  # three orthonormal states
    asked = []

    def unitaries(mid):
        asked.append(mid)
        return u[(mid - 0.5).astype(int)]
    rec_idx = list(range(every, n_steps + 1, every))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)
    chunk = dynamics._CHUNK_MAX
    out = dynamics._midpoint_evolve(psi, unitaries, rec_idx, chunk)
    assert max(len(m) for m in asked) <= chunk
    assert np.array_equal(np.concatenate(asked), np.arange(n_steps) + 0.5)
    ref, cols, recorded = [], psi, set(rec_idx)
    for k in range(n_steps):
        cols = np.einsum("ij,nj->ni", u[k], cols)
        if k + 1 in recorded:
            ref.append(cols)
    bound = 3 * n_steps * 2 * dim ** 2 * np.finfo(float).eps
    assert np.max(np.abs(out - np.array(ref))) < bound
    for col in range(len(psi)):  # each state's arithmetic is its own
        assert np.array_equal(dynamics._midpoint_evolve(psi[col], unitaries, rec_idx, chunk),
                              out[:, col])


@pytest.mark.parametrize("p,proto", [
    (ModelParams(2, 1.0, 0.0), DriveProtocol(0.5, 0.01, 2)),  # fast path
    (ModelParams(2, 0.8, 0.1, axis=(1.0, 0.0, 0.0)), DriveProtocol(1.0, 0.01, 1)),  # complex steps
], ids=["fast", "generic-complex"])
def test_level_block_matches_each_level_propagated_alone(p, proto):
    positions = list(range(p.dim))
    block = propagate(p, proto, initial_eigenstate(p, proto, positions), 1200, 7)
    for pos, traj in zip(positions, block):
        alone = propagate(p, proto, initial_eigenstate(p, proto, pos), 1200, 7)
        assert np.max(np.abs(traj.states - alone.states)) < 1e-12
        assert np.max(np.abs(traj.j_avg - alone.j_avg)) < 1e-12
        assert abs(traj.norm_drift - alone.norm_drift) < 1e-12
    together = geometric_phase_diagnostics(block, p, proto)
    for traj, (phase, fidelity) in zip(block, together):
        alone_phase, alone_fidelity = geometric_phase_diagnostics(traj, p, proto)
        assert abs(phase - alone_phase) < 1e-12 and abs(fidelity - alone_fidelity) < 1e-12


def test_one_column_block_is_the_single_state_drive_and_bad_shapes_are_refused():
    p = ModelParams(2, 0.8, 0.1, axis=(1.0, 0.0, 0.0))
    proto = DriveProtocol(1.0, 0.01, 1)
    psi0 = initial_eigenstate(p, proto, 4)
    alone = propagate(p, proto, psi0, 400, 7)
    [traj] = propagate(p, proto, psi0[:, None], 400, 7)
    for name in ("times", "states", "s_avg", "l_avg", "j_avg"):
        assert np.array_equal(getattr(traj, name), getattr(alone, name))
    assert traj.norm_drift == alone.norm_drift
    assert geometric_phase_diagnostics([traj], p, proto) == [
        geometric_phase_diagnostics(alone, p, proto)]
    with pytest.raises(ValueError, match=r"initial must be .* got shape \(9, 1, 1\)"):
        propagate(p, proto, psi0[:, None, None], 400, 7)
    shifted = Trajectory(alone.times + 1.0, alone.states, alone.s_avg, alone.l_avg,
                         alone.j_avg, alone.norm_drift)
    with pytest.raises(ValueError, match="trajectories must be recorded at the same times"):
        geometric_phase_diagnostics([alone, shifted], p, proto)


@pytest.mark.parametrize("two_l,x", [(0, 0.0), (2, 1.0)])
def test_propagator_matches_rotating_frame_solution(two_l, x):
    p = ModelParams(two_l, x, 0.0, FieldDirection(0.4, 0.0))
    proto = DriveProtocol(0.4, 0.05, 1)
    psi0 = initial_eigenstate(p, proto, 1)
    traj = propagate(p, proto, psi0, steps_per_period=8000, record_every=800)
    for i, t in enumerate(traj.times):
        exact = rotating_frame_solution(p, proto, psi0, float(t))
        assert np.max(np.abs(traj.states[i] - exact)) < 1e-6


@settings(max_examples=30, deadline=None)
@given(two_l=st.integers(0, 4), x=st.floats(-2.0, 2.0), theta0=st.floats(0.05, 3.0),
       omega=st.floats(0.01, 0.5), position=st.integers(0, 14))
def test_fast_path_state_does_not_depend_on_step_count(two_l, x, theta0, omega, position):
    # On the fast path steps_per_period only spaces the records.
    p = ModelParams(two_l, x, 0.0)
    proto = DriveProtocol(theta0, omega, 1)
    psi0 = initial_eigenstate(p, proto, position % p.dim)
    coarse = propagate(p, proto, psi0, steps_per_period=400, record_every=400)
    fine = propagate(p, proto, psi0, steps_per_period=16000, record_every=16000)
    assert np.max(np.abs(coarse.states[-1] - fine.states[-1])) < 1e-12


def test_fast_and_generic_paths_agree(monkeypatch):
    # At y = 0 the stepped path takes the same steps as a tilted axis would.
    p = ModelParams(2, 0.8, 0.0, FieldDirection(0.4, 0.0))
    proto = DriveProtocol(0.7, 0.02, 1)
    psi0 = initial_eigenstate(p, proto, 3)
    t1 = propagate(p, proto, psi0, steps_per_period=500, record_every=500)
    chunks = _spy_chunks(monkeypatch)
    monkeypatch.setattr(dynamics, "_z_covariant", lambda y, axis: False)
    t2 = propagate(p, proto, psi0, steps_per_period=500, record_every=500)
    assert sum(chunks) == 500
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
    from happer.spectrum import level_positions
    positions = level_positions(p)
    for label in (2, 9):
        psi0 = initial_eigenstate(p, proto, int(positions[label - 1]))
        traj = propagate(p, proto, psi0, steps_per_period=32000, record_every=200)
        g_dyn = extract_geometric_phase(traj, p, proto)
        g_geo = np.angle(np.exp(1j * loop_phase(p, label, np.pi / 6, mesh)))
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


@pytest.mark.parametrize("level,rates,match,steps", [
    (0, [1e-3], "level must be a label in 1..9, got 0", {}),
    (10, [1e-3], "level must be a label in 1..9, got 10", {}),
    (3, [1e-3, -1e-3], "positive and finite, got -0.001", {}),
    (3, [0.0], "positive and finite, got 0.0", {}),
    (3, [np.inf], "positive and finite, got inf", {}),
    (3, [np.nan], "positive and finite, got nan", {}),
    (3, [1e-3], "dt_max must be positive, got -1", {"dt_max": -1}),
    (3, [1e-3], "dt_max must be positive, got 0", {"dt_max": 0}),
    (3, [1e-3], "dt_max must be positive, got nan", {"dt_max": np.nan}),
    (3, [1e-3], "min_steps must be a whole number of steps, at least 1; got 0",
     {"min_steps": 0}),
    (3, [1e-3], "min_steps must be a whole number of steps, at least 1; got 400.5",
     {"min_steps": 400.5}),
    (3, [], "needs at least one ramp rate in rates, got none", {}),
])
def test_landau_zener_rejects_bad_level_and_rates(level, rates, match, steps):
    p = ModelParams(2, 0.5, 1e-3, FieldDirection(1.0, 0.3))
    with pytest.raises(ValueError, match=match):
        landau_zener_scan(p, 0.6, 0.75, rates, level, **steps)


@pytest.mark.parametrize("factor", [0.0, -1.0, np.nan, np.inf])
def test_adiabatic_omega_refuses_a_factor_that_is_not_positive_and_finite(factor):
    p = ModelParams(2, 0.8, 0.1)
    with pytest.raises(ValueError, match=f"omega factor must be positive and finite, got {factor}"):
        adiabatic_omega(p, 1.0, factor)


def test_adiabatic_omega_refuses_a_cone_where_levels_touch():
    p = ModelParams(2, 2 / 3, 0.0)  # the 2L = 2 crossing, where three levels meet
    with pytest.raises(SubspaceIsolationError, match=r"touch on the cone theta0=1 \(gap"):
        adiabatic_omega(p, 1.0)
    assert adiabatic_omega(ModelParams(2, 0.8, 0.0), 1.0) > 0


@pytest.mark.parametrize("two_l,x,y,theta0,axis", [
    (0, 0.0, 0.0, 0.7, (0.0, 0.0, 1.0)),
    (2, 0.8, 0.0, np.pi / 6, (0.0, 0.0, 1.0)),
    (2, 1.028, 0.1, 1.123, (1.0, 0.0, 0.0)),
    (3, 0.7, 0.0, 2.0, (0.6, 0.0, 0.8)),
    (4, 1.3, 0.05, 1.0, (0.0, 0.0, 1.0)),
    (4, 0.45, 0.2, 0.4, (0.0, 0.6, 0.8)),
])
def test_adiabatic_omega_is_the_smallest_adjacent_gap_on_the_cone(two_l, x, y, theta0, axis):
    # the rule adiabatic_omega kept before it read the isolation gate's return:
    # factor times the smallest adjacent gap over 16 azimuths of the cone
    p = ModelParams(two_l, x, y, axis=axis)
    phis = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    w = np.linalg.eigvalsh(_hamiltonians(p, theta0, phis, x, y))
    for factor in (1e-3, 0.03):
        assert adiabatic_omega(p, theta0, factor) == factor * float(np.min(np.diff(w, axis=-1)))


def test_landau_zener_rate_ordering():
    p = ModelParams(2, 0.5, 1e-3, FieldDirection(1.0, 0.3))
    res = landau_zener_scan(p, 0.63, 0.70, [3e-5, 3e-3], level=3, dt_max=1.0)
    assert res[0].transition_probability < res[1].transition_probability
    for r in res:
        assert abs(r.populations.sum() - 1.0) < 1e-9
