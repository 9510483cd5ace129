"""Time evolution under the rotating field: trajectories, geometric-phase
extraction, and ramp-rate scans through the anti-crossing.

Drives are solved in the frame that turns with the field: with
R(phi) = e^{-i phi J_z}, chi = R(omega t)^dag psi evolves under
H_rot(t) = R(omega t)^dag H(t) R(omega t) - omega J_z (Rabi, Ramsey &
Schwinger, Rev. Mod. Phys. 26, 167 (1954)).  For a z-covariant H at static
couplings H_rot is constant, and one eigendecomposition gives the exact
state at every record time.  Otherwise H_rot, where only the tilted-axis
term and ramped couplings still turn, is stepped like a ramp: by the
exact exponential of the midpoint Hamiltonian, _CHUNK steps per batched
eigensolve.  Every step is exactly unitary, so norm drift is a pure
floating-point diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AdiabaticityError, NormDriftError
from .model import (FieldDirection, ModelParams, _hamiltonians, _jz_diagonal,
                    _product_operators, _z_covariant, build_hamiltonian, spin_axis_operator)
from .spectrum import eigensystem
from .tolerances import TOL


@dataclass(frozen=True)
class DriveProtocol:
    """Field cone at polar angle theta0 rotating with angular frequency omega.

    x and y override the static parameters when given; a (start, end)
    pair means a linear ramp over the full protocol duration.
    """

    theta0: float
    omega: float
    n_periods: int = 1
    x: float | tuple[float, float] | None = None
    y: float | tuple[float, float] | None = None

    def __post_init__(self) -> None:
        FieldDirection(self.theta0, 0.0)  # validates the cone angle

    @property
    def period(self) -> float:
        return 2 * np.pi / self.omega

    @property
    def total_time(self) -> float:
        return self.n_periods * self.period

    def coupling_at(self, t, p0: ModelParams) -> tuple:
        """(x, y) at time t; t may be an array, and a ramped coupling follows its shape."""
        def value(spec, default):
            if spec is None:
                return default
            if isinstance(spec, tuple):
                frac = t / self.total_time
                return spec[0] + (spec[1] - spec[0]) * frac
            return spec
        return value(self.x, p0.x), value(self.y, p0.y)

    def is_static_couplings(self) -> bool:
        return not isinstance(self.x, tuple) and not isinstance(self.y, tuple)


@dataclass
class Trajectory:
    """Recorded states and spin expectation values along one drive."""

    times: np.ndarray
    states: np.ndarray       # (n, dim)
    s_avg: np.ndarray        # (n, 3)
    l_avg: np.ndarray
    j_avg: np.ndarray
    norm_drift: float
    params: ModelParams
    protocol: DriveProtocol

    def to_csv(self, path, with_state: bool = False) -> None:
        with open(path, "w") as fh:
            fh.write("# schema=1\n")
            cols = ["t", "sx", "sy", "sz", "lx", "ly", "lz", "jx", "jy", "jz"]
            if with_state:
                dim = self.states.shape[1]
                cols += [f"re_c{i}" for i in range(dim)] + [f"im_c{i}" for i in range(dim)]
            fh.write(",".join(cols) + "\n")
            blocks = [self.times, self.s_avg, self.l_avg, self.j_avg]
            if with_state:
                blocks += [self.states.real, self.states.imag]
            line = ",".join(["%.12g"] * len(cols)) + "\n"
            fh.writelines(line % tuple(row) for row in np.column_stack(blocks).tolist())


def _expectations(states: np.ndarray, nuclear_two_l: int) -> tuple[np.ndarray, np.ndarray]:
    _, _, big_s, big_l, _ = _product_operators(nuclear_two_l)
    s_avg = np.stack([np.einsum("ni,ij,nj->n", states.conj(), op, states).real
                      for op in big_s], axis=1)
    l_avg = np.stack([np.einsum("ni,ij,nj->n", states.conj(), op, states).real
                      for op in big_l], axis=1)
    return s_avg, l_avg


_CHUNK = 1024  # midpoint steps per batched eigensolve; bounds the memory of a long ramp


def _midpoint_evolve(psi: np.ndarray, hamiltonians, n_steps: int, dt: float,
                     rec_idx: list[int]) -> np.ndarray:
    """States after each step count in rec_idx (all >= 1) of psi_{k+1} = exp(-i H_k dt) psi_k.

    hamiltonians(mid) returns the H_k at an array of midpoints mid = k + 1/2
    (in steps).  They are diagonalised and exponentiated _CHUNK steps at a
    time, by a real eigh when their imaginary parts are exactly zero; the
    unitaries are applied one by one, in order.
    """
    slot = {s: i for i, s in enumerate(rec_idx)}
    out = np.empty((len(rec_idx), len(psi)), dtype=complex)
    for start in range(0, n_steps, _CHUNK):
        h = hamiltonians(np.arange(start, min(start + _CHUNK, n_steps)) + 0.5)
        w, v = np.linalg.eigh(h if h.imag.any() else h.real)
        for k, u in enumerate((v * np.exp(-1j * w * dt)[:, None, :]) @ v.conj().swapaxes(1, 2),
                              start + 1):
            psi = u @ psi
            if k in slot:
                out[slot[k]] = psi
    return out


def propagate(p0: ModelParams, protocol: DriveProtocol, initial: np.ndarray,
              steps_per_period: int = 2000, record_every: int = 1) -> Trajectory:
    """Evolve the state through n_periods of the rotating drive.

    States are recorded at t = 0, every record_every steps of
    dt = period / steps_per_period, and at the end.  When H_rot is constant
    the states are exact and steps_per_period only sets their spacing.
    """
    if steps_per_period < 100:
        raise ValueError("steps_per_period must be at least 100")
    if record_every < 1:
        raise ValueError("record_every must be at least 1")
    psi = np.asarray(initial, dtype=complex).copy()
    if abs(np.linalg.norm(psi) - 1.0) > TOL.unit_vector * 100:
        raise ValueError("initial state must be normalized")
    n_steps = steps_per_period * protocol.n_periods
    dt = protocol.period / steps_per_period

    rec_idx = list(range(0, n_steps + 1, record_every))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)

    jz = _jz_diagonal(p0.nuclear_two_l)
    omega = protocol.omega
    axis_term = spin_axis_operator(p0.axis, p0.nuclear_two_l)

    def rotating(t):
        """R(omega t)^dag H(t) R(omega t) - omega J_z; an array of times gives a stack.

        The field and exchange terms are H at phi = 0; only the axis term
        turns, entry (i, j) by e^{i omega t (m_i - m_j)}.
        """
        x_t, y_t = protocol.coupling_at(t, p0)
        r_dag = np.exp(1j * omega * np.multiply.outer(t, jz))  # diagonal of R(omega t)^dag
        turned = r_dag[..., :, None] * axis_term * r_dag.conj()[..., None, :]
        return (_hamiltonians(p0, protocol.theta0, 0.0, x_t, 0.0)
                + np.asarray(y_t)[..., None, None] * turned - omega * np.diag(jz))

    rec_times = np.asarray(rec_idx) * dt
    if protocol.is_static_couplings() and _z_covariant(protocol.coupling_at(0.0, p0)[1], p0.axis):
        w, v = np.linalg.eigh(rotating(0.0))  # H_rot is constant: chi(t) = e^{-i H_rot t} psi0
        chi = (np.exp(-1j * np.multiply.outer(rec_times, w)) * (v.conj().T @ psi)) @ v.T
    else:
        chi = np.vstack([psi, _midpoint_evolve(psi, lambda mid: rotating(mid * dt), n_steps, dt,
                                               rec_idx[1:])])
    recorded = np.exp(-1j * omega * np.multiply.outer(rec_times, jz)) * chi

    norms = np.linalg.norm(recorded, axis=1)
    drift = float(np.max(np.abs(norms - 1.0)))
    if drift > TOL.norm_drift:
        raise NormDriftError(f"norm drift {drift:.2e} exceeded tolerance during propagation")
    s_avg, l_avg = _expectations(recorded, p0.nuclear_two_l)
    return Trajectory(rec_times, recorded, s_avg, l_avg, s_avg + l_avg, drift, p0, protocol)


def instantaneous_hamiltonian(p0: ModelParams, protocol: DriveProtocol, t) -> np.ndarray:
    """H(t) along the drive; an array of times gives shape t.shape + (dim, dim)."""
    x_t, y_t = protocol.coupling_at(t, p0)
    return _hamiltonians(p0, protocol.theta0, protocol.omega * np.asarray(t), x_t, y_t)


def initial_eigenstate(p0: ModelParams, protocol: DriveProtocol, position: int) -> np.ndarray:
    """Instantaneous eigenstate (ascending position, 0-based) at t = 0."""
    es = eigensystem(instantaneous_hamiltonian(p0, protocol, 0.0))
    return es.eigenvectors[:, position].copy()


def geometric_phase_diagnostics(traj: Trajectory, p0: ModelParams, protocol: DriveProtocol,
                                n_samples: int = 65) -> tuple[float, float]:
    """(geometric phase, minimum instantaneous-eigenstate fidelity).

    No fidelity floor is enforced here; see extract_geometric_phase.
    """
    idx = np.unique(np.linspace(0, len(traj.times) - 1, n_samples).astype(int))
    w, v = np.linalg.eigh(instantaneous_hamiltonian(p0, protocol, traj.times[idx]))
    overlaps = np.abs(np.einsum("nda,nd->na", v.conj(), traj.states[idx])) ** 2
    branch = np.argmax(overlaps, axis=1)
    rows = np.arange(len(idx))
    min_fidelity = min(1.0, float(np.min(overlaps[rows, branch])))
    energies = w[rows, branch]
    if np.ptp(energies) < 1e-10:
        dynamical = float(np.mean(energies)) * float(traj.times[-1])
    else:
        dynamical = float(np.trapezoid(energies, traj.times[idx]))
    total = float(np.angle(np.vdot(traj.states[0], traj.states[-1])))
    return float(np.angle(np.exp(1j * (total + dynamical)))), min_fidelity


def extract_geometric_phase(traj: Trajectory, p0: ModelParams, protocol: DriveProtocol,
                            n_samples: int = 65) -> float:
    """Geometric phase of a closed adiabatic drive, dynamical part removed.

    The dynamical phase is the time integral of the followed
    instantaneous eigenvalue; the followed branch is identified at each
    sample time by overlap with the propagated state, and leakage below
    the fidelity floor raises AdiabaticityError.  Returns the phase
    wrapped to (-pi, pi].
    """
    phase, min_fidelity = geometric_phase_diagnostics(traj, p0, protocol, n_samples)
    if min_fidelity < TOL.adiabatic_fidelity:
        raise AdiabaticityError(
            f"state leaked from the followed level: minimum fidelity {min_fidelity:.4f}")
    return phase


def adiabatic_omega(p0: ModelParams, protocol_theta: float, factor: float = 1e-3,
                    n_phi_probe: int = 16) -> float:
    """Drive frequency factor x (minimum spectral gap along the field cone)."""
    FieldDirection(protocol_theta, 0.0)  # validates the cone angle
    phis = np.linspace(0, 2 * np.pi, n_phi_probe, endpoint=False)
    w = np.linalg.eigvalsh(_hamiltonians(p0, protocol_theta, phis, p0.x, p0.y))
    return factor * float(np.min(np.diff(w, axis=-1)))


def cone_fit(vectors: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """Fit a cone to a closed trajectory of 3-vectors.

    The last row is taken to close the curve, as propagate's record at
    t = n_periods * period does, and is dropped so that it does not bias
    the axis.  Returns (axis, opening angle, solid angle about the axis,
    max angular deviation from the mean opening angle).
    """
    v = np.asarray(vectors, dtype=float)[:-1]
    norms = np.linalg.norm(v, axis=1)
    if np.min(norms) < 1e-12:
        raise ValueError("trajectory passes through the origin; no cone is defined")
    unit = v / norms[:, None]
    axis = unit.mean(axis=0)
    axis_norm = np.linalg.norm(axis)
    if axis_norm < 1e-12:
        raise ValueError("trajectory has no mean axis (great-circle-like path)")
    axis = axis / axis_norm
    angles = np.arccos(np.clip(unit @ axis, -1.0, 1.0))
    opening = float(np.mean(angles))
    solid = float(2 * np.pi * (1 - np.cos(opening)))
    return axis, opening, solid, float(np.max(np.abs(angles - opening)))


@dataclass(frozen=True)
class RampResult:
    """Final populations after one linear x ramp through the anti-crossing."""

    rate: float
    populations: np.ndarray
    stay_probability: float
    transition_probability: float


def landau_zener_scan(p_base: ModelParams, x_start: float, x_end: float,
                      rates, level: int, dt_max: float = 0.25,
                      min_steps: int = 400) -> list[RampResult]:
    """Sweep x linearly at several rates and record level populations.

    The initial state is the instantaneous eigenstate of the given level
    (1-based, ascending energy) at x_start; populations are measured in
    the x_end eigenbasis.  Requires y != 0 and a ramp interval that
    actually contains the anti-crossing.

    The ramp runs in the frame that turns the axis a onto z and the field
    n into the x-z plane, at polar angle angle(n, a) and azimuth 0, where
    every H is real symmetric and takes a real eigh.  A ramp changes only
    x, S.L is rotation invariant, and the rotation maps the initial state
    and the final eigenbasis alike, so the populations are those of the
    given field and axis.
    """
    if p_base.y == 0.0:
        raise ValueError("the ramp scan probes an anti-crossing and needs y != 0")
    lo, hi = min(x_start, x_end), max(x_start, x_end)
    x_anti = p_base.crossing_x()
    if not lo < x_anti < hi:
        raise ValueError(f"ramp [{x_start}, {x_end}] does not cross the anti-crossing "
                         f"near x = {x_anti:.4f}")
    n, a = p_base.field.unit_vector(), np.asarray(p_base.axis)
    angle = float(np.arctan2(np.linalg.norm(np.cross(n, a)), n @ a))  # accurate near the poles
    p_base = ModelParams(p_base.nuclear_two_l, p_base.x, p_base.y, FieldDirection(angle, 0.0))
    es0 = eigensystem(build_hamiltonian(p_base.with_x(x_start)))
    psi0 = es0.eigenvectors[:, level - 1]
    es1 = eigensystem(build_hamiltonian(p_base.with_x(x_end)))
    results = []
    span = x_end - x_start
    for rate in rates:
        duration = abs(span) / rate
        n_steps = max(min_steps, int(np.ceil(duration / dt_max)))
        dt = duration / n_steps
        [psi] = _midpoint_evolve(psi0, lambda mid: _hamiltonians(
            p_base, p_base.field.theta, p_base.field.phi, x_start + span * mid / n_steps,
            p_base.y), n_steps, dt, [n_steps])
        populations = np.abs(es1.eigenvectors.conj().T @ psi) ** 2
        stay = float(populations[level - 1])
        results.append(RampResult(float(rate), populations, stay, 1.0 - stay))
    return results
