"""Time evolution under the rotating field: trajectories, geometric-phase
extraction, and ramp-rate scans through the anti-crossing.

A drive turns the field at the fixed couplings of its ModelParams; the one
ramp of a coupling is landau_zener_scan's sweep of x.  Drives are solved in
the frame that turns with the field: with R(phi) = e^{-i phi J_z},
chi = R(omega t)^dag psi evolves under H_rot(t) = R(omega t)^dag H(t)
R(omega t) - omega J_z (Rabi, Ramsey & Schwinger, Rev. Mod. Phys. 26, 167
(1954)).  For a z-covariant H, H_rot is constant, and one eigendecomposition
gives the exact state at every record time.  Otherwise H_rot, where only the
tilted-axis term turns, is stepped like a ramp: by the exponential of the
midpoint Hamiltonian.  In both, the step Hamiltonian is a trigonometric
polynomial in one angle a: the drive phase omega t, or, at the ramp
fraction s, the a with s = (1 - cos a)/2, since H is linear in x.  The
step unitary exp(-i H(a) dt) is then an entire 2 pi-periodic function of
a, and its Fourier series, fixed by exact eigh solves at a few equispaced
nodes, gives every step of the run (Trefethen & Weideman, SIAM Rev. 56,
385 (2014)); see _step_unitaries for the node rule.  The series is unitary
to about 1e-16 per step rather than to each step's rounding, so norm drift
also measures the interpolation.  A ramp's H depends on a only through
cos a, so its series is a cosine series.  The steps between two records
are multiplied in pairs before they meet the state, and any number of
initial states share those products as the columns of one block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import AdiabaticityError, NormDriftError
from .model import (FieldDirection, ModelParams, _hamiltonians, _jz_diagonal,
                    _product_operators, _z_covariant, spin_axis_operator)
from .spectrum import _check_isolated, eigensystem
from .table import _csv_text
from .tolerances import TOL


@dataclass(frozen=True)
class DriveProtocol:
    """Field cone at polar angle theta0 rotating with angular frequency omega.

    The couplings x and y are those of the ModelParams the drive runs at.
    """

    theta0: float
    omega: float
    n_periods: int = 1

    def __post_init__(self) -> None:
        FieldDirection(self.theta0, 0.0)  # validates the cone angle
        if not 0 < self.omega < np.inf:
            raise ValueError(f"drive frequency omega must be positive and finite, got {self.omega}")
        if not isinstance(self.n_periods, Integral) or self.n_periods < 1:
            raise ValueError(f"a drive needs a whole number of periods, at least one period; "
                             f"got {self.n_periods!r}")

    @property
    def period(self) -> float:
        return 2 * np.pi / self.omega

    @property
    def total_time(self) -> float:
        return self.n_periods * self.period


@dataclass
class Trajectory:
    """Recorded states and spin expectation values along one drive."""

    times: np.ndarray
    states: np.ndarray       # (n, dim)
    s_avg: np.ndarray        # (n, 3)
    l_avg: np.ndarray
    j_avg: np.ndarray
    norm_drift: float

    def to_csv(self, path, with_state: bool = False) -> None:
        cols = ["t", "sx", "sy", "sz", "lx", "ly", "lz", "jx", "jy", "jz"]
        blocks = [self.times, self.s_avg, self.l_avg, self.j_avg]
        if with_state:
            cols += [f"{part}_c{i}" for part in ("re", "im") for i in range(self.states.shape[1])]
            blocks += [self.states.real, self.states.imag]
        Path(path).write_text(_csv_text(cols, np.column_stack(blocks).tolist()))


def _expectations(states: np.ndarray, nuclear_two_l: int) -> tuple[np.ndarray, np.ndarray]:
    """<S> and <L> per state, (n, 3) each, from one product with the six stacked operators."""
    _, _, big_s, big_l, _ = _product_operators(nuclear_two_l)
    bra_ops = states.conj() @ np.stack([*big_s, *big_l])  # (6, n, dim)
    avg = np.einsum("onj,nj->no", bra_ops, states).real
    return avg[:, :3], avg[:, 3:]


# A step series of r kept rows forms min(_CHUNK_MAX, max(_CHUNK, _GEMM_SERIAL // (r 2 dim^2)))
# steps at once: its (steps x r) @ (r x 2 dim^2) product then stays in one OpenBLAS thread
# unless _CHUNK steps already leave it.  Direct solves form _CHUNK.
_CHUNK = 64  # steps formed at once by direct solves, and the fewest a step series forms
_CHUNK_MAX = 256  # most steps a step series forms at once; bounds the memory of a long run
_GEMM_SERIAL = 10 ** 6  # multiply-adds up to which OpenBLAS (0.3.31) runs a dgemm in one thread
_MAX_NODES = 1024  # most nodes the step interpolant solves before it solves each step
_TAIL = 1e-14  # largest entry of a Fourier coefficient that the step series drops


def _step_unitaries(h_at, dt: float, n_steps: int):
    """U(a) = exp(-i h_at(a) dt) at an array of angles a, for h_at 2 pi-periodic in a.

    The unitaries at n equispaced nodes, one eigh each, give the Fourier
    coefficients c_q of U.  n starts at 8 and doubles, keeping the nodes
    already solved, until every c_q with |q| >= n/4 has entries of at most
    _TAIL; U(a) is then the series over |q| < n/4, summed in the real basis
    cos(q a), sin(q a) = cos(q a - pi/2) as one real product with the
    coefficients viewed as real pairs.  The same rule drops each term whose
    coefficient has no entry above _TAIL: an h_at even in a, such as a
    ramp's, has a U even in a and keeps only its cosines.  Once n would
    reach n_steps or pass _MAX_NODES, the returned U solves each angle
    directly.

    Returns (U, chunk), chunk being how many angles to pass U at once: for
    a series, the most whose (chunk x rows) @ (rows x 2 dim^2) product
    stays within _GEMM_SERIAL multiply-adds, clipped to [_CHUNK,
    _CHUNK_MAX]; for direct solves, _CHUNK.
    """
    def solve(a):
        w, v = np.linalg.eigh(h_at(a))
        return (v * np.exp(-1j * w * dt)[:, None, :]) @ v.conj().swapaxes(1, 2)

    n, u = 8, None
    while n < n_steps and n <= _MAX_NODES:
        a = 2 * np.pi * np.arange(n) / n
        fresh = solve(a if u is None else a[1::2])  # the even nodes are solved already
        u = fresh if u is None else np.stack([u, fresh], axis=1).reshape(n, *fresh.shape[1:])
        c = np.fft.fft(u, axis=0) / n  # c_q at index q mod n
        if np.max(np.abs(c[n // 4:n - n // 4 + 1])) <= _TAIL:
            q = np.arange(1, n // 4)
            table = np.concatenate([c[:1], c[q] + c[-q], 1j * (c[q] - c[-q])])
            freq = np.concatenate([[0], q, q])
            shift = np.repeat([0.0, np.pi / 2], [len(q) + 1, len(q)])
            keep = np.max(np.abs(table), axis=(1, 2)) > _TAIL
            table, shape = table[keep].reshape(np.sum(keep), -1).view(float), u.shape[1:]
            freq, shift = freq[keep], shift[keep]

            def series(a):
                basis = np.cos(np.multiply.outer(a, freq) - shift)
                return (basis @ table).view(complex).reshape(len(a), *shape)
            return series, min(_CHUNK_MAX, max(_CHUNK, _GEMM_SERIAL // table.size))
        n *= 2
    return solve, _CHUNK


def _ordered_products(u: np.ndarray) -> np.ndarray:
    """u[:, -1] ... u[:, 1] u[:, 0] for a stack (g, m, dim, dim), multiplied in pairs."""
    while u.shape[1] > 1:
        paired = u[:, 1::2] @ u[:, :-1:2]
        u = np.concatenate([paired, u[:, -1:]], axis=1) if u.shape[1] % 2 else paired
    return u[:, 0]


def _midpoint_evolve(psi: np.ndarray, unitaries, rec_idx: list[int], chunk: int) -> np.ndarray:
    """States after each step count in rec_idx (increasing, all >= 1) of psi_{k+1} = U_k psi_k.

    psi is one state (dim,) or a stack of states (k, dim) that take the
    same steps.  unitaries(mid) returns the step unitaries U_k at an array
    of midpoints mid = k + 1/2 (in steps); it is asked for at most chunk
    steps at a time, in order, chunk being the one _step_unitaries sets
    from its series' product size.  The steps between two records are
    multiplied in pairs, one batched product per level, before they meet
    the states: a stretch longer than chunk is taken chunk steps at a
    time, and up to chunk // m consecutive stretches of the same m steps
    are asked for and multiplied together.  Each state then takes one
    matrix-vector product per product, so a state's arithmetic does not
    depend on the others in the stack.
    """
    out = np.empty((len(rec_idx),) + psi.shape, dtype=complex)
    cols = psi[..., None]
    ends = [0, *rec_idx]
    i = 0
    while i < len(rec_idx):
        start, stop = ends[i], ends[i + 1]
        m = stop - start
        if m > chunk:
            for lo in range(start, stop, chunk):
                u = unitaries(np.arange(lo, min(lo + chunk, stop)) + 0.5)
                cols = _ordered_products(u[None])[0] @ cols
            out[i] = cols[..., 0]
            i += 1
        else:
            g = 1
            while g < chunk // m and i + g < len(rec_idx) and ends[i + g + 1] - ends[i + g] == m:
                g += 1
            u = unitaries(np.arange(start, start + g * m) + 0.5)
            for product in _ordered_products(u.reshape(g, m, *u.shape[1:])):
                cols = product @ cols
                out[i] = cols[..., 0]
                i += 1
    return out


def propagate(p0: ModelParams, protocol: DriveProtocol, initial: np.ndarray,
              steps_per_period: int = 2000, record_every: int = 1
              ) -> Trajectory | list[Trajectory]:
    """Evolve one state, or each column of a block of states, through n_periods of the drive.

    A (dim,) initial gives one Trajectory; a (dim, k) block gives a list of
    k, whose columns share every step unitary, or the one eigendecomposition
    of a constant H_rot.  States are recorded at t = 0, every record_every
    steps of dt = period / steps_per_period, and at the end.  When H_rot is
    constant the states are exact and steps_per_period only sets their
    spacing.
    """
    for name, value, least in (("steps_per_period", steps_per_period, 100),
                               ("record_every", record_every, 1)):
        if not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}")
    initial = np.asarray(initial)
    if initial.ndim not in (1, 2):
        raise ValueError(f"initial must be a state (dim,) or a block of states (dim, k), "
                         f"got shape {initial.shape}")
    psi = np.asarray(initial if initial.ndim == 2 else initial[:, None], dtype=complex).T
    if psi.shape[-1] != p0.dim:
        raise ValueError(f"initial state must have {p0.dim} components, got {psi.shape[-1]}")
    if not len(psi):
        raise ValueError(f"initial must hold at least one state, got shape {initial.shape}")
    if np.max(np.abs(np.linalg.norm(psi, axis=1) - 1.0)) > TOL.unit_vector * 100:
        raise ValueError("initial state must be normalized")
    n_steps = steps_per_period * protocol.n_periods
    dt = protocol.period / steps_per_period

    rec_idx = list(range(0, n_steps + 1, record_every))
    if rec_idx[-1] != n_steps:
        rec_idx.append(n_steps)

    jz = _jz_diagonal(p0.nuclear_two_l)
    omega = protocol.omega
    axis_term = spin_axis_operator(p0.axis, p0.nuclear_two_l)
    h_phi0 = _hamiltonians(p0, protocol.theta0, 0.0, p0.x, 0.0)  # field and exchange at phi = 0

    def rotating(phase):
        """H_rot = R(phase)^dag H R(phase) - omega J_z at the drive phase omega t; an
        array of phases gives a stack.

        Only the axis term turns, entry (i, j) by e^{i phase (m_i - m_j)}.
        """
        r_dag = np.exp(1j * np.multiply.outer(phase, jz))  # diagonal of R(phase)^dag
        turned = r_dag[..., :, None] * axis_term * r_dag.conj()[..., None, :]
        return h_phi0 + p0.y * turned - omega * np.diag(jz)

    rec_times = np.asarray(rec_idx) * dt
    if _z_covariant(p0.y, p0.axis):
        w, v = np.linalg.eigh(rotating(0.0))  # H_rot is constant: chi(t) = e^{-i H_rot t} psi0
        coeffs = v.conj().T @ psi[..., None]  # (k, dim, 1)
        chi = (np.exp(-1j * np.multiply.outer(rec_times, w)) * coeffs.swapaxes(1, 2)) @ v.T
    else:
        steps, chunk = _step_unitaries(rotating, dt, n_steps)  # H_rot is 2 pi-periodic in the phase
        chi = np.concatenate([psi[None], _midpoint_evolve(
            psi, lambda mid: steps(omega * dt * mid), rec_idx[1:], chunk)]).swapaxes(0, 1)
    recorded = np.exp(-1j * omega * np.multiply.outer(rec_times, jz)) * chi  # (k, n, dim)

    drifts = np.max(np.abs(np.linalg.norm(recorded, axis=-1) - 1.0), axis=-1)
    drift = float(np.max(drifts))
    if drift > TOL.norm_drift:
        raise NormDriftError(f"norm drift {drift:.2e} exceeded tolerance during propagation")
    trajs = []
    for states, drift in zip(recorded, drifts):
        s_avg, l_avg = _expectations(states, p0.nuclear_two_l)
        trajs.append(Trajectory(rec_times, states, s_avg, l_avg, s_avg + l_avg, float(drift)))
    return trajs if initial.ndim == 2 else trajs[0]


def instantaneous_hamiltonian(p0: ModelParams, protocol: DriveProtocol, t) -> np.ndarray:
    """H(t) along the drive; an array of times gives shape t.shape + (dim, dim)."""
    return _hamiltonians(p0, protocol.theta0, protocol.omega * np.asarray(t), p0.x, p0.y)


def initial_eigenstate(p0: ModelParams, protocol: DriveProtocol,
                       position: int | list[int]) -> np.ndarray:
    """Instantaneous eigenstate (ascending position, 0-based) at t = 0.

    A sequence of positions gives those eigenstates as the columns of a block.
    """
    es = eigensystem(instantaneous_hamiltonian(p0, protocol, 0.0))
    return es.eigenvectors[:, position].copy()


def geometric_phase_diagnostics(traj: Trajectory | list[Trajectory], p0: ModelParams,
                                protocol: DriveProtocol
                                ) -> tuple[float, float] | list[tuple[float, float]]:
    """(geometric phase, minimum instantaneous-eigenstate fidelity) of a trajectory.

    A list of trajectories recorded at the same times gives a list of
    pairs, from one eigensolve at 65 evenly spread records.  No fidelity
    floor is enforced here; see extract_geometric_phase.
    """
    single = isinstance(traj, Trajectory)
    trajs = [traj] if single else list(traj)
    if not trajs:
        raise ValueError("geometric_phase_diagnostics needs at least one trajectory, got none")
    times = trajs[0].times
    if any(not np.array_equal(t.times, times) for t in trajs[1:]):
        raise ValueError("trajectories must be recorded at the same times")
    idx = np.unique(np.linspace(0, len(times) - 1, 65).astype(int))
    w, v = np.linalg.eigh(instantaneous_hamiltonian(p0, protocol, times[idx]))
    v_dag = v.conj()
    rows = np.arange(len(idx))
    results = []
    for one in trajs:
        overlaps = np.abs(np.einsum("nda,nd->na", v_dag, one.states[idx])) ** 2
        branch = np.argmax(overlaps, axis=1)
        min_fidelity = min(1.0, float(np.min(overlaps[rows, branch])))
        energies = w[rows, branch]
        if np.ptp(energies) < 1e-10:
            dynamical = float(np.mean(energies)) * float(times[-1])
        else:
            dynamical = float(np.trapezoid(energies, times[idx]))
        total = float(np.angle(np.vdot(one.states[0], one.states[-1])))
        results.append((float(np.angle(np.exp(1j * (total + dynamical)))), min_fidelity))
    return results[0] if single else results


def extract_geometric_phase(traj: Trajectory, p0: ModelParams, protocol: DriveProtocol) -> float:
    """Geometric phase of a closed adiabatic drive, dynamical part removed.

    The dynamical phase is the time integral of the followed
    instantaneous eigenvalue; the followed branch is identified at each
    sample time by overlap with the propagated state, and leakage below
    the fidelity floor raises AdiabaticityError.  Returns the phase
    wrapped to (-pi, pi].
    """
    phase, min_fidelity = geometric_phase_diagnostics(traj, p0, protocol)
    if min_fidelity < TOL.adiabatic_fidelity:
        raise AdiabaticityError(
            f"state leaked from the followed level: minimum fidelity {min_fidelity:.4f}")
    return phase


def adiabatic_omega(p0: ModelParams, protocol_theta: float, factor: float = 1e-3) -> float:
    """Drive frequency factor x (minimum spectral gap over 16 azimuths of the field cone).

    The gap is the isolation gate's return on the cone, every level its own set
    (_check_isolated): a cone where two levels touch has no adiabatic frequency.
    """
    FieldDirection(protocol_theta, 0.0)  # validates the cone angle
    if not 0 < factor < math.inf:
        raise ValueError(f"omega factor must be positive and finite, got {factor!r}")
    phis = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    w = np.linalg.eigvalsh(_hamiltonians(p0, protocol_theta, phis, p0.x, p0.y))
    return factor * _check_isolated(
        w, [(k,) for k in range(p0.dim)], "adiabatic drive",
        lambda _: f" on the cone theta0={protocol_theta:.6g}", "so no drive frequency is "
        "adiabatic; move x or y away from the touching or change theta0")


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

    Each rate steps H at the given field and axis, at midpoints on the line
    between the end Hamiltonians.  Its step unitaries come from one
    interpolant in the angle a with ramp fraction s = (1 - cos a)/2
    (_step_unitaries), built from its own dt.
    """
    if p_base.y == 0.0:
        raise ValueError("the ramp scan probes an anti-crossing and needs y != 0")
    if not (isinstance(level, Integral) and 1 <= level <= p_base.dim):
        raise ValueError(f"level must be a label in 1..{p_base.dim}, got {level!r}")
    rates = list(rates)  # an iterator is read once, for the checks and the steps
    if not rates:
        raise ValueError("landau_zener_scan needs at least one ramp rate in rates, got none")
    for rate in rates:
        if not 0 < rate < math.inf:
            raise ValueError(f"ramp rates must be positive and finite, got {rate!r}")
    if not dt_max > 0:
        raise ValueError(f"dt_max must be positive, got {dt_max!r}")
    if not (isinstance(min_steps, Integral) and min_steps >= 1):
        raise ValueError(f"min_steps must be a whole number of steps, at least 1; "
                         f"got {min_steps!r}")
    for name, value in (("x_start", x_start), ("x_end", x_end)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    lo, hi = min(x_start, x_end), max(x_start, x_end)
    x_anti = p_base.crossing_x()
    if not lo < x_anti < hi:
        raise ValueError(f"ramp [{x_start}, {x_end}] does not cross the anti-crossing "
                         f"near x = {x_anti:.4f}")
    field = p_base.field
    h_ends = _hamiltonians(p_base, field.theta, field.phi, np.array([x_start, x_end]), p_base.y)
    psi0 = eigensystem(h_ends[0]).eigenvectors[:, level - 1]
    es1 = eigensystem(h_ends[1])
    h_start, h_rise = h_ends[0], h_ends[1] - h_ends[0]

    def h_at(a):
        """H at the ramp fraction s = (1 - cos a)/2, on the line between the end
        Hamiltonians, since H is linear in x."""
        return h_start + np.multiply.outer((1 - np.cos(a)) / 2, h_rise)
    results = []
    for rate in rates:
        duration = abs(x_end - x_start) / rate
        n_steps = max(min_steps, int(np.ceil(duration / dt_max)))
        steps, chunk = _step_unitaries(h_at, duration / n_steps, n_steps)
        [psi] = _midpoint_evolve(psi0, lambda mid: steps(np.arccos(1 - 2 * mid / n_steps)),
                                 [n_steps], chunk)
        populations = np.abs(es1.eigenvectors.conj().T @ psi) ** 2
        stay = float(populations[level - 1])
        results.append(RampResult(float(rate), populations, stay, 1.0 - stay))
    return results
