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
midpoint Hamiltonian, formed _CHUNK steps at a time.  A real symmetric batch
(every ramp, whose H is real and linear in x) takes
exp(-i A) = cos A - i sin A with A = H dt: A is halved s times until its
infinity norm is at most 1, cos and sin are Taylor polynomials in A^2 whose
first omitted terms are below 1/19! < 2^-53, evaluated Paterson-Stockmeyer
style with all six blocks from one matrix product, and s doublings restore
the step (Moler & Van Loan, SIAM Rev. 45, 3 (2003)).  A ramp's real stacks
are read off the line between its end Hamiltonians.  A complex batch takes
one batched eigh.  Either way every step is unitary to rounding, so norm
drift is a pure floating-point diagnostic.  Any number of initial states
share the steps as the columns of one block.
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
from .spectrum import eigensystem
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
    params: ModelParams
    protocol: DriveProtocol

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


_CHUNK = 256  # midpoint steps per batch of step unitaries; bounds the memory of a long ramp

# cos A = sum_k _COS[k] B^k and sin A = A sum_k _SIN[k] B^k with B = A^2.  For
# ||A|| <= 1 the omitted tails are below 1.01/20! and 1.01/19!, both under 2^-53.
_COS = tuple((-1) ** k / math.factorial(2 * k) for k in range(10))
_SIN = tuple((-1) ** k / math.factorial(2 * k + 1) for k in range(9))


def _horner_blocks(coeffs) -> np.ndarray:
    """Rows (T_0, T_1, T_2) of coefficients of (I, B, B^2, B^3) with
    sum_k coeffs[k] B^k = (T_0 B^3 + T_1) B^3 + T_2, for at most 10 coeffs.

    Each block is a combination of the stored powers, so the polynomial
    costs two products beyond them (Paterson & Stockmeyer, SIAM J. Comput.
    2, 60 (1973)).  The top block also takes B^3 itself.
    """
    padded = np.zeros(12)
    padded[:len(coeffs)] = coeffs
    blocks = np.zeros((3, 4))
    blocks[:, :3] = padded[:9].reshape(3, 3)[::-1]
    blocks[0, 3] = padded[9]
    return blocks


_BLOCKS = np.vstack([_horner_blocks(_COS), _horner_blocks(_SIN)])  # cos rows, then sin rows


def _real_step_unitaries(a: np.ndarray) -> np.ndarray:
    """exp(-i A) = cos A - i sin A for a stack of real symmetric A.

    The infinity norm bounds the 2-norm; A is halved s times until the
    largest one is at most 1, and s doublings cos 2A = (C - S)(C + S),
    sin 2A = 2 S C undo the halving.  Every intermediate is written with
    out= into one block of ten stacks, which takes half the time of
    allocating each as a new array.
    """
    n, d, _ = a.shape
    real = np.empty((10, n, d, d))  # A, B, B^2, B^3 and the six blocks
    scaled, powers, blocks = real[0], real[1:4], real[4:]
    s = max(0, math.frexp(float(np.max(np.sum(np.abs(a, out=scaled), axis=-1))))[1])
    np.multiply(a, 0.5 ** s, out=scaled)
    b, b2, b3 = powers
    np.matmul(scaled, scaled, out=b)
    np.matmul(b, b, out=b2)
    np.matmul(b2, b, out=b3)
    # All six blocks in one product; the identity's coefficients go on the diagonals.
    np.matmul(_BLOCKS[:, 1:], powers.reshape(3, -1), out=blocks.reshape(6, -1))
    diagonals = blocks.reshape(6, n, d * d)[..., ::d + 1]
    diagonals += _BLOCKS[:, :1, None]
    for top, low in ((0, 1), (1, 2), (3, 4), (4, 5)):  # Horner's rule in B^3; B is free now
        np.matmul(blocks[top], b3, out=b)
        blocks[low] += b
    c, sin = blocks[2], np.matmul(scaled, blocks[5], out=b)
    spare = (blocks[0], blocks[1], b2, blocks[3])
    for _ in range(s):
        diff, total, c_next, sin_next = spare
        np.subtract(c, sin, out=diff)
        np.add(c, sin, out=total)
        np.matmul(sin, c, out=sin_next)
        sin_next *= 2
        np.matmul(diff, total, out=c_next)
        spare = (c, sin, diff, total)
        c, sin = c_next, sin_next
    u = np.empty((n, d, d), dtype=complex)
    u.real = c
    np.negative(sin, out=u.imag)
    return u


def _midpoint_evolve(psi: np.ndarray, hamiltonians, n_steps: int, dt: float,
                     rec_idx: list[int]) -> np.ndarray:
    """States after each step count in rec_idx (all >= 1) of psi_{k+1} = exp(-i H_k dt) psi_k.

    psi is one state (dim,) or a stack of states (k, dim) that take the
    same steps.  hamiltonians(mid) returns the H_k at an array of midpoints
    mid = k + 1/2 (in steps).  They are exponentiated _CHUNK steps at a
    time, by the cos/sin polynomial when their imaginary parts are exactly
    zero and by a batched eigh otherwise; the unitaries are applied one by
    one, in order.  Each state takes its own matrix-vector product, so a
    state's arithmetic does not depend on the others in the stack.
    """
    slot = {s: i for i, s in enumerate(rec_idx)}
    out = np.empty((len(rec_idx),) + psi.shape, dtype=complex)
    cols = psi[..., None]
    for start in range(0, n_steps, _CHUNK):
        h = hamiltonians(np.arange(start, min(start + _CHUNK, n_steps)) + 0.5)
        if h.imag.any():
            w, v = np.linalg.eigh(h)
            steps = (v * np.exp(-1j * w * dt)[:, None, :]) @ v.conj().swapaxes(1, 2)
        else:
            steps = _real_step_unitaries(h.real * dt)
        for k, u in enumerate(steps, start + 1):
            cols = u @ cols
            if k in slot:
                out[slot[k]] = cols[..., 0]
    return out


def propagate(p0: ModelParams, protocol: DriveProtocol, initial: np.ndarray,
              steps_per_period: int = 2000, record_every: int = 1) -> Trajectory:
    """Evolve the state through n_periods of the rotating drive.

    States are recorded at t = 0, every record_every steps of
    dt = period / steps_per_period, and at the end.  When H_rot is constant
    the states are exact and steps_per_period only sets their spacing.
    """
    [traj] = _propagate_block(p0, protocol, np.asarray(initial)[:, None], steps_per_period,
                              record_every)
    return traj


def _propagate_block(p0: ModelParams, protocol: DriveProtocol, initial: np.ndarray,
                     steps_per_period: int, record_every: int) -> list[Trajectory]:
    """propagate for each column of the (dim, k) block initial, one Trajectory each.

    The columns share every step unitary, or the one eigendecomposition of
    a constant H_rot.
    """
    for name, value, least in (("steps_per_period", steps_per_period, 100),
                               ("record_every", record_every, 1)):
        if not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}")
    psi = np.asarray(initial, dtype=complex).T  # one state per row
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

    def rotating(t):
        """R(omega t)^dag H(t) R(omega t) - omega J_z; an array of times gives a stack.

        Only the axis term turns, entry (i, j) by e^{i omega t (m_i - m_j)}.
        """
        r_dag = np.exp(1j * omega * np.multiply.outer(t, jz))  # diagonal of R(omega t)^dag
        turned = r_dag[..., :, None] * axis_term * r_dag.conj()[..., None, :]
        return h_phi0 + p0.y * turned - omega * np.diag(jz)

    rec_times = np.asarray(rec_idx) * dt
    if _z_covariant(p0.y, p0.axis):
        w, v = np.linalg.eigh(rotating(0.0))  # H_rot is constant: chi(t) = e^{-i H_rot t} psi0
        coeffs = v.conj().T @ psi[..., None]  # (k, dim, 1)
        chi = (np.exp(-1j * np.multiply.outer(rec_times, w)) * coeffs.swapaxes(1, 2)) @ v.T
    else:
        chi = np.concatenate([psi[None], _midpoint_evolve(
            psi, lambda mid: rotating(mid * dt), n_steps, dt, rec_idx[1:])]).swapaxes(0, 1)
    recorded = np.exp(-1j * omega * np.multiply.outer(rec_times, jz)) * chi  # (k, n, dim)

    drifts = np.max(np.abs(np.linalg.norm(recorded, axis=-1) - 1.0), axis=-1)
    drift = float(np.max(drifts))
    if drift > TOL.norm_drift:
        raise NormDriftError(f"norm drift {drift:.2e} exceeded tolerance during propagation")
    trajs = []
    for states, drift in zip(recorded, drifts):
        s_avg, l_avg = _expectations(states, p0.nuclear_two_l)
        trajs.append(Trajectory(rec_times, states, s_avg, l_avg, s_avg + l_avg, float(drift),
                                p0, protocol))
    return trajs


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


def geometric_phase_diagnostics(traj: Trajectory, p0: ModelParams,
                                protocol: DriveProtocol) -> tuple[float, float]:
    """(geometric phase, minimum instantaneous-eigenstate fidelity).

    No fidelity floor is enforced here; see extract_geometric_phase.
    """
    [result] = _phase_diagnostics([traj], p0, protocol)
    return result


def _phase_diagnostics(trajs: list[Trajectory], p0: ModelParams,
                       protocol: DriveProtocol) -> list[tuple[float, float]]:
    """geometric_phase_diagnostics of trajectories recorded at the same times, one eigensolve
    at 65 evenly spread records."""
    times = trajs[0].times
    idx = np.unique(np.linspace(0, len(times) - 1, 65).astype(int))
    w, v = np.linalg.eigh(instantaneous_hamiltonian(p0, protocol, times[idx]))
    v_dag = v.conj()
    rows = np.arange(len(idx))
    results = []
    for traj in trajs:
        overlaps = np.abs(np.einsum("nda,nd->na", v_dag, traj.states[idx])) ** 2
        branch = np.argmax(overlaps, axis=1)
        min_fidelity = min(1.0, float(np.min(overlaps[rows, branch])))
        energies = w[rows, branch]
        if np.ptp(energies) < 1e-10:
            dynamical = float(np.mean(energies)) * float(times[-1])
        else:
            dynamical = float(np.trapezoid(energies, times[idx]))
        total = float(np.angle(np.vdot(traj.states[0], traj.states[-1])))
        results.append((float(np.angle(np.exp(1j * (total + dynamical)))), min_fidelity))
    return results


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
    """Drive frequency factor x (minimum spectral gap over 16 azimuths of the field cone)."""
    FieldDirection(protocol_theta, 0.0)  # validates the cone angle
    phis = np.linspace(0, 2 * np.pi, 16, endpoint=False)
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
    if not (isinstance(level, Integral) and 1 <= level <= p_base.dim):
        raise ValueError(f"level must be a label in 1..{p_base.dim}, got {level!r}")
    rates = list(rates)  # an iterator is read once, for the checks and the steps
    for rate in rates:
        if not 0 < rate < math.inf:
            raise ValueError(f"ramp rates must be positive and finite, got {rate!r}")
    if not dt_max > 0:
        raise ValueError(f"dt_max must be positive, got {dt_max!r}")
    if not (isinstance(min_steps, Integral) and min_steps >= 1):
        raise ValueError(f"min_steps must be a whole number of steps, at least 1; "
                         f"got {min_steps!r}")
    lo, hi = min(x_start, x_end), max(x_start, x_end)
    x_anti = p_base.crossing_x()
    if not lo < x_anti < hi:
        raise ValueError(f"ramp [{x_start}, {x_end}] does not cross the anti-crossing "
                         f"near x = {x_anti:.4f}")
    n, a = p_base.field.unit_vector(), np.asarray(p_base.axis)
    angle = float(np.arctan2(np.linalg.norm(np.cross(n, a)), n @ a))  # accurate near the poles
    p_base = ModelParams(p_base.nuclear_two_l, p_base.x, p_base.y, FieldDirection(angle, 0.0))
    h_ends = _hamiltonians(p_base, angle, 0.0, np.array([x_start, x_end]), p_base.y)
    psi0 = eigensystem(h_ends[0]).eigenvectors[:, level - 1]
    es1 = eigensystem(h_ends[1])
    # H is linear in x, and real here: each step's H lies on the line between the ends.
    h_start = np.ascontiguousarray(h_ends[0].real)
    h_rise = h_ends[1].real - h_start
    results = []
    for rate in rates:
        duration = abs(x_end - x_start) / rate
        n_steps = max(min_steps, int(np.ceil(duration / dt_max)))
        dt = duration / n_steps
        [psi] = _midpoint_evolve(psi0, lambda mid: h_start + np.multiply.outer(
            mid / n_steps, h_rise), n_steps, dt, [n_steps])
        populations = np.abs(es1.eigenvectors.conj().T @ psi) ** 2
        stay = float(populations[level - 1])
        results.append(RampResult(float(rate), populations, stay, 1.0 - stay))
    return results
