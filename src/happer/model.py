"""Hamiltonians of the driven electron-triplet / nuclear-spin system.

The full Hamiltonian, in Zeeman units, is

    H = n_B . S  +  x S.L  +  y [3 (a.S)^2 - S^2] (x) I_L

with S the electron spin-1 triple, L the nuclear spin, n_B(theta, phi)
the unit field direction and a the internuclear axis.  The product
basis |S_z, L_z> is ordered lexicographically with both quantum numbers
descending, electron factor first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .operators import SpinQuantumNumber, spin_operators
from .tolerances import TOL

ELECTRON_TWO_J = 2  # triplet dimer, S = 1


@dataclass(frozen=True)
class FieldDirection:
    """Polar angles of the magnetic-field unit vector."""

    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.theta <= np.pi:
            raise ValueError(f"theta must lie in [0, pi], got {self.theta}")

    def unit_vector(self) -> np.ndarray:
        st = np.sin(self.theta)
        return np.array([st * np.cos(self.phi), st * np.sin(self.phi), np.cos(self.theta)])


@dataclass(frozen=True)
class ModelParams:
    """Full configuration: nuclear spin 2L, couplings x and y, field, axis."""

    nuclear_two_l: int
    x: float
    y: float = 0.0
    field: FieldDirection = field(default_factory=lambda: FieldDirection(0.0, 0.0))
    axis: tuple[float, float, float] = (0.0, 0.0, 1.0)

    def __post_init__(self) -> None:
        if self.nuclear_two_l < 0:
            raise ValueError("nuclear_two_l must be non-negative")
        norm = float(np.linalg.norm(self.axis))
        if abs(norm - 1.0) > TOL.unit_vector:
            raise ValueError(f"axis must be a unit vector, |a| = {norm}")

    @property
    def dim(self) -> int:
        """Hilbert-space dimension 3 (2L + 1)."""
        return 3 * (self.nuclear_two_l + 1)

    def with_field(self, theta: float, phi: float) -> "ModelParams":
        return ModelParams(self.nuclear_two_l, self.x, self.y, FieldDirection(theta, phi), self.axis)

    def with_x(self, x: float) -> "ModelParams":
        return ModelParams(self.nuclear_two_l, x, self.y, self.field, self.axis)

    def crossing_x(self) -> float:
        """Coupling 2/(2L+1) where the (2L+1)-fold level crossing sits (y = 0)."""
        return 2.0 / (self.nuclear_two_l + 1)


@lru_cache(maxsize=16)
def _product_operators(nuclear_two_l: int):
    """Electron and nuclear spin components lifted to the product space."""
    s = spin_operators(SpinQuantumNumber(ELECTRON_TWO_J))
    l = spin_operators(SpinQuantumNumber(nuclear_two_l))
    eye_l = np.eye(l.dim)
    eye_s = np.eye(s.dim)
    big_s = tuple(np.kron(c, eye_l) for c in (s.sx, s.sy, s.sz))
    big_l = tuple(np.kron(eye_s, c) for c in (l.sx, l.sy, l.sz))
    exchange = sum(np.kron(a, b) for a, b in zip((s.sx, s.sy, s.sz), (l.sx, l.sy, l.sz)))
    return s, l, big_s, big_l, exchange


def _jz_diagonal(nuclear_two_l: int) -> np.ndarray:
    """Diagonal of J_z = S_z + L_z in the product basis."""
    s, l, _, _, _ = _product_operators(nuclear_two_l)
    return np.add.outer(np.diag(s.sz).real, np.diag(l.sz).real).ravel()


def _z_covariant(y: float, axis: tuple[float, float, float]) -> bool:
    """Whether H(theta, phi) = e^{-i phi J_z} H(theta, 0) e^{i phi J_z} holds.

    True when the axis term vanishes (y = 0) or is itself invariant under
    rotations about z (axis along z).
    """
    return y == 0.0 or abs(axis[0]) + abs(axis[1]) < 1e-15


def spin_axis_operator(axis: tuple[float, float, float], nuclear_two_l: int) -> np.ndarray:
    """The axis interaction 3 (a.S)^2 - S^2 on the product space (S = 1)."""
    s, _, _, _, _ = _product_operators(nuclear_two_l)
    a_s = s.along(np.asarray(axis))
    small = 3 * (a_s @ a_s) - s.casimir()
    return np.kron(small, np.eye(nuclear_two_l + 1))


def build_hamiltonian(p: ModelParams) -> np.ndarray:
    """Assemble H = n_B.S + x S.L + y [3 (a.S)^2 - S^2]; Hermitian by construction."""
    return _hamiltonians(p, p.field.theta, p.field.phi, p.x, p.y)


def hamiltonian_batch(p: ModelParams, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """H evaluated at arrays of field angles; returns shape theta.shape + (dim, dim).

    The couplings x, y and the axis are held fixed; only the field
    direction varies.  Used by the sphere-mesh machinery.
    """
    return _hamiltonians(p, theta, phi, p.x, p.y)


def _hamiltonians(p: ModelParams, theta, phi, x, y) -> np.ndarray:
    """H at broadcastable arrays of field angles and couplings; p supplies L and the axis.

    Each term is formed at the shape of its own arguments and the sum
    broadcasts, so a ramp of x at a fixed field builds the field term
    once.  At scalar arguments it is build_hamiltonian.
    """
    _, _, big_s, _, exchange = _product_operators(p.nuclear_two_l)
    theta, phi, x, y = (np.asarray(a, dtype=float)[..., None, None] for a in (theta, phi, x, y))
    st = np.sin(theta)
    h = (st * np.cos(phi)) * big_s[0] + (st * np.sin(phi)) * big_s[1] \
        + np.cos(theta) * big_s[2] + x * exchange
    if np.any(y != 0.0):
        h = h + y * spin_axis_operator(p.axis, p.nuclear_two_l)
    return h


def conserved_j(p: ModelParams) -> np.ndarray:
    """Total-spin component along the field, n_B.(S + L); commutes with H at y = 0."""
    _, _, big_s, big_l, _ = _product_operators(p.nuclear_two_l)
    n = p.field.unit_vector()
    return sum(n[i] * (big_s[i] + big_l[i]) for i in range(3))


def spin_axis_commutator(p: ModelParams) -> np.ndarray:
    """Closed form of [n_B.J, H]: 3iy {(n_B x a).S, a.S} tensor I_L.

    Vanishes identically when y = 0 or when the field is (anti)parallel
    to the axis; equals commutator(conserved_j(p), build_hamiltonian(p))
    entrywise otherwise.
    """
    s, _, _, _, _ = _product_operators(p.nuclear_two_l)
    n = p.field.unit_vector()
    a = np.asarray(p.axis, dtype=float)
    u = np.cross(n, a)
    s_u = s.along(u)
    s_a = s.along(a)
    small = 3j * p.y * (s_u @ s_a + s_a @ s_u)
    return np.kron(small, np.eye(p.nuclear_two_l + 1))


def momentum_hamiltonian(k: np.ndarray, nuclear_two_l: int) -> np.ndarray:
    """Momentum-space variant H' = k.S + S.L with a non-unit k vector.

    Shares its eigenvectors with the unit-field Hamiltonian at coupling
    x = 1/|k|; the (2L+1)-fold band touching sits on the sphere
    |k| = (2L+1)/2.
    """
    k = np.asarray(k, dtype=float)
    if np.linalg.norm(k) == 0.0:
        raise ValueError("k must be nonzero")
    _, _, big_s, _, exchange = _product_operators(nuclear_two_l)
    return k[0] * big_s[0] + k[1] * big_s[1] + k[2] * big_s[2] + exchange


def semimetal_hamiltonian(k: np.ndarray, j: SpinQuantumNumber) -> np.ndarray:
    """Linear band-touching model k.F for a spin-j multiplet."""
    k = np.asarray(k, dtype=float)
    triple = spin_operators(j)
    return k[0] * triple.sx + k[1] * triple.sy + k[2] * triple.sz


def semimetal_batch(j: SpinQuantumNumber, k_mag: float, theta: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """k.F on a sphere of radius k_mag, batched over direction angles."""
    triple = spin_operators(j)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    st = np.sin(theta)
    nx = (st * np.cos(phi))[..., None, None]
    ny = (st * np.sin(phi))[..., None, None]
    nz = np.cos(theta)[..., None, None]
    return k_mag * (nx * triple.sx + ny * triple.sy + nz * triple.sz)


def projected_hamiltonian(p: ModelParams, band_labels, reference_eigensystem) -> np.ndarray:
    """P H P with P projecting onto the given levels of the reference eigensystem.

    band_labels is one level label or a sequence of them (1-based,
    numbered by energy at large x); requires y = 0 so the labels are well
    defined, and refuses label sets whose eigenspaces are not separated
    from the rest of the spectrum (SubspaceIsolationError).
    """
    from .spectrum import _check_isolated, _resolve_labels  # local import to avoid a cycle

    if p.y != 0.0:
        raise ValueError("projection onto labelled levels is defined for y = 0")
    _, positions = _resolve_labels(p, band_labels)
    _check_isolated(reference_eigensystem.eigenvalues, positions, f"projection at x={p.x}")
    frame = reference_eigensystem.eigenvectors[:, list(positions)]
    proj = frame @ frame.conj().T
    return proj @ build_hamiltonian(p) @ proj


def zeeman_params(theta: float = 0.0, phi: float = 0.0) -> ModelParams:
    """Pure precession baseline H = n_B.S (no nuclear spin, x = y = 0)."""
    return ModelParams(0, 0.0, 0.0, FieldDirection(theta, phi))

