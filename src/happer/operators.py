"""Angular-momentum operator matrices and commutators.

Conventions used throughout the package:

* basis states |j, m> are ordered by m descending, m = j, j-1, ..., -j;
* ladder operators carry the Condon-Shortley phase, so all matrix
  elements of S+ are real and non-negative;
* hbar = 1, energies dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HermiticityError
from .tolerances import TOL


@dataclass(frozen=True)
class SpinQuantumNumber:
    """A spin j stored as the integer 2j, so half-integer spins stay exact."""

    two_j: int

    def __post_init__(self) -> None:
        if self.two_j < 0:
            raise ValueError(f"two_j must be non-negative, got {self.two_j}")

    @property
    def j(self) -> float:
        return self.two_j / 2

    @property
    def dim(self) -> int:
        return self.two_j + 1

    def m_values(self) -> np.ndarray:
        """Magnetic quantum numbers in basis order (descending)."""
        return self.j - np.arange(self.dim)


@dataclass(frozen=True)
class SpinTriple:
    """Cartesian spin components (sx, sy, sz) for one spin quantum number."""

    two_j: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray

    @property
    def dim(self) -> int:
        return self.two_j + 1

    def along(self, direction: np.ndarray) -> np.ndarray:
        """Component of the spin along a Cartesian 3-vector."""
        d = np.asarray(direction, dtype=float)
        return d[0] * self.sx + d[1] * self.sy + d[2] * self.sz

    def casimir(self) -> np.ndarray:
        """sx^2 + sy^2 + sz^2 (equals j(j+1) times the identity)."""
        return self.sx @ self.sx + self.sy @ self.sy + self.sz @ self.sz


def spin_operators(j: SpinQuantumNumber) -> SpinTriple:
    """Spin matrices in the |j, m> basis, m descending.

    sz is diagonal with entries j..-j; sx, sy are assembled from the
    ladder operators S+- with the standard Condon-Shortley phases.
    """
    jj = j.j
    m = j.m_values()
    sz = np.diag(m).astype(complex)
    s_plus = np.zeros((j.dim, j.dim), dtype=complex)
    for col in range(1, j.dim):
        mm = m[col]
        s_plus[col - 1, col] = np.sqrt(jj * (jj + 1) - mm * (mm + 1))
    s_minus = s_plus.conj().T
    sx = (s_plus + s_minus) / 2
    sy = (s_plus - s_minus) / 2j
    return SpinTriple(j.two_j, sx, sy, sz)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """ab - ba for square matrices of equal dimension."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"commutator needs equal square matrices, got {a.shape} and {b.shape}")
    return a @ b - b @ a


def require_hermitian(m: np.ndarray, tol: float = TOL.hermiticity, what: str = "matrix") -> np.ndarray:
    """Return m, a matrix or an (..., n, n) stack, if it is Hermitian to tolerance, else raise."""
    asym = np.max(np.abs(m - np.swapaxes(m, -1, -2).conj()))
    if asym > tol:
        raise HermiticityError(f"{what} is not Hermitian: max |M - M^dag| = {asym:.3e}")
    return m
