"""Angular-momentum operator matrices and commutators.

Conventions used throughout the package:

* basis states |j, m> are ordered by m descending, m = j, j-1, ..., -j;
* ladder operators carry the Condon-Shortley phase, so all matrix
  elements of S+ are real and non-negative;
* hbar = 1, energies dimensionless.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral

import numpy as np

from .errors import HermiticityError
from .tolerances import TOL


@dataclass(frozen=True)
class SpinQuantumNumber:
    """A spin j stored as the integer 2j, so half-integer spins stay exact."""

    two_j: int

    def __post_init__(self) -> None:
        if not isinstance(self.two_j, Integral) or self.two_j < 0:
            raise ValueError(f"two_j must be a non-negative integer, got {self.two_j!r}")

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


@lru_cache(maxsize=16)
def _j_y_eigenvectors(two_j: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvectors V of J_y as columns, eigenvalues ascending (m = -j..j), V^dag, and m / 2.

    m / 2 is exact, as m is a half-integer.  All three are read-only.
    """
    v = np.linalg.eigh(spin_operators(SpinQuantumNumber(two_j)).sy)[1]
    out = v, v.conj().T.copy(), (np.arange(two_j + 1) - two_j / 2) / 2
    for a in out:
        a.flags.writeable = False
    return out


def _small_d(two_j: int, beta: np.ndarray) -> np.ndarray:
    """Wigner small-d matrices d^j(beta) = e^{-i beta J_y}, real, shape beta.shape + (2j+1, 2j+1).

    The spectral form 1 + V (e^{-i beta m} - 1) V^dag, with V the cached
    eigenvectors of J_y and m = -j..j their exact eigenvalues, in the
    |j, m> basis, m descending (Condon-Shortley); its real part, since d is
    real.  e^{-i beta m} - 1 is written -2i sin(beta m / 2) e^{-i beta m / 2},
    which is exactly zero at beta = 0, so d(0) is the identity bit for bit.
    """
    v, v_dag, half_m = _j_y_eigenvectors(two_j)
    n = two_j + 1
    half = np.asarray(beta, dtype=float)[..., None] * half_m
    shift = -2j * np.sin(half) * np.exp(-1j * half)
    turn = (v * shift[..., None, :]).reshape(-1, n) @ v_dag  # one GEMM over every angle
    return np.eye(n) + turn.real.reshape(shift.shape + (n,))


def _turned(v0: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """e^{-i beta J_y} v0 for each angle beta, shape (n, dim, k), v0 of shape (dim, k).

    v0's rows are in the product basis of a spin 1 and a spin L, dim =
    3 (2L + 1).  e^{-i beta J_y} = d^1(beta) (x) d^L(beta) acts on the
    (3, 2L + 1) factors of v0's rows, one small-d at a time; the dim x dim
    matrix is never formed.
    """
    (dim, k), n = v0.shape, len(angles)
    turned = _small_d(dim // 3 - 1, angles)[:, None] @ v0.reshape(3, dim // 3, k)
    return (_small_d(2, angles) @ turned.reshape(n, 3, dim // 3 * k)).reshape(n, dim, k)


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
