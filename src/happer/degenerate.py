"""Closed-form bases of the degenerate subspace at the level crossing.

At the crossing coupling x* = 2/(2L+1) the spectrum has a (2L+1)-fold
degenerate multiplet at energy -1/(2L+1).  For L = 1 and L = 2 the
null-space of H - E* can be written in closed form by Gaussian
elimination of the product-basis matrix; the resulting vectors are
smooth in (theta, phi) away from the poles and serve both as oracles
for the numerical eigensolver and as smooth-gauge frames for holonomy
integrals.  The expressions contain csc(theta) and tan(theta/2) factors
and are therefore singular at theta = 0 and pi even though the subspace
itself is regular there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

POLE_MARGIN = 1e-6

_SQRT2 = np.sqrt(2.0)
_SQRT3 = np.sqrt(3.0)
_SQRT6 = np.sqrt(6.0)


def degenerate_energy(nuclear_two_l: int) -> float:
    """Energy of the crossing multiplet: -1/(2L+1).

    Equals the diagonal element -1 + 2 L x* of the one-dimensional
    extremal J_z product state |S_z=-1, L_z=-L>, which belongs to the
    crossing cluster.
    """
    return -1.0 / (nuclear_two_l + 1)


@dataclass(frozen=True)
class AnalyticFrame:
    """Raw closed-form vectors (columns, unnormalized) and an orthonormal copy."""

    l_value: int
    theta: float
    phi: float
    raw: np.ndarray
    orthonormal: np.ndarray


def _raw_vectors_l1(theta, phi) -> np.ndarray:
    """Three null-space vectors for L = 1 at x* = 2/3, shape (..., 9, 3)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    c = np.cos(theta)
    csc = 1.0 / np.sin(theta)
    cot = c * csc
    t2 = np.tan(theta / 2)
    sec2 = 1.0 / np.cos(theta / 2)

    def e(n):
        return np.exp(-1j * n * phi)

    zero = np.zeros_like(c, dtype=complex)
    one = np.ones_like(c, dtype=complex)

    v1 = [
        -(2.0 / 9.0) * sec2**4 * e(4),
        (2 * _SQRT2 / 9.0) * csc * (4 * csc**2 - 4 * cot * csc - 3) * e(3),
        (1.0 / 3.0) * (-2 * csc**2 + 2 * cot * csc + 3) * e(2),
        -(8 * _SQRT2 / 9.0) * (c - 1) * csc**3 * e(3),
        (4.0 / 3.0) * (c - 1) * csc**2 * e(2),
        _SQRT2 * t2 * e(1),
        zero,
        zero,
        -one,
    ]
    v2 = [
        (2 * _SQRT2 / 9.0) * csc * (4 * csc**2 - 4 * cot * csc - 3) * e(3),
        -(1.0 / 9.0) * (1 - 3 * c) ** 2 * csc**2 * e(2),
        (2 * _SQRT2 / 3.0) * csc * e(1),
        (4.0 / 9.0) * (3 * c - 1) * csc**2 * e(2),
        -(_SQRT2 / 3.0) * (3 * c - 1) * csc * e(1),
        zero,
        zero,
        -one,
        zero,
    ]
    v3 = [
        (1.0 / 3.0) * (-2 * csc**2 + 2 * cot * csc + 3) * e(2),
        (2 * _SQRT2 / 3.0) * csc * e(1),
        zero,
        -(_SQRT2 / 3.0) * (3 * c + 1) * csc * e(1),
        zero,
        zero,
        -one,
        zero,
        zero,
    ]
    return np.stack([np.stack(v, axis=-1) for v in (v1, v2, v3)], axis=-1)


def _raw_vectors_l2(theta, phi) -> np.ndarray:
    """Five null-space vectors for L = 2 at x* = 2/5, shape (..., 15, 5)."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    c = np.cos(theta)
    c2 = np.cos(2 * theta)
    csc = 1.0 / np.sin(theta)
    cot = c * csc
    t2 = np.tan(theta / 2)
    sech = 1.0 / np.cos(theta / 2)
    csch = 1.0 / np.sin(theta / 2)
    sinh2 = np.sin(theta / 2)

    def e(n):
        return np.exp(-1j * n * phi)

    zero = np.zeros_like(c, dtype=complex)
    one = np.ones_like(c, dtype=complex)

    v1 = [
        -(1536.0 / 625.0) * csc**6 * sinh2**4 * e(6),
        -(6.0 / 625.0) * (5 * c - 3) * csch**3 * sech**5 * e(5),
        (8 * _SQRT6 / 125.0) * csc**2 * (-6 * csc**2 + 6 * cot * csc + 5) * e(4),
        -(1.0 / 25.0) * (5 * c + 1) * csch * sech**3 * e(3),
        (1.0 / 5.0) * (-2 * csc**2 + 2 * cot * csc + 5) * e(2),
        -(384 * _SQRT2 / 625.0) * (c - 1) * csc**5 * e(5),
        (96 * _SQRT2 / 125.0) * (c - 1) * csc**4 * e(4),
        -(16 * _SQRT3 / 25.0) * (c - 1) * csc**3 * e(3),
        (4 * _SQRT2 / 5.0) * (c - 1) * csc**2 * e(2),
        _SQRT2 * t2 * e(1),
        zero, zero, zero, zero,
        -one,
    ]
    v2 = [
        -(6.0 / 625.0) * (5 * c - 3) * csch**3 * sech**5 * e(5),
        -(24.0 / 625.0) * (3 - 5 * c) ** 2 * csc**4 * e(4),
        (_SQRT6 / 125.0) * (-40 * c + 25 * c2 + 31) * csc**3 * e(3),
        (1.0 / 25.0) * (-22 * csc**2 + 10 * cot * csc + 25) * e(2),
        (4.0 / 5.0) * csc * e(1),
        (96 * _SQRT2 / 625.0) * (5 * c - 3) * csc**4 * e(4),
        -(24 * _SQRT2 / 125.0) * (5 * c - 3) * csc**3 * e(3),
        (4 * _SQRT3 / 25.0) * (5 * c - 3) * csc**2 * e(2),
        -(_SQRT2 / 5.0) * (5 * c - 3) * csc * e(1),
        zero, zero, zero, zero,
        -one,
        zero,
    ]
    v3 = [
        (8 * _SQRT6 / 125.0) * csc**2 * (-6 * csc**2 + 6 * cot * csc + 5) * e(4),
        (_SQRT6 / 125.0) * (-40 * c + 25 * c2 + 31) * csc**3 * e(3),
        -(1.0 / 25.0) * (1 - 5 * c) ** 2 * csc**2 * e(2),
        (2 * _SQRT6 / 5.0) * csc * e(1),
        zero,
        -(16 * _SQRT3 / 125.0) * (5 * c - 1) * csc**3 * e(3),
        (4 * _SQRT3 / 25.0) * (5 * c - 1) * csc**2 * e(2),
        -(_SQRT2 / 5.0) * (5 * c - 1) * csc * e(1),
        zero, zero, zero, zero,
        -one,
        zero, zero,
    ]
    v4 = [
        -(1.0 / 25.0) * (5 * c + 1) * csch * sech**3 * e(3),
        (1.0 / 25.0) * (-22 * csc**2 + 10 * cot * csc + 25) * e(2),
        (2 * _SQRT6 / 5.0) * csc * e(1),
        zero,
        zero,
        (4 * _SQRT2 / 25.0) * (5 * c + 1) * csc**2 * e(2),
        -(_SQRT2 / 5.0) * (5 * c + 1) * csc * e(1),
        zero, zero, zero, zero,
        -one,
        zero, zero, zero,
    ]
    v5 = [
        (1.0 / 5.0) * (-2 * csc**2 + 2 * cot * csc + 5) * e(2),
        (4.0 / 5.0) * csc * e(1),
        zero,
        zero,
        zero,
        -(_SQRT2 / 5.0) * (5 * c + 3) * csc * e(1),
        zero, zero, zero, zero,
        -one,
        zero, zero, zero, zero,
    ]
    return np.stack([np.stack(v, axis=-1) for v in (v1, v2, v3, v4, v5)], axis=-1)


def raw_degenerate_vectors(l: int, theta, phi) -> np.ndarray:
    """Closed-form vectors, batched over angle arrays; see analytic_degenerate_states."""
    if l == 1:
        return _raw_vectors_l1(theta, phi)
    if l == 2:
        return _raw_vectors_l2(theta, phi)
    raise ValueError(f"closed-form degenerate bases exist for L in {{1, 2}}, got L={l}")


def gram_schmidt(vectors: np.ndarray) -> np.ndarray:
    """Classical Gram-Schmidt on the columns, in order; spans preserved.

    Batched over any leading axes.  Raises on (near-)linear dependence,
    reporting the offending column.
    """
    v = np.asarray(vectors, dtype=complex)
    out = np.zeros_like(v)
    for k in range(v.shape[-1]):
        w = v[..., k].copy()
        for i in range(k):
            proj = np.einsum("...d,...d->...", out[..., i].conj(), v[..., k])
            w -= out[..., i] * proj[..., None]
        norm = np.linalg.norm(w, axis=-1, keepdims=True)
        scale = np.maximum(1.0, np.linalg.norm(v[..., k], axis=-1, keepdims=True))
        if np.any(norm < 1e-12 * scale):
            raise ValueError(f"column {k} is linearly dependent on its predecessors")
        out[..., k] = w / norm
    return out


def analytic_degenerate_states(l: int, theta: float, phi: float) -> AnalyticFrame:
    """Evaluate the printed closed-form degenerate basis at one point.

    Valid for theta strictly inside (0, pi); the expressions are singular
    at the poles (use numerical frames there).
    """
    if not POLE_MARGIN < theta < np.pi - POLE_MARGIN:
        raise ValueError(f"theta = {theta} is too close to a pole for the closed forms")
    raw = raw_degenerate_vectors(l, theta, phi)
    return AnalyticFrame(l, theta, phi, raw, gram_schmidt(raw))
