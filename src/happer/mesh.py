"""Discretization of the (theta, phi) parameter sphere into rings of cells."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np


@dataclass(frozen=True)
class SphereMesh:
    """Rings of plaquettes tiling theta in [0, pi], phi periodic in [0, 2pi).

    The 'uniform' scheme uses the same phi count on every ring; the
    'equal-area' scheme scales the per-ring phi count with sin(theta) so
    cell solid angles stay comparable (coarse near the poles, fine near
    the equator).
    """

    n_theta: int = 200
    n_phi_max: int | None = None
    scheme: str = "equal-area"

    def __post_init__(self) -> None:
        for name, count in (("n_theta", self.n_theta), ("n_phi_max", self.n_phi_max)):
            if name == "n_phi_max" and count is None:
                continue  # the default, 2 n_theta
            if not isinstance(count, Integral) or count < 4:
                raise ValueError(f"{name} must be an integer of at least 4, got {count!r}")
        if self.scheme not in ("uniform", "equal-area"):
            raise ValueError(f"unknown mesh scheme {self.scheme!r}")

    @property
    def phi_max(self) -> int:
        return self.n_phi_max if self.n_phi_max is not None else 2 * self.n_theta

    def theta_edges(self) -> np.ndarray:
        return np.linspace(0.0, np.pi, self.n_theta + 1)

    @cached_property
    def _rings(self) -> tuple[np.ndarray, np.ndarray]:
        """Theta edges and per-ring phi counts, computed once per mesh (read-only)."""
        edges = self.theta_edges()
        if self.scheme == "uniform":
            counts = np.full(self.n_theta, self.phi_max)
        else:
            # Polar floor: a smooth gauge accumulates its full winding near
            # the poles, so per-edge connection phases stay small only if
            # polar rings keep a reasonable phi count.  np.rint rounds half
            # to even, as round does.
            mid = 0.5 * (edges[:-1] + edges[1:])
            floor = max(16, self.phi_max // 8)
            counts = np.clip(np.rint(self.phi_max * np.sin(mid)), floor, self.phi_max).astype(int)
        edges.flags.writeable = counts.flags.writeable = False
        return edges, counts

    def ring_phi_count(self, ring: int) -> int:
        return int(self._rings[1][ring])

    def ring_phis(self, ring: int) -> np.ndarray:
        n = self.ring_phi_count(ring)
        return np.arange(n) * (2 * np.pi / n)

    def ring_solid_angle(self, ring: int) -> np.ndarray:
        """Per-cell solid angles of one ring."""
        edges = self._rings[0]
        band = np.cos(edges[ring]) - np.cos(edges[ring + 1])
        n = self.ring_phi_count(ring)
        return np.full(n, band * 2 * np.pi / n)
