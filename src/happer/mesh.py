"""Discretization of the (theta, phi) parameter sphere into rings of cells."""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.n_theta < 4:
            raise ValueError("n_theta must be at least 4")
        if self.scheme not in ("uniform", "equal-area"):
            raise ValueError(f"unknown mesh scheme {self.scheme!r}")

    @property
    def phi_max(self) -> int:
        return self.n_phi_max if self.n_phi_max is not None else 2 * self.n_theta

    def theta_edges(self) -> np.ndarray:
        return np.linspace(0.0, np.pi, self.n_theta + 1)

    def ring_phi_count(self, ring: int) -> int:
        # Polar floor: a smooth gauge accumulates its full winding near the
        # poles, so per-edge connection phases stay small only if polar
        # rings keep a reasonable phi count.
        if self.scheme == "uniform":
            return self.phi_max
        edges = self.theta_edges()
        mid = 0.5 * (edges[ring] + edges[ring + 1])
        floor = max(16, self.phi_max // 8)
        return int(np.clip(round(self.phi_max * np.sin(mid)), floor, self.phi_max))

    def ring_phis(self, ring: int) -> np.ndarray:
        n = self.ring_phi_count(ring)
        return np.arange(n) * (2 * np.pi / n)

    def ring_solid_angle(self, ring: int) -> np.ndarray:
        """Per-cell solid angles of one ring."""
        edges = self.theta_edges()
        band = np.cos(edges[ring]) - np.cos(edges[ring + 1])
        n = self.ring_phi_count(ring)
        return np.full(n, band * 2 * np.pi / n)

    def cap_solid_angle(self, ring: int) -> float:
        """Solid angle of the polar cap north of ring's top edge."""
        return float(2 * np.pi * (1 - np.cos(self.theta_edges()[ring])))
