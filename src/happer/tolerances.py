"""Central numerical tolerances, shared by every module.

All energies are dimensionless (Zeeman units); tolerances are absolute
unless noted otherwise.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    hermiticity: float = 1e-12        # entrywise |M - M^dag|
    unit_vector: float = 1e-12        # | |v| - 1 |
    eigen_residual: float = 1e-10     # |H v - E v| per eigenpair
    orthonormality: float = 1e-10     # |<v_m|v_n> - delta_mn|
    degeneracy_gap: float = 1e-9      # cluster spread at an exact crossing
    subspace_isolation: float = 1e-6  # minimum gap to the complement of a band set
    chern_integer: float = 0.05       # allowed deviation from the quantized value
    plaquette_angle: float = 1.5707963267948966  # pi/2: largest |plaquette phase|, link scheme
    norm_drift: float = 1e-8          # state norm drift during propagation
    adiabatic_fidelity: float = 0.99  # instantaneous-eigenstate fidelity floor


TOL = Tolerances()
