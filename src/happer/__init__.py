"""Spectra, holonomies and Chern numbers of the driven Happer spin model.

An electron spin triplet coupled to a nuclear spin L, driven by a
rotating magnetic field: this package builds the Hamiltonians, tracks
levels through the (2L+1)-fold crossing at x = 2/(2L+1), integrates
Berry and Wilczek-Zee curvatures over the field-direction sphere, and
propagates adiabatic and ramped dynamics.
"""

from .degenerate import (AnalyticFrame, analytic_degenerate_states, degenerate_energy,
                         gram_schmidt)
from .dynamics import (DriveProtocol, RampResult, Trajectory, adiabatic_omega, cone_fit,
                       extract_geometric_phase, geometric_phase_diagnostics,
                       initial_eigenstate, landau_zener_scan, propagate)
from .errors import (AdiabaticityError, HermiticityError, MeshResolutionError,
                     NormDriftError, SubspaceIsolationError, TrackingError)
from .geometry import (ChernResult, CurvatureField, FrameField, chern_number,
                       chern_number_curvature, chern_number_link_variable,
                       chern_spectrum_link_variable, connection_discrete,
                       curvature_discrete, curvature_field, loop_phase,
                       smooth_gauge_states)
from .mesh import SphereMesh
from .model import (FieldDirection, ModelParams, build_hamiltonian, conserved_j,
                    hamiltonian_batch, momentum_hamiltonian, projected_hamiltonian,
                    semimetal_hamiltonian, spin_axis_commutator, spin_axis_operator,
                    zeeman_params)
from .operators import (SpinQuantumNumber, SpinTriple, commutator, require_hermitian,
                        spin_operators)
from .spectrum import (DegeneracyPoint, EigenSystem, LevelTrack, eigensystem,
                       eigensystem_with_j, find_degeneracies, level_positions,
                       track_levels)
from .tolerances import TOL, Tolerances

__version__ = "0.1.0"
