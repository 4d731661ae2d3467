"""Geometry and topology of one-dimensional two-band quantum walks.

Coin-walk models and their momentum-space decomposition, gap maps and
Dirac-point searches, Zak phases, Bloch-curve windings, position-space
evolution with a momentum-space oracle, sphere holonomy, and the
quantum geometric tensor, plus a deterministic CLI over all of it.
"""

from .errors import (CurveNotSupportedError, DegeneratePointError,
                     FiniteDifferenceError, GaplessPointError,
                     GridMismatchError, OrthogonalStatesError,
                     QwGeomError)
from .holonomy import (GeometricTensor, SphereCurve, TangentVector,
                       berry_overlap_phase, latitude_loop,
                       parallel_transport, quantum_geometric_tensor,
                       solid_angle, sphere_point, state_distance)
from .models import (NonCommutingWalk, SplitStepWalk, StandardWalk, WalkModel,
                     make_model)
from .spin import (PAULI_X, PAULI_Y, PAULI_Z, band_eigenvector,
                   bloch_sphere_state, rotation_x, rotation_y)
from .topology import (DiracPoint, DiracPointSet, GapMap, find_dirac_points,
                       scan_gap, winding_number)
from .walk import (Distribution, WalkerState, evolve, initial_state,
                   momentum_oracle, probability_distribution, similarity,
                   total_variation, trajectory)
from .zak import (SplitStepZak, ZakMap, ZakResult, discrete_berry_phase,
                  zak_difference, zak_map, zak_noncommuting_integrand,
                  zak_numeric, zak_splitstep_analytic)

__version__ = "0.1.0"

__all__ = [
    "CurveNotSupportedError", "DegeneratePointError", "FiniteDifferenceError",
    "GaplessPointError", "GridMismatchError", "OrthogonalStatesError",
    "QwGeomError", "GeometricTensor", "SphereCurve", "TangentVector",
    "berry_overlap_phase", "latitude_loop", "parallel_transport",
    "quantum_geometric_tensor", "solid_angle", "sphere_point",
    "state_distance", "NonCommutingWalk", "SplitStepWalk", "StandardWalk",
    "WalkModel", "make_model", "PAULI_X", "PAULI_Y", "PAULI_Z",
    "band_eigenvector", "bloch_sphere_state", "rotation_x", "rotation_y",
    "DiracPoint", "DiracPointSet", "GapMap", "find_dirac_points", "scan_gap",
    "winding_number", "Distribution", "WalkerState", "evolve", "initial_state",
    "momentum_oracle", "probability_distribution", "similarity",
    "total_variation", "trajectory", "SplitStepZak", "ZakMap", "ZakResult",
    "discrete_berry_phase", "zak_difference", "zak_map",
    "zak_noncommuting_integrand", "zak_numeric", "zak_splitstep_analytic",
    "__version__",
]
