"""Quotient-space algebra and transient-dynamics analysis for
dimension-varying linear control systems.

The package decides whether a dimension-changing transient between two
state-space models is realizable, builds and validates blended
transient models on the least-common-multiple dimension, and simulates
minimum-energy steered transients end to end.
"""

__version__ = "0.1.0"

from .controllability import (CtrbResult, KalmanDecomp, QuotientCtrb,
                              ctrb_matrix, ctrb_subspace,
                              kalman_decomposition, quotient_ctrb_subspace)
from .mixdim import (MatrixClassRep, MixVector, mat_equivalent,
                     mat_vec_equivalent, reduce_matrix, reduce_matrix_vec,
                     reduce_vector, second_stp, stp_action,
                     stp_action_matrix, stp_identity_action, vec_add,
                     vec_equivalent, vec_sub)
from .numerics import (DEFAULT_TOL, SubspaceBasis, Tolerance,
                       column_space_basis, in_span, j_matrix, kron, mat,
                       ones_vector, parse_scalar, rank, vec)
from .realization import (ModelingReport, RealizationReport, TransientModel,
                          augment_with_zero_dynamics, build_transient_model,
                          check_modeling_condition, check_realization,
                          check_transient, direct_sum_check, embed,
                          embed_subspace)
from .simulation import (RealizationOutcome, Scenario, Trajectory,
                         UnreachableTargetError, export_trajectory,
                         min_energy_control, rk4_integrate,
                         run_transient_scenario)
from .systems import (LinSys, QuotientSysRep, apply_pseudo_transform,
                      lift_system, project_system, systems_equivalent)
