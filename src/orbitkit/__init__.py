"""orbitkit: controlled flows, l1 flow compositions, bracket chains and
reachability verdicts for families of vector fields on coordinate charts."""

from .space import Ball, ChartSpace, L1Coefficients, ball
from .fields import (FieldFamily, LbRecord, VectorField, constant_field,
                     estimate_lb_bound, eval_jet_norm, polynomial_field)
from .flow import (Control, ExistenceCertificate, FlowResult, FlowWord, flow_control,
                   flow_single, guard)
from .compose import (CompositionResult, L1Curve, compose_flows, compose_inverse, d_psi,
                      extract_l1_curve, gamma_control, psi_chart)
from .algebra import (EnlargedField, StructureReport, bracket_chain,
                      certify_h_prime, enlarge_field, lie_bracket,
                      lie_bracket_via_flows)
from .orbit import (BracketChain, DistributionBasis, InvarianceReport, OrbitSample,
                    SliceGrid, Verdict, accessibility_verdict, distribution_at,
                    invariance_residual, orbit_sample, replay_word, slice_grid,
                    spot_check_sample, trivialization_eval)
from . import catalog, errors

__version__ = "0.1.0"

__all__ = [
    "Ball", "ChartSpace", "L1Coefficients", "ball",
    "FieldFamily", "LbRecord", "VectorField", "constant_field",
    "estimate_lb_bound", "eval_jet_norm", "polynomial_field",
    "Control", "ExistenceCertificate", "FlowResult", "flow_control", "flow_single", "guard",
    "CompositionResult", "L1Curve", "compose_flows", "compose_inverse", "d_psi",
    "extract_l1_curve", "gamma_control", "psi_chart",
    "EnlargedField", "FlowWord", "StructureReport", "bracket_chain",
    "certify_h_prime", "enlarge_field", "lie_bracket", "lie_bracket_via_flows",
    "BracketChain", "DistributionBasis", "InvarianceReport", "OrbitSample",
    "SliceGrid", "Verdict", "accessibility_verdict", "distribution_at",
    "invariance_residual", "orbit_sample", "replay_word", "slice_grid",
    "spot_check_sample", "trivialization_eval",
    "catalog", "errors",
]
