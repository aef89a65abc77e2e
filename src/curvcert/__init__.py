"""curvcert: numerical certifier for Bakry-Emery curvature identities
on weighted Riemannian spaces with boundary.

Scalar fields are expressions evaluated through exact order-3 forward
jets; curvature tensors and carre-du-champ operators are assembled over
those jets; weak (measure-valued) identities are verified by
Gauss-Legendre quadrature; curvature-dimension verdicts are sampled
necessary-condition certificates.
"""

from .boundary import (BoundaryError, BoundaryFrame, NeumannTestFunction,
                       boundary_frame, make_neumann, mean_curvature,
                       second_fundamental_form)
from .config import ConfigError, load_config
from .exprlang import EvalError, ParseError, differentiate, parse, to_source
from .fields import ConstField, CutoffField, CutoffSpec, ExprField, ScalarField
from .geometry import (GeometryError, NodeGeometry, WeightedSpace,
                       bakry_emery_ricci, gamma1, gamma2, grad, hessian,
                       hs_norm_sq, ricci, witten_laplacian)
from .jets import Jet, JetDomainError, JetError, JetShapeError
from .quadrature import (BoundaryPatch, QuadratureError, integrate_boundary,
                         integrate_interior)
from .verify import (CheckResult, CurvatureReport, GateError, SamplePlan,
                     Target, certify, check_bochner, check_dimension_term,
                     check_green, check_ii_identity, check_mv_laplacian,
                     check_ricci_decomposition, flatness_report)

__version__ = "0.1.0"

__all__ = [
    "BoundaryError", "BoundaryFrame", "BoundaryPatch", "CheckResult",
    "ConfigError", "ConstField", "CurvatureReport", "CutoffField",
    "CutoffSpec", "EvalError", "ExprField", "GateError", "GeometryError",
    "Jet", "JetDomainError", "JetError", "JetShapeError",
    "NeumannTestFunction", "NodeGeometry", "ParseError", "QuadratureError",
    "SamplePlan", "ScalarField", "Target", "WeightedSpace",
    "bakry_emery_ricci", "boundary_frame", "certify", "check_bochner",
    "check_dimension_term", "check_green", "check_ii_identity",
    "check_mv_laplacian", "check_ricci_decomposition", "differentiate",
    "flatness_report", "gamma1", "gamma2", "grad", "hessian", "hs_norm_sq",
    "integrate_boundary", "integrate_interior", "load_config",
    "make_neumann", "mean_curvature", "parse", "ricci",
    "second_fundamental_form", "to_source", "witten_laplacian",
]
