"""Frame-based tensor calculus on Riemannian product manifolds.

Computes the Levi-Civita and natural connections of a left-invariant
almost product instance, all derived curvature objects, and verifies the
curvature, parallel-torsion, Weyl, and conformal-invariance identities
relating them.
"""

__version__ = "0.1.0"

from .conformal import deformed_geometry
from .example import ExampleParams, build_example, golden_tables
from .levicivita import LeeForm, levi_civita_coeffs
from .liealg import LieFrameAlgebra
from .natural import NaturalConnection, STensor
from .pipeline import InstanceAnalysis, analyze_instance
from .structure import RpmInstance
from .tensors import invert_metric

__all__ = [
    "ExampleParams",
    "InstanceAnalysis",
    "LeeForm",
    "LieFrameAlgebra",
    "NaturalConnection",
    "RpmInstance",
    "STensor",
    "analyze_instance",
    "build_example",
    "deformed_geometry",
    "golden_tables",
    "invert_metric",
    "levi_civita_coeffs",
]
