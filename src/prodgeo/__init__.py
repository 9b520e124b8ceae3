"""Frame-based tensor calculus on Riemannian product manifolds.

Computes the Levi-Civita and natural connections of a left-invariant
almost product instance, all derived curvature objects, and verifies the
curvature, parallel-torsion, Weyl, and conformal-invariance identities
relating them.
"""

__version__ = "0.1.0"

from .conformal import ConformalDeformation, deformed_geometry
from .example import ExampleParams, build_example, golden_tables
from .levicivita import ConnectionCoeffs, LeeForm, levi_civita_coeffs
from .liealg import LieFrameAlgebra
from .natural import NaturalConnection, STensor, TorsionParams, connection_D
from .pipeline import InstanceAnalysis, analyze_instance
from .structure import ProductStructure, RpmInstance
from .tensors import DenseTensor, MetricTensor, invert_metric, tensor_close, trace_contract

__all__ = [
    "ConformalDeformation",
    "ConnectionCoeffs",
    "DenseTensor",
    "ExampleParams",
    "InstanceAnalysis",
    "LeeForm",
    "LieFrameAlgebra",
    "MetricTensor",
    "NaturalConnection",
    "ProductStructure",
    "RpmInstance",
    "STensor",
    "TorsionParams",
    "analyze_instance",
    "build_example",
    "connection_D",
    "deformed_geometry",
    "golden_tables",
    "invert_metric",
    "levi_civita_coeffs",
    "tensor_close",
    "trace_contract",
]
