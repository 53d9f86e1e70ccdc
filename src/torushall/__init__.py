"""Verification suite for multilayer torus quantum Hall states.

Exact coupling-matrix algebra, error-bounded theta evaluation, finite
Heisenberg representations, many-body wave functions, Gram-matrix
verification by quadrature, and exact bundle invariants.  The top level
exports the entry points of the README's library example and of the
benchmark; everything else is reached through its module.
"""

from .bundles import max_pairing_offset, restricted_invariants
from .gram import QuadratureSpec, gram_center, gram_manybody
from .heisenberg import irreducibility_norm, rep_matrices
from .theta import TorusParams
from .wavefunctions import WaveFunctionSpec
from .wen import jain_matrix, pi_group, validate_wen_datum, validate_wen_matrix

__version__ = "0.1.0"

__all__ = [
    "QuadratureSpec",
    "TorusParams",
    "WaveFunctionSpec",
    "gram_center",
    "gram_manybody",
    "irreducibility_norm",
    "jain_matrix",
    "max_pairing_offset",
    "pi_group",
    "rep_matrices",
    "restricted_invariants",
    "validate_wen_datum",
    "validate_wen_matrix",
]
