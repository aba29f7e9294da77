"""Exact-arithmetic toolkit for numerical semigroup gluings and monomial curves.

Constructs gluings, decides Cohen-Macaulayness of tangent cones through
local-order standard bases, computes Hilbert functions of associated graded
rings, and mechanically verifies the gluing theorems on families.
"""

from .basis import (BasisResult, buchberger, leading_ideal, mora_weak_nf,
                    standard_basis)
from .gluing import (FamilyTemplate, GluingSpec, VerificationReport,
                     glued_curve, glued_ideal, scan_family, validate_gluing,
                     verify_instance)
from .hilbert import (HilbertData, hilbert_numerator, local_hilbert_function,
                      product_factorization_check)
from .polyalg import (MonomialOrder, Polynomial, degrevlex, ecart, elimination,
                      leading_monomial, least_degree_form, negdegrevlex,
                      parse_polynomial, polynomial_to_str, spoly)
from .semigroup import NumericalSemigroup, Representation, minimal_generators
from .tangentcone import TangentConeReport, tangent_cone
from .toric import (MonomialCurve, as_polynomial, curve, defining_ideal,
                    is_complete_intersection, minimal_generator_count)

__all__ = [
    "BasisResult", "FamilyTemplate", "GluingSpec", "HilbertData",
    "MonomialCurve", "MonomialOrder", "NumericalSemigroup", "Polynomial",
    "Representation", "TangentConeReport", "VerificationReport",
    "as_polynomial", "buchberger", "curve", "defining_ideal", "degrevlex",
    "ecart", "elimination", "glued_curve", "glued_ideal", "hilbert_numerator",
    "is_complete_intersection", "leading_ideal",
    "leading_monomial", "least_degree_form", "local_hilbert_function",
    "minimal_generator_count", "minimal_generators", "mora_weak_nf",
    "negdegrevlex", "parse_polynomial", "polynomial_to_str",
    "product_factorization_check", "scan_family", "spoly", "standard_basis",
    "tangent_cone", "validate_gluing", "verify_instance",
]

__version__ = "0.1.0"
