"""Exact smoothability checks for zero-dimensional ideals of colength <= 8.

A library plus CLI deciding whether such an ideal is a limit of ideals of
distinct points, together with the exact-arithmetic machinery behind the
decision: Groebner bases over Q, F_p, and Q(t), quotient-algebra analysis,
Macaulay duality, Hilbert-scheme tangent spaces, and the rank-12 skew-form
criterion for local algebras with Hilbert function (1,4,3).
"""

from .fields import GF, QQ, QT
from .poly import (GREVLEX, LEX, MonomialOrder, Polynomial, VariableContext,
                   context, parse_ideal_file, parse_polynomial, poly_str,
                   weight_order)
from .groebner import (GroebnerBasis, Ideal, QuotientBasis, buchberger,
                       delta_ratio, ideal_equal, initial_ideal, intersect,
                       linear_syzygies, points_ideal, schreyer_syzygies)
from .linalg import (DenseMatrix, determinant, kernel_basis, mat_rank, rank,
                     minor_gcd_sample, pfaffian, t_adic_minor_valuation)
from .artin import (HilbertFunction, LocalAlgebraModel, centroid,
                    embedding_reduction, enumerate_local_hfs,
                    is_primary_at_origin, local_hilbert_function,
                    multiplication_operators, quotient_model,
                    split_rational_support, translate_ideal)
from .apolarity import apply_operator, ideal_from_inverse_system, perp
from .tangent import (build_tangent_machine, curve_multiplicity,
                      graded_tangent_dimension, tangent_dimension,
                      tangent_report)
from .smooth import (PfaffianReport, SmoothabilityVerdict, change_coordinates,
                     classify_smoothable, project_to_graded,
                     salmon_turnbull_pfaffian)
from .census import census_report
from .scalars import RAT_BACKEND, rat

__version__ = "0.1.0"
