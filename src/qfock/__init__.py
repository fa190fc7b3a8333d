"""Exact computations with deformed Gaussian operators.

The package realizes, at desk scale and in exact arithmetic, the operator
calculus of the q-deformed Fock space: the field operators and their
twisted inner product, the crossing-partition families behind the closed
formulas, the normalized dual system, conjugate variables with Fisher
information, Wick polynomials, free difference quotients with the matching
potential, and float verification of the analytic norm inequalities.
"""

from .dual import (
    FisherReport,
    commutator_residual,
    conjugate_series,
    dual_partition,
    dual_recursive,
    fisher_info,
    fisher_reports,
)
from .fock import FockSpace, FockVector, GramSingularError, TruncationError
from .ncpoly import (
    NCPoly,
    NCTensorPoly,
    conjugate_expansions,
    cyclic_commutator,
    cyclic_derivative,
    diff_partition,
    diff_quotient,
    duality_residual,
    gibbs_gradient_residuals,
    gibbs_potential,
    poly_apply,
    vector_to_poly,
    wick_partition,
    wick_recursive,
)
from .norms import (
    TailReport,
    gram_domination_residual,
    haagerup_residual,
    projected_domination,
    right_annihilation_norm,
    series_tail,
)
from .onevariable import (
    IdentityCheck,
    Poly1,
    cheb,
    hermite,
    moments,
    q_identity_residual,
    rescale_identity_residual,
    trace_cheb,
    trace_cheb_odd,
)
from .partitions import (
    DrawnPartition,
    enumerate_family,
)
from .scalars import (
    FORMAL_Q,
    Deformation,
    QPoly,
    QRat,
    analytic_constants,
    float_eval,
    gauss_binom_coeffs,
    magnitude,
    q_binom,
    q_factorial,
    q_falling,
    q_int,
)

__version__ = "0.1.0"
