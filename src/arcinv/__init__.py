"""Exact arc-space invariants of hypersurface singularities.

Everything is computed over the rationals with exact arithmetic: Nash
multiplicity sequences by directed point blow-ups, their rational refinement
through differential weighted presentations, and contact-locus arithmetic
from divisorial resolution data.
"""

from .arcs import (
    Arc,
    Hypersurface,
    MonomialParametrization,
    monomial_arc,
    sample_binomial_arc,
)
from .contact import (
    Extrema,
    MultiIndex,
    ResolutionData,
    delta,
    delta_limit_check,
    dominates,
    fat_components,
    hironaka_order,
    rbar_extrema,
    rbar_of_multiindex,
    sample_multiindices,
    values_bounds,
)
from .errors import (
    BudgetExhausted,
    DocumentError,
    NotInSingularLocus,
    PreconditionError,
)
from .nash import (
    BlowupRecord,
    DirectedBlowupState,
    NashReport,
    blowup_step,
    default_budget,
    init_directed,
    nash_sequence,
    persistance,
)
from .polynomials import Polynomial
from .qpers import (
    LimitCheck,
    QPersistanceResult,
    check_limit_identity,
    q_persistance,
)
from .rees import ReesAlgebra, diff_saturate
from .tseries import TRational

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BlowupRecord",
    "BudgetExhausted",
    "DirectedBlowupState",
    "DocumentError",
    "Extrema",
    "Hypersurface",
    "LimitCheck",
    "MonomialParametrization",
    "MultiIndex",
    "NashReport",
    "NotInSingularLocus",
    "Polynomial",
    "PreconditionError",
    "QPersistanceResult",
    "ReesAlgebra",
    "ResolutionData",
    "TRational",
    "blowup_step",
    "check_limit_identity",
    "default_budget",
    "delta",
    "delta_limit_check",
    "diff_saturate",
    "dominates",
    "fat_components",
    "hironaka_order",
    "init_directed",
    "monomial_arc",
    "nash_sequence",
    "persistance",
    "q_persistance",
    "rbar_extrema",
    "rbar_of_multiindex",
    "sample_binomial_arc",
    "sample_multiindices",
    "values_bounds",
]
