"""The rational refinement of persistance.

The persistance rho of an arc counts blow-ups, so it is an integer; its
rational refinement r is the order of the differential presentation of the
hypersurface pulled back along the arc.  Two identities tie them together:

* rho = floor(r), and
* rho(arc o t^n) = floor(n * r) for every ramification index n, so that
  rho(arc o t^n) / n converges to r with error at most 1/n.

Both identities are checkable here because both sides are computed by
independent routes: rho by running the blow-up engine, r by composing the
differential generators with the arc.  Dividing r by the contact order nu
of the arc gives the normalized invariant r / nu, which only depends on the
divisorial valuation the arc defines and is invariant under ramification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arcs import Arc, Hypersurface
from .errors import BudgetExhausted, PreconditionError
from .nash import default_budget, persistance
from .rees import diff_saturate


@dataclass(frozen=True)
class QPersistanceResult:
    """The rational persistance r, its normalization, and the floor prediction."""

    r: Fraction | float
    r_bar: Fraction | float
    nu: int
    floor_r: int | None

    @property
    def is_finite(self) -> bool:
        return self.r != math.inf


def q_persistance(surface: Hypersurface, arc: Arc) -> QPersistanceResult:
    """Order of the differential presentation along the arc, normalized forms."""
    if not arc.lies_on(surface):
        raise PreconditionError("the arc does not lie on the hypersurface")
    nu = arc.order()
    r = diff_saturate(surface).ord_along_arc(arc)
    if r == math.inf:
        return QPersistanceResult(math.inf, math.inf, nu, None)
    return QPersistanceResult(r, r / nu, nu, math.floor(r))


@dataclass(frozen=True)
class FloorCheck:
    """Comparison of the blow-up count with the floor of the rational invariant.

    ``passed`` is None when the blow-up engine ran out of budget, which is
    inconclusive rather than a refutation.
    """

    passed: bool | None
    rho: int | None
    result: QPersistanceResult
    budget: int


def check_floor_identity(
    surface: Hypersurface, arc: Arc, budget: int | None = None
) -> FloorCheck:
    """Check rho = floor(r) by running both computations."""
    result = q_persistance(surface, arc)
    if not result.is_finite:
        raise PreconditionError(
            "the arc stays in the maximal multiplicity locus; rho is not finite"
        )
    used = budget if budget is not None else default_budget(surface, arc)
    try:
        rho = persistance(surface, arc, budget=used)
    except BudgetExhausted:
        return FloorCheck(None, None, result, used)
    return FloorCheck(rho == result.floor_r, int(rho), result, used)


@dataclass(frozen=True)
class LimitRow:
    n: int
    rho: int | None
    expected: int
    ok: bool | None


@dataclass(frozen=True)
class LimitCheck:
    """Convergence table of rho(arc o t^n) / n toward r."""

    r: Fraction
    rows: tuple[LimitRow, ...]
    passed: bool
    conclusive: bool


def check_limit_identity(
    surface: Hypersurface, arc: Arc, n_max: int, budget: int | None = None
) -> LimitCheck:
    """Check rho(arc o t^n) = floor(n * r) for n = 1, ..., n_max.

    Each row also confirms the convergence bound |rho_n / n - r| <= 1/n.
    Rows where the engine exhausts its budget are inconclusive and make the
    whole check fail conservatively.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be at least 1")
    base = q_persistance(surface, arc)
    if not base.is_finite:
        raise PreconditionError(
            "the arc stays in the maximal multiplicity locus; the limit is not finite"
        )
    rows: list[LimitRow] = []
    for n in range(1, n_max + 1):
        ramified = arc.ramify(n)
        expected = math.floor(n * base.r)
        used = budget if budget is not None else default_budget(surface, ramified)
        try:
            rho_n = int(persistance(surface, ramified, budget=used))
        except BudgetExhausted:
            rows.append(LimitRow(n, None, expected, None))
            continue
        ok = rho_n == expected and abs(Fraction(rho_n, n) - base.r) <= Fraction(1, n)
        rows.append(LimitRow(n, rho_n, expected, ok))
    conclusive = all(row.ok is not None for row in rows)
    passed = conclusive and all(row.ok for row in rows)
    return LimitCheck(Fraction(base.r), tuple(rows), passed, conclusive)
