"""The rational refinement of persistance.

The persistance rho of an arc counts blow-ups, so it is an integer; its
rational refinement r is the order of the differential presentation of the
hypersurface pulled back along the arc.  One identity ties them together:

* rho(arc o t^n) = floor(n * r) for every ramification index n, so that
  rho(arc o t^n) / n converges to r with error at most 1/n; its row n = 1
  is the floor identity rho = floor(r).

It is checkable here because both sides are computed by independent
routes: rho by running the blow-up engine, r by composing the
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
from .nash import default_budget, nash_sequence
from .rees import ReesAlgebra, diff_saturate

# Largest step budget of a limit-identity table, summed over its rows: the
# bundled x2y3z6 arcs (b = 5, nu = 5) at n_max = 400, 8 * 5 * 5 * 80200 steps,
# which take 1.1-2.3 s on a 2-vCPU Xeon VM at one advance per run of blow-ups.
MAX_TABLE_STEPS = 16_040_000


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
    # f pulls back to zero, so the derivatives alone give the order.
    r = ReesAlgebra(diff_saturate(surface).generators[1:]).ord_along_arc(arc)
    if r == math.inf:
        return QPersistanceResult(math.inf, math.inf, nu, None)
    return QPersistanceResult(r, r / nu, nu, math.floor(r))


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

    A row that holds also meets the convergence bound |rho_n / n - r| <= 1/n,
    since 0 <= n*r - floor(n*r) < 1.  Rows where the engine exhausts its
    budget are inconclusive and make the whole check fail conservatively.
    Row n may take ``budget`` steps, or ``default_budget`` of the ramified
    arc, 8*b*nu*n; a table whose row budgets sum to over ``MAX_TABLE_STEPS``
    raises ``BudgetExhausted`` before any row.
    """
    if n_max < 1:
        raise PreconditionError("n_max must be at least 1")
    if budget is not None and budget < 1:
        raise PreconditionError("the step budget must be positive")
    if budget is None:
        steps = default_budget(surface, arc) * n_max * (n_max + 1) // 2
    else:
        steps = budget * n_max
    if steps > MAX_TABLE_STEPS:
        raise BudgetExhausted(
            f"the table up to n_max {n_max} has a step budget of {steps}, "
            f"over {MAX_TABLE_STEPS}",
        )
    base = q_persistance(surface, arc)
    if not base.is_finite:
        raise PreconditionError(
            "the arc stays in the maximal multiplicity locus; the limit is not finite"
        )
    rows: list[LimitRow] = []
    for n in range(1, n_max + 1):
        expected = math.floor(n * base.r)
        rho_n = nash_sequence(surface, arc.ramify(n), max_steps=budget).rho
        ok = None if rho_n is None else rho_n == expected
        rows.append(LimitRow(n, rho_n, expected, ok))
    conclusive = all(row.ok is not None for row in rows)
    passed = conclusive and all(row.ok for row in rows)
    return LimitCheck(Fraction(base.r), tuple(rows), passed, conclusive)
