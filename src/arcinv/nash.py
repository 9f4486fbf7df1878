"""Nash multiplicity sequences along an arc, by directed point blow-ups.

The construction works on the trivial cylinder over the hypersurface: the
defining polynomial f is viewed in one extra variable s, and the arc is
paired with the identity arc s = t.  Blowing up the origin and following the
lifted arc gives a sequence of local multiplicities

    m_0 >= m_1 >= m_2 >= ...

starting at the multiplicity b of the hypersurface.  The number of steps
until the sequence first drops below m_0 is the persistance of the arc; it
measures for how long the arc stays inside the maximal multiplicity locus of
the successive transforms.

One blow-up step, in coordinates:

* chart: the lifted arc lives in the chart of a component of minimal
  t-order (ties prefer the cylinder variable s, then the lowest index),
* equation: substitute x_j -> x_j * u for every j other than the chart
  variable u and divide by u^m, which is exact because m is the order of the
  transform at the center,
* arc: divide every other component by the chart component; regularity at
  t = 0 is guaranteed by the chart choice,
* recenter: translate coordinates so the lifted arc is centered at the
  origin again, and read the next multiplicity off the recentered equation.

The lifted arc is verified to stay on the transform after every step; any
violation aborts, because it would mean the bookkeeping above lost exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .arcs import Arc, Hypersurface
from .errors import BudgetExhausted, PreconditionError
from .polynomials import Polynomial
from .rees import diff_saturate
from .tseries import TRational

TieBreak = Literal["s_first", "lowest_index"]


@dataclass(frozen=True)
class BlowupRecord:
    """What one blow-up step did: chosen chart, new center, new multiplicity."""

    step: int
    chart: str
    center: tuple[Fraction, ...]
    multiplicity: int


@dataclass(frozen=True)
class DirectedBlowupState:
    """Local equation and lifted arc after some number of directed blow-ups."""

    transform: Polynomial
    lifted: tuple[TRational, ...]
    step: int
    multiplicity: int


@dataclass(frozen=True)
class NashReport:
    """Multiplicity sequence along an arc, with the step-by-step trace."""

    sequence: tuple[int, ...]
    rho: int | None
    infinite: bool
    budget: int
    trace: tuple[BlowupRecord, ...]

    @property
    def status(self) -> str:
        if self.infinite:
            return "infinite"
        if self.rho is not None:
            return "reached"
        return f"not-reached({self.budget})"


def graph_variable(surface: Hypersurface) -> str:
    """A cylinder variable name that does not clash with the ambient ones."""
    name = "s"
    while name in surface.variables:
        name = "_" + name
    return name


def init_directed(surface: Hypersurface, arc: Arc) -> DirectedBlowupState:
    """Pair the arc with s = t on the cylinder and start at multiplicity b.

    The arc must lie on the hypersurface (checked exactly), must not be
    constant, and the origin must be a singular point (b >= 2); at a smooth
    point there is no multiplicity to lose.
    """
    b = surface.multiplicity
    if b < 2:
        raise PreconditionError(f"the origin is a smooth point (multiplicity {b})")
    if not arc.lies_on(surface):
        raise PreconditionError("the arc does not lie on the hypersurface")
    arc.order()  # rejects the constant arc
    transform = surface.f.extend_variables((graph_variable(surface),))
    lifted = arc.components + (TRational.t(),)
    return DirectedBlowupState(transform, lifted, 0, b)


def blowup_step(
    state: DirectedBlowupState, tie_break: TieBreak = "s_first"
) -> tuple[DirectedBlowupState, BlowupRecord]:
    """One directed blow-up: transform the equation, lift and recenter the arc."""
    gamma = state.lifted
    orders = [comp.t_order() for comp in gamma]
    finite = [o for o in orders if o != math.inf]
    if not finite:
        raise PreconditionError("cannot blow up along a constant arc")
    lowest = min(finite)
    candidates = [i for i, o in enumerate(orders) if o == lowest]
    s_index = len(gamma) - 1
    if tie_break == "s_first":
        chart = s_index if s_index in candidates else candidates[0]
    elif tie_break == "lowest_index":
        chart = candidates[0]
    else:
        raise ValueError(f"unknown tie break rule {tie_break!r}")

    m = state.multiplicity
    variables = state.transform.variables
    new_terms: dict[tuple[int, ...], Fraction] = {}
    for exponent, coeff in state.transform.terms.items():
        total = sum(exponent)
        if total < m:
            raise RuntimeError(
                "strict transform division is not exact; multiplicity bookkeeping broke"
            )
        key = exponent[:chart] + (total - m,) + exponent[chart + 1 :]
        assert key not in new_terms
        new_terms[key] = coeff
    transform = Polynomial(variables, new_terms)

    pivot = gamma[chart]
    lifted = tuple(
        comp if i == chart else comp / pivot for i, comp in enumerate(gamma)
    )
    center = tuple(comp.value_at_zero() for comp in lifted)
    if any(center):
        transform = transform.translate(center)
        lifted = tuple(comp - value for comp, value in zip(lifted, center))
    for comp in lifted:
        assert comp.t_order() >= 1, "component not recentered"

    multiplicity = transform.order_at_origin()
    if multiplicity == math.inf or multiplicity < 1:
        raise RuntimeError("recentered transform does not vanish at the new center")
    if transform.compose_order(lifted) != math.inf:
        raise RuntimeError("the lifted arc left the strict transform")
    record = BlowupRecord(state.step + 1, variables[chart], center, int(multiplicity))
    new_state = DirectedBlowupState(transform, lifted, state.step + 1, int(multiplicity))
    return new_state, record


def default_budget(surface: Hypersurface, arc: Arc) -> int:
    """Step budget heuristic: generous for every finite-persistance arc."""
    return 8 * surface.multiplicity * arc.order()


def nash_sequence(
    surface: Hypersurface,
    arc: Arc,
    max_steps: int | None = None,
    tie_break: TieBreak = "s_first",
    stop_at_drop: bool = True,
) -> NashReport:
    """Multiplicity sequence of the directed blow-ups along the arc.

    Stops at the first multiplicity below m_0 (that step index is the
    persistance rho) or when the budget runs out.  Arcs trapped in the
    maximal multiplicity locus never drop; that situation is detected up
    front through the differential presentation and reported as infinite.
    With ``stop_at_drop=False`` the iteration continues past the drop until
    the sequence stabilizes at 1, which is useful for diagnostics.
    """
    state = init_directed(surface, arc)
    if diff_saturate(surface).ord_along_arc(arc) == math.inf:
        return NashReport((state.multiplicity,), None, True, 0, ())
    budget = max_steps if max_steps is not None else default_budget(surface, arc)
    if budget < 1:
        raise PreconditionError("the step budget must be positive")
    m0 = state.multiplicity
    sequence = [m0]
    trace: list[BlowupRecord] = []
    rho: int | None = None
    while state.step < budget:
        state, record = blowup_step(state, tie_break)
        sequence.append(state.multiplicity)
        trace.append(record)
        if rho is None and state.multiplicity < m0:
            rho = state.step
            if stop_at_drop:
                break
        if not stop_at_drop and state.multiplicity == 1:
            break
    return NashReport(tuple(sequence), rho, False, budget, tuple(trace))


def persistance(
    surface: Hypersurface,
    arc: Arc,
    budget: int | None = None,
    tie_break: TieBreak = "s_first",
) -> int | float:
    """Number of blow-ups the arc survives at the initial multiplicity.

    Returns infinity for arcs trapped in the maximal multiplicity locus and
    raises ``BudgetExhausted`` when the drop was not reached in the allowed
    number of steps.
    """
    report = nash_sequence(surface, arc, max_steps=budget, tie_break=tie_break)
    if report.infinite:
        return math.inf
    if report.rho is None:
        raise BudgetExhausted(report.budget, "multiplicity did not drop within budget")
    return report.rho
