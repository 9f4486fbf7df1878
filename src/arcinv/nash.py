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
  t-order (ties: s under ``s_first``, else the lowest index),
* equation: substitute x_j -> x_j * u for every j other than the chart
  variable u and divide by u^m, i.e. map each exponent e to e' with
  e'_u = |e| - m; exact and strict, as ``_advance`` refuses a transform
  whose order at the origin is not m (below m, or raised by a translate),
* arc: divide every other component by the chart component; regularity at
  t = 0 is guaranteed by the chart choice,
* center: the lifted arc delta now passes through c = delta(0), and the
  next multiplicity is the order of the transform G at c, the least |alpha|
  with d^alpha G(c) != 0 by Taylor's formula, read from G and c
  (``Polynomial.order_at``, which shares only the size cap with
  ``translate``),
* recenter: translate coordinates, F = G(x + c) along gamma = delta - c, so
  the lifted arc is centered at the origin again.

The tie-break only picks the chart u, of order o_u.  K center-0 steps in
chart u at multiplicity m map e_u to e_u + K(a - m), a = |e| - e_u, and
divide the other components by gamma_u^K (by t^K under ``s_first``, where
u = s stays t).  ``_advance`` takes them as one run, K the least of the
steps left, floor((o_j - 1)/o_u) over the other components of finite order
(then the center moves) and floor((a + b - m)/(m - a)) + 1 over terms with
a < m, b = e_u (then the multiplicity drops).  As K o_u < o_j, after k < K
steps o_j - k o_u > o_u for all j: the center is 0 and any tie-break keeps
u.  Each earlier step reads m, as single steps would: no term has degree
< m, and if K > 1 the terms of degree m have a = m, b = 0 and keep it.

``blowup_step`` is a run up to its new center (``_advance``, ending with G,
delta and c) followed by the recentering (``_recenter``).  ``nash_sequence``
recenters only when another run follows, so it builds no translate after the
last run, and checks exactly, by a full pullback, that G(delta) = 0 after
each run with a nonzero center and after the last run.  That proves the
lifted arc stays on every transform, the translates included, and assumes
nothing of ``translate``.  A run of K steps in chart u maps x^e to x^e'
with delta^e' = gamma^e / gamma_u^(K m), so whatever F it starts from,

    F_k(gamma_k) = gamma_u^(K m) G_(k+1)(delta_(k+1)),  gamma_u != 0,

and a check of G(delta) proves the F and gamma the run started from.  The
runs between two checks have center 0, so their F = G and gamma = delta,
and the chain back from a check reaches the translate built after the
check before it (or the arc on f, proved by ``init_directed``).  Every
translate is followed by a check, since the last run is checked.

An arc is trapped in the maximal multiplicity locus, and never drops, iff
every partial of f of order 1 to b - 1 pulls back to zero along it: the
differential presentation less f (``rees.diff_saturate``) has infinite order
along the arc.  ``nash_sequence`` first pulls back the first partials d_j f,
one ``compose_order`` each.  A nonzero d_j f is a nonzero scalar multiple of
a weight-(b - 1) generator of that presentation, so if one pulls back to a
nonzero series the order is finite and the arc is not trapped.  Only when
every d_j f pulls back to zero is the order of the whole presentation read,
by ``rees.diff_order``, which builds none of it.  With P "every d_j f pulls
back to zero" and Q "the presentation has infinite order along the arc", Q
implies P, so P and Q is the same predicate as Q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Literal

from .arcs import Arc, Hypersurface
from .errors import BudgetExhausted, PreconditionError
from .polynomials import Polynomial
from .rees import diff_order
from .tseries import TRational

TieBreak = Literal["s_first", "lowest_index"]


@dataclass(frozen=True)
class BlowupRecord:
    """Chart, center and multiplicity after a step, or after a run of ``length`` steps."""

    step: int
    chart: str
    center: tuple[Fraction, ...]
    multiplicity: int
    length: int = 1


@dataclass(frozen=True)
class DirectedBlowupState:
    """Local equation and lifted arc after some number of directed blow-ups."""

    transform: Polynomial
    lifted: tuple[TRational, ...]
    step: int
    multiplicity: int


@dataclass(frozen=True)
class NashReport:
    """Multiplicity sequence along an arc from m0, stored as runs of blow-ups."""

    m0: int
    rho: int | None
    infinite: bool
    budget: int
    runs: tuple[BlowupRecord, ...]

    @property
    def sequence(self) -> tuple[int, ...]:
        sequence = [self.m0]
        for run in self.runs:
            sequence += [sequence[-1]] * (run.length - 1) + [run.multiplicity]
        return tuple(sequence)

    @property
    def trace(self) -> tuple[BlowupRecord, ...]:
        """One record per step, built on each read; a run's earlier steps keep center 0 and m."""
        sequence, records = self.sequence, []
        for run in self.runs:
            zero = (Fraction(0),) * len(run.center)
            records += [
                BlowupRecord(k, run.chart, run.center if k == run.step else zero, sequence[k])
                for k in range(run.step - run.length + 1, run.step + 1)
            ]
        return tuple(records)

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


def _check_tie_break(tie_break: str) -> None:
    if tie_break not in ("s_first", "lowest_index"):
        raise ValueError(f"unknown tie break rule {tie_break!r}")


def _advance(
    state: DirectedBlowupState, tie_break: TieBreak, steps: int
) -> tuple[DirectedBlowupState, BlowupRecord]:
    """A run of directed blow-ups, up to the new center and not past it.

    A run of at most ``steps`` blow-ups in the chart the tie-break picks
    (module docstring), ending with the transform G and the lifted arc
    delta, which passes through the record's center c = delta(0): the
    multiplicity there is read from Taylor coefficients (``order_at``).
    """
    gamma = state.lifted
    orders = [comp.t_order() for comp in gamma]
    lowest = min(orders)
    if lowest == math.inf:
        raise PreconditionError("cannot blow up along a constant arc")
    _check_tie_break(tie_break)
    chart = (len(gamma) - 1 if tie_break == "s_first" and orders[-1] == lowest
             else orders.index(lowest))

    m = state.multiplicity
    variables = state.transform.variables
    order = state.transform.order_at_origin()
    if order != m:
        raise RuntimeError(
            f"order {order} is not the multiplicity {m}: strict transform division is not exact"
        )
    others = orders[:chart] + orders[chart + 1 :]
    bounds = [steps] + [(o - 1) // lowest for o in others if o != math.inf]
    for e in state.transform.integer_form[0]:
        if (a := sum(e) - e[chart]) < m:
            bounds.append((sum(e) - m) // (m - a) + 1)
    k = max(1, min(bounds))
    transform = state.transform._map_exponents(
        lambda e: e[:chart] + (e[chart] + k * (sum(e) - e[chart] - m),) + e[chart + 1 :]
    )

    pivot = gamma[chart] if k == 1 else gamma[chart] ** k
    lifted = tuple(
        comp if i == chart else comp / pivot for i, comp in enumerate(gamma)
    )
    center = tuple(comp.value_at_zero() for comp in lifted)
    multiplicity = transform.order_at(center) if any(center) else transform.order_at_origin()
    if multiplicity == math.inf or multiplicity < 1:
        raise RuntimeError("recentered transform does not vanish at the new center")
    step = state.step + k
    record = BlowupRecord(step, variables[chart], center, int(multiplicity), k)
    return DirectedBlowupState(transform, lifted, step, int(multiplicity)), record


def _recenter(state: DirectedBlowupState, center: tuple[Fraction, ...]) -> DirectedBlowupState:
    """Move the center to the origin: F = G(x + c) along gamma = delta - c."""
    if not any(center):
        return state
    transform = state.transform.translate(center)
    lifted = tuple(comp - value for comp, value in zip(state.lifted, center))
    return DirectedBlowupState(transform, lifted, state.step, state.multiplicity)


def blowup_step(
    state: DirectedBlowupState, tie_break: TieBreak = "s_first", steps: int = 1
) -> tuple[DirectedBlowupState, BlowupRecord]:
    """Directed blow-ups: transform the equation, lift and recenter the arc.

    A run of at most ``steps`` blow-ups (``_advance``), recentered at once
    (``_recenter``).  It leaves the membership check to its caller.
    """
    advanced, record = _advance(state, tie_break, steps)
    return _recenter(advanced, record.center), record


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
    front and reported as infinite: a first partial of f that pulls back to
    a nonzero series settles that the arc is not trapped, and only when all
    of them pull back to zero does the order of the differential presentation
    (``rees.diff_order``) decide; the predicate is the same (module
    docstring).  With ``stop_at_drop=False`` the iteration continues past
    the drop until the sequence stabilizes at 1, which is useful for
    diagnostics.  Membership is checked after
    each run that moves the center, before its translate, and at the end
    (module docstring).
    """
    _check_tie_break(tie_break)
    if max_steps is not None and max_steps < 1:
        raise PreconditionError("the step budget must be positive")
    state = init_directed(surface, arc)
    budget = max_steps if max_steps is not None else default_budget(surface, arc)
    # f pulls back to zero, so the derivatives alone decide an infinite order;
    # a first partial with a nonzero pullback already proves it finite.
    f, gamma = surface.f, arc.components
    firsts = (f.partial_derivative(j).compose_order(gamma) for j in range(len(gamma)))
    if all(order == math.inf for order in firsts) and diff_order(surface, arc) == math.inf:
        return NashReport(state.multiplicity, None, True, budget, ())
    m0 = state.multiplicity
    runs: list[BlowupRecord] = []
    rho: int | None = None
    while True:
        # A run ends at the step where the multiplicity changes, so the drop
        # below m0 and the first multiplicity 1 are both at its last step.
        state, run = _advance(state, tie_break, budget - state.step)
        runs.append(run)
        if rho is None and state.multiplicity < m0:
            rho = state.step
        stop = rho is not None if stop_at_drop else state.multiplicity == 1
        done = stop or state.step >= budget
        if (done or any(run.center)) and (
            state.transform.compose_order(state.lifted) != math.inf
        ):
            raise RuntimeError("the lifted arc left the strict transform")
        if done:
            break
        state = _recenter(state, run.center)
    return NashReport(m0, rho, False, budget, tuple(runs))


def persistance(surface: Hypersurface, arc: Arc) -> int | float:
    """Number of blow-ups the arc survives at the initial multiplicity.

    Returns infinity for arcs trapped in the maximal multiplicity locus and
    raises ``BudgetExhausted`` when the drop was not reached within
    ``default_budget`` steps.
    """
    report = nash_sequence(surface, arc)
    if report.infinite:
        return math.inf
    if report.rho is None:
        raise BudgetExhausted("multiplicity did not drop within budget")
    return report.rho
