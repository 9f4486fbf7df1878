"""Directed blow-up engine and the multiplicity sequence."""

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arcinv.nash
from arcinv.arcs import Arc, Hypersurface, monomial_arc, sample_binomial_arc
from arcinv.errors import BudgetExhausted, PreconditionError
from arcinv.nash import (
    DirectedBlowupState,
    default_budget,
    graph_variable,
    init_directed,
    blowup_step,
    nash_sequence,
    persistance,
)
from arcinv.polynomials import Polynomial
from arcinv.qpers import q_persistance
from arcinv.rees import ReesAlgebra, diff_order, diff_saturate
from arcinv.tseries import TRational
from arcinv.verify import corpus, sampled_arc, x2y3z6_parametrization, x2y3z6_surface
from test_tseries import plus, times

XYZ = ("x", "y", "z")
QUINTIC = Hypersurface(Polynomial(XYZ, {(2, 3, 0): 1, (0, 0, 6): -1}))
CUSP = Hypersurface(Polynomial(("x", "y"), {(2, 0): 1, (0, 3): -1}))
NODE = Hypersurface(Polynomial(("x", "y"), {(1, 1): 1}))
DOUBLE_PLANE = Hypersurface(Polynomial(("x", "y"), {(2, 0): 1}))


def test_corpus_sequences_frozen():
    assert nash_sequence(CUSP, monomial_arc((3, 2))).sequence == (2, 2, 2, 1)
    assert nash_sequence(NODE, monomial_arc((1, None))).sequence == (2, 1)
    assert nash_sequence(QUINTIC, monomial_arc((3, 2, 2))).sequence == (5, 5, 2)
    assert nash_sequence(QUINTIC, monomial_arc((6, 6, 5))).sequence == (
        5, 5, 5, 5, 5, 5, 1,
    )


def test_sequences_run_to_stabilization():
    full = nash_sequence(QUINTIC, monomial_arc((3, 2, 2)), stop_at_drop=False)
    assert full.sequence == (5, 5, 2, 1)
    assert full.sequence[-1] == 1


def test_persistance_frozen():
    assert persistance(CUSP, monomial_arc((3, 2))) == 3
    assert persistance(NODE, monomial_arc((1, None))) == 1
    assert persistance(QUINTIC, monomial_arc((3, 2, 2))) == 2
    assert persistance(QUINTIC, monomial_arc((6, 6, 5))) == 6


def test_persistance_under_ramification():
    base = monomial_arc((3, 2, 2))
    got = [persistance(QUINTIC, base.ramify(n)) for n in range(1, 7)]
    assert got == [2, 4, 6, 8, 10, 12]


def test_trapped_arc_reports_infinite_persistance():
    arc = Arc([TRational.zero(), TRational.t()])
    report = nash_sequence(DOUBLE_PLANE, arc)
    assert report.infinite
    assert report.rho is None
    assert report.status == "infinite"
    assert report.budget == default_budget(DOUBLE_PLANE, arc) == 16
    assert nash_sequence(DOUBLE_PLANE, arc, max_steps=7).budget == 7
    assert persistance(DOUBLE_PLANE, arc) == math.inf


def test_an_arc_killing_every_first_partial_is_decided_by_the_presentation():
    """(0, t, 0) is in the singular locus of QUINTIC, but d^2f/dx^2 = 2y^3 pulls back to 2t^3."""
    arc = monomial_arc((None, 1, None))
    for j in range(3):
        assert QUINTIC.f.partial_derivative(j).compose_order(arc.components) == math.inf
    report = nash_sequence(QUINTIC, arc)
    assert not report.infinite
    assert (report.rho, report.sequence) == (1, (5, 2))


def test_a_nonvanishing_first_partial_skips_the_presentation(monkeypatch):
    calls = []
    derive = Polynomial.partial_derivative

    def counting(self, var):
        calls.append(var)
        return derive(self, var)

    monkeypatch.setattr(Polynomial, "partial_derivative", counting)
    report = nash_sequence(QUINTIC, monomial_arc((3, 2, 2)))
    assert report.sequence == (5, 5, 2)
    assert len(calls) <= len(QUINTIC.variables)


def test_budget_exhaustion(monkeypatch):
    report = nash_sequence(QUINTIC, monomial_arc((6, 6, 5)), max_steps=2)
    assert report.rho is None
    assert not report.infinite
    assert report.status == "not-reached(2)"
    monkeypatch.setattr(arcinv.nash, "default_budget", lambda surface, arc: 2)
    with pytest.raises(BudgetExhausted):
        persistance(QUINTIC, monomial_arc((6, 6, 5)))


@pytest.mark.parametrize("max_steps", [0, -3])
def test_a_budget_below_one_is_refused_before_any_work(max_steps, monkeypatch):
    trapped = Arc([TRational.zero(), TRational.t()])
    with pytest.raises(PreconditionError, match="the step budget must be positive"):
        nash_sequence(DOUBLE_PLANE, trapped, max_steps=max_steps)

    def no_work(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(arcinv.nash, "init_directed", no_work)
    with pytest.raises(PreconditionError, match="the step budget must be positive"):
        nash_sequence(QUINTIC, monomial_arc((6, 6, 5)), max_steps=max_steps)


def test_default_budget_is_generous():
    arc = monomial_arc((6, 6, 5))
    assert default_budget(QUINTIC, arc) >= 8 * 5


def test_arc_must_lie_on_the_surface():
    with pytest.raises(PreconditionError):
        init_directed(QUINTIC, monomial_arc((1, 1, 1)))


def test_smooth_points_are_rejected():
    smooth = Hypersurface(Polynomial(("x", "y"), {(1, 0): 1, (0, 2): -1}))
    with pytest.raises(PreconditionError):
        init_directed(smooth, monomial_arc((2, 1)))


def test_graph_variable_avoids_clashes():
    assert graph_variable(QUINTIC) == "s"
    with_s = Hypersurface(Polynomial(("s", "y"), {(2, 0): 1, (0, 3): -1}))
    assert graph_variable(with_s) == "_s"


def test_trace_records_one_entry_per_blowup():
    report = nash_sequence(CUSP, monomial_arc((3, 2)))
    assert [r.multiplicity for r in report.trace] == list(report.sequence[1:])
    assert [r.step for r in report.trace] == [1, 2, 3]
    assert all(r.chart == "s" for r in report.trace)


def test_equation_vanishes_along_the_lifted_arc_at_every_step():
    state = init_directed(QUINTIC, monomial_arc((6, 6, 5)))
    for _ in range(8):
        assert state.transform.compose_order(state.lifted) == math.inf
        if state.multiplicity == 1:
            break
        state, _ = blowup_step(state)


def test_tiebreak_does_not_change_the_sequence():
    for surface, powers in [
        (CUSP, (3, 2)),
        (QUINTIC, (3, 2, 2)),
        (QUINTIC, (6, 6, 5)),
    ]:
        arc = monomial_arc(powers)
        first = nash_sequence(surface, arc, tie_break="s_first")
        lowest = nash_sequence(surface, arc, tie_break="lowest_index")
        assert first.sequence == lowest.sequence


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kind", [(1, 2), (1, 3)], ids=["1-2", "1-3"])
def test_lowest_index_reaches_the_large_transforms(kind, seed):
    """The lowest_index tie-break on types whose transforms grow to hundreds of terms."""
    arc = sampled_arc(*kind, seed)
    lowest = nash_sequence(QUINTIC, arc, tie_break="lowest_index")
    assert lowest.sequence == nash_sequence(QUINTIC, arc, tie_break="s_first").sequence
    assert lowest.rho == math.floor(q_persistance(QUINTIC, arc).r)


def test_unknown_tiebreak_rejected():
    with pytest.raises(ValueError):
        nash_sequence(CUSP, monomial_arc((3, 2)), tie_break="alphabetical")


def test_unknown_tiebreak_rejected_on_a_trapped_arc_too():
    """The rule is checked on entry, not at the first blow-up a trapped arc never takes."""
    with pytest.raises(ValueError, match="unknown tie break rule 'bogus'"):
        nash_sequence(DOUBLE_PLANE, monomial_arc((None, 1)), tie_break="bogus")


def _on_quintic(u, v):
    """The arc (u^3, v^2, u v) on QUINTIC, for u, v given by coefficient lists."""
    return x2y3z6_parametrization().arc([dict(enumerate(c)) for c in (u, v)])


# x y^3 - z^3 with x = u^3, y = v, z = u v.  Its sampled arcs have r = 3/2 or
# 9/2, so under ramification some drops fall inside a run of center-0 steps.
XY3 = Hypersurface(Polynomial(XYZ, {(1, 3, 0): 1, (0, 0, 3): -1}))
XY3_ROWS = [(3, 0, 1), (0, 1, 1)]


# Arcs on the file's surfaces from two series u, v, either of which may be
# drawn zero: parametrizations, and coordinate lines inside the surfaces.
# DOUBLE_PLANE's line and XY3's x-axis are trapped; QUINTIC's lines kill
# every first partial but not the presentation.
ZERO = TRational.zero()
ARC_FAMILIES = [
    (CUSP, lambda u, v: (u**3, u**2)),
    (NODE, lambda u, v: (u, ZERO)),
    (NODE, lambda u, v: (ZERO, v)),
    (DOUBLE_PLANE, lambda u, v: (ZERO, u)),
    (QUINTIC, lambda u, v: (u**3, v**2, u * v)),
    (QUINTIC, lambda u, v: (ZERO, u, ZERO)),
    (QUINTIC, lambda u, v: (u, ZERO, ZERO)),
    (XY3, lambda u, v: (u**3, v, u * v)),
    (XY3, lambda u, v: (u, ZERO, ZERO)),
    (XY3, lambda u, v: (ZERO, u, ZERO)),
]

series = st.one_of(
    st.just(ZERO),
    st.builds(
        lambda order, coeffs, c: TRational(
            {order + k: a for k, a in enumerate(coeffs)}, {0: 1, 1: c}
        ),
        st.integers(1, 2),
        st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(lambda cs: cs[0]),
        st.integers(-2, 2),
    ),
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(ARC_FAMILIES), series, series)
def test_first_partials_decide_trapped_arcs_as_the_presentation_does(family, u, v):
    surface, components = family
    arc = Arc(components(u, v))
    assume(any(arc.components))
    assert arc.lies_on(surface)
    derivatives = ReesAlgebra(diff_saturate(surface).generators[1:])
    assert nash_sequence(surface, arc).infinite == (derivatives.ord_along_arc(arc) == math.inf)


STEP_IDENTITY_ARCS = [
    (f"({a},{b}) n={n}", x2y3z6_surface(), sampled_arc(a, b, 0).ramify(n))
    for a, b in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]
    for n in (1, 2, 3)
] + corpus()


@pytest.mark.parametrize("name,surface,arc", STEP_IDENTITY_ARCS,
                         ids=[case[0] for case in STEP_IDENTITY_ARCS])
def test_r_drops_by_one_per_s_first_blowup(name, surface, arc):
    """At step k below the drop, the order of (F_k, gamma_k) is r - k, by both routes."""
    r = q_persistance(surface, arc).r
    state = init_directed(surface, arc)
    while state.multiplicity == surface.multiplicity:
        transform, lifted = Hypersurface(state.transform), Arc(state.lifted)
        order = diff_order(transform, lifted)
        assert order == r - state.step
        assert order == ReesAlgebra(diff_saturate(transform).generators[1:]).ord_along_arc(lifted)
        state, _ = blowup_step(state)
    assert state.step == math.floor(r)


# Arcs whose runs mix center-0 and translating steps in s and coordinate
# charts; small coefficients keep the perturbed pullbacks cheap.  The last
# one takes a run of two steps in the y chart under ``lowest_index``.
ARCS_ON_SURFACES = [
    (CUSP, monomial_arc((3, 2))),
    (NODE, monomial_arc((1, None))),
    (QUINTIC, monomial_arc((3, 2, 2))),
    (QUINTIC, monomial_arc((6, 6, 5))),
    (QUINTIC, _on_quintic([0, 0, 1, 1], [0, 0, 0, 1, -2])),
    (QUINTIC, _on_quintic([0, 1, 1], [0, 1, -2])),
    (QUINTIC, _on_quintic([0, 1, 1], [0, 0, 1, -2])),
    (XY3, sample_binomial_arc(XY3, XY3_ROWS, (1, 1), 0).ramify(4)),
]


@st.composite
def perturbed_states(draw):
    """A state whose arc gamma + t^N delta misses the surface at order >= N."""
    surface, arc = draw(st.sampled_from(ARCS_ON_SURFACES))
    n = draw(st.integers(2, 10))
    deltas = [
        {n + k: c for k, c in enumerate(draw(st.lists(st.integers(-3, 3), max_size=2)))}
        for _ in arc.components
    ]
    # gamma + t^N delta = (num + t^N delta den) / den for gamma = num / den.
    lifted = tuple(
        TRational(plus(comp.num, times(delta, comp.den)), comp.den)
        for comp, delta in zip(arc.components, deltas)
    ) + (TRational.t(),)
    transform = surface.f.extend_variables((graph_variable(surface),))
    return DirectedBlowupState(transform, lifted, 0, surface.multiplicity), n


@settings(max_examples=50, deadline=None)
@given(perturbed_states(), st.sampled_from(["s_first", "lowest_index"]))
def test_each_step_divides_the_pullback_by_the_chart_component(case, tie_break):
    """F'(gamma') * gamma_u^m == F(gamma) exactly, also where F(gamma) != 0.

    This identity is what lets ``nash_sequence`` skip the membership check
    on center-0 steps, so it is tested on arcs that are not on the surface.
    """
    state, n = case
    pullback = state.transform.compose(state.lifted)
    assume(not pullback.is_zero)
    assert pullback.t_order() >= n
    while state.multiplicity > 1:
        try:
            after, record = blowup_step(state, tie_break)
        except RuntimeError:  # the new center is off the transform
            break
        pivot = state.lifted[state.transform.variables.index(record.chart)]
        after_pullback = after.transform.compose(after.lifted)
        assert after_pullback * pivot**state.multiplicity == pullback
        state, pullback = after, after_pullback


@settings(max_examples=50, deadline=None)
@given(perturbed_states(), st.sampled_from(["s_first", "lowest_index"]), st.integers(1, 40))
def test_each_run_divides_the_pullback_by_the_chart_component(case, tie_break, steps):
    """F(gamma) == gamma_u^(K m) * F'(gamma') for a run of K steps at multiplicity m.

    gamma_u is the chart component before the run; under ``s_first`` it is
    s = t.  This is the identity above for K steps at once, in any chart; it
    is what lets a whole run go unchecked.
    """
    state, _ = case
    pullback = state.transform.compose(state.lifted)
    assume(not pullback.is_zero)
    while state.multiplicity > 1:
        try:
            after, run = blowup_step(state, tie_break, steps)
        except RuntimeError:  # the new center is off the transform
            break
        assert run.length <= steps and after.step == state.step + run.length
        pivot = state.lifted[state.transform.variables.index(run.chart)]
        after_pullback = after.transform.compose(after.lifted)
        assert after_pullback * pivot ** (run.length * state.multiplicity) == pullback
        state, pullback = after, after_pullback


def stepwise(surface, arc, max_steps, tie_break, stop_at_drop):
    """The oracle: the engine's loop with one blow-up per advance.

    Returns the sequence, trace, rho and budget that ``nash_sequence`` must
    report, and checks membership after every step, not once per run.
    """
    state = init_directed(surface, arc)
    budget = max_steps if max_steps is not None else default_budget(surface, arc)
    sequence, trace, rho = [state.multiplicity], [], None
    while True:
        state, record = blowup_step(state, tie_break)
        assert state.transform.compose_order(state.lifted) == math.inf
        sequence.append(state.multiplicity)
        trace.append(record)
        if rho is None and state.multiplicity < sequence[0]:
            rho = state.step
        stop = rho is not None if stop_at_drop else state.multiplicity == 1
        if stop or state.step >= budget:
            return tuple(sequence), tuple(trace), rho, budget


@st.composite
def engine_runs(draw):
    """A surface and the arguments of ``nash_sequence`` on a sampled arc, ramified.

    ``lowest_index`` takes runs in coordinate charts, which x y^3 - z^3 arcs
    reach when ramified by n = 4.  Its transforms grow fast with n and past
    the drop (0.6-1.2 s per quintic arc of type (2, 1), and per x y^3 - z^3
    arc of orders (2, 3) 0.2 s at n = 3 and 1 s at n = 4, on a 2-core
    host), so it is drawn on unramified quintic arcs of the smaller types
    and on x y^3 - z^3 arcs at n <= 4, with orders (2, 3) at n <= 2 only.
    """
    tie_break = draw(st.sampled_from(["s_first", "lowest_index"]))
    seed = draw(st.integers(0, 2))
    if draw(st.booleans()):
        n = draw(st.integers(1, 6)) if tie_break == "s_first" else 1
        kinds = [(1, 0), (0, 1), (1, 1)] + [(2, 1)] * (tie_break == "s_first")
        surface, arc = QUINTIC, sampled_arc(*draw(st.sampled_from(kinds)), seed)
    else:
        n = draw(st.integers(1, 6 if tie_break == "s_first" else 4))
        slow = tie_break == "lowest_index" and n > 2
        orders = draw(st.sampled_from([(1, 1), (2, 1)] + [(2, 3)] * (not slow)))
        surface, arc = XY3, sample_binomial_arc(XY3, XY3_ROWS, orders, seed)
    budget = draw(st.one_of(st.none(), st.integers(1, 30)))
    return surface, arc.ramify(n), budget, tie_break, draw(st.booleans())


@settings(max_examples=80, deadline=None)
@given(engine_runs())
def test_runs_report_what_single_steps_report(case):
    """Both tie-breaks and stop rules; small budgets cut runs short."""
    report = nash_sequence(*case)
    assert not report.infinite
    expected = stepwise(*case)
    assert (report.sequence, report.trace, report.rho, report.budget) == expected
    assert sum(run.length for run in report.runs) == len(report.trace)


def test_lowest_index_takes_a_run_in_a_coordinate_chart():
    """A run of two y-chart steps, against the single-step oracle."""
    arc = sample_binomial_arc(XY3, XY3_ROWS, (1, 1), 0).ramify(4)
    report = nash_sequence(XY3, arc, tie_break="lowest_index")
    assert any(run.chart != "s" and run.length >= 2 for run in report.runs)
    expected = stepwise(XY3, arc, None, "lowest_index", True)
    assert (report.sequence, report.trace, report.rho, report.budget) == expected


@pytest.mark.parametrize(
    "arc, max_steps, seam, corrupted, caught",
    [
        (monomial_arc((6, 6, 5)), None, "_advance", 1, 5),  # center-0 run to step 4, next check at 5
        (sampled_arc(1, 1, 0), None, "_advance", 2, 5),  # translating step 5, checked at once
        (monomial_arc((6, 6, 5)), 2, "_advance", 1, 2),  # center-0 run cut by the budget
        (sampled_arc(1, 1, 0), None, "_recenter", 2, 6),  # translate at step 5, next check at 6
    ],
    ids=["center-0-step", "translating-step", "final-state", "translate"],
)
def test_deferred_check_catches_a_corrupted_state(
    monkeypatch, arc, max_steps, seam, corrupted, caught
):
    """Add s^K (K >= multiplicity) to the transform one seam returns; see where it fails.

    ``corrupted`` counts the calls of the seam: ``_advance``, which returns a
    run's untranslated transform, or ``_recenter``, which returns the
    translate that the next run consumes.  ``caught`` is the step of the last
    advance, so the corruption lands on whatever a run or a step left.
    """
    advance, recenter = arcinv.nash._advance, arcinv.nash._recenter
    taken, recentered = [], []

    def corrupt(state):
        variables = state.transform.variables
        terms = state.transform.terms
        power = tuple(state.multiplicity + 40 if v == "s" else 0 for v in variables)
        terms[power] = terms.get(power, 0) + 1
        return dataclasses.replace(state, transform=Polynomial(variables, terms))

    def corrupting_advance(state, tie_break, steps):
        new_state, record = advance(state, tie_break, steps)
        taken.append(new_state.step)
        if seam == "_advance" and len(taken) == corrupted:
            new_state = corrupt(new_state)
        return new_state, record

    def corrupting_recenter(state, center):
        new_state = recenter(state, center)
        recentered.append(any(center))
        if seam == "_recenter" and len(recentered) == corrupted:
            assert any(center)
            new_state = corrupt(new_state)
        return new_state

    monkeypatch.setattr(arcinv.nash, "_advance", corrupting_advance)
    monkeypatch.setattr(arcinv.nash, "_recenter", corrupting_recenter)
    with pytest.raises(RuntimeError, match="left the strict transform"):
        nash_sequence(QUINTIC, arc, max_steps=max_steps, tie_break="s_first")
    assert taken[-1] == caught


def test_no_translate_is_built_after_the_last_run(monkeypatch):
    """The drop of sampled_arc(1, 1, 0) moves the center; it is read and checked untranslated."""
    translated = []
    translate = Polynomial.translate

    def counting(self, point):
        translated.append(point)
        return translate(self, point)

    monkeypatch.setattr(Polynomial, "translate", counting)
    report = nash_sequence(QUINTIC, sampled_arc(1, 1, 0))
    assert [run.step for run in report.runs if any(run.center)] == [5, 6]
    assert translated == [report.runs[1].center]


def test_lowest_index_reaches_ramification_50():
    """rho = floor(n r) = 100 for r = 2 at n = 50, with every transform check exact."""
    arc = sampled_arc(1, 0, 0).ramify(50)
    assert nash_sequence(x2y3z6_surface(), arc, tie_break="lowest_index").rho == 100


def test_blowup_step_refuses_a_multiplicity_above_the_transform_order():
    state = init_directed(QUINTIC, monomial_arc((3, 2, 2)))
    broken = dataclasses.replace(state, multiplicity=state.multiplicity + 1)
    with pytest.raises(RuntimeError, match="division is not exact"):
        blowup_step(broken)


def test_blowup_step_refuses_a_multiplicity_below_the_transform_order():
    # Dividing by u^m for m below the order would leave a factor of u.
    state = init_directed(QUINTIC, monomial_arc((3, 2, 2)))
    broken = dataclasses.replace(state, multiplicity=state.multiplicity - 1)
    with pytest.raises(RuntimeError, match="division is not exact"):
        blowup_step(broken)


def _taylor(comp, k):
    """Coefficients c_0..c_k of the power series num/den, by series division."""
    num, den = dict(comp.num.items()), dict(comp.den.items())
    coeffs: list[Fraction] = []
    for j in range(k + 1):
        known = sum(den.get(i, 0) * coeffs[j - i] for i in range(1, j + 1))
        coeffs.append((num.get(j, 0) - known) / den[0])
    return coeffs


def _product(a, b):
    """Product of two polynomials stored as dicts from exponents to Fractions."""
    product: dict = {}
    for e, c in a.items():
        for f, d in b.items():
            key = tuple(i + j for i, j in zip(e, f))
            product[key] = product.get(key, 0) + c * d
    return product


def jet_multiplicities(surface, arc, length):
    """m_k = ord_(x,s) f(j_k gamma(s) + s^k x) - (m_0 + ... + m_{k-1}).

    An oracle for the multiplicity sequence under ``s_first`` with no
    blow-ups: the step-k centers are the Taylor coefficients of the arc.
    The jets live in Q[x_1, ..., x_n, s], exponents ending with that of s.
    """
    n = len(surface.variables)
    sequence: list[int] = []
    for k in range(length):
        images = []
        for i, comp in enumerate(arc.components):
            jet = {(0,) * n + (j,): c for j, c in enumerate(_taylor(comp, k)) if c}
            jet[tuple(int(v == i) for v in range(n)) + (k,)] = Fraction(1)
            images.append(jet)
        g: dict = {}
        for exponent, coeff in surface.f.items():
            term = {(0,) * (n + 1): coeff}
            for image, e in zip(images, exponent):
                for _ in range(e):
                    term = _product(term, image)
            for key, c in term.items():
                g[key] = g.get(key, 0) + c
        order = min((sum(e) for e, c in g.items() if c), default=math.inf)
        sequence.append(order - sum(sequence))
    return tuple(sequence)


@pytest.mark.parametrize(
    "surface, arc",
    [
        (CUSP, monomial_arc((3, 2))),
        (NODE, monomial_arc((1, None))),
        (QUINTIC, monomial_arc((3, 2, 2))),
        (QUINTIC, monomial_arc((6, 6, 5))),
        (QUINTIC, sampled_arc(1, 1, 0)),
        (QUINTIC, sampled_arc(1, 0, 0)),
        (QUINTIC, sampled_arc(0, 1, 0)),
        (QUINTIC, sampled_arc(2, 1, 0)),
    ],
    ids=["cusp", "node", "t3-t2-t2", "t6-t6-t5", "sampled-1-1", "sampled-1-0",
         "sampled-0-1", "sampled-2-1"],
)
def test_jet_oracle_gives_the_multiplicity_sequence(surface, arc):
    sequence = nash_sequence(surface, arc, stop_at_drop=False).sequence
    assert jet_multiplicities(surface, arc, len(sequence)) == sequence
