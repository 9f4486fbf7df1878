"""Built-in verification suites.

Every numerical claim the package is expected to reproduce is encoded here
as a named check with a pass/fail verdict and a detail trail.  The central
worked example is the surface x^2 y^3 = z^6, whose resolution data, toric
coordinate valuations and contact-locus structure are known in closed form;
the corpus checks exercise the blow-up engine against the rational invariant
on hand-verifiable arcs.

Checks compare values produced by independent routes (blow-up engine versus
differential presentation versus resolution data), so a pass is evidence of
correctness rather than of self-consistency of a single code path.

Every check follows one contract.  Its body returns ``(details, failures)``,
two lists of lines, and ``_check`` turns them into a ``CheckResult``: the
check passes if and only if it has no failure lines, and the failure lines
come after the details.  ``_check`` also files the check in its suite, so a
suite runs its checks, and prints them, in the order they are defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from typing import Callable

from .arcs import Arc, Hypersurface, MonomialParametrization, monomial_arc, sample_binomial_arc
from .contact import (
    ResolutionData,
    delta,
    delta_limit_check,
    fat_components,
    hironaka_order,
    outside_bounds,
    rbar_extrema,
    rbar_of_multiindex,
    sample_multiindices,
    values_bounds,
)
from .nash import blowup_step, default_budget, init_directed, nash_sequence
from .polynomials import Polynomial
from .qpers import check_limit_identity, q_persistance
from .rees import ReesAlgebra, diff_order, diff_saturate
from .render import format_multiindex, format_rational


@dataclass(frozen=True)
class CheckResult:
    ident: str
    label: str
    passed: bool
    details: tuple[str, ...] = ()


SUITES: dict[str, list[Callable[[], CheckResult]]] = {"x2y3z6": [], "corpus": []}


def _check(suite: str, ident: str, label: str):
    """File a body returning ``(details, failures)`` as a check of ``suite``."""

    def decorate(body: Callable[[], tuple[list[str], list[str]]]) -> Callable[[], CheckResult]:
        @wraps(body)
        def check() -> CheckResult:
            details, failures = body()
            return CheckResult(ident, label, not failures, tuple(details + failures))

        SUITES[suite].append(check)
        return check

    return decorate


XYZ = ("x", "y", "z")


def x2y3z6_surface() -> Hypersurface:
    """The reference surface x^2 y^3 - z^6 = 0, multiplicity 5 at the origin."""
    return Hypersurface(Polynomial(XYZ, {(2, 3, 0): 1, (0, 0, 6): -1}))


def x2y3z6_resolution() -> ResolutionData:
    """Divisorial data of the reference surface on its toric resolution.

    Two exceptional divisors; the maximal ideal has multiplicities (2, 3);
    the generators x, y (weight 1) and z^6 (weight 5) have multiplicity
    vectors (3, 3), (2, 4) and (12, 18); the coordinate valuations are the
    rows of the matrix below and their column minima reproduce c.
    """
    return ResolutionData.of(
        c=(2, 3),
        gens=[((3, 3), 1), ((2, 4), 1), ((12, 18), 5)],
        coord_val=[(3, 3), (2, 4), (2, 3)],
    )


def x2y3z6_parametrization() -> MonomialParametrization:
    """(u, v) -> (u^3, v^2, u v), a parametrization of the reference surface."""
    return MonomialParametrization([(3, 0, 1), (0, 2, 1)])


def x2y3z6_presentation() -> ReesAlgebra:
    """The hand presentation x, y in weight 1 and z^6 in weight 5."""
    return ReesAlgebra(
        [
            (Polynomial(XYZ, {(1, 0, 0): 1}), 1),
            (Polynomial(XYZ, {(0, 1, 0): 1}), 1),
            (Polynomial(XYZ, {(0, 0, 6): 1}), 5),
        ]
    )


def x2y3z6_grid_value(alpha: int, beta: int) -> Fraction:
    """Closed form of the normalized order for contact multi-index (a, b)."""
    numerator = min(
        Fraction(3 * alpha + 3 * beta),
        Fraction(2 * alpha + 4 * beta),
        Fraction(6, 5) * (2 * alpha + 3 * beta),
    )
    return numerator / (2 * alpha + 3 * beta)


def corpus() -> list[tuple[str, Hypersurface, Arc]]:
    """Hand-verifiable (surface, arc) pairs used by the identity checks."""
    surface_x2y3z6 = x2y3z6_surface()
    return [
        ("cusp t^3,t^2", Hypersurface(Polynomial(("x", "y"), {(2, 0): 1, (0, 3): -1})),
         monomial_arc((3, 2))),
        ("node t,0", Hypersurface(Polynomial(("x", "y"), {(1, 1): 1})), monomial_arc((1, None))),
        ("x2y3-z6 t^3,t^2,t^2", surface_x2y3z6, monomial_arc((3, 2, 2))),
        ("x2y3-z6 t^6,t^6,t^5", surface_x2y3z6, monomial_arc((6, 6, 5))),
    ]


SAMPLE_TYPES = [
    (1, 0),
    (0, 1),
    (1, 1),
    (2, 1),
    (1, 2),
    (3, 1),
    (1, 3),
    (2, 3),
    (3, 2),
    (4, 1),
]


# Contact types (a, b) with 1 <= a + b <= GRID_SPAN: the grid the closed form
# is checked on and whose extrema are attained.
GRID_SPAN = 8
GRID = [
    (alpha, beta)
    for alpha in range(GRID_SPAN + 1)
    for beta in range(GRID_SPAN + 1)
    if 1 <= alpha + beta <= GRID_SPAN
]


def sampled_arc(alpha: int, beta: int, seed: int) -> Arc:
    """Seeded random arc on the reference surface with contact type (a, b)."""
    orders = (alpha + beta, alpha + 2 * beta)
    return sample_binomial_arc(
        x2y3z6_surface(), x2y3z6_parametrization().exponents, orders, seed
    )


@_check("x2y3z6", "center-order", "order at the center equals 1 by all three routes")
def check_center_order():
    """Order 1 at the center by three independent routes."""
    details = []
    from_resolution = hironaka_order(x2y3z6_resolution())
    details.append(f"resolution data: {format_rational(from_resolution)}")
    from_diff = diff_saturate(x2y3z6_surface()).ord_at_center()
    details.append(f"differential presentation: {format_rational(from_diff)}")
    from_hand = x2y3z6_presentation().ord_at_center()
    details.append(f"hand presentation: {format_rational(from_hand)}")
    if from_resolution == from_diff == from_hand == 1:
        return details, []
    return details, ["the three routes do not all give order 1"]


@_check("x2y3z6", "rbar-grid",
        "normalized orders over the multi-index grid match the closed form")
def check_rbar_grid():
    """Normalized orders match min{3a+3b, 2a+4b, (6/5)(2a+3b)} / (2a+3b)."""
    data = x2y3z6_resolution()
    failures = []
    for alpha, beta in GRID:
        got = rbar_of_multiindex(data, (alpha, beta))
        want = x2y3z6_grid_value(alpha, beta)
        if got != want:
            failures.append(
                f"(a,b)=({alpha},{beta}): got {format_rational(got)}, "
                f"want {format_rational(want)}"
            )
    return [f"{len(GRID)} grid points with 1 <= a+b <= {GRID_SPAN}"], failures


@_check("x2y3z6", "odd-levels", "odd contact levels have all orders > 1 and realize 1 + 1/n")
def check_odd_levels():
    """At odd contact levels n = 2m+1 the component (m-1, 1) realizes 1 + 1/n."""
    data = x2y3z6_resolution()
    failures = []
    details = []
    for n in (11, 13, 17, 19, 23):
        m = (n - 1) // 2
        components = fat_components(data, n)
        values = {l: rbar_of_multiindex(data, l) for l in components}
        details.append(
            f"n={n}: components "
            + ", ".join(
                f"{format_multiindex(l)} -> {format_rational(values[l])}"
                for l in components
            )
        )
        if not all(v > 1 for v in values.values()):
            failures.append(f"n={n}: some component has normalized order <= 1")
        special = (m - 1, 1)
        if special not in values:
            failures.append(f"n={n}: component {format_multiindex(special)} missing")
        elif values[special] != 1 + Fraction(1, n):
            failures.append(
                f"n={n}: component {format_multiindex(special)} has "
                f"{format_rational(values[special])}, want 1 + 1/{n}"
            )
    return details, failures


@_check("x2y3z6", "delta-multiples",
        "delta at multiples of the divisor multiplicities equals the order")
def check_delta_multiples():
    """delta at every multiple of a divisor multiplicity equals the order 1."""
    data = x2y3z6_resolution()
    order = hironaka_order(data)
    failures = []
    n_max = 10
    for c_i in (2, 3):
        for n in range(1, n_max + 1):
            value = delta(data, n * c_i)
            if value != order:
                failures.append(
                    f"delta_{n * c_i} = {format_rational(value)} != {format_rational(order)}"
                )
    return [f"checked m = n*c_i for n = 1..{n_max}, c_i in (2, 3)"], failures


@_check("x2y3z6", "delta-envelope",
        "delta_m lies in [order, order*(1 + c_max/m)] and delta_13 = 14/13 > 1")
def check_delta_envelope():
    """delta_m stays in [1, 1 + 3/m] for m <= 60, with delta_13 = 14/13."""
    m_max = 60
    result = delta_limit_check(x2y3z6_resolution(), m_max)
    failures = [
        f"m={row.m}: delta = {format_rational(row.value)} outside the envelope"
        for row in result.rows
        if not row.ok
    ]
    pinned = next(row for row in result.rows if row.m == 13)
    if pinned.value != Fraction(14, 13):
        failures.append(f"delta_13 = {format_rational(pinned.value)}, want 14/13")
    if not pinned.value > 1:
        failures.append("delta_13 is not > 1")
    return [
        f"order = {format_rational(result.order)}, checked m = 1..{m_max}",
        f"delta_13 = {format_rational(pinned.value)}",
    ], failures


@_check("x2y3z6", "values-containment",
        "sampled normalized orders respect the exact bounds; extrema attained")
def check_values_containment():
    """500 sampled normalized orders (seed 0, box 8) sit between the exact bounds."""
    failures = []
    details = []
    for name, data in [
        ("weighted reference data", x2y3z6_resolution()),
        ("single generator a=(1,3), b=1, c=(1,1)", ResolutionData.of((1, 1), [((1, 3), 1)])),
    ]:
        lower, upper = values_bounds(data)
        drawn = sample_multiindices(data, count=500, bound=8, seed=0)
        bad = outside_bounds(data, drawn)
        details.append(
            f"{name}: {len(drawn)} samples in [{format_rational(lower)}, "
            f"{format_rational(upper)}], {len(bad)} outside"
        )
        failures.extend(f"{name}: {format_multiindex(l)} outside bounds" for l in bad)
    extrema = rbar_extrema(x2y3z6_resolution(), GRID)
    details.append(
        f"grid extrema: min {format_rational(extrema.minimum)} at "
        f"{format_multiindex(extrema.argmin)}, max {format_rational(extrema.maximum)} "
        f"at {format_multiindex(extrema.argmax)}"
    )
    if extrema.maximum != Fraction(6, 5) or extrema.argmax != (1, 1):
        failures.append("supremum 6/5 not attained at (1, 1)")
    if extrema.minimum != 1:
        failures.append("infimum 1 not attained on the grid")
    return details, failures


@_check("x2y3z6", "divisorial-minimum",
        "seeded arcs attain normalized order 1 and never go below it")
def check_divisorial_minimum():
    """Over seeded arcs the minimum normalized order is 1, never less.

    Also cross-checks every sampled arc against the closed form from the
    resolution data and counts seeds that deviate (none are expected: the
    sampled parametrizations pin all pullback orders exactly).
    """
    surface = x2y3z6_surface()
    data = x2y3z6_resolution()
    failures = []
    exceptional = []
    values = {}
    total = 0
    seeds = 5
    for alpha, beta in SAMPLE_TYPES:
        want = rbar_of_multiindex(data, (alpha, beta))
        for seed in range(seeds):
            total += 1
            arc = sampled_arc(alpha, beta, seed)
            result = q_persistance(surface, arc)
            values[(alpha, beta, seed)] = result.r_bar
            if result.r_bar != want:
                exceptional.append(
                    f"type ({alpha},{beta}) seed {seed}: "
                    f"{format_rational(result.r_bar)} != {format_rational(want)}"
                )
            if result.r_bar < 1:
                failures.append(
                    f"type ({alpha},{beta}) seed {seed}: normalized order below 1"
                )
    minimum = min(values.values())
    attained = sorted({k[:2] for k, v in values.items() if v == minimum})
    if minimum != 1:
        failures.append(f"minimum is {format_rational(minimum)}, want 1")
    if (1, 0) not in attained:
        failures.append("type (1, 0) does not attain the minimum")
    details = [
        f"{total} arcs ({len(SAMPLE_TYPES)} contact types x {seeds} seeds)",
        f"minimum {format_rational(minimum)} attained by types "
        + ", ".join(format_multiindex(t) for t in attained),
        f"exceptional seeds: {len(exceptional)}",
    ]
    return details, failures + exceptional


@_check("x2y3z6", "presentation-crosscheck",
        "arc orders agree between the differential and the hand presentation")
def check_presentation_crosscheck():
    """The differential and the hand presentation give equal arc orders."""
    surface = x2y3z6_surface()
    diff_algebra = diff_saturate(surface)
    hand = x2y3z6_presentation()
    failures = []
    details = []
    arcs: list[tuple[str, Arc]] = [
        ("t^3,t^2,t^2", monomial_arc((3, 2, 2))),
        ("t^6,t^6,t^5", monomial_arc((6, 6, 5))),
    ]
    for i in range(8):
        alpha, beta = SAMPLE_TYPES[i % len(SAMPLE_TYPES)]
        arcs.append((f"sample ({alpha},{beta},{i})", sampled_arc(alpha, beta, i)))
    for name, arc in arcs:
        a = diff_algebra.ord_along_arc(arc)
        b = hand.ord_along_arc(arc)
        details.append(
            f"{name}: differential {format_rational(a)}, hand {format_rational(b)}"
        )
        if a != b:
            failures.append(f"{name}: presentations disagree")
    return details, failures


@_check("corpus", "floor-identity",
        "persistance equals floor(r) on the corpus and on sampled arcs")
def check_floor_corpus():
    """Blow-up persistance equals floor of the rational invariant."""
    failures = []
    details = []
    for name, surface, arc in corpus():
        row = check_limit_identity(surface, arc, 1).rows[0]
        details.append(f"{name}: rho = {row.rho}, floor(r) = {row.expected}")
        if row.ok is None:
            failures.append(
                f"{name}: inconclusive within budget {default_budget(surface, arc)}"
            )
        elif not row.ok:
            failures.append(f"{name}: rho != floor(r)")
    surface = x2y3z6_surface()
    samples = [(alpha, beta, seed) for alpha, beta in SAMPLE_TYPES[:4] for seed in range(5)]
    for alpha, beta, seed in samples:
        row = check_limit_identity(surface, sampled_arc(alpha, beta, seed), 1).rows[0]
        if row.ok is None:
            failures.append(
                f"sample ({alpha},{beta},{seed}): inconclusive within budget"
            )
        elif not row.ok:
            failures.append(
                f"sample ({alpha},{beta},{seed}): rho = {row.rho} != "
                f"floor(r) = {row.expected}"
            )
    details.append(f"{len(samples)} seeded sampled arcs checked")
    return details, failures


@_check("corpus", "limit-identity", "rho of the ramified arcs equals floor(n*r) for every n")
def check_limit_corpus():
    """Ramified persistances follow floor(n*r) for n up to 20."""
    failures = []
    details = []
    n_max = 20
    for name, surface, arc in corpus():
        outcome = check_limit_identity(surface, arc, n_max)
        details.append(
            f"{name}: r = {format_rational(outcome.r)}, "
            f"n = 1..{n_max} all equal floor(n*r): {outcome.passed}"
        )
        if not outcome.conclusive:
            failures.append(f"{name}: some ramification ran out of budget")
        elif not outcome.passed:
            bad = [row.n for row in outcome.rows if not row.ok]
            failures.append(f"{name}: mismatch at n = {bad}")
    return details, failures


@_check("corpus", "step-identity",
        "each s_first run at multiplicity b leaves the order r - k after k blow-ups")
def check_step_identity():
    """After k blow-ups at multiplicity b, (F_k, gamma_k) has order r - k.

    The order is that of the differential presentation (``rees.diff_order``),
    read at the end of every ``s_first`` run that keeps the multiplicity at
    b, on the corpus ramified at n = 1, 2, 3, on four sampled arcs, and on a
    sampled arc of x y^3 - z^3 (r = 3/2) and its ramification by 4.
    """
    cases = [(f"{name}, n={n}", surface, arc.ramify(n))
             for name, surface, arc in corpus() for n in (1, 2, 3)]
    surface = x2y3z6_surface()
    cases += [(f"sample ({alpha},{beta},0)", surface, sampled_arc(alpha, beta, 0))
              for alpha, beta in SAMPLE_TYPES[:4]]
    xy3 = Hypersurface(Polynomial(XYZ, {(1, 3, 0): 1, (0, 0, 3): -1}))
    xy3_arc = sample_binomial_arc(xy3, [(3, 0, 1), (0, 1, 1)], (1, 1), 0)
    cases += [(f"xy3-z3 sample (1,1,0), n={n}", xy3, xy3_arc.ramify(n)) for n in (1, 4)]
    failures = []
    details = []
    for name, surf, arc in cases:
        r = q_persistance(surf, arc).r
        budget = default_budget(surf, arc)
        state = init_directed(surf, arc)
        steps = []
        while state.step < budget:
            state, _ = blowup_step(state, "s_first", budget - state.step)
            if state.multiplicity < surf.multiplicity:
                break
            steps.append(state.step)
            order = diff_order(Hypersurface(state.transform), Arc(state.lifted))
            if order != r - state.step:
                failures.append(
                    f"{name}: order {format_rational(order)} after {state.step} blow-ups, "
                    f"want {format_rational(r - state.step)}"
                )
        details.append(
            f"{name}: r = {format_rational(r)}, checked at k = "
            + (", ".join(map(str, steps)) or "none")
        )
    return details, failures


@_check("corpus", "tiebreak-invariance",
        "multiplicity sequences do not depend on the chart tie-break")
def check_tiebreak_invariance():
    """Both chart tie-break rules give identical multiplicity sequences."""
    failures = []
    details = []
    cases = [(name, surface, arc) for name, surface, arc in corpus()]
    surface = x2y3z6_surface()
    for seed in range(3):
        cases.append((f"sample (1,1,{seed})", surface, sampled_arc(1, 1, seed)))
    for name, surf, arc in cases:
        first = nash_sequence(surf, arc, tie_break="s_first")
        second = nash_sequence(surf, arc, tie_break="lowest_index")
        if first.sequence != second.sequence or first.rho != second.rho:
            failures.append(
                f"{name}: {first.sequence} (s_first) vs {second.sequence} (lowest_index)"
            )
        else:
            details.append(f"{name}: sequence {first.sequence}")
    return details, failures


@_check("corpus", "ramification-invariance",
        "r is homogeneous and r/nu invariant under ramification")
def check_ramification_invariance():
    """r scales by n under t -> t^n while r/nu stays fixed."""
    failures = []
    details = []
    for name, surface, arc in corpus():
        base = q_persistance(surface, arc)
        for n in (2, 3, 5):
            rammed = q_persistance(surface, arc.ramify(n))
            if rammed.r != n * base.r or rammed.r_bar != base.r_bar:
                failures.append(
                    f"{name}, n={n}: r {format_rational(rammed.r)} vs "
                    f"{format_rational(n * base.r)}, r_bar "
                    f"{format_rational(rammed.r_bar)} vs {format_rational(base.r_bar)}"
                )
        details.append(
            f"{name}: r = {format_rational(base.r)}, "
            f"r_bar = {format_rational(base.r_bar)}"
        )
    return details, failures


@_check("corpus", "stabilization", "multiplicity sequences stabilize at 1 on the corpus")
def check_stabilization():
    """Extended blow-up runs reach multiplicity 1 on the corpus."""
    failures = []
    details = []
    for name, surface, arc in corpus():
        report = nash_sequence(surface, arc, stop_at_drop=False)
        details.append(f"{name}: sequence {report.sequence}")
        if report.sequence[-1] != 1:
            failures.append(f"{name}: sequence did not stabilize at 1")
    return details, failures


SUITES["all"] = SUITES["x2y3z6"] + SUITES["corpus"]


def run_suite(name: str) -> list[CheckResult]:
    """Run a named suite; unknown names raise KeyError with the options."""
    if name not in SUITES:
        raise KeyError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}"
        )
    return [check() for check in SUITES[name]]
