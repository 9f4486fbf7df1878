"""Top-level acceptance gate.

Each test covers one shipping criterion and prints a single PASS/FAIL line
(visible with pytest -s or in the captured output on failure).  Everything
is exact rational arithmetic; there are no tolerances anywhere.
"""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from arcinv.arcs import Arc, Hypersurface, monomial_arc
from arcinv.contact import dominates, fat_components, hironaka_order
from arcinv.nash import blowup_step, init_directed, nash_sequence
from arcinv.polynomials import Polynomial
from arcinv.qpers import q_persistance
from arcinv.rees import diff_saturate
from arcinv.tseries import TPoly, TRational
from arcinv.verify import (
    check_center_order,
    check_delta_envelope,
    check_delta_multiples,
    check_divisorial_minimum,
    check_floor_corpus,
    check_limit_corpus,
    check_odd_levels,
    check_rbar_grid,
    check_values_containment,
    x2y3z6_presentation,
    x2y3z6_resolution,
    x2y3z6_surface,
    sampled_arc,
)

XYZ = ("x", "y", "z")


def verdict(number: int, ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}: criterion {number} - {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_example_reproduction():
    data = x2y3z6_resolution()
    ok = (
        hironaka_order(data) == 1
        and check_center_order().passed
        and check_rbar_grid().passed
        and check_odd_levels().passed
    )
    verdict(1, ok, "worked example reproduced exactly (order, grid, odd levels)")


def test_criterion_2_floor_identity():
    check = check_floor_corpus()
    verdict(2, check.passed, "blow-up persistance equals floor(r) on corpus and samples")


def test_criterion_3_limit_identity():
    check = check_limit_corpus()
    verdict(3, check.passed, "ramified persistance equals floor(n*r) for n = 1..20")


def test_criterion_4_delta_at_multiples():
    check = check_delta_multiples()
    verdict(4, check.passed, "delta at multiples of the divisor multiplicities equals the order")


def test_criterion_5_delta_envelope():
    check = check_delta_envelope()
    verdict(5, check.passed, "delta_m within [ord, ord*(1 + 3/m)] for m = 1..60, not all equal")


def test_criterion_6_values_containment():
    check = check_values_containment()
    verdict(6, check.passed, "500 sampled normalized orders inside the exact bounds, extrema attained")


def test_criterion_7_divisorial_minimum():
    check = check_divisorial_minimum()
    verdict(7, check.passed, "50 seeded arcs: minimum normalized order is 1, never below")


# criterion 8: structural property suites, 200 cases each


@st.composite
def plane_binomial_cases(draw):
    """f = x^p - y^q with a scaled monomial arc that lies on it exactly."""
    p = draw(st.integers(2, 4))
    q = draw(st.integers(2, 4))
    k = draw(st.integers(1, 2))
    a = Fraction(draw(st.integers(1, 5)))
    surface = Hypersurface(Polynomial(("x", "y"), {(p, 0): 1, (0, q): -1}))
    arc = Arc(
        [
            TRational(TPoly({q * k: a**q})),
            TRational(TPoly({p * k: a**p})),
        ]
    )
    return surface, arc


@st.composite
def space_binomial_cases(draw):
    """f = x^a y^b - z^c with the standard monomial arc of type (alpha, beta)."""
    a = draw(st.integers(1, 3))
    b = draw(st.integers(1, 3))
    c = draw(st.integers(2, 4))
    alpha = draw(st.integers(1, 3))
    beta = draw(st.integers(1, 3))
    surface = Hypersurface(Polynomial(XYZ, {(a, b, 0): 1, (0, 0, c): -1}))
    arc = monomial_arc((c * alpha, c * beta, a * alpha + b * beta))
    return surface, arc


binomial_cases = st.one_of(plane_binomial_cases(), space_binomial_cases())


@settings(max_examples=200, deadline=None)
@given(binomial_cases)
def prop_sequences_nonincreasing(case):
    surface, arc = case
    report = nash_sequence(surface, arc, stop_at_drop=False)
    seq = report.sequence
    assert all(seq[i] >= seq[i + 1] for i in range(len(seq) - 1))
    assert seq[0] == surface.multiplicity
    assert seq[-1] == 1


@settings(max_examples=200, deadline=None)
@given(binomial_cases, st.sampled_from(["s_first", "lowest_index"]))
def prop_equation_vanishes_at_every_step(case, tie_break):
    surface, arc = case
    state = init_directed(surface, arc)
    for _ in range(40):
        assert state.transform.compose_order(state.lifted) == math.inf
        if state.multiplicity == 1:
            break
        state, _ = blowup_step(state, tie_break)


@settings(max_examples=200, deadline=None)
@given(binomial_cases)
def prop_tiebreak_invariance(case):
    surface, arc = case
    first = nash_sequence(surface, arc, tie_break="s_first")
    lowest = nash_sequence(surface, arc, tie_break="lowest_index")
    assert first.sequence == lowest.sequence


@settings(max_examples=200, deadline=None)
@given(binomial_cases, st.integers(2, 5))
def prop_rbar_ramification_invariant(case, n):
    surface, arc = case
    base = q_persistance(surface, arc)
    ramified = q_persistance(surface, arc.ramify(n))
    assert ramified.r == n * base.r
    assert ramified.r_bar == base.r_bar


small_indices = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any)


@settings(max_examples=200, deadline=None)
@given(small_indices, small_indices, small_indices, st.integers(1, 12))
def prop_domination_preorder_and_antichain(l1, l2, l3, m):
    data = x2y3z6_resolution()
    assert dominates(data, l1, l1)
    if dominates(data, l1, l2) and dominates(data, l2, l3):
        assert dominates(data, l1, l3)
    components = fat_components(data, m)
    for u in components:
        for v in components:
            if u != v:
                assert not (dominates(data, u, v) and not dominates(data, v, u))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers(0, 10**6))
def prop_presentations_agree_on_arc_orders(alpha, beta, seed):
    if alpha + beta == 0:
        alpha = 1
    arc = sampled_arc(alpha, beta, seed)
    diff = diff_saturate(x2y3z6_surface())
    assert x2y3z6_presentation().ord_along_arc(arc) == diff.ord_along_arc(arc)


def test_criterion_8_property_suites():
    suites = [
        ("multiplicity sequences are non-increasing", prop_sequences_nonincreasing),
        ("the transform vanishes along the lifted arc at every step",
         prop_equation_vanishes_at_every_step),
        ("chart tie-breaks do not change the sequence", prop_tiebreak_invariance),
        ("r scales and r/nu is invariant under ramification",
         prop_rbar_ramification_invariant),
        ("domination is a preorder and components are an antichain",
         prop_domination_preorder_and_antichain),
        ("differential and hand presentations give equal arc orders",
         prop_presentations_agree_on_arc_orders),
    ]
    failed = []
    first_error = None
    for label, prop in suites:
        try:
            prop()
        except Exception as exc:
            failed.append(label)
            if first_error is None:
                first_error = exc
    label = "property suites (200 cases each)" + (
        "" if not failed else ": failing - " + "; ".join(failed)
    )
    print(f"{'PASS' if not failed else 'FAIL'}: criterion 8 - {label}")
    if failed:
        raise AssertionError(label) from first_error
