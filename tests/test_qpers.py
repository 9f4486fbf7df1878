"""Rational persistance and the two identities tying it to the blow-up count."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcinv.arcs import Arc, Hypersurface, monomial_arc
from arcinv.errors import BudgetExhausted, PreconditionError
from arcinv.nash import default_budget, nash_sequence
from arcinv.polynomials import Polynomial
from arcinv.qpers import MAX_TABLE_STEPS, LimitRow, check_limit_identity, q_persistance
from arcinv.tseries import TRational

XYZ = ("x", "y", "z")
QUINTIC = Hypersurface(Polynomial(XYZ, {(2, 3, 0): 1, (0, 0, 6): -1}))
CUSP = Hypersurface(Polynomial(("x", "y"), {(2, 0): 1, (0, 3): -1}))
NODE = Hypersurface(Polynomial(("x", "y"), {(1, 1): 1}))
DOUBLE_PLANE = Hypersurface(Polynomial(("x", "y"), {(2, 0): 1}))

FROZEN = [
    (CUSP, (3, 2), Fraction(3), 2, Fraction(3, 2), 3),
    (NODE, (1, None), Fraction(1), 1, Fraction(1), 1),
    (QUINTIC, (3, 2, 2), Fraction(2), 2, Fraction(1), 2),
    (QUINTIC, (6, 6, 5), Fraction(6), 5, Fraction(6, 5), 6),
]


@pytest.mark.parametrize("surface,powers,r,nu,r_bar,floor_r", FROZEN)
def test_corpus_values_frozen(surface, powers, r, nu, r_bar, floor_r):
    result = q_persistance(surface, monomial_arc(powers))
    assert result.r == r
    assert result.nu == nu
    assert result.r_bar == r_bar
    assert result.floor_r == floor_r
    assert result.is_finite


def test_trapped_arc_has_infinite_r():
    result = q_persistance(DOUBLE_PLANE, Arc([TRational.zero(), TRational.t()]))
    assert result.r == math.inf
    assert result.r_bar == math.inf
    assert result.floor_r is None
    assert not result.is_finite


def test_arc_must_lie_on_the_surface():
    with pytest.raises(PreconditionError):
        q_persistance(QUINTIC, monomial_arc((1, 1, 1)))


def test_the_equation_is_pulled_back_once_per_arc(monkeypatch):
    """Membership is proved once per arc; a refusal pulls back on every call."""
    calls = []
    compose_order = Polynomial.compose_order

    def counted(self, values):
        if self == QUINTIC.f:
            calls.append(self)
        return compose_order(self, values)

    monkeypatch.setattr(Polynomial, "compose_order", counted)
    arc = monomial_arc((6, 6, 5))
    assert q_persistance(QUINTIC, arc).r == 6
    assert len(calls) == 1
    assert nash_sequence(QUINTIC, arc).rho == 6
    assert len(calls) == 1
    off = monomial_arc((1, 1, 1))
    for run in (q_persistance, nash_sequence):
        with pytest.raises(PreconditionError):
            run(QUINTIC, off)
    assert len(calls) == 3


def test_variable_count_checked():
    with pytest.raises(PreconditionError):
        q_persistance(QUINTIC, monomial_arc((1, 1)))


@pytest.mark.parametrize("surface,powers", [(s, p) for s, p, *_ in FROZEN])
def test_floor_identity_on_corpus(surface, powers):
    """Row n = 1 of the limit table is the floor identity rho = floor(r)."""
    arc = monomial_arc(powers)
    row = check_limit_identity(surface, arc, 1).rows[0]
    assert row.ok is True
    assert row.rho == math.floor(q_persistance(surface, arc).r)


def test_floor_identity_reports_the_budget_it_ran_with():
    arc = monomial_arc((6, 6, 5))
    short = check_limit_identity(QUINTIC, arc, 1, budget=2).rows[0]
    assert (short.rho, short.ok) == (None, None)
    assert check_limit_identity(QUINTIC, arc, 1).rows[0].ok is True
    assert default_budget(QUINTIC, arc) == 200


def test_limit_identity_out_of_budget_is_inconclusive():
    check = check_limit_identity(QUINTIC, monomial_arc((6, 6, 5)), n_max=3, budget=8)
    assert check.rows[0] == LimitRow(1, 6, 6, True)
    assert [(row.n, row.rho, row.ok) for row in check.rows[1:]] == [
        (2, None, None),
        (3, None, None),
    ]
    assert check.conclusive is False
    assert check.passed is False


@pytest.mark.parametrize("surface,powers", [(s, p) for s, p, *_ in FROZEN])
def test_limit_identity_on_corpus(surface, powers):
    check = check_limit_identity(surface, monomial_arc(powers), n_max=10)
    assert check.passed and check.conclusive
    for row in check.rows:
        assert row.rho == math.floor(row.n * check.r)
        assert abs(Fraction(row.rho, row.n) - check.r) <= Fraction(1, row.n)


@settings(deadline=None)
@given(st.sampled_from(FROZEN), st.integers(2, 6))
def test_r_scales_linearly_under_ramification(case, n):
    surface, powers, r, nu, r_bar, _ = case
    result = q_persistance(surface, monomial_arc(powers).ramify(n))
    assert result.r == n * r
    assert result.nu == n * nu
    assert result.r_bar == r_bar


def test_limit_identity_needs_positive_n():
    with pytest.raises(PreconditionError):
        check_limit_identity(CUSP, monomial_arc((3, 2)), n_max=0)


@pytest.mark.parametrize("budget", [0, -3])
def test_limit_identity_refuses_a_budget_below_one_before_any_work(budget, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr("arcinv.qpers.q_persistance", no_work)
    monkeypatch.setattr("arcinv.qpers.nash_sequence", no_work)
    with pytest.raises(PreconditionError, match="the step budget must be positive"):
        check_limit_identity(QUINTIC, monomial_arc((6, 6, 5)), n_max=1, budget=budget)


def test_limit_table_over_the_step_cap_is_refused_before_any_row(monkeypatch):
    def no_rows(*args, **kwargs):
        raise AssertionError("a row ran")

    monkeypatch.setattr("arcinv.qpers.nash_sequence", no_rows)
    arc = monomial_arc((6, 6, 5))
    # The bundled arc fills the cap exactly at n_max = 400: 200 * 80200 steps.
    assert default_budget(QUINTIC, arc) * 80200 == MAX_TABLE_STEPS
    with pytest.raises(BudgetExhausted, match="has a step budget of 16120200, over"):
        check_limit_identity(QUINTIC, arc, n_max=401)
    with pytest.raises(BudgetExhausted, match="has a step budget of 16040001, over"):
        check_limit_identity(QUINTIC, arc, n_max=1, budget=MAX_TABLE_STEPS + 1)
