"""Arcs, hypersurfaces, and the seeded arc sampler."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arcinv.arcs import (
    Arc,
    Hypersurface,
    MonomialParametrization,
    monomial_arc,
    sample_binomial_arc,
)
from arcinv.errors import PreconditionError
from arcinv.polynomials import Polynomial
from arcinv.tseries import TRational

XYZ = ("x", "y", "z")
QUINTIC = Hypersurface(Polynomial(XYZ, {(2, 3, 0): 1, (0, 0, 6): -1}))
CUSP = Hypersurface(Polynomial(("x", "y"), {(2, 0): 1, (0, 3): -1}))


def test_hypersurface_rejects_units_and_zero():
    with pytest.raises(PreconditionError):
        Hypersurface(Polynomial(XYZ, {}))
    with pytest.raises(PreconditionError):
        Hypersurface(Polynomial(XYZ, {(0, 0, 0): 1, (1, 0, 0): 1}))


def test_multiplicity():
    assert QUINTIC.multiplicity == 5
    assert CUSP.multiplicity == 2


def test_arc_component_must_vanish_at_zero():
    with pytest.raises(PreconditionError):
        Arc([TRational.one(), TRational.t()])


def test_zero_components_are_allowed():
    arc = monomial_arc((1, None))
    assert arc.components[1].is_zero
    assert arc.order() == 1


def test_constant_arc_has_no_order():
    arc = Arc([TRational.zero(), TRational.zero()])
    with pytest.raises(PreconditionError):
        arc.order()


def test_order_is_min_component_order():
    assert monomial_arc((3, 2, 2)).order() == 2
    assert monomial_arc((6, 6, 5)).order() == 5


def test_lies_on():
    assert monomial_arc((3, 2, 2)).lies_on(QUINTIC)
    assert not monomial_arc((3, 2, 1)).lies_on(QUINTIC)
    with pytest.raises(PreconditionError):
        monomial_arc((1, 1)).lies_on(QUINTIC)


@given(st.integers(2, 5))
def test_ramify_multiplies_orders(n):
    arc = monomial_arc((3, 2, 2))
    assert arc.ramify(n).order() == 2 * n
    assert arc.ramify(n).lies_on(QUINTIC)


@pytest.fixture
def pullbacks(monkeypatch):
    """The polynomials pulled back through ``compose_order``, in call order."""
    calls = []
    compose_order = Polynomial.compose_order

    def counted(self, values):
        calls.append(self)
        return compose_order(self, values)

    monkeypatch.setattr(Polynomial, "compose_order", counted)
    return calls


def test_a_proved_arc_answers_again_without_a_pullback(pullbacks):
    arc = monomial_arc((3, 2, 2))
    assert arc.lies_on(QUINTIC)
    assert arc.lies_on(QUINTIC)
    assert arc.lies_on(Hypersurface(QUINTIC.f))
    assert pullbacks == [QUINTIC.f]


def test_an_arc_off_the_surface_is_pulled_back_every_time(pullbacks):
    arc = monomial_arc((3, 2, 1))
    for _ in range(3):
        assert not arc.lies_on(QUINTIC)
    assert not arc.ramify(2).lies_on(QUINTIC)
    assert pullbacks == [QUINTIC.f] * 4


def test_a_proof_answers_only_for_its_own_polynomial_object(pullbacks):
    arc = monomial_arc((3, 2, 2))
    assert arc.lies_on(QUINTIC)
    equal = Hypersurface(Polynomial(XYZ, {(2, 3, 0): 1, (0, 0, 6): -1}))
    assert equal.f == QUINTIC.f and equal.f is not QUINTIC.f
    assert arc.lies_on(equal)
    other = Hypersurface(Polynomial(XYZ, {(1, 0, 0): 1}))
    assert not arc.lies_on(other)
    assert pullbacks == [QUINTIC.f, equal.f, other.f]
    # The latest proof is the one kept: QUINTIC.f is proved again.
    assert arc.lies_on(QUINTIC)
    assert pullbacks[3:] == [QUINTIC.f]


def test_ramification_keeps_a_proof_and_makes_none(pullbacks):
    proved = monomial_arc((3, 2, 2))
    assert proved.lies_on(QUINTIC)
    assert proved.ramify(3).ramify(2).lies_on(QUINTIC)
    assert pullbacks == [QUINTIC.f]
    assert monomial_arc((3, 2, 2)).ramify(3).lies_on(QUINTIC)
    assert pullbacks == [QUINTIC.f] * 2


def test_the_length_check_comes_before_a_kept_proof():
    # No public call pairs a proof with a polynomial of another arity, so
    # the slot is forged to pin the order of the checks.
    arc = monomial_arc((1, 1))
    arc._on = QUINTIC.f
    with pytest.raises(PreconditionError):
        arc.lies_on(QUINTIC)


def test_parametrization_identity_accepted():
    par = MonomialParametrization([(3, 0, 1), (0, 2, 1)])
    par.check_identity(QUINTIC)


def test_parametrization_identity_rejected():
    par = MonomialParametrization([(3, 0, 1), (0, 1, 1)])
    with pytest.raises(PreconditionError):
        par.check_identity(QUINTIC)


def test_parametrization_builds_arcs():
    par = MonomialParametrization([(3, 0, 1), (0, 2, 1)])
    arc = par.arc([{1: 1}, {1: 1}])
    assert arc == monomial_arc((3, 2, 2))


def test_sampler_is_deterministic():
    par = [(3, 0, 1), (0, 2, 1)]
    a = sample_binomial_arc(QUINTIC, par, (1, 1), coeff_seed=7)
    b = sample_binomial_arc(QUINTIC, par, (1, 1), coeff_seed=7)
    c = sample_binomial_arc(QUINTIC, par, (1, 1), coeff_seed=8)
    assert a == b
    assert a != c


@given(st.integers(0, 50), st.integers(1, 3), st.integers(1, 3))
def test_sampled_arcs_lie_on_the_surface(seed, p, q):
    arc = sample_binomial_arc(QUINTIC, [(3, 0, 1), (0, 2, 1)], (p, q), seed)
    assert arc.lies_on(QUINTIC)
    assert [comp.t_order() for comp in arc.components] == [3 * p, 2 * q, p + q]
