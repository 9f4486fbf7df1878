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
from arcinv.tseries import TPoly, TRational

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


def test_parametrization_identity_accepted():
    par = MonomialParametrization([(3, 0, 1), (0, 2, 1)])
    par.check_identity(QUINTIC)


def test_parametrization_identity_rejected():
    par = MonomialParametrization([(3, 0, 1), (0, 1, 1)])
    with pytest.raises(PreconditionError):
        par.check_identity(QUINTIC)


def test_parametrization_builds_arcs():
    par = MonomialParametrization([(3, 0, 1), (0, 2, 1)])
    arc = par.arc([TPoly.t(1), TPoly.t(1)])
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
