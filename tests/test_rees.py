"""Weighted presentations and the differential saturation.

The saturation enumerates iterated partials through a canonical-parent
scheme instead of visiting every multi-index; sympy rebuilds the full set
of derivatives the slow way and must see the same presentation.  The
presentation pulled back along an arc is in turn the oracle for
``diff_order``, which reads the same order from the terms of f.
"""

import itertools
import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import arcinv.rees
from arcinv.arcs import Arc, Hypersurface, monomial_arc
from arcinv.errors import BudgetExhausted, NotInSingularLocus, PreconditionError
from arcinv.polynomials import Polynomial
from arcinv.qpers import q_persistance
from arcinv.rees import _TERM_BITS, ReesAlgebra, _presentation_size, diff_order, diff_saturate
from arcinv.tseries import TPoly, TRational
from arcinv.verify import sampled_arc, x2y3z6_surface

XYZ = ("x", "y", "z")
QUINTIC = Hypersurface(Polynomial(XYZ, {(2, 3, 0): 1, (0, 0, 6): -1}))
CUSP = Hypersurface(Polynomial(("x", "y"), {(2, 0): 1, (0, 3): -1}))
NODE = Hypersurface(Polynomial(("x", "y"), {(1, 1): 1}))


def poly_to_sympy(p, syms):
    total = sympy.Integer(0)
    for e, c in p.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(syms, e):
            term *= s**k
        total += term
    return sympy.expand(total)


def scalar_free(expr, syms):
    poly = sympy.Poly(expr, *syms)
    return sympy.expand(poly.monic().as_expr())


def sympy_derivative_presentation(surface):
    """All weighted iterated partials, derived exhaustively."""
    syms = sympy.symbols(surface.variables)
    b = surface.multiplicity
    found = set()
    for total in range(b):
        for alpha in itertools.product(range(b), repeat=len(syms)):
            if sum(alpha) != total:
                continue
            expr = poly_to_sympy(surface.f, syms)
            for s, k in zip(syms, alpha):
                expr = sympy.diff(expr, s, k)
            if expr != 0:
                found.add((b - total, scalar_free(expr, syms)))
    return found


@pytest.mark.parametrize("surface", [CUSP, NODE, QUINTIC], ids=["cusp", "node", "quintic"])
def test_saturation_matches_exhaustive_sympy_derivation(surface):
    pres = diff_saturate(surface)
    syms = sympy.symbols(surface.variables)
    ours = {
        (w, scalar_free(poly_to_sympy(g, syms), syms))
        for g, w in pres.generators
    }
    assert ours == sympy_derivative_presentation(surface)


def test_saturation_sizes_frozen():
    assert len(diff_saturate(CUSP).generators) == 3
    assert len(diff_saturate(NODE).generators) == 3
    quintic = diff_saturate(QUINTIC).generators
    assert len(quintic) == 15
    assert sorted(set(w for _, w in quintic)) == [1, 2, 3, 4, 5]


@given(st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: sum(e) >= 2),
                       st.integers(-(10**30), 10**30).filter(bool), min_size=1, max_size=5))
def test_presentation_size_bounds_the_presentation(terms):
    # The cap is checked against this bound before any partial is built.
    f = Polynomial(("x", "y"), terms)
    generators = diff_saturate(Hypersurface(f)).generators
    built = sum(_TERM_BITS + c.bit_length() for g, _ in generators for c in g.integer_form[0].values())
    assert built <= _presentation_size(f, Hypersurface(f).multiplicity)


def test_saturation_requires_a_singular_point():
    smooth = Hypersurface(Polynomial(("x", "y"), {(1, 0): 1, (0, 2): 1}))
    with pytest.raises(PreconditionError):
        diff_saturate(smooth)


def test_ord_at_center():
    assert diff_saturate(QUINTIC).ord_at_center() == 1
    assert diff_saturate(CUSP).ord_at_center() == 1
    hand = ReesAlgebra(
        [
            (Polynomial.coordinate(XYZ, "x"), 1),
            (Polynomial.coordinate(XYZ, "y"), 1),
            (Polynomial(XYZ, {(0, 0, 6): 1}), 5),
        ]
    )
    assert hand.ord_at_center() == 1


def test_ord_at_center_rejects_points_outside_the_locus():
    algebra = ReesAlgebra([(Polynomial.coordinate(XYZ, "x"), 2)])
    with pytest.raises(NotInSingularLocus):
        algebra.ord_at_center()


def test_ord_along_arc_frozen_values():
    quintic = diff_saturate(QUINTIC)
    assert quintic.ord_along_arc(monomial_arc((3, 2, 2))) == 2
    assert quintic.ord_along_arc(monomial_arc((6, 6, 5))) == 6
    assert diff_saturate(CUSP).ord_along_arc(monomial_arc((3, 2))) == 3
    assert diff_saturate(NODE).ord_along_arc(monomial_arc((1, None))) == 1


def test_ord_along_arc_fractional():
    quintic = diff_saturate(QUINTIC)
    # ramification scales the order linearly, including through weight 5
    arc = monomial_arc((6, 6, 5))
    assert quintic.ord_along_arc(arc.ramify(3)) == 18


def test_ord_along_arc_infinite_inside_the_locus():
    algebra = ReesAlgebra([(Polynomial.coordinate(("x", "y"), "x"), 1)])
    arc = Arc([TRational.zero(), TRational.t()])
    assert algebra.ord_along_arc(arc) == math.inf


def test_ord_along_arc_in_weight_one_is_the_contact_order():
    arc = monomial_arc((3, 2, 2))
    coordinates = ReesAlgebra([(Polynomial.coordinate(XYZ, v), 1) for v in XYZ])
    assert coordinates.ord_along_arc(arc) == 2
    assert ReesAlgebra([(QUINTIC.f, 1)]).ord_along_arc(arc) == math.inf


def test_ord_along_arc_checks_variables():
    quintic = diff_saturate(QUINTIC)
    with pytest.raises(PreconditionError):
        quintic.ord_along_arc(monomial_arc((1, 1)))


def test_presentations_agree_on_arc_orders():
    hand = ReesAlgebra(
        [
            (Polynomial.coordinate(XYZ, "x"), 1),
            (Polynomial.coordinate(XYZ, "y"), 1),
            (Polynomial(XYZ, {(0, 0, 6): 1}), 5),
        ]
    )
    diff = diff_saturate(QUINTIC)
    for powers in [(3, 2, 2), (6, 6, 5), (9, 6, 6), (12, 12, 10)]:
        arc = monomial_arc(powers)
        assert hand.ord_along_arc(arc) == diff.ord_along_arc(arc)


def test_generator_weights_must_be_positive():
    with pytest.raises(PreconditionError):
        ReesAlgebra([(Polynomial.coordinate(XYZ, "x"), 0)])


def test_weight_five_generator_produces_fractional_orders():
    algebra = ReesAlgebra([(Polynomial(XYZ, {(0, 0, 6): 1}), 5)])
    assert algebra.ord_along_arc(monomial_arc((3, 2, 2))) == Fraction(12, 5)


def presentation_order(surface, arc):
    """The order of the built presentation less f: the oracle for ``diff_order``."""
    return ReesAlgebra(diff_saturate(surface).generators[1:]).ord_along_arc(arc)


@st.composite
def surfaces(draw):
    """Surfaces of multiplicity >= 2 in 1-3 variables, some (x - y)^k plus one term.

    Along an arc with equal x and y components the leading forms of the
    partials of (x - y)^k cancel, so their orders come from the full routes.
    """
    n = draw(st.integers(1, 3))
    exponents = st.tuples(*[st.integers(0, 5)] * n).filter(lambda e: sum(e) >= 2)
    coefficients = st.integers(-4, 4).filter(bool)
    if n >= 2 and draw(st.booleans()):
        k = draw(st.integers(2, 5))
        terms = {(j, k - j) + (0,) * (n - 2): math.comb(k, j) * (-1) ** j for j in range(k + 1)}
        e = draw(exponents)
        terms[e] = terms.get(e, 0) + draw(coefficients)
    else:
        terms = draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=4))
    terms = {e: c for e, c in terms.items() if c}
    if not terms:
        terms = {(2,) + (0,) * (n - 1): 1}
    return Hypersurface(Polynomial(XYZ[:n], terms))


# Series vanishing at t = 0, zero included, over denominators d with d(0) != 1.
series = st.one_of(
    st.just(TRational.zero()),
    st.builds(
        lambda order, coeffs, d0, d1: TRational(
            TPoly({order + k: c for k, c in enumerate(coeffs)}), TPoly({0: d0, 1: d1})
        ),
        st.integers(1, 3),
        st.lists(st.fractions(-3, 3, max_denominator=3), min_size=1, max_size=3).filter(
            lambda cs: cs[0]
        ),
        st.integers(1, 3),
        st.integers(-2, 2),
    ),
)


@st.composite
def surface_arcs(draw):
    surface = draw(surfaces())
    n = len(surface.variables)
    components = draw(st.lists(series, min_size=n, max_size=n))
    if n >= 2 and draw(st.booleans()):
        components[1] = components[0]
    return surface, Arc(components).ramify(draw(st.integers(1, 3)))


@settings(max_examples=300, deadline=None)
@given(surface_arcs())
def test_diff_order_is_the_order_of_the_presentation(case):
    surface, arc = case
    got = diff_order(surface, arc)
    assert got == presentation_order(surface, arc)
    assert got == math.inf or type(got) is Fraction


def test_diff_order_takes_a_cancelled_partial_by_the_full_route(monkeypatch):
    """(x - y)^2 + x^3 along (t, t): d_x f = 2x - 2y + 3x^2 starts 3t^2 after its leads cancel."""
    surface = Hypersurface(Polynomial(("x", "y"), {(2, 0): 1, (1, 1): -2, (0, 2): 1, (3, 0): 1}))
    arc = Arc([TRational.t(), TRational.t()])
    built = []
    derive = Polynomial.partial_derivative
    monkeypatch.setattr(
        Polynomial, "partial_derivative", lambda self, var: built.append(var) or derive(self, var)
    )
    assert diff_order(surface, arc) == 2
    assert built
    assert presentation_order(surface, arc) == 2


def test_diff_order_is_an_exact_fraction():
    got = diff_order(QUINTIC, monomial_arc((6, 6, 5)))
    assert type(got) is Fraction
    assert got == 6
    assert diff_order(QUINTIC, monomial_arc((3, 2, 2)).ramify(5)) == Fraction(10)
    assert diff_order(NODE, Arc([TRational.t(), TRational.zero()])) == 1
    assert diff_order(Hypersurface(Polynomial(("x", "y"), {(2, 0): 1})),
                      Arc([TRational.zero(), TRational.t()])) == math.inf


def test_diff_order_refuses_as_diff_saturate_does():
    smooth = Hypersurface(Polynomial(("x", "y"), {(1, 0): 1, (0, 2): 1}))
    huge = Hypersurface(Polynomial(("x", "y"), {(20000, 0): 1}))
    for surface, error in [(smooth, PreconditionError), (huge, BudgetExhausted)]:
        with pytest.raises(error) as saturating:
            diff_saturate(surface)
        # The surface is checked before the arc, whose length is wrong here.
        with pytest.raises(error) as reading:
            diff_order(surface, monomial_arc((1, 1, 1)))
        assert str(reading.value) == str(saturating.value)
    with pytest.raises(PreconditionError, match="arc does not match the ambient variables"):
        diff_order(QUINTIC, monomial_arc((None, 1)))


def test_q_persistance_builds_no_presentation_on_a_sampled_arc(monkeypatch):
    def refuse(*args):
        raise AssertionError("the presentation was built")

    # diff_saturate derives through partial_derivative, wherever it is imported.
    monkeypatch.setattr(arcinv.rees, "diff_saturate", refuse)
    monkeypatch.setattr(Polynomial, "partial_derivative", refuse)
    assert q_persistance(x2y3z6_surface(), sampled_arc(1, 1, 0)).r == 6
