"""Multivariate layer, checked against sympy where an oracle helps."""

import math
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arcinv import polynomials
from arcinv.arcs import Hypersurface, monomial_arc
from arcinv.nash import nash_sequence, persistance
from arcinv.polynomials import Polynomial
from arcinv.qpers import q_persistance
from arcinv.tseries import TPoly, TRational, _convolve
from arcinv.verify import sampled_arc, x2y3z6_surface

VARS = ("x", "y", "z")
SYMS = sympy.symbols(VARS)
T = sympy.Symbol("t")

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=6)
exponents = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))
polys = st.dictionaries(exponents, coeffs, max_size=6).map(
    lambda terms: Polynomial(VARS, terms)
)

small_tpolys = st.dictionaries(st.integers(0, 4), coeffs, max_size=3).map(TPoly)


def to_sympy(p: Polynomial):
    total = sympy.Integer(0)
    for e, c in p.items():
        term = sympy.Rational(c.numerator, c.denominator)
        for s, k in zip(SYMS, e):
            term *= s**k
        total += term
    return sympy.expand(total)


def tpoly_to_sympy(p: TPoly):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * T**e for e, c in p.items()),
        sympy.Integer(0),
    )


def test_construction_normalizes_zero_coefficients():
    p = Polynomial(VARS, {(1, 0, 0): 0, (0, 1, 0): 2})
    assert p.items() == [((0, 1, 0), Fraction(2))]


def test_exponent_arity_checked():
    with pytest.raises(ValueError):
        Polynomial(VARS, {(1, 0): 1})


def test_order_at_origin():
    p = Polynomial(VARS, {(2, 3, 0): 1, (0, 0, 6): -1})
    assert p.order_at_origin() == 5
    assert Polynomial(VARS, {}).order_at_origin() == math.inf


def test_coordinate_and_monomial():
    x, y = (Polynomial.coordinate(VARS, name) for name in "xy")
    assert x.items() == [((1, 0, 0), Fraction(1))]
    assert y.items() == [((0, 1, 0), Fraction(1))]
    m = Polynomial(VARS, {(1, 2, 0): Fraction(6, 2)})
    assert m.items() == [((1, 2, 0), Fraction(3))]
    assert str(m) == "3*x*y^2"


@given(polys, st.sampled_from(VARS))
def test_partial_derivative_matches_sympy(p, var):
    got = p.partial_derivative(var)
    expected = sympy.diff(to_sympy(p), sympy.Symbol(var))
    assert to_sympy(got) == sympy.expand(expected)


@settings(deadline=None)
@given(polys, st.tuples(coeffs, coeffs, coeffs))
def test_translate_matches_sympy(p, point):
    got = p.translate(point)
    subs = {
        s: s + sympy.Rational(a.numerator, a.denominator)
        for s, a in zip(SYMS, point)
    }
    expected = sympy.expand(to_sympy(p).subs(subs, simultaneous=True))
    assert to_sympy(got) == expected


@given(polys, st.tuples(coeffs, coeffs, coeffs))
def test_evaluate_matches_translate_constant_term(p, point):
    subs = {s: sympy.Rational(a.numerator, a.denominator) for s, a in zip(SYMS, point)}
    constant = p.translate(point).constant_term
    assert to_sympy(p).subs(subs) == sympy.Rational(constant.numerator, constant.denominator)


@settings(deadline=None)
@given(polys, small_tpolys, small_tpolys, small_tpolys)
def test_compose_with_polynomials_matches_sympy(p, a, b, c):
    values = [TRational(a), TRational(b), TRational(c)]
    got = p.compose(values)
    assert got.den == TPoly.one()
    subs = {s: tpoly_to_sympy(q) for s, q in zip(SYMS, (a, b, c))}
    expected = sympy.expand(to_sympy(p).subs(subs, simultaneous=True))
    assert sympy.expand(tpoly_to_sympy(got.num)) == expected


# Quotients n/d with rational coefficients and d(0) != 0, d not monic: the
# canonical den is then monic with fractional coefficients, so both scalars
# of the integer form (a of n, b of d) differ from 1.
unit_tpolys = st.tuples(
    coeffs.filter(bool), st.dictionaries(st.integers(1, 2), coeffs, max_size=2)
).map(lambda pair: TPoly({0: pair[0], **pair[1]}))
quotients = st.tuples(small_tpolys, unit_tpolys).map(lambda nd: TRational(*nd))
low_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), coeffs, max_size=4
).map(lambda terms: Polynomial(VARS, terms))
zero_value = TRational(TPoly())

# Numerators over 200 bits (2^203 or more, over at most 6), so that the slot
# width of the evaluation at t = 2^W must count the coefficients' bits.
wide_coeffs = st.tuples(st.integers(2**203, 2**230), st.sampled_from((-1, 1)), st.integers(1, 6))
some_coeffs = st.one_of(coeffs, wide_coeffs.map(lambda nsd: Fraction(nsd[0] * nsd[1], nsd[2])))
wide_tpolys = st.dictionaries(st.integers(0, 4), some_coeffs, max_size=3).map(TPoly)
wide_polys = st.one_of(
    st.just(Polynomial(VARS, {})),
    st.dictionaries(exponents, some_coeffs, max_size=6).map(lambda terms: Polynomial(VARS, terms)),
)
wide_values = st.one_of(st.just(zero_value), wide_tpolys.map(TRational), quotients)

# u = s n/d with n dense from order 1 or 2 on, as sample_binomial_arc builds
# it, d constant or not, and s a scalar of about 60 bits over about 60 bits,
# so that each value carries its own large scalar, which the evaluation at
# t = 2^W folds into the coefficients.
scalars = st.tuples(
    st.integers(2**59, 2**61), st.sampled_from((-1, 1)), st.integers(2**59, 2**61)
).map(lambda nsd: Fraction(nsd[0] * nsd[1], nsd[2]))
dense_quotients = st.tuples(
    st.integers(1, 2), st.lists(some_coeffs.filter(bool), min_size=4, max_size=4), scalars,
    st.one_of(st.just(TPoly.one()), unit_tpolys),
).map(lambda parts: TRational(
    TPoly({parts[0] + k: parts[2] * c for k, c in enumerate(parts[1])}), parts[3]
))


def binomial_pullback(a, b, c, scale, shift, u, v):
    """scale (x^a y^b - z^c) in z recentered by shift, along (u^c, v^c, u^a v^b - shift).

    The pullback is zero.  The shift makes it a sum in which numerators and
    denominators mix, so that a wrong denominator cannot cancel out.
    """
    p = Polynomial(VARS, {(a, b, 0): scale, (0, 0, c): -scale}).translate((0, 0, shift))
    return p, (u**c, v**c, u**a * v**b - shift)


exponent = st.integers(1, 3)
binomial_pullbacks = st.builds(
    binomial_pullback, exponent, exponent, exponent, some_coeffs.filter(bool), coeffs,
    dense_quotients, dense_quotients,
)


@settings(deadline=None)
@given(low_polys, st.tuples(quotients, quotients, quotients))
def test_compose_of_quotients_matches_sympy(p, values):
    subs = {s: tpoly_to_sympy(v.num) / tpoly_to_sympy(v.den) for s, v in zip(SYMS, values)}
    expected = sympy.cancel(to_sympy(p).subs(subs, simultaneous=True))
    got = p.compose(values)
    assert sympy.cancel(tpoly_to_sympy(got.num) / tpoly_to_sympy(got.den) - expected) == 0
    num = sympy.fraction(expected)[0]
    order = math.inf if num == 0 else min(k for (k,) in sympy.Poly(num, T).monoms())
    assert p.compose_order(values) == order


def leading_term(value):
    """(o, l) with value = l t^o + higher powers; None for the zero function."""
    if value.is_zero:
        return None
    (o, c), (_, d0) = value.num.items()[0], value.den.items()[0]
    return o, c / d0


def cancelled_at_the_lowest_weight(p, values, classes=1):
    """p (x^a + x^b) for two monomials of one weight, its lowest classes cancelled.

    With o_i and l_i the order and leading coefficient of value i, the weight
    of x^e is e . o, and the terms of one weight with no zero value as a
    factor form a class, with leading coefficient S = sum of c_e prod_i
    l_i^(e_i).  At least two values must be nonzero, so that x^a and x^b
    exist.  Multiplying by x^a + x^b, which maps each class of p to one
    class, leaves at least two terms in every class; in each of the lowest
    ``classes`` classes, the balancing term -(S / prod_i l_i^(e0_i)) x^e0
    for one of them, e0, makes S = 0 while a term of that weight remains.
    When every term has a zero factor, there is no class and the product
    is returned as it is.
    """
    leads = [leading_term(v) for v in values]
    live = [i for i, lead in enumerate(leads) if lead is not None]
    unit = lambda i, k: tuple(k if j == i else 0 for j in range(len(values)))
    flat = [i for i in live if leads[i][0] == 0]
    if flat:
        a, b = unit(flat[0], 0), unit(flat[0], 1)
    else:
        i, j = live[:2]
        a, b = unit(i, leads[j][0]), unit(j, leads[i][0])
    terms = {}
    for e, c in p.items():
        for shift in (a, b):
            key = tuple(map(sum, zip(e, shift)))
            terms[key] = terms.get(key, 0) + c
    weight = {e: sum(k * lead[0] for k, lead in zip(e, leads) if k)
              for e, c in terms.items()
              if c and all(lead is not None for k, lead in zip(e, leads) if k)}
    monomial = lambda e: math.prod(lead[1] ** k for k, lead in zip(e, leads) if k)
    for low in sorted(set(weight.values()))[:classes]:
        lowest = sorted(e for e, w in weight.items() if w == low)
        e0 = lowest[0]
        terms[e0] -= sum(terms[e] * monomial(e) for e in lowest) / monomial(e0)
    return Polynomial(p.variables, terms)


# Two nonzero quotients and one value that may be zero, in any order.
live_tpolys = st.tuples(
    st.dictionaries(st.integers(0, 4), coeffs, max_size=2), st.integers(0, 4), coeffs.filter(bool)
).map(lambda parts: TPoly({**parts[0], parts[1]: parts[2]}))
live_quotients = st.tuples(live_tpolys, unit_tpolys).map(lambda nd: TRational(*nd))
mixed_values = st.tuples(
    live_quotients, live_quotients, st.one_of(st.just(TRational(TPoly())), quotients)
).flatmap(st.permutations)


low_wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)), some_coeffs, max_size=4
).map(lambda terms: Polynomial(VARS, terms))
cancellations = st.tuples(low_wide_polys.filter(bool), mixed_values).map(
    lambda pv: (cancelled_at_the_lowest_weight(*pv), pv[1])
)

# l t^o, with o in 0..3 so that weights collide, and l t^o / (1 + c t^k),
# which starts the same but is not one term; the lowest one or two classes cancel.
term_values = st.builds(
    lambda o, l: TRational(TPoly({o: l})), st.integers(0, 3), some_coeffs.filter(bool)
)
over_units = st.builds(
    lambda o, l, k, c: TRational(TPoly({o: l}), TPoly({0: 1, k: c})),
    st.integers(0, 3), some_coeffs.filter(bool), st.integers(1, 2), some_coeffs.filter(bool),
)
class_values = st.tuples(
    *[st.one_of(st.just(zero_value), term_values, term_values, over_units)] * 3
).filter(lambda values: sum(map(bool, values)) >= 2)
class_cancellations = st.tuples(
    low_wide_polys.filter(bool), class_values, st.integers(1, 2)
).map(lambda pvc: (cancelled_at_the_lowest_weight(*pvc), pvc[1]))


# Dense values with large scalars, one of them maybe zero, their lowest class
# cancelled, so that the order is read at t = 2^W.
dense_cancellations = st.tuples(
    low_wide_polys.filter(bool),
    st.tuples(dense_quotients, dense_quotients, st.one_of(st.just(zero_value), dense_quotients))
    .flatmap(st.permutations),
).map(lambda pv: (cancelled_at_the_lowest_weight(*pv), pv[1]))


@settings(deadline=None)
@given(st.one_of(st.tuples(wide_polys, st.tuples(wide_values, wide_values, wide_values)),
                 binomial_pullbacks, dense_cancellations))
def test_compose_order_agrees_with_compose(pullback):
    p, values = pullback
    assert p.compose_order(values) == p.compose(values).t_order()


@contextmanager
def full_pullbacks():
    """Spies on the two routes of a full pullback: (_compose_parts, _evaluated_order)."""
    with mock.patch.object(Polynomial, "_compose_parts", autospec=True,
                           side_effect=Polynomial._compose_parts) as parts, \
         mock.patch.object(Polynomial, "_evaluated_order", autospec=True,
                           side_effect=Polynomial._evaluated_order) as evaluated:
        yield parts, evaluated


@settings(deadline=None)
@given(st.one_of(cancellations, class_cancellations, binomial_pullbacks))
def test_compose_order_after_a_cancellation_of_the_leading_form(pullback):
    """One full route, unless every term has a zero factor or every value is one term.

    Past cancelled lowest classes, one-term values read the order from the
    weight classes of the pullback and build no numerator.
    """
    q, values = pullback
    with full_pullbacks() as (parts, evaluated):
        order = q.compose_order(values)
    free = any(all(not k or not v.is_zero for k, v in zip(e, values)) for e in q.terms)
    terms = all(v.is_zero or v._is_term() for v in values)
    assert parts.call_count + evaluated.call_count == int(free and not terms)
    assert order == q.compose(values).t_order()


def test_a_zero_factor_in_every_term_runs_no_full_pullback():
    """x^200 y + x z^3 along (0, t + t^2, 2t): each term vanishes, with no numerator built."""
    q = Polynomial(VARS, {(200, 1, 0): 1, (1, 0, 3): 5})
    values = (TRational(TPoly()), TRational(TPoly({1: 1, 2: 1})), TRational(TPoly({1: 2})))
    with full_pullbacks() as (parts, evaluated):
        assert q.compose_order(values) == math.inf
    assert parts.call_count + evaluated.call_count == 0


def test_a_finite_order_runs_no_full_pullback():
    """A monomial arc builds no numerator; along a sampled arc only the membership check does."""
    surface = Hypersurface(Polynomial(VARS, {(2, 3, 0): 1, (0, 0, 6): -1}))
    with full_pullbacks() as (parts, evaluated):
        assert q_persistance(surface, monomial_arc((6, 6, 5))).r == 6
    assert parts.call_count + evaluated.call_count == 0
    with full_pullbacks() as (parts, evaluated):
        assert q_persistance(surface, sampled_arc(1, 1, 0)).r == 6
    calls = parts.call_args_list + evaluated.call_args_list
    assert len(calls) == 1
    assert calls[0].args[0] == surface.f


def test_only_dense_values_evaluate_the_pullback():
    """Dense values take the evaluation at t = 2^W; monomial and ramified ones do not."""
    surface = x2y3z6_surface()
    with full_pullbacks() as (parts, evaluated):
        assert sampled_arc(1, 1, 0).lies_on(surface)
    assert (parts.call_count, evaluated.call_count) == (0, 1)
    with full_pullbacks() as (parts, evaluated):
        assert persistance(surface, monomial_arc((6, 6, 5)).ramify(50)) == 300
        nash_sequence(surface, sampled_arc(1, 1, 0).ramify(50))
    assert parts.call_count > 0
    assert evaluated.call_count == 0


def test_the_scalars_of_the_values_leave_the_slot_width():
    """W of two dense pullbacks on x^2 y^3 - z^6, at most 2/3 of W with the scalars kept.

    With each value's scalar raised in every term, W is 181 for the membership
    of sampled_arc(1, 0, 0) and 704 for the 92-term final check of
    lowest_index along sampled_arc(1, 1, 0).  Folded into the coefficients,
    the scalars share a gcd, which is divided out before W is taken.
    """
    surface = x2y3z6_surface()
    at_power_of_two = mock.patch.object(
        polynomials, "_at_power_of_two", wraps=polynomials._at_power_of_two
    )
    with at_power_of_two as at:
        assert sampled_arc(1, 0, 0).lies_on(surface)
    assert max(call.args[1] for call in at.call_args_list) <= 181 * 2 / 3
    with full_pullbacks() as (_, evaluated), at_power_of_two as at:
        nash_sequence(surface, sampled_arc(1, 1, 0), tie_break="lowest_index")
    assert len(evaluated.call_args_list[-1].args[0].terms) == 92
    assert at.call_args_list[-1].args[1] <= 704 * 2 / 3


def per_term_parts(p, values):
    """The substitution with one product per term: the formula the nested sum replaces.

    num = sum_e c_e prod_i p_i^e_i q_i^(M_i - e_i) and den = D prod_i q_i^M_i
    for the canonical pairs x_i = p_i / q_i, as integer maps with no zero entry.
    """
    tops = [max(column, default=0) for column in zip(*p._nums)]
    parts = [value.integer_form for value in values]
    num = {}
    for e, c in p._nums.items():
        term = {0: c}
        for (big_p, big_q), k, top in zip(parts, e, tops):
            for _ in range(k):
                term = _convolve(term, big_p)
            for _ in range(top - k):
                term = _convolve(term, big_q)
        for power, value in term.items():
            num[power] = num.get(power, 0) + value
    den = {0: p._den}
    for (_, big_q), top in zip(parts, tops):
        for _ in range(top):
            den = _convolve(den, big_q)
    return tuple({k: c for k, c in part.items() if c} for part in (num, den))


# Four variables, like a transform with the cylinder variable s, and up to 20
# terms over few exponents, so that the terms share leading exponents; one
# column may be zeroed so that a variable has top exponent 0.
VARS4 = ("x", "y", "z", "s")
dense_polys = st.tuples(
    st.dictionaries(st.tuples(*[st.integers(0, 2)] * 4), coeffs, max_size=20),
    st.integers(0, 4),
).map(lambda pair: Polynomial(VARS4, {
    tuple(0 if i == pair[1] else k for i, k in enumerate(e)): c
    for e, c in pair[0].items()
}))


@settings(deadline=None)
@given(
    st.one_of(dense_polys, coeffs.map(lambda c: Polynomial(VARS4, {(0, 0, 0, 0): c}))),
    st.tuples(*[st.one_of(st.just(zero_value), quotients)] * 4),
)
def test_nested_sum_matches_the_per_term_formula(p, values):
    assert p._compose_parts(values) == per_term_parts(p, values)


def test_compose_arity_checked():
    p = Polynomial(VARS, {(1, 0, 0): 1})
    with pytest.raises(ValueError):
        p.compose([TRational.t()])


def test_extend_variables():
    p = Polynomial(("x", "y"), {(2, 1): 5})
    q = p.extend_variables(("s",))
    assert q.variables == ("x", "y", "s")
    assert q.items() == [((2, 1, 0), Fraction(5))]


def test_map_exponents_adds_the_terms_that_collide():
    p = Polynomial(("x", "y"), {(2, 0): 1, (1, 1): Fraction(1, 2), (0, 2): Fraction(-3, 2)})
    assert p._map_exponents(lambda e: (sum(e),), ("u",)) == Polynomial(("u",), {})
    assert p._map_exponents(lambda e: (max(e), 0)) == Polynomial(
        ("x", "y"), {(2, 0): Fraction(-1, 2), (1, 0): Fraction(1, 2)}
    )
    assert p._map_exponents(lambda e: (e[1], e[0])) == Polynomial(
        ("x", "y"), {(0, 2): 1, (1, 1): Fraction(1, 2), (2, 0): Fraction(-3, 2)}
    )
    with pytest.raises(ValueError):
        p.extend_variables(("x",))


def assert_lowest_terms(p):
    den, nums = p._den, p._nums
    assert den > 0
    assert all(nums.values())
    assert math.gcd(den, *nums.values()) == 1
    assert Polynomial(p.variables, p.terms) == p


@given(polys, st.tuples(coeffs, coeffs, coeffs), st.sampled_from(VARS))
def test_stored_form_is_unique(p, point, var):
    merged = p._map_exponents(lambda e: (e[0] + e[1], 0, e[2]))
    constant = p._map_exponents(lambda e: (0, 0, 0))
    for result in [p, p.translate(point), p.partial_derivative(var), merged, constant,
                   p.extend_variables(("s",))]:
        assert_lowest_terms(result)


def test_str_is_deterministic():
    p = Polynomial(VARS, {(2, 3, 0): 1, (0, 0, 6): -1})
    assert str(p) == str(Polynomial(VARS, {(0, 0, 6): -1, (2, 3, 0): 1}))
