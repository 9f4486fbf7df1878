"""Univariate layer: polynomials in t, canonical quotients, gcd.

sympy is used as an independent oracle for the gcd, whose heuristic kernel
reads a polynomial off the digits of an integer and is worth distrusting.
"""

import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arcinv.arcs import monomial_arc
from arcinv.polynomials import Polynomial
import arcinv.tseries as tseries
from arcinv.tseries import TPoly, TRational, _cancel, t_gcd

T = sympy.Symbol("t")

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
nonzero_coeffs = coeffs.filter(bool)

tpolys = st.dictionaries(st.integers(0, 10), coeffs, max_size=6).map(TPoly)
nonzero_tpolys = tpolys.filter(lambda p: not p.is_zero)

# denominators must not vanish at t = 0
unit_tpolys = st.tuples(
    nonzero_coeffs, st.dictionaries(st.integers(1, 8), coeffs, max_size=4)
).map(lambda pair: TPoly({0: pair[0]}) + TPoly(pair[1]))

trationals = st.tuples(tpolys, unit_tpolys).map(lambda nd: TRational(nd[0], nd[1]))


def to_sympy(p: TPoly):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * T**e for e, c in p.items()),
        sympy.Integer(0),
    )


def test_zero_conventions():
    zero = TPoly.zero()
    assert zero.is_zero
    assert zero.degree == -1
    assert zero.order() == math.inf
    assert not zero
    got, want = TRational.zero(), TRational(zero, TPoly({0: 3, 1: 1}))
    assert (got.num, got.den) == (want.num, want.den)


def test_trational_truth_is_nonzero():
    assert not TRational.zero()
    assert TRational.t()
    assert not TRational.one() - 1


def test_basic_arithmetic():
    p = TPoly({0: 1, 1: 2})
    q = TPoly({2: 3})
    assert (p * q) == TPoly({2: 3, 3: 6})
    assert (p + q).degree == 2
    assert (p + p.scale(-1)).is_zero
    assert p.scale(Fraction(1, 2)) == TPoly({0: Fraction(1, 2), 1: 1})


def test_order_and_leading():
    p = TPoly({3: 5, 7: -1})
    assert p.order() == 3
    assert p.degree == 7
    assert p.integer_form == ({3: 5, 7: -1}, 1)
    assert p.monic().integer_form == ({3: -5, 7: 1}, 1)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        TPoly({-1: 1})


XY = ("x", "y")


@pytest.mark.parametrize(
    "build",
    [
        lambda: TPoly({1: 0.1}),
        lambda: Polynomial(XY, {(2, 0): 0.5, (0, 3): -1}),
        lambda: Polynomial(XY, {(2, 0): 1, (0, 3): -1}).translate((0.5, 0)),
        lambda: TPoly({True: 1}),
        lambda: Polynomial(XY, {(True, 1): 1}),
        lambda: TPoly.one().scale(0.5),
        lambda: TPoly.t().stretch(True),
        lambda: TPoly.t().stretch(2.0),
        lambda: TRational.t().ramify(True),
        lambda: monomial_arc((2, 3)).ramify(True),
        lambda: TRational.t() ** True,
        lambda: TRational.t() ** 2.0,
        lambda: TRational.t() - True,
        lambda: TRational.t() - 0.5,
    ],
    ids=[
        "tpoly-float-coeff",
        "polynomial-float-coeff",
        "translate-float",
        "tpoly-bool-exponent",
        "polynomial-bool-exponent",
        "scale-float",
        "stretch-bool",
        "stretch-float",
        "trational-ramify-bool",
        "arc-ramify-bool",
        "pow-bool",
        "pow-float",
        "sub-bool",
        "sub-float",
    ],
)
def test_inexact_scalars_are_refused(build):
    with pytest.raises(ValueError):
        build()


def assert_lowest_terms(p):
    den, nums = p._den, p._nums
    assert den > 0
    assert all(nums.values())
    assert math.gcd(den, *nums.values()) == 1
    assert TPoly(dict(p.items())) == p


@given(tpolys, tpolys, nonzero_tpolys, nonzero_tpolys, nonzero_coeffs, st.integers(1, 4))
def test_stored_form_is_unique(a, b, c, d, factor, n):
    for result in [a + b, a + b.scale(-1), a + a.scale(-1), a * b, a.scale(factor), a.scale(0),
                   a.stretch(n), c.monic(), t_gcd(a, c), *_cancel(c * d, d)]:
        assert_lowest_terms(result)


def test_stretch_scales_orders():
    p = TPoly({1: 2, 3: 1})
    assert p.stretch(4) == TPoly({4: 2, 12: 1})


@settings(deadline=None)
@given(tpolys, tpolys)
def test_gcd_matches_sympy(a, b):
    assume(not (a.is_zero and b.is_zero))
    got = t_gcd(a, b)
    expected = sympy.gcd(to_sympy(a), to_sympy(b), T)
    expected = sympy.Poly(expected, T).monic().as_expr()
    assert sympy.expand(to_sympy(got) - expected) == 0


@given(nonzero_tpolys, nonzero_tpolys)
def test_gcd_divides_both(a, b):
    g = to_sympy(t_gcd(a, b))
    assert sympy.rem(to_sympy(a), g, T) == 0
    assert sympy.rem(to_sympy(b), g, T) == 0


def test_gcd_widens_past_a_misread_round(monkeypatch):
    # (2t + 3)(t - 1)^2 and (t - 2)(t - 1)^2 have max norm 5, so the first
    # width is k = 4.  At t = 16 the cofactors take the values 35 and 14,
    # which share 7, and gamma = 7 * 15^2 = 1575 has the base-16 digits
    # 6, 2, 7: no multiple of (t - 1)^2, so that round must fail its check.
    widths = []
    digits = tseries._balanced_digits
    monkeypatch.setattr(
        tseries, "_balanced_digits", lambda value, k: widths.append(k) or digits(value, k)
    )
    square = TPoly({0: 1, 1: -2, 2: 1})
    a, b = TPoly({0: 3, 1: 2}) * square, TPoly({0: -2, 1: 1}) * square
    assert t_gcd(a, b) == square
    assert widths[0] == 4 and max(widths) > 4
    expected = sympy.gcd(to_sympy(a), to_sympy(b), T)
    assert sympy.expand(to_sympy(square) - sympy.Poly(expected, T).monic().as_expr()) == 0


big_tpolys = st.dictionaries(
    st.integers(0, 8), st.integers(-(2**200), 2**200), min_size=1, max_size=5
).map(TPoly).filter(bool)


@settings(deadline=None)
@given(big_tpolys, big_tpolys, big_tpolys)
def test_cancel_of_a_common_factor(a, b, g):
    num, den = a * g, (b * g).monic()
    got_num, got_den = _cancel(num, den)
    assert got_num * den == got_den * num
    nums, den_den = got_den.integer_form
    assert nums[max(nums)] == den_den
    assert sympy.degree(sympy.gcd(to_sympy(got_num), to_sympy(got_den), T), T) == 0


def test_gcd_pulls_out_t_powers():
    a = TPoly({4: 1, 6: 1})
    b = TPoly({2: 3})
    assert t_gcd(a, b) == TPoly.t(2)


def test_gcd_of_zeros_is_zero():
    assert t_gcd(TPoly.zero(), TPoly.zero()).is_zero


def test_trational_canonical_form():
    v = TRational(TPoly({1: 2, 2: 2}), TPoly({0: 2, 1: 2}))
    # (2t + 2t^2) / (2 + 2t) = t
    assert v.num == TPoly.t()
    assert v.den == TPoly.one()


def test_trational_rejects_vanishing_denominator():
    with pytest.raises(ValueError):
        TRational(TPoly.one(), TPoly.t())
    with pytest.raises(ZeroDivisionError):
        TRational(TPoly.one(), TPoly.zero())


def assert_canonical(v):
    if v.is_zero:
        assert v.den == TPoly.one()
    else:
        nums, den = v.den.integer_form
        assert 0 in nums
        assert nums[max(nums)] == den
        assert t_gcd(v.num, v.den) == TPoly.one()


@given(trationals)
def test_canonical_invariants(v):
    assert_canonical(v)


@given(trationals, trationals, trationals, coeffs, coeffs)
def test_field_identities(a, b, c, x, y):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert (a - x) - y == a - (x + y)
    assert a - 0 == a
    assert (a - a.value_at_zero()).t_order() >= 1


# Scalars for __sub__: ints, Fractions, or None for the value at t = 0, which
# the engine subtracts to recenter an arc and which leaves 0 from a constant.
@given(st.one_of(trationals, coeffs.map(TRational)),
       st.one_of(coeffs, st.integers(-9, 9), st.none()))
def test_scalar_subtraction_matches_the_gcd_route(v, c):
    c = v.value_at_zero() if c is None else c
    got = v - c
    want = TRational(v.num + v.den.scale(-c), v.den)
    assert (got.num, got.den) == (want.num, want.den)
    assert_canonical(got)


@given(trationals)
def test_division_inverts_multiplication(a):
    assume(not a.is_zero)
    assert (a * a) / a == a
    assert a / a == TRational.one()


# Divisors that take the one-term shortcut with a coefficient that must be
# divided out, and quotients whose denominator survives cancellation.
one_terms = st.tuples(nonzero_coeffs.filter(lambda c: abs(c) != 1), st.integers(0, 4)).map(
    lambda ck: TRational(TPoly({ck[1]: ck[0]}))
)
with_denominator = trationals.filter(lambda v: v.den.degree > 0)
quotients = st.one_of(trationals, one_terms, with_denominator)
# Powers of t in the dividend let divisors of positive order divide it.
dividends = st.one_of(
    st.tuples(quotients, st.integers(0, 4)).map(lambda vk: vk[0] * TRational.t(vk[1])),
    st.just(TRational.zero()),
)


@given(dividends, quotients.filter(lambda v: not v.is_zero))
def test_division_matches_the_full_gcd_route(a, b):
    # Oracle: one gcd of the full cross products, through __init__.
    try:
        want = TRational(a.num * b.den, a.den * b.num)
    except ValueError:
        with pytest.raises(ValueError, match="not a power series"):
            a / b
        return
    got = a / b
    assert (got.num, got.den) == (want.num, want.den)
    assert_canonical(got)


def test_division_keeps_its_errors():
    with pytest.raises(ValueError, match="not a power series"):
        TRational.one() / TRational.t()
    for x in [TRational.one(), TRational.zero(), TRational.t()]:
        with pytest.raises(ZeroDivisionError):
            x / TRational.zero()
        for other in [TPoly.zero(), 0, TPoly.one(), 1]:
            with pytest.raises(TypeError):
                x / other
            with pytest.raises(TypeError):
                x * other


@given(nonzero_tpolys, nonzero_coeffs, st.integers(0, 6))
def test_cancel_of_one_term_is_the_gcd_route(p, c, k):
    term = TPoly({k: c})
    common = t_gcd(p, term)
    for num, den in [(p, term), (term, p)]:
        got_num, got_den = _cancel(num, den)
        assert (got_num * common, got_den * common) == (num, den)


# Inputs on which the square-and-multiply once ran past the default deadline.
SLOW_POW_BASE = TRational(
    TPoly({0: Fraction(-7, 15), 1: Fraction(1, 63), 2: Fraction(1, 36), 10: Fraction(-1, 81)}),
    TPoly({0: Fraction(1, 9), 1: Fraction(-1, 9), 8: 1}),
)
SLOW_POW_BASE_2 = TRational(
    TPoly({0: Fraction(7, 9), 2: Fraction(1, 9), 3: Fraction(1, 63), 10: Fraction(1, 9)}),
    TPoly({0: Fraction(1, 18), 8: 1}),
)


@given(trationals, st.integers(0, 5))
@example(a=SLOW_POW_BASE, k=4)
@example(a=SLOW_POW_BASE, k=5)
@example(a=SLOW_POW_BASE_2, k=5)
def test_pow_is_repeated_multiplication(a, k):
    by_hand = TRational.one()
    for _ in range(k):
        by_hand = by_hand * a
    assert a**k == by_hand


def test_pow_squares_only_while_bits_remain(monkeypatch):
    squarings = []
    multiply = TRational.__mul__

    def counting_mul(self, other):
        if other is self:
            squarings.append(self)
        return multiply(self, other)

    monkeypatch.setattr(TRational, "__mul__", counting_mul)
    num, den = TPoly({0: 1, 1: 2}), TPoly({0: 1, 2: 3})
    base = TRational(num, den)
    num_k, den_k = TPoly.one(), TPoly.one()
    for k in range(1, 10):
        num_k, den_k = num_k * num, den_k * den
        squarings.clear()
        assert base**k == TRational(num_k, den_k)
        assert len(squarings) == k.bit_length() - 1


terms = st.tuples(nonzero_coeffs, st.integers(0, 6)).map(
    lambda ck: TRational(TPoly({ck[1]: ck[0]}))
)


@given(terms, st.integers(1, 6))
def test_power_of_a_term_is_the_generic_route(a, k):
    # Oracle: the k-fold product of the numerator, through __init__.
    num = TPoly.one()
    for _ in range(k):
        num = num * a.num
    got, want = a**k, TRational(num)
    assert (got.num, got.den) == (want.num, want.den)


@given(dividends, terms)
def test_division_by_a_term_is_the_generic_route(a, b):
    try:
        want = TRational(a.num * b.den, a.den * b.num)
    except ValueError:
        with pytest.raises(ValueError, match="not a power series"):
            a / b
        return
    got = a / b
    assert (got.num, got.den) == (want.num, want.den)


def assert_canonical_product(product, a, b):
    assert_canonical(product)
    assert product == TRational(a.num * b.num, a.den * b.den)


@given(trationals, trationals, unit_tpolys)
def test_products_are_canonical(x, y, common):
    # __mul__ skips the gcd of the full products; this is what licenses it.
    # The shared factor makes the cross-cancellation do real work.
    a = TRational(x.num * common, x.den)
    b = TRational(y.num, y.den * common)
    for lhs, rhs in [(a, b), (a, a), (a, TRational.zero()), (TRational.one(), a)]:
        assert_canonical_product(lhs * rhs, lhs, rhs)
        assert_canonical_product(rhs * lhs, rhs, lhs)


@given(trationals, st.integers(1, 5))
def test_ramify_stays_canonical(v, n):
    # It skips the gcd of __init__; structural equality checks that is sound.
    got, want = v.ramify(n), TRational(v.num.stretch(n), v.den.stretch(n))
    assert (got.num, got.den) == (want.num, want.den)


@given(trationals, st.integers(2, 5))
def test_ramify_scales_order(v, n):
    assume(not v.is_zero)
    assert v.ramify(n).t_order() == n * v.t_order()


@given(trationals, trationals, coeffs, st.integers(2, 4))
def test_ramify_is_a_homomorphism(a, b, c, n):
    assert (a * b).ramify(n) == a.ramify(n) * b.ramify(n)
    assert (a - c).ramify(n) == a.ramify(n) - c


def test_value_at_zero():
    v = TRational(TPoly({0: 3, 1: 1}), TPoly({0: 2, 1: 5}))
    assert v.value_at_zero() == Fraction(3, 2)


def test_t_order_of_zero_is_infinite():
    assert TRational.zero().t_order() == math.inf
