"""Univariate layer: canonical quotients of coefficient maps in t, and the gcd.

A polynomial in t is a map from powers to Fraction coefficients, the form
``TRational`` takes and reads back through ``num`` and ``den``; the helpers
below add and multiply such maps by hand.  sympy is used as an independent
oracle for the gcd, whose heuristic kernel reads a polynomial off the digits
of an integer and is worth distrusting; ``t_gcd`` below reads the monic gcd
from that kernel for the comparison.
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
from arcinv.tseries import TRational, _cancel, _gcd_cofactors

T = sympy.Symbol("t")
ZERO = {}
ONE = {0: 1}


def integers(a: dict) -> dict[int, int]:
    """a times the lcm of its denominators, with no zero entries."""
    den = math.lcm(*(Fraction(c).denominator for c in a.values()))
    return {e: int(c * den) for e, c in a.items() if c}


def t_gcd(a: dict, b: dict) -> dict:
    """Monic gcd from ``_gcd_cofactors``; common powers of t are part of it."""
    u, v = integers(a), integers(b)
    h = _gcd_cofactors(u, v)[0] if u and v else u or v
    return {e: Fraction(c, h[max(h)]) for e, c in h.items()}

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
nonzero_coeffs = coeffs.filter(bool)

# Zero coefficients are drawn too: a map of only zeros is the zero series.
t_maps = st.dictionaries(st.integers(0, 10), coeffs, max_size=6)
nonzero_t_maps = t_maps.filter(lambda p: any(p.values()))

# denominators must not vanish at t = 0
unit_maps = st.tuples(
    nonzero_coeffs, st.dictionaries(st.integers(1, 8), coeffs, max_size=4)
).map(lambda pair: {0: pair[0], **pair[1]})

trationals = st.tuples(t_maps, unit_maps).map(lambda nd: TRational(nd[0], nd[1]))


def plus(a: dict, b: dict) -> dict:
    """a + b, coefficient by coefficient."""
    terms = dict(a)
    for power, c in b.items():
        terms[power] = terms.get(power, 0) + c
    return terms


def times(a: dict, b: dict) -> dict:
    """a * b by the schoolbook product."""
    terms = {}
    for p, c in a.items():
        for q, d in b.items():
            terms[p + q] = terms.get(p + q, 0) + c * d
    return terms


def stretch(p: dict, n: int) -> dict:
    """p(t^n)."""
    return {e * n: c for e, c in p.items()}


def to_sympy(p: dict):
    return sum(
        (sympy.Rational(*Fraction(c).as_integer_ratio()) * T**e for e, c in p.items()),
        sympy.Integer(0),
    )


def map_to_sympy(terms: dict[int, int]):
    return sum((c * T**e for e, c in terms.items()), sympy.Integer(0))


def mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    """The product of two integer maps, through ``times``, with no zero entries."""
    return {e: c for e, c in times(a, b).items() if c}


def test_zero_conventions():
    got, want = TRational.zero(), TRational(ZERO, {0: 3, 1: 1})
    assert (got.num, got.den) == (want.num, want.den) == ({}, ONE)
    assert got.integer_form == want.integer_form == ({}, {0: 1})
    # Zero coefficients are not stored: a map of only zeros is the zero series.
    assert TRational({0: 0, 3: Fraction(0)}).integer_form == ({}, {0: 1})
    assert TRational(1, {0: 2, 1: 0}).integer_form == ({0: 1}, {0: 2})


def test_trational_truth_is_nonzero():
    assert not TRational.zero()
    assert TRational.t()
    assert not TRational.one() - 1


def test_basic_arithmetic():
    p = TRational({0: 1, 1: 2})
    q = TRational({2: 3})
    assert p * q == TRational({2: 3, 3: 6})
    assert p * TRational(Fraction(1, 2)) == TRational({0: Fraction(1, 2), 1: 1})


def test_order_and_leading():
    p = TRational({3: 5, 7: -1})
    assert p.t_order() == 3
    assert p.integer_form == ({3: 5, 7: -1}, {0: 1})
    # The den view of a quotient is monic: 1/(5 - t^7) is -1/(t^7 - 5).
    v = TRational(1, {7: -1, 0: 5})
    assert list(v.den.items()) == [(0, -5), (7, 1)]
    assert v.num == {0: -1}
    assert v.integer_form == ({0: -1}, {0: -5, 7: 1})


def test_negative_exponent_rejected():
    with pytest.raises(ValueError, match="invalid exponent"):
        TRational({-1: 1})


XY = ("x", "y")


@pytest.mark.parametrize(
    "build",
    [
        lambda: TRational({1: 0.1}),
        lambda: Polynomial(XY, {(2, 0): 0.5, (0, 3): -1}),
        lambda: Polynomial(XY, {(2, 0): 1, (0, 3): -1}).translate((0.5, 0)),
        lambda: TRational(1, {0: 1, True: 1}),
        lambda: Polynomial(XY, {(True, 1): 1}),
        lambda: TRational(ONE, 0.5),
        lambda: TRational.t(True),
        lambda: TRational.t().ramify(2.0),
        lambda: TRational.t().ramify(True),
        lambda: monomial_arc((2, 3)).ramify(True),
        lambda: TRational.t() ** True,
        lambda: TRational.t() ** 2.0,
        lambda: TRational.t() - True,
        lambda: TRational.t() - 0.5,
    ],
    ids=[
        "trational-num-float-coeff",
        "polynomial-float-coeff",
        "translate-float",
        "trational-den-bool-exponent",
        "polynomial-bool-exponent",
        "trational-float-scalar",
        "trational-t-bool",
        "trational-ramify-float",
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


def assert_canonical(v):
    """The pair (p, q) of v is the unique canonical one, and the views show it."""
    p, q = v.integer_form
    assert all(p.values()) and all(q.values())
    assert q.get(0) and q[max(q)] > 0
    assert math.gcd(*p.values(), *q.values()) == 1
    if p:
        assert sympy.degree(sympy.gcd(map_to_sympy(p), map_to_sympy(q)), T) == 0
    else:
        assert q == {0: 1}
    for view in (v.num, v.den):  # nonzero Fractions in increasing power
        assert list(view) == sorted(view)
        assert all(type(c) is Fraction and c for c in view.values())
    assert v.den[max(v.den)] == 1
    assert TRational(v.num, v.den) == v


@settings(deadline=None)
@given(trationals, trationals, nonzero_coeffs, st.integers(0, 4), st.integers(1, 4))
def test_stored_form_is_unique(a, b, c, k, n):
    results = [TRational.zero(), TRational.one(), TRational.t(n), a, a * b, a * a,
               a / TRational(c), (a * TRational.t(k)) / TRational({k: c}),
               a - c, a - a.value_at_zero(), a**k, a**n, a.ramify(n)]
    if b and b.t_order() <= a.t_order():
        results.append(a / b)
    for result in results:
        assert_canonical(result)
        assert eval(repr(result), {"TRational": TRational, "Fraction": Fraction}) == result


def test_cancelled_coefficients_are_not_stored():
    # (1 + t)(1 - t) = 1 - t^2 over (1 + 2t)(1 - 2t) = 1 - 4t^2: the products
    # of __mul__, __truediv__ and compose cancel their coefficient of t, and
    # subtracting 1 leaves 3t^2 / (1 - 4t^2).
    a = TRational({0: 1, 1: 1}, {0: 1, 1: 2})
    b = TRational({0: 1, 1: -1}, {0: 1, 1: -2})
    product = a * b
    assert product.integer_form == ({0: -1, 2: 1}, {0: -1, 2: 4})
    xy = Polynomial(XY, {(1, 1): 1})
    for result in [product, a / (TRational.one() / b), product - 1, xy.compose([a, b])]:
        assert_canonical(result)
    assert product - 1 == TRational({2: 3}, {0: 1, 2: -4})


def test_stretch_scales_orders():
    p = TRational({1: 2, 3: 1})
    assert p.ramify(4) == TRational({4: 2, 12: 1})


@settings(deadline=None)
@given(t_maps, t_maps)
def test_gcd_matches_sympy(a, b):
    assume(any(a.values()) or any(b.values()))
    got = t_gcd(a, b)
    expected = sympy.gcd(to_sympy(a), to_sympy(b), T)
    expected = sympy.Poly(expected, T).monic().as_expr()
    assert sympy.expand(to_sympy(got) - expected) == 0


@given(nonzero_t_maps, nonzero_t_maps)
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
    square = {0: 1, 1: -2, 2: 1}
    a, b = times({0: 3, 1: 2}, square), times({0: -2, 1: 1}, square)
    assert t_gcd(a, b) == square
    assert widths[0] == 4 and max(widths) > 4
    expected = sympy.gcd(to_sympy(a), to_sympy(b), T)
    assert sympy.expand(to_sympy(square) - sympy.Poly(expected, T).monic().as_expr()) == 0


big_maps = st.dictionaries(
    st.integers(0, 8), st.integers(-(2**200), 2**200).filter(bool), min_size=1, max_size=5
)


def assert_cancelled(u, v, got):
    """got is (u/g, v/g) for g = gcd(u, v), with joint content 1 and lc(v/g) > 0."""
    got_u, got_v = got
    assert all(got_u.values()) and all(got_v.values())
    assert mul(got_u, v) == mul(got_v, u)
    assert got_v[max(got_v)] > 0
    assert math.gcd(*got_u.values(), *got_v.values()) == 1
    assert sympy.degree(sympy.gcd(map_to_sympy(got_u), map_to_sympy(got_v)), T) == 0


@settings(deadline=None)
@given(big_maps, big_maps, big_maps)
def test_cancel_of_a_common_factor(a, b, g):
    u, v = mul(a, g), mul(b, g)
    assert_cancelled(u, v, _cancel(u, v))


def test_gcd_pulls_out_t_powers():
    a = {4: 1, 6: 1}
    b = {2: 3}
    assert t_gcd(a, b) == {2: 1}


def test_gcd_of_zeros_is_zero():
    assert t_gcd(ZERO, ZERO) == ZERO


def test_trational_canonical_form():
    v = TRational({1: 2, 2: 2}, {0: 2, 1: 2})
    # (2t + 2t^2) / (2 + 2t) = t
    assert v.num == {1: 1}
    assert v.den == ONE


def test_equality_compares_trationals_only():
    # A scalar is not a TRational: == falls back to identity and raises nothing.
    one = TRational.one()
    assert (one == True) is False  # noqa: E712
    assert one not in [True, 1]
    assert one != Fraction(1) and TRational.zero() != 0


@given(trationals, unit_maps)
def test_equal_values_hash_equal(v, common):
    same = TRational(times(v.num, common), times(v.den, common))
    values = [v, same, TRational.one(), TRational.zero(), 0, 1, Fraction(1), True]
    for x in values:
        for y in values:
            if x == y:
                assert hash(x) == hash(y)


def test_trational_rejects_vanishing_denominator():
    with pytest.raises(ValueError):
        TRational(ONE, {1: 1})
    with pytest.raises(ZeroDivisionError):
        TRational(ONE, ZERO)


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
    want = TRational(plus(v.num, times(v.den, {0: -c})), v.den)
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
    lambda ck: TRational({ck[1]: ck[0]})
)
with_denominator = trationals.filter(lambda v: v.den != ONE)
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
        want = TRational(times(a.num, b.den), times(a.den, b.num))
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
        for other in [ZERO, 0, ONE, 1]:
            with pytest.raises(TypeError):
                x / other
            with pytest.raises(TypeError):
                x * other


@settings(deadline=None)
@given(big_maps, st.integers(-(2**200), 2**200).filter(bool), st.integers(0, 6))
def test_cancel_of_one_term_is_the_gcd_route(p, c, k):
    term = {k: c}
    for u, v in [(p, term), (term, p)]:
        assert_cancelled(u, v, _cancel(u, v))


# Inputs on which the square-and-multiply once ran past the default deadline.
SLOW_POW_BASE = TRational(
    {0: Fraction(-7, 15), 1: Fraction(1, 63), 2: Fraction(1, 36), 10: Fraction(-1, 81)},
    {0: Fraction(1, 9), 1: Fraction(-1, 9), 8: 1},
)
SLOW_POW_BASE_2 = TRational(
    {0: Fraction(7, 9), 2: Fraction(1, 9), 3: Fraction(1, 63), 10: Fraction(1, 9)},
    {0: Fraction(1, 18), 8: 1},
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
    num, den = {0: 1, 1: 2}, {0: 1, 2: 3}
    base = TRational(num, den)
    num_k, den_k = ONE, ONE
    for k in range(1, 10):
        num_k, den_k = times(num_k, num), times(den_k, den)
        squarings.clear()
        assert base**k == TRational(num_k, den_k)
        assert len(squarings) == k.bit_length() - 1


terms = st.tuples(nonzero_coeffs, st.integers(0, 6)).map(
    lambda ck: TRational({ck[1]: ck[0]})
)


@given(terms, st.integers(1, 6))
def test_power_of_a_term_is_the_generic_route(a, k):
    # Oracle: the k-fold product of the numerator, through __init__.
    num = ONE
    for _ in range(k):
        num = times(num, a.num)
    got, want = a**k, TRational(num)
    assert (got.num, got.den) == (want.num, want.den)


@given(dividends, terms)
def test_division_by_a_term_is_the_generic_route(a, b):
    try:
        want = TRational(times(a.num, b.den), times(a.den, b.num))
    except ValueError:
        with pytest.raises(ValueError, match="not a power series"):
            a / b
        return
    got = a / b
    assert (got.num, got.den) == (want.num, want.den)


def assert_canonical_product(product, a, b):
    assert_canonical(product)
    assert product == TRational(times(a.num, b.num), times(a.den, b.den))


@given(trationals, trationals, unit_maps)
def test_products_are_canonical(x, y, common):
    # __mul__ skips the gcd of the full products; this is what licenses it.
    # The shared factor makes the cross-cancellation do real work.
    a = TRational(times(x.num, common), x.den)
    b = TRational(y.num, times(y.den, common))
    for lhs, rhs in [(a, b), (a, a), (a, TRational.zero()), (TRational.one(), a)]:
        assert_canonical_product(lhs * rhs, lhs, rhs)
        assert_canonical_product(rhs * lhs, rhs, lhs)


@given(trationals, st.integers(1, 5))
def test_ramify_stays_canonical(v, n):
    # It skips the gcd of __init__; structural equality checks that is sound.
    got, want = v.ramify(n), TRational(stretch(v.num, n), stretch(v.den, n))
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
    v = TRational({0: 3, 1: 1}, {0: 2, 1: 5})
    assert v.value_at_zero() == Fraction(3, 2)


def test_t_order_of_zero_is_infinite():
    assert TRational.zero().t_order() == math.inf
