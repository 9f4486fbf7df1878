"""Exact univariate arithmetic in the arc parameter t.

Arc coordinates are stored as rational functions p(t)/q(t) with q(0) != 0.
Such a quotient is a well defined formal power series at t = 0, and the
class of these functions is closed under every operation needed here: the
product, the quotient by a function of no higher order, subtracting a
constant, the order at t = 0, and the ramification substitution t -> t^n.
Those are the only arithmetic operators ``TRational`` defines.  Nothing is
ever truncated, so all downstream order computations are exact.

``TRational`` stores one pair of integer maps (p, q), from powers of t to
coefficients, in canonical form: gcd(p, q) = 1 in Q[t], q(0) != 0, joint
content 1, lc(q) > 0, and zero as 0/1.  The form is unique, so structural
equality is mathematical equality; ``==`` compares ``TRational``s only.
Products and quotients cancel with ``_cancel`` (the quotient by t^k only
shifts exponents): when one side is a single term c*t^k the gcd is
t^min(orders), an exponent shift; otherwise the cofactors come from the
heuristic gcd of Char, Geddes and Gonnet on the values at t = 2^k, which
checking them makes exact (``_gcd_cofactors``); then one content division
and one sign fix.  No polynomial division is ever taken.

``TRational(num, den)`` takes each side as a coefficient map, from powers
of t to scalars, or as one scalar; ``num`` and ``den`` read the pair back as
such maps, over the monic denominator.  ``Polynomial`` keeps integer
numerators over one positive denominator, keyed by exponent tuples, through
the same private helpers.

Only ``int`` and ``Fraction`` scalars are accepted (``exact``); a float or a
bool is refused rather than read as a binary expansion or as 0/1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Iterable, Mapping, Union

Scalar = Union[int, Fraction]
Coefficients = Mapping[int, Scalar]  # a polynomial in t: coefficient by power
Terms = dict[int, int]
_UNIT: Terms = {0: 1}
_NOT_A_SERIES = "denominator vanishes at t = 0; the quotient is not a power series"
Nums = dict[Any, int]  # numerators keyed by a power of t or by an exponent tuple


def exact(value: object) -> Fraction:
    """An exact scalar as a Fraction; ValueError for floats, bools and the rest."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return Fraction(value)
    raise ValueError(f"not an exact scalar (int or Fraction): {value!r}")


def is_exponent(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _lcm_form(terms: Mapping) -> tuple[Nums, int]:
    """Numerators of the nonzero scalars over their lcm denominator: lowest terms."""
    coeffs = {key: value for key, coeff in terms.items() if (value := exact(coeff))}
    den = math.lcm(*(c.denominator for c in coeffs.values()))
    return {key: c.numerator * den // c.denominator for key, c in coeffs.items()}, den


def _integer_map(side: Coefficients | Scalar) -> tuple[Terms, int]:
    """A coefficient map, or one scalar, as ``_lcm_form`` reads it; its powers checked."""
    terms = side if isinstance(side, Mapping) else {0: side}
    for power in terms:
        if not is_exponent(power):
            raise ValueError(f"invalid exponent {power!r} for a power of t")
    return _lcm_form(terms)


def _over(terms: Terms, den: int) -> dict[int, Fraction]:
    """terms / den as Fraction coefficients, in increasing power."""
    return {e: Fraction(c, den) for e, c in sorted(terms.items())}


def _lowest(nums: Nums, den: int) -> tuple[Nums, int]:
    """nums / den, for den > 0, with no zero numerators and gcd(den, *nums) = 1."""
    nums = {key: c for key, c in nums.items() if c}
    g = math.gcd(den, *nums.values()) if den != 1 else 1
    if g != 1:
        nums, den = {key: c // g for key, c in nums.items()}, den // g
    return nums, den


def _convolve(a: Terms, b: Terms) -> Terms:
    """Integer product of two maps from powers of t to numerators."""
    nums: Terms = {}
    for p, c in a.items():
        for q, d in b.items():
            nums[p + q] = nums.get(p + q, 0) + c * d
    return nums


def _times(a: Terms, b: Terms) -> Terms:
    """The product of two integer maps, with no zero entries; free when one is 1."""
    if a == _UNIT:
        return b
    if b == _UNIT:
        return a
    return {e: c for e, c in _convolve(a, b).items() if c}


def _format(terms: Iterable[tuple[str, Fraction]]) -> str:
    """c*monomial + ..., "0" when empty; a unit coefficient is written as a sign."""
    parts = []
    for monomial, c in terms:
        if not monomial:
            parts.append(str(c))
        elif abs(c) == 1:
            parts.append(monomial if c == 1 else f"-{monomial}")
        else:
            parts.append(f"{c}*{monomial}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def _at_power_of_two(terms: Terms, k: int) -> int:
    """The integer value at t = 2^k: each numerator shifted into its k-bit slot."""
    return sum(c << (k * e) for e, c in terms.items())


def _balanced_digits(value: int, k: int) -> Terms:
    """The digits of value in base 2^k, each in [-2^(k-1), 2^(k-1)), by power of t."""
    half, mask = 1 << (k - 1), (1 << k) - 1
    digits: Terms = {}
    e = 0
    while value:
        d = value & mask
        if d >= half:
            d -= mask + 1
        if d:
            digits[e] = d
        value = (value - d) >> k
        e += 1
    return digits


def _gcd_cofactors(u: Terms, v: Terms) -> tuple[Terms, Terms, Terms]:
    """h, u/h and v/h for the gcd h of two nonzero integer maps, primitive, lc(h) > 0.

    The heuristic gcd of Char, Geddes and Gonnet (J. Symbolic Comput. 7,
    1989) with its cofactors checked exactly, which makes it a proof; the
    argument is that of Geddes, Czapor and Labahn, *Algorithms for Computer
    Algebra* (1992), 7.7.  Let N <= M be the max norms of u and v, and xi =
    2^k > 2M + 2: the proof needs only xi > 2N + 2, and starting past 2M + 2
    reads the larger input's cofactor in the first round far more often.
    gamma = gcd(u(xi), v(xi)) is nonzero, since xi is past the Cauchy bound
    1 + N on the roots of the input of smaller norm.  Let G be the
    polynomial of the balanced base-xi digits of gamma, and h its primitive
    part with lc(h) > 0, so G = c*h and h(xi) = gamma/c divides u(xi) and
    v(xi).  c_u and c_v are the digit polynomials of the two quotients, and
    h is accepted when c_u*h = u and c_v*h = v.

    Exact: on acceptance h divides u and v, and gcd(c_u(xi), c_v(xi)) =
    gamma/|h(xi)| = |c| <= xi/2, as c divides every digit of G.  A
    nonconstant common factor d of c_u and c_v would divide the input of
    smaller norm, so its roots lie in |z| < 1 + N and |d(xi)| >= xi - 1 - N >
    xi/2; yet d(xi) divides both quotients.  So c_u and c_v are coprime and h
    is the gcd.  Total: write u = g*u' and v = g*v' over the integers.  Then
    e = gcd(u'(xi), v'(xi)) divides the resultant Res(u', v') != 0 and gamma
    = e*|g(xi)|.  Once xi exceeds 2*|Res|*|g| and twice the norms of the
    cofactors, the digits of gamma are +-e*g, those of the quotients are the
    cofactors, and the round is accepted.  A failed round doubles k, so the
    loop ends with no cap and no other route.
    """
    k = (2 * max(map(abs, (*u.values(), *v.values()))) + 2).bit_length()
    while True:
        at_u, at_v = _at_power_of_two(u, k), _at_power_of_two(v, k)
        gamma = math.gcd(at_u, at_v)
        digits = _balanced_digits(gamma, k)
        content = math.gcd(*digits.values())
        if digits[max(digits)] < 0:
            content = -content
        h = {e: c // content for e, c in digits.items()}
        at_h = gamma // content
        cu, cv = _balanced_digits(at_u // at_h, k), _balanced_digits(at_v // at_h, k)
        if _times(cu, h) == u and _times(cv, h) == v:
            return h, cu, cv
        k *= 2


def _shift(terms: Terms, k: int) -> Terms:
    """terms / t^k for k <= the least power; only the keys change."""
    return {e - k: c for e, c in terms.items()} if k else terms


def _normal(p: Terms, q: Terms) -> tuple[Terms, Terms]:
    """p and q divided by their joint content, signed so that lc(q) > 0."""
    g = math.gcd(*p.values(), *q.values())
    if q[max(q)] < 0:
        g = -g
    if g == 1:
        return p, q
    return {e: c // g for e, c in p.items()}, {e: c // g for e, c in q.items()}


def _cancel(u: Terms, v: Terms) -> tuple[Terms, Terms]:
    """u/g and v/g for g = gcd(u, v), with joint content 1 and lc(v/g) > 0.

    u and v are nonzero.  If either is one term c*t^k, g = t^min(orders), an
    exponent shift.  Otherwise u/g and v/g are the cofactors of
    ``_gcd_cofactors`` up to the one scalar that ``_normal`` divides out.
    """
    if len(u) == 1 or len(v) == 1:
        k = min(min(u), min(v))
        u, v = _shift(u, k), _shift(v, k)
    else:
        _, u, v = _gcd_cofactors(u, v)
    return _normal(u, v)


def _reduced(p: Terms, q: Terms) -> tuple[Terms, Terms]:
    """The canonical pair of p/q, maps with no zero entries; ValueError unless a series."""
    if not q:
        raise ZeroDivisionError("zero denominator")
    if not p:
        return p, _UNIT
    p, q = _cancel(p, q)
    if 0 not in q:
        raise ValueError(_NOT_A_SERIES)
    return p, q


class TRational:
    """Quotient p(t)/q(t) of integer polynomials, regular at t = 0.

    The pair is canonical: gcd(p, q) = 1 in Q[t], q(0) != 0, the
    coefficients of p and q together have gcd 1, lc(q) > 0, and zero is 0/1.
    This form is unique, so ``==`` and ``hash`` compare the stored maps, and
    a scalar equals no ``TRational``.
    """

    __slots__ = ("_p", "_q")

    def __init__(self, num: Coefficients | Scalar, den: Coefficients | Scalar = 1):
        # num = n/a over den = d/b is (b*n)/(a*d).
        (n, a), (d, b) = _integer_map(num), _integer_map(den)
        self._p, self._q = _reduced({e: c * b for e, c in n.items()},
                                    {e: c * a for e, c in d.items()})

    @classmethod
    def _canonical(cls, p: Terms, q: Terms) -> TRational:
        """Wrap a pair that is already canonical, skipping the gcd."""
        value = object.__new__(cls)
        value._p, value._q = p, q
        return value

    @classmethod
    def zero(cls) -> TRational:
        return cls._canonical({}, _UNIT)

    @classmethod
    def one(cls) -> TRational:
        return cls._canonical(_UNIT, _UNIT)

    @classmethod
    def t(cls, power: int = 1) -> TRational:
        if not is_exponent(power):
            raise ValueError(f"invalid exponent {power!r} for a power of t")
        return cls._canonical({power: 1}, _UNIT)

    @property
    def integer_form(self) -> tuple[Terms, Terms]:
        """(p, q), the value being p(t)/q(t); read-only, and shared."""
        return self._p, self._q

    @property
    def num(self) -> dict[int, Fraction]:
        """The numerator over the monic denominator ``den``, in increasing power."""
        return _over(self._p, self._q[max(self._q)])

    @property
    def den(self) -> dict[int, Fraction]:
        """The denominator made monic, in increasing power; {0: 1} for a polynomial."""
        return _over(self._q, self._q[max(self._q)])

    @property
    def is_zero(self) -> bool:
        return not self._p

    def _is_term(self) -> bool:
        """Whether self is c*t^k with c != 0: a canonical q of one term is q(0)."""
        return len(self._p) == 1 and len(self._q) == 1

    def __bool__(self) -> bool:
        return bool(self._p)

    def t_order(self) -> int | float:
        """Vanishing order at t = 0; infinity for the zero function."""
        return min(self._p) if self._p else math.inf

    def value_at_zero(self) -> Fraction:
        return Fraction(self._p.get(0, 0), self._q[0])

    def ramify(self, n: int) -> TRational:
        """The substitution t -> t^n, multiplying all orders by n.

        Canonical in, canonical out: a Bezout identity for p and q survives
        the substitution, and the coefficients, q(0) and lc(q) do not change.
        """
        if not is_exponent(n) or n < 1:
            raise ValueError("ramification index must be a positive integer")
        p, q = ({e * n: c for e, c in terms.items()} for terms in (self._p, self._q))
        return TRational._canonical(p, q)

    def __sub__(self, scalar: Scalar) -> TRational:
        """self - r/s as (s*p - r*q)/(s*q), taking no polynomial gcd.

        gcd(s*p - r*q, s*q) = gcd(p, q) = 1 in Q[t], and s*q keeps q(0) != 0
        and lc > 0, so only the joint content is divided out.  Subtracting 0
        returns self.
        """
        c = exact(scalar)
        if not c:
            return self
        r, s = c.numerator, c.denominator
        p = {e: v * s for e, v in self._p.items()}
        for e, v in self._q.items():
            p[e] = p.get(e, 0) - r * v
        p = {e: v for e, v in p.items() if v}
        if not p:
            return TRational.zero()
        q = self._q if s == 1 else {e: v * s for e, v in self._q.items()}
        return TRational._canonical(*_normal(p, q))

    def __mul__(self, other: TRational) -> TRational:
        """Product by cross-cancellation (Henrici; Knuth, TAOCP 2, 4.5.1).

        For canonical a/b and c/d the only factors that can cancel in ac/bd
        are g1 = gcd(a, d) and g2 = gcd(c, b), so with the pairs of
        ``_cancel``, (a/g1)(c/g2) / (b/g2)(d/g1) has coprime parts.  By Gauss's
        lemma the content of a product is the product of the contents, and
        each factor above has content coprime to both factors across: a, b
        and c, d by canonical form, the rest by ``_cancel``.  With lc > 0 and
        a nonzero value at t = 0 for both factors below, the pair is canonical
        as it stands: no gcd of the full products is taken, and a square
        takes none at all.
        """
        if not isinstance(other, TRational):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return TRational.zero()
        if other == self:
            return TRational._canonical(_times(self._p, self._p), _times(self._q, self._q))
        a, d = _cancel(self._p, other._q)
        c, b = _cancel(other._p, self._q)
        return TRational._canonical(_times(a, c), _times(b, d))

    def __truediv__(self, other: TRational) -> TRational:
        """Quotient by cross-cancellation, the rule of ``__mul__``.

        For canonical a/b and p/q, (a/b) / (p/q) = aq / bp, and the only
        factors that can cancel are g1 = gcd(a, p) and g2 = gcd(q, b), so
        (a/g1)(q/g2) / (b/g2)(p/g1) is canonical as in ``__mul__``.  It is a
        power series iff (p/g1)(0) != 0, i.e. iff the divisor's order at t = 0
        is at most the dividend's.  By t^k of such order it is a/t^k over b,
        canonical as it stands; any other divisor, c/d*t^k included, takes
        the cross-cancelling route.
        """
        if not isinstance(other, TRational):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("zero denominator")
        if self.is_zero:
            return self
        k = min(other._p)
        if other._p == {k: 1} and other._q == _UNIT and k <= min(self._p):
            return TRational._canonical(_shift(self._p, k), self._q)
        a, p = _cancel(self._p, other._p)
        q, b = _cancel(other._q, self._q)
        if 0 not in p:
            raise ValueError(_NOT_A_SERIES)
        return TRational._canonical(_times(a, q), _times(b, p))

    def __pow__(self, exponent: int) -> TRational:
        """c^k*t^(kp) for a single term c*t^p; else square-and-multiply.

        Square-and-multiply takes exactly floor(log2 k) squarings for k >= 1:
        the base is squared only while bits of k remain, so no power is built
        and then dropped; the result starts as the power at the lowest set bit
        of k, so it is never multiplied by one.
        """
        if not is_exponent(exponent):
            raise ValueError(f"exponent {exponent!r} is not an integer >= 0")
        if not exponent:
            return TRational.one()
        if self._is_term():
            ((p, c),), d = self._p.items(), self._q[0]
            return TRational._canonical({p * exponent: c**exponent}, {0: d**exponent})
        base, e = self, exponent
        while not e & 1:
            base, e = base * base, e >> 1
        result, e = base, e >> 1
        while e:
            base = base * base
            if e & 1:
                result = result * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TRational):
            return NotImplemented
        return self._p == other._p and self._q == other._q

    def __hash__(self) -> int:
        return hash((frozenset(self._p.items()), frozenset(self._q.items())))

    def __str__(self) -> str:
        num, den = (_format(({0: "", 1: "t"}.get(e, f"t^{e}"), c) for e, c in view.items())
                    for view in (self.num, self.den))
        return num if den == "1" else f"({num})/({den})"

    def __repr__(self) -> str:
        return f"TRational({self.num!r}, {self.den!r})"
