"""Exact univariate arithmetic in the arc parameter t.

Arc coordinates are stored as rational functions p(t)/q(t) with q(0) != 0.
Such a quotient is a well defined formal power series at t = 0, and the
class of these functions is closed under every operation needed here: the
product, the quotient by a function of no higher order, subtracting a
constant, the order at t = 0, and the ramification substitution t -> t^n.
Those are the only arithmetic operators ``TRational`` defines.  Nothing is
ever truncated, so all downstream order computations are exact.

``TPoly`` holds integer numerators over one positive denominator, in lowest
terms.  ``Polynomial`` keeps the same form keyed by exponent tuples, through
the same private helpers (``_lcm_form``, ``_lowest``, ``_convolve``,
``_at_power_of_two``, ``_format``).  ``TRational`` is a quotient of two
``TPoly`` kept in canonical form: gcd(num, den) = 1, den monic, den(0) != 0.
Canonical form makes structural equality coincide with mathematical equality.
When one side of a gcd is a single term c*t^k, the gcd is t^min(orders) and
cancelling it only shifts exponents.  Otherwise the gcd and both cofactors
come from one kernel, the heuristic gcd of Char, Geddes and Gonnet on the
values at t = 2^k, which checking the cofactors makes exact
(``_gcd_cofactors``); ``t_gcd`` reads its gcd from the same kernel, and no
polynomial division is ever taken.

Only ``int`` and ``Fraction`` scalars are accepted (``exact``); a float or a
bool is refused rather than read as a binary expansion or as 0/1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Iterable, Mapping, Union

Scalar = Union[int, Fraction]
Terms = dict[int, int]
_UNIT: Terms = {0: 1}
Nums = dict[Any, int]  # numerators keyed by a power of t or by an exponent tuple


def exact(value: object) -> Fraction:
    """An exact scalar as a Fraction; ValueError for floats, bools and the rest."""
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


def _lowest(nums: Nums, den: int) -> tuple[Nums, int]:
    """nums / den with no zero numerators, den > 0 and gcd(den, *nums) = 1."""
    nums = {key: c for key, c in nums.items() if c}
    if den < 0:
        nums, den = {key: -c for key, c in nums.items()}, -den
    g = math.gcd(den, *nums.values()) if den != 1 else 1
    if g != 1:
        nums, den = {key: c // g for key, c in nums.items()}, den // g
    return nums, den


def _sum(a: Terms, a_den: int, b: Terms, b_den: int) -> tuple[Terms, int]:
    """a / a_den + b / b_den over the lcm of the denominators, not reduced."""
    den = math.lcm(a_den, b_den)
    mine, theirs = den // a_den, den // b_den
    nums = {key: c * mine for key, c in a.items()}
    for key, c in b.items():
        nums[key] = nums.get(key, 0) + c * theirs
    return nums, den


def _convolve(a: Terms, b: Terms) -> Terms:
    """Integer product of two maps from powers of t to numerators."""
    nums: Terms = {}
    for p, c in a.items():
        for q, d in b.items():
            nums[p + q] = nums.get(p + q, 0) + c * d
    return nums


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


class TPoly:
    """Sparse polynomial in t with rational coefficients.

    The coefficient of t^p is ``_nums[p] / _den``, with no zero numerators,
    ``_den > 0`` and gcd(_den, *_nums.values()) = 1.  This form is unique.
    """

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[int, Scalar] | None = None):
        terms = terms or {}
        for power in terms:
            if not is_exponent(power):
                raise ValueError(f"invalid exponent {power!r} for a power of t")
        self._nums, self._den = _lcm_form(terms)

    @classmethod
    def _make(cls, nums: Terms, den: int = 1) -> TPoly:
        """The polynomial with numerators nums over den, brought to lowest terms."""
        poly = object.__new__(cls)
        poly._nums, poly._den = _lowest(nums, den)
        return poly

    @classmethod
    def zero(cls) -> TPoly:
        return cls()

    @classmethod
    def one(cls) -> TPoly:
        return cls({0: 1})

    @classmethod
    def constant(cls, value: Scalar) -> TPoly:
        return cls({0: value})

    @classmethod
    def t(cls, power: int = 1) -> TPoly:
        return cls({power: 1})

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return max(self._nums) if self._nums else -1

    def order(self) -> int | float:
        """Vanishing order at t = 0; infinity for the zero polynomial."""
        return min(self._nums) if self._nums else math.inf

    def items(self) -> list[tuple[int, Fraction]]:
        return [(p, Fraction(c, self._den)) for p, c in sorted(self._nums.items())]

    @property
    def integer_form(self) -> tuple[Terms, int]:
        """(nums, den), t^p having coefficient nums[p] / den; read-only."""
        return self._nums, self._den

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TPoly):
            return self._den == other._den and self._nums == other._nums
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._den, frozenset(self._nums.items())))

    def __add__(self, other: TPoly) -> TPoly:
        if not isinstance(other, TPoly):
            return NotImplemented
        return TPoly._make(*_sum(self._nums, self._den, other._nums, other._den))

    def __mul__(self, other: TPoly) -> TPoly:
        if not isinstance(other, TPoly):
            return NotImplemented
        if other._den == 1 and other._nums == _UNIT:
            return self
        if self._den == 1 and self._nums == _UNIT:
            return other
        return TPoly._make(_convolve(self._nums, other._nums), self._den * other._den)

    def scale(self, factor: Scalar) -> TPoly:
        factor = exact(factor)
        nums = {p: c * factor.numerator for p, c in self._nums.items()}
        return TPoly._make(nums, self._den * factor.denominator)

    def monic(self) -> TPoly:
        return TPoly._make(self._nums, self._nums[self.degree]) if self._nums else self

    def stretch(self, n: int) -> TPoly:
        """The substitution t -> t^n."""
        if not is_exponent(n) or n < 1:
            raise ValueError("ramification index must be a positive integer")
        return TPoly._make({p * n: c for p, c in self._nums.items()}, self._den)

    def __str__(self) -> str:
        return _format(({0: "", 1: "t"}.get(p, f"t^{p}"), c) for p, c in self.items())

    def __repr__(self) -> str:
        return f"TPoly({dict(self.items())!r})"


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
        # _convolve keeps a cancelled entry as 0; u and v hold none.
        if (
            {e: c for e, c in _convolve(cu, h).items() if c} == u
            and {e: c for e, c in _convolve(cv, h).items() if c} == v
        ):
            return h, cu, cv
        k *= 2


def t_gcd(a: TPoly, b: TPoly) -> TPoly:
    """Monic greatest common divisor.

    The heuristic gcd of ``_gcd_cofactors`` on the integer numerators, made
    monic; powers of t common to both inputs are part of it.
    """
    if a.is_zero:
        return TPoly.zero() if b.is_zero else b.monic()
    if b.is_zero:
        return a.monic()
    h = _gcd_cofactors(a._nums, b._nums)[0]
    return TPoly._make(h, h[max(h)])


def _shift(poly: TPoly, k: int) -> TPoly:
    """poly / t^k for k <= poly.order(); only the keys change, so no gcd."""
    if not k:
        return poly
    shifted = object.__new__(TPoly)
    shifted._nums = {e - k: c for e, c in poly._nums.items()}
    shifted._den = poly._den
    return shifted


def _cancel(num: TPoly, den: TPoly) -> tuple[TPoly, TPoly]:
    """num/g and den/g for g = gcd(num, den); both are nonzero.

    If either side is one term c*t^k, g = t^min(orders), an exponent shift.
    Otherwise g = h/lc(h) for the gcd h of ``_gcd_cofactors``, and num/g is
    its cofactor times lc(h) over num's denominator; so is den/g.
    """
    if len(num._nums) == 1 or len(den._nums) == 1:
        k = min(min(num._nums), min(den._nums))
        return _shift(num, k), _shift(den, k)
    h, cu, cv = _gcd_cofactors(num._nums, den._nums)
    if h == _UNIT:
        return num, den
    lead = h[max(h)]
    return (
        TPoly._make({e: c * lead for e, c in cu.items()}, num._den),
        TPoly._make({e: c * lead for e, c in cv.items()}, den._den),
    )


def _monic(num: TPoly, den: TPoly) -> tuple[TPoly, TPoly]:
    """Coprime num, den with den made monic; ValueError unless den(0) != 0."""
    if 0 not in den._nums:
        raise ValueError(
            "denominator vanishes at t = 0; the quotient is not a power series"
        )
    lead = den._nums[den.degree]
    if lead == den._den:
        return num, den
    return num.scale(Fraction(den._den, lead)), den.monic()


class TRational:
    """Quotient of univariate polynomials in t, regular at t = 0."""

    __slots__ = ("num", "den")

    def __init__(self, num: TPoly | Scalar, den: TPoly | Scalar = 1):
        num = num if isinstance(num, TPoly) else TPoly.constant(num)
        den = den if isinstance(den, TPoly) else TPoly.constant(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            self.num, self.den = num, TPoly.one()
        else:
            self.num, self.den = _monic(*_cancel(num, den))

    @classmethod
    def _canonical(cls, num: TPoly, den: TPoly) -> TRational:
        """Wrap a pair that is already in canonical form, skipping the gcd."""
        value = object.__new__(cls)
        value.num, value.den = num, den
        return value

    @classmethod
    def zero(cls) -> TRational:
        return cls._canonical(TPoly.zero(), TPoly.one())

    @classmethod
    def one(cls) -> TRational:
        return cls(TPoly.one())

    @classmethod
    def t(cls, power: int = 1) -> TRational:
        return cls(TPoly.t(power))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def _is_term(self) -> bool:
        """Whether self is c*t^p with c != 0: a canonical den of one term is 1."""
        return len(self.num._nums) == 1 and len(self.den._nums) == 1

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def t_order(self) -> int | float:
        """Vanishing order at t = 0; infinity for the zero function."""
        return self.num.order()

    def value_at_zero(self) -> Fraction:
        num, den = self.num, self.den
        return Fraction(num._nums.get(0, 0) * den._den, num._den * den._nums[0])

    def ramify(self, n: int) -> TRational:
        """The substitution t -> t^n, multiplying all orders by n.

        Canonical in, canonical out: a Bezout identity for num and den
        survives the substitution, and so do monic den and den(0) != 0.
        """
        return TRational._canonical(self.num.stretch(n), self.den.stretch(n))

    def __sub__(self, scalar: Scalar) -> TRational:
        """self - c as (num - c*den)/den, taking no gcd.

        The pair is canonical as it stands: den is unchanged, and
        gcd(num - c*den, den) = gcd(num, den) = 1.  Subtracting 0 returns self.
        """
        c = exact(scalar)
        if not c:
            return self
        num = self.num + self.den.scale(-c)
        return TRational._canonical(num, self.den) if num else TRational.zero()

    def __mul__(self, other: TRational) -> TRational:
        """Product by cross-cancellation (Henrici; Knuth, TAOCP 2, 4.5.1).

        For canonical a/b and c/d the only factors that can cancel in ac/bd
        are g1 = gcd(a, d) and g2 = gcd(c, b).  Dividing them out first gives
        (a/g1)(c/g2) / (b/g2)(d/g1), which is canonical as it stands: its two
        parts are coprime, the denominator is a product of monic factors, and
        it does not vanish at t = 0 because b and d do not.  So no gcd of the
        full products is taken, and a square, where gcd(a, b) = 1 already,
        takes no gcd at all.
        """
        if not isinstance(other, TRational):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return TRational.zero()
        if other == self:
            return TRational._canonical(self.num * self.num, self.den * self.den)
        a, d = _cancel(self.num, other.den)
        c, b = _cancel(other.num, self.den)
        return TRational._canonical(a * c, b * d)

    def __truediv__(self, other: TRational) -> TRational:
        """Quotient by cross-cancellation, the rule of ``__mul__``.

        For canonical a/b and p/q, (a/b) / (p/q) = aq / bp, and the only
        factors that can cancel are g1 = gcd(a, p) and g2 = gcd(q, b).  So
        (a/g1)(q/g2) / (b/g2)(p/g1) is in lowest terms once its denominator
        is made monic: gcd(a, b) = gcd(p, q) = 1 leave no other common
        factor.  As b(0) != 0, it is a power series iff (p/g1)(0) != 0, i.e.
        iff the divisor's order at t = 0 is at most the dividend's.

        A divisor c*t^p of order at most the dividend's only shifts the
        numerator down by p and divides it by c.  That pair is canonical as it
        stands: den is unchanged, and t does not divide it.
        """
        if not isinstance(other, TRational):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("zero denominator")
        if self.is_zero:
            return self
        if other._is_term() and min(self.num._nums) >= min(other.num._nums):
            ((p, c),) = other.num._nums.items()
            num = _shift(self.num, p)
            if c != other.num._den:
                num = num.scale(Fraction(other.num._den, c))
            return TRational._canonical(num, self.den)
        a, p = _cancel(self.num, other.num)
        q, b = _cancel(other.den, self.den)
        return TRational._canonical(*_monic(a * q, b * p))

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
            ((p, c),) = self.num._nums.items()
            power = TPoly._make({p * exponent: c**exponent}, self.num._den**exponent)
            return TRational._canonical(power, self.den)
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
        if isinstance(other, TRational):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (TPoly, int, Fraction)):
            return self == TRational(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den == TPoly.one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self) -> str:
        return f"TRational({self.num!r}, {self.den!r})"
