"""Sparse multivariate polynomials over exact rationals.

A polynomial is a map from exponent tuples to nonzero coefficients; the zero
polynomial is the empty map.  The hypersurface equations treated here and
all their transforms under point blow-ups stay sparse, so this is both the
simplest and the fastest representation for the job.

``Polynomial`` is the engine's transform type, not a ring: it has no
arithmetic operators.  A blow-up needs only ``translate``, ``order_at``,
``partial_derivative``, ``_map_exponents`` and the pullback along an arc
(``compose``, ``compose_order``).

``compose_order`` reads the order of a pullback from the weight classes of
its terms: if value i starts l_i t^(o_i), every term c_e x^e with no zero
factor starts c_e prod_i l_i^(e_i) t^(e . o), so when the terms of least
weight e . o do not cancel at l, that weight is the order.  When every value
is zero or the single term l_i t^(o_i), as along a monomial arc, its
ramifications and its lifts through blow-ups, each such term pulls back to
exactly its leading term: the order is the least weight whose class does not
cancel, or infinity, and no numerator is built.  Otherwise only a
cancellation in the least class, or a zero pullback, needs the full
numerator num(t), and it takes one of two routes, chosen from the values.
When every value is dense (numerator and denominator each of degree below
twice their term count, zero included), num is evaluated at t = 2^W by the
same nested sum over Python integers, once its scalar content is divided out:
each value's scalar is folded into the coefficients and their gcd removed.
W is a bound on the bit length of the coefficients of what remains, a
positive multiple of num, so each fills its own slot of W bits, the value is
0 exactly when num is, and otherwise its 2-adic valuation over W is the order.
Other sparse values, such as ramified sampled arcs, whose slots would be
mostly empty, build num as a map of powers (``_compose_parts``).

Coefficients are integer numerators over one denominator, in lowest terms,
kept by the ``tseries`` helpers; ``terms`` and ``items()`` show them as
``Fraction``s.  Values along an arc are read as ``TRational`` stores them, as
coprime integer pairs p_i/q_i, whose shared maps nothing here writes into.
No floats enter at any point (``exact`` refuses them), which is what makes
the order computations exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence, Union

from .errors import BudgetExhausted
from .tseries import _UNIT, Terms, TRational, _at_power_of_two, _convolve, _format, _lcm_form
from .tseries import _lowest, _reduced, _times, exact, is_exponent

Scalar = Union[int, Fraction]
Exponent = tuple[int, ...]

# Largest output ``translate`` expands, as measured by ``_translate_size``.  Near
# the cap, on a 2-vCPU Xeon VM, x^12000 - y^12000 + x^2 - y^2 (9.6 * 10^8)
# moved by (1, 1) in 0.15 s and 61 MB peak RSS, and the 101 terms of degree
# 100 (8.3 * 10^8) by (1/3, -2/5) in 0.21 s and 17 MB.  The largest translate
# of the verify suites and the checks past the drop is 1.0 * 10^8 (4,843
# terms); at exponent 10^5 the first surface would need 6 * 10^10.
MAX_TRANSLATE_SIZE = 10**9
# A term weighs this many bits on top of its coefficient's: the dict slot,
# exponent tuple and integer it is stored in.
_TERM_BITS = 4096


def _checked(variables: Sequence[str], exponents: Iterable) -> tuple[str, ...]:
    """The variables as a tuple, once they and every exponent are valid."""
    variables = tuple(variables)
    if not variables or len(set(variables)) != len(variables):
        raise ValueError(f"variable names must be nonempty and distinct: {variables!r}")
    for e in exponents:
        if len(e) != len(variables) or not all(map(is_exponent, e)):
            raise ValueError(f"exponent {e!r} is not {len(variables)} integers >= 0")
    return variables


def _translate_size(nums: dict[Exponent, int], shifts: Sequence[Fraction]) -> int:
    """An upper bound on the size of the translate of nums by shifts.

    Shifting variable i turns a term c*x^e into at most e_i + 1 terms, whose
    coefficients gain at most e_i bits from a binomial and top_i * bitlen
    shift_i bits from powers of the shift's numerator and denominator, top_i
    the top power of variable i.  Each term weighs ``_TERM_BITS`` more.
    """
    moved = [
        (i, max(e[i] for e in nums) * max(abs(s.numerator), s.denominator).bit_length())
        for i, s in enumerate(shifts)
        if s and nums
    ]
    size = 0
    for e, c in nums.items():
        count, bits = 1, _TERM_BITS + c.bit_length()
        for i, shift_bits in moved:
            count *= e[i] + 1
            bits += e[i] + shift_bits
        size += count * bits
    return size


def _compositions(total: int, bounds: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """Every tuple a of len(bounds) integers with 0 <= a_j <= bounds_j and sum total."""
    if len(bounds) == 1:
        if 0 <= total <= bounds[0]:
            yield (total,)
        return
    room = sum(bounds[1:])
    for first in range(max(0, total - room), min(bounds[0], total) + 1):
        for rest in _compositions(total - first, bounds[1:]):
            yield (first,) + rest


def _primitive(terms: dict) -> tuple[int, dict]:
    """(c, terms / c) for the content c > 0 of a map to integers; c = 1 for the zero map."""
    c = math.gcd(*terms.values()) or 1
    return c, terms if c == 1 else {k: v // c for k, v in terms.items()}


def _dense(values: Sequence[TRational]) -> bool:
    """Whether a full pullback along values is taken by ``_evaluated_order``.

    Every numerator and denominator must have degree below twice its term
    count (zero included), so that over half of its slots at t = 2^W are
    full.  ``compose_order`` asks only when some value has two terms or more.
    """
    return all(
        not terms or max(terms) < 2 * len(terms)
        for value in values
        for terms in value.integer_form
    )


def _leads(values: Sequence[TRational]) -> list[tuple[int, int, int] | None]:
    """(o_i, p(o_i), q(0)) per value p/q, None for zero (``compose_order``)."""
    leads = []
    for value in values:
        p, q = value.integer_form
        o = min(p, default=None)
        leads.append(None if o is None else (o, p[o], q[0]))
    return leads


def _leading_sum(lowest: Sequence[tuple[Exponent, int]], leads: Sequence) -> int:
    """S over the terms (e, c) of least weight, as an integer (``compose_order``)."""
    tops = [max(column) for column in zip(*(e for e, _ in lowest))]
    total = 0
    for e, c in lowest:
        for k, top, lead in zip(e, tops, leads):
            if top:
                c *= lead[1] ** k * lead[2] ** (top - k)
        total += c
    return total


class Polynomial:
    """Multivariate polynomial with named variables and exact coefficients.

    The coefficient of x^e is ``_nums[e] / _den``, with no zero numerators,
    ``_den > 0`` and gcd(_den, *_nums.values()) = 1.  This form is unique.
    """

    __slots__ = ("_variables", "_nums", "_den")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Scalar]):
        terms = {tuple(exponent): coeff for exponent, coeff in terms.items()}
        self._variables = _checked(variables, terms)
        self._nums, self._den = _lcm_form(terms)

    @classmethod
    def _make(cls, variables: tuple[str, ...], nums: dict, den: int = 1) -> Polynomial:
        """The polynomial with numerators nums over den, brought to lowest terms."""
        poly = object.__new__(cls)
        poly._variables = variables
        poly._nums, poly._den = _lowest(nums, den)
        return poly

    @classmethod
    def coordinate(cls, variables: Sequence[str], name: str) -> Polynomial:
        variables = tuple(variables)
        index = variables.index(name)
        exponent = tuple(1 if i == index else 0 for i in range(len(variables)))
        return cls(variables, {exponent: 1})

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """A new map from exponents to nonzero Fraction coefficients."""
        return {e: Fraction(c, self._den) for e, c in self._nums.items()}

    @property
    def integer_form(self) -> tuple[dict[Exponent, int], int]:
        """(nums, den), x^e having coefficient nums[e] / den; read-only."""
        return self._nums, self._den

    def items(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in a deterministic (sorted) order."""
        return [(e, Fraction(c, self._den)) for e, c in sorted(self._nums.items())]

    @property
    def is_zero(self) -> bool:
        return not self._nums

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            same_ring = self._variables == other._variables
            return same_ring and (self._den, self._nums) == (other._den, other._nums)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._variables, self._den, frozenset(self._nums.items())))

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._nums.get((0,) * len(self._variables), 0), self._den)

    def order_at_origin(self) -> int | float:
        """Smallest total degree of a term; infinity for the zero polynomial.

        This is the multiplicity at the origin of the hypersurface the
        polynomial defines.
        """
        if not self._nums:
            return math.inf
        return min(map(sum, self._nums))

    def partial_derivative(self, var: int | str) -> Polynomial:
        """Formal partial derivative with respect to one variable."""
        index = self._variables.index(var) if isinstance(var, str) else var
        if not 0 <= index < len(self._variables):
            raise ValueError(f"variable index {index} out of range")
        nums = {
            e[:index] + (e[index] - 1,) + e[index + 1 :]: c * e[index]
            for e, c in self._nums.items()
            if e[index]
        }
        return Polynomial._make(self._variables, nums, self._den)

    def _shifts(self, point: Sequence[Scalar]) -> list[Fraction]:
        """The point as exact shifts, once the translate by it is under the size cap."""
        if len(point) != len(self._variables):
            raise ValueError("translation point has the wrong number of coordinates")
        shifts = [exact(raw) for raw in point]
        size = _translate_size(self._nums, shifts)
        if size > MAX_TRANSLATE_SIZE:
            raise BudgetExhausted(f"the translate has size {size}, over {MAX_TRANSLATE_SIZE}")
        return shifts

    def translate(self, point: Sequence[Scalar]) -> Polynomial:
        """The polynomial p(x + point), i.e. coordinates recentered at point.

        A shift u/v in a variable of top power K is applied over the common
        denominator v^K, so each binomial term stays an integer; each row of
        binomials is built incrementally.  An output whose ``_translate_size``
        is over ``MAX_TRANSLATE_SIZE`` raises ``BudgetExhausted`` before any
        term is expanded.
        """
        shifts = self._shifts(point)
        nums, den = self._nums, self._den
        for index, shift in enumerate(shifts):
            if not shift or not nums:
                continue
            top = max(e[index] for e in nums)
            u_pow = [shift.numerator**i for i in range(top + 1)]
            v_pow = [shift.denominator**i for i in range(top + 1)]
            updated: dict[Exponent, int] = {}
            for e, c in nums.items():
                k, binomial = e[index], 1
                for j in range(k + 1):
                    key = e[:index] + (j,) + e[index + 1 :]
                    value = c * binomial * u_pow[k - j] * v_pow[top - k + j]
                    updated[key] = updated.get(key, 0) + value
                    binomial = binomial * (k - j) // (j + 1)
            nums, den = updated, den * v_pow[top]
        if nums is self._nums:
            return self
        return Polynomial._make(self._variables, nums, den)

    def order_at(self, point: Sequence[Scalar]) -> int | float:
        """Multiplicity at point: the order at the origin of p(x + point), built from none of it.

        By Taylor's formula it is the least |alpha| with d^alpha p(point) !=
        0, infinity for the zero polynomial.  With c_i = u_i/v_i the point,
        M_i the top power of variable i and n_e/D the coefficients, D times
        prod_i v_i^(M_i) times the coefficient d^alpha p(point)/alpha! of
        x^alpha in p(x + point) is the integer

            T_alpha = sum_(e >= alpha) n_e prod_i binom(e_i, alpha_i)
                      u_i^(e_i - alpha_i) v_i^(M_i - e_i + alpha_i),

        the products over the moved variables, those with c_i != 0.  On the
        others only alpha_i = e_i contributes, so the terms that agree there
        form groups whose T_alpha share no alpha: the answer is the least over
        the groups of their degree in the other variables plus their own
        least degree with a nonzero T_alpha.  Each group takes its degrees 0,
        1, ... in turn, below the best answer so far.  Each (e, alpha) is one
        term the translate would expand, so the translate's size cap is
        checked first.
        """
        shifts = self._shifts(point)
        moved = [i for i, shift in enumerate(shifts) if shift]
        if not moved or not self._nums:
            return self.order_at_origin()
        still = [i for i, shift in enumerate(shifts) if not shift]
        groups: dict[Exponent, list[tuple[Exponent, int]]] = {}
        for e, c in self._nums.items():
            group = groups.setdefault(tuple([e[i] for i in still]), [])
            group.append((tuple([e[i] for i in moved]), c))
        points = [(shifts[i].numerator, shifts[i].denominator, max(e[i] for e in self._nums))
                  for i in moved]
        best = math.inf
        for rest in sorted(groups, key=sum):
            base, terms = sum(rest), groups[rest]
            if base >= best:
                break
            for degree in range(min(best - base, max(sum(e) for e, _ in terms) + 1)):
                sums: dict[Exponent, int] = {}
                for e, c in terms:
                    for alpha in _compositions(degree, e):
                        value = c
                        for k, a, (u, v, top) in zip(e, alpha, points):
                            value *= math.comb(k, a) * u ** (k - a) * v ** (top - k + a)
                        sums[alpha] = sums.get(alpha, 0) + value
                if any(sums.values()):
                    best = base + degree
                    break
        return best

    def _compose_parts(self, values: Sequence[TRational]) -> tuple[Terms, Terms]:
        """Numerator and denominator of the substitution, as nested integer sums.

        Value i is the canonical pair x_i = p_i / q_i (``TRational``).  With D
        the polynomial's denominator, M_i the top power of variable i and
        R_i(k) = p_i^k q_i^(M_i - k),

            num = sum_e c_e prod_i R_i(e_i)
                = sum_k R_1(k) sum_k' R_2(k') ... sum_(e_n) c_e R_n(e_n),
            den = D prod_i q_i^M_i.

        The nested sum groups the terms by their leading exponents (a
        multivariate Horner scheme), so it takes one product per distinct
        exponent prefix, and none for a factor equal to 1; each R_i(k) is
        built once, for the k that occur, and at once when p_i and q_i are
        single terms: after a run of blow-ups, M_i for s is about the step count.
        No gcd reduction happens here, and the values' maps are only read.
        Neither part has a zero entry, and the denominator does not vanish at
        t = 0 because no q_i does.
        """
        if len(values) != len(self._variables):
            raise ValueError("substitution needs one value per variable")
        factors: list[dict[int, dict[int, int]]] = []
        den = {0: self._den}
        for value, column in zip(values, zip(*self._nums)):
            p, q = value.integer_form
            top = max(column)
            if len(p) == len(q) == 1:
                (i, c), (j, g) = *p.items(), *q.items()
                powers = {k: {i * k + j * (top - k): c**k * g ** (top - k)} for k in set(column)}
                factors.append(powers)
                den = _times(den, {j * top: g**top})
                continue
            p_pow, q_pow = [_UNIT], [_UNIT]
            for _ in range(top):
                p_pow.append(_times(p_pow[-1], p))
                q_pow.append(_times(q_pow[-1], q))
            factors.append({k: _times(p_pow[k], q_pow[top - k]) for k in set(column)})
            den = _times(den, q_pow[top])
        level = {e: {0: c} for e, c in self._nums.items()}
        for i in reversed(range(len(factors))):
            upper: dict[Exponent, dict[int, int]] = {}
            for prefix, inner in level.items():
                factor = factors[i][prefix[-1]]
                # Not _times, which may return the shared factor for acc to change.
                product = inner if factor == _UNIT else _convolve(factor, inner)
                acc = upper.setdefault(prefix[:-1], product)
                if acc is not product:
                    for power, v in product.items():
                        acc[power] = acc.get(power, 0) + v
            level = upper
        return {power: v for power, v in level.get((), {}).items() if v}, den

    def compose(self, values: Sequence[TRational]) -> TRational:
        """Substitute a rational function of t for every variable.

        The result is again a rational function regular at t = 0, so pullbacks
        of polynomials along arcs never leave exact arithmetic.
        """
        return TRational._canonical(*_reduced(*self._compose_parts(values)))

    def compose_order(self, values: Sequence[TRational]) -> int | float:
        """Vanishing order in t of the substitution, infinity when it is zero.

        Value i = p_i/q_i starts l_i t^(o_i), with o_i = ord p_i and l_i =
        p_i(o_i) / q_i(0), as q_i(0) != 0.  So a term c_e x^e with no zero
        value among its factors starts c_e prod_i l_i^(e_i) t^(e . o); the
        terms of one weight w = e . o form a class, whose leading sum S_w =
        sum over e . o = w of c_e prod_i l_i^(e_i) is tested over the
        integers, times D prod_i q_i(0)^(E_i), E_i the largest e_i in the
        class (``_leads`` and ``_leading_sum``, which ``rees.diff_order``
        shares).  With low the least weight, the coefficient of t^low in the
        pullback is S_low and all else starts higher: S_low != 0 proves the
        order is low.  With no class, every term has a zero factor, so the
        pullback is 0.

        When every value is zero or one term (``TRational._is_term``), the
        pullback is exactly sum_w S_w t^w.  Proof: a canonical value with a
        one-term numerator and a one-term denominator has q_i = q_i(0), as
        q_i(0) != 0, so it is exactly l_i t^(o_i); a term with no
        zero factor then pulls back to exactly c_e prod_i l_i^(e_i) t^(e . o),
        and a term with a zero factor to 0.  So the coefficient of t^w is
        S_w, and the order is the least w with S_w != 0, or infinity when
        every class cancels: an identity, not a bound or a sampled test.

        For other values, only when S_low = 0 (a cancellation, or a zero
        pullback) is the order read from the full numerator: by
        ``_evaluated_order`` when every value is dense, else from
        ``_compose_parts``.
        """
        if len(values) != len(self._variables):
            raise ValueError("substitution needs one value per variable")
        leads = _leads(values)
        classes: dict[int, list[tuple[Exponent, int]]] = {}
        for e, c in self._nums.items():
            if any(k and lead is None for k, lead in zip(e, leads)):
                continue
            weight = sum(k * lead[0] for k, lead in zip(e, leads) if k)
            classes.setdefault(weight, []).append((e, c))
        if not classes:
            return math.inf
        if all(value.is_zero or value._is_term() for value in values):
            for weight in sorted(classes):
                if _leading_sum(classes[weight], leads):
                    return weight
            return math.inf
        low = min(classes)
        if _leading_sum(classes[low], leads):
            return low
        if _dense(values):
            return self._evaluated_order(values)
        num, _ = self._compose_parts(values)
        return min(num, default=math.inf)

    def _evaluated_order(self, values: Sequence[TRational]) -> int | float:
        """Order of the pullback's numerator, read from its value at t = 2^W.

        Value i is the canonical pair p_i/q_i: with alpha_i, beta_i > 0 the
        contents of p_i and q_i (1 for zero), p_i = alpha_i p'_i and q_i =
        beta_i q'_i with p'_i, q'_i primitive.  With M_i the top power of
        variable i, C_e is c_e prod_i alpha_i^(e_i) beta_i^(M_i - e_i) divided
        by G >= 1, the gcd of all of them.  So num = G num', where

            num' = sum_e C_e prod_i p'_i^(e_i) q'_i^(M_i - e_i):

        num' is 0 exactly when num is, and otherwise has the same order.  It
        is evaluated at t = 2^W, through the nested sum of ``_compose_parts``
        over integers, where

            W = bitlen N + max_e [bitlen C_e
                + sum_i (e_i bitlen |p'_i|_1 + (M_i - e_i) bitlen |q'_i|_1)],

        N the number of terms, bitlen x the bit length of |x|, so |x| <
        2^(bitlen x), and |.|_1 the sum of the absolute values of the
        coefficients.  Dividing out the scalars narrows W, since the terms
        share most of them.  Proof that the order read off is exact: a
        coefficient of a product is at most the product of the factors'
        |.|_1, so each term's coefficients are below 2^(W - bitlen N), and
        every coefficient a_k of num', an integer, satisfies |a_k| <
        N 2^(W - bitlen N) <= 2^W.  So v = num'(2^W) = sum_k a_k 2^(kW).  If
        num' = 0, v = 0.  Otherwise, with o = ord num', v = 2^(oW) (a_o + 2^W m)
        for an integer m, and 0 < |a_o| < 2^W gives v_2(a_o) < W: hence v != 0
        and v_2(v) = oW + v_2(a_o), whose quotient by W is o.  So v = 0
        exactly when num = 0, and ord num = v_2(v) // W otherwise.  This is a
        proof, not a probabilistic test: the zero check stays exact.
        """
        if not self._nums:
            return math.inf
        columns = list(zip(*self._nums))
        tops = [max(column) for column in columns]
        parts, folds = [], []
        for i, (value, top, column) in enumerate(zip(values, tops, columns)):
            (alpha, p), (beta, q) = map(_primitive, value.integer_form)
            parts.append((p, q))
            if alpha != 1 or beta != 1:
                folds.append((i, {k: alpha**k * beta ** (top - k) for k in set(column)}))
        coeffs = self._nums
        for i, scale in folds:
            coeffs = {e: c * scale[e[i]] for e, c in coeffs.items()}
        _, coeffs = _primitive(coeffs)
        bits = [
            (sum(map(abs, p.values())).bit_length(), sum(map(abs, q.values())).bit_length())
            for p, q in parts
        ]
        width = len(coeffs).bit_length() + max(
            abs(c).bit_length()
            + sum(k * bp + (top - k) * bq for k, top, (bp, bq) in zip(e, tops, bits))
            for e, c in coeffs.items()
        )
        factors: list[dict[int, int]] = []
        for (p, q), top, column in zip(parts, tops, columns):
            p_at, q_at = _at_power_of_two(p, width), _at_power_of_two(q, width)
            factors.append({k: p_at**k * q_at ** (top - k) for k in set(column)})
        level = coeffs
        for i in reversed(range(len(factors))):
            upper: dict[Exponent, int] = {}
            for prefix, inner in level.items():
                key = prefix[:-1]
                upper[key] = upper.get(key, 0) + factors[i][prefix[-1]] * inner
            level = upper
        value = level[()]
        if not value:
            return math.inf
        return ((value & -value).bit_length() - 1) // width

    def _map_exponents(
        self, fn: Callable[..., Sequence[int]], variables: Sequence[str] | None = None
    ) -> Polynomial:
        """The sum of c_e x^fn(e), in ``variables`` (default: the same ones).

        Coefficients whose exponents land on the same fn(e) are added.  Nothing
        is re-validated: every caller makes each fn(e) a valid exponent.
        """
        nums: dict[Exponent, int] = {}
        for e, c in self._nums.items():
            key = tuple(fn(e))
            nums[key] = nums.get(key, 0) + c
        variables = self._variables if variables is None else tuple(variables)
        return Polynomial._make(variables, nums, self._den)

    def extend_variables(self, extra: Sequence[str]) -> Polynomial:
        """The same polynomial viewed in a ring with extra trailing variables."""
        extra = tuple(extra)
        variables = _checked(self._variables + extra, ())
        pad = (0,) * len(extra)
        return self._map_exponents(lambda e: e + pad, variables)

    def __str__(self) -> str:
        def monomial(e: Exponent) -> str:
            powers = zip(self._variables, e)
            return "*".join(f"{x}^{k}" if k > 1 else x for x, k in powers if k)

        ordered = sorted(self.terms.items(), key=lambda item: (-sum(item[0]), item[0]))
        return _format((monomial(e), c) for e, c in ordered)

    def __repr__(self) -> str:
        return f"Polynomial({self._variables!r}, {dict(self.items())!r})"
