"""Sparse multivariate polynomials over exact rationals.

A polynomial is a map from exponent tuples to nonzero coefficients; the zero
polynomial is the empty map.  The hypersurface equations treated here and
all their transforms under point blow-ups stay sparse, so this is both the
simplest and the fastest representation for the job.

Coefficients are ``fractions.Fraction`` throughout.  No floats enter at any
point, which is what makes the downstream order computations trustworthy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb
from typing import Mapping, Sequence, Union

from .tseries import TPoly, TRational

Scalar = Union[int, Fraction]
Exponent = tuple[int, ...]


class Polynomial:
    """Multivariate polynomial with named variables and Fraction coefficients."""

    __slots__ = ("_variables", "_terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Exponent, Scalar]):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a polynomial needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names in {variables!r}")
        clean: dict[Exponent, Fraction] = {}
        for exponent, coeff in terms.items():
            exponent = tuple(exponent)
            if len(exponent) != len(variables):
                raise ValueError(
                    f"exponent {exponent!r} does not match {len(variables)} variables"
                )
            if any(not isinstance(e, int) or e < 0 for e in exponent):
                raise ValueError(f"exponents must be non-negative integers: {exponent!r}")
            value = Fraction(coeff)
            if value:
                clean[exponent] = value
        self._variables = variables
        self._terms = clean

    @classmethod
    def zero(cls, variables: Sequence[str]) -> Polynomial:
        return cls(variables, {})

    @classmethod
    def constant(cls, variables: Sequence[str], value: Scalar) -> Polynomial:
        return cls(variables, {(0,) * len(tuple(variables)): value})

    @classmethod
    def coordinate(cls, variables: Sequence[str], name: str) -> Polynomial:
        variables = tuple(variables)
        index = variables.index(name)
        exponent = tuple(1 if i == index else 0 for i in range(len(variables)))
        return cls(variables, {exponent: 1})

    @classmethod
    def monomial(
        cls, variables: Sequence[str], exponent: Sequence[int], coeff: Scalar = 1
    ) -> Polynomial:
        return cls(variables, {tuple(exponent): coeff})

    @property
    def variables(self) -> tuple[str, ...]:
        return self._variables

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The underlying term map.  Treat as read-only."""
        return self._terms

    def items(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in a deterministic (sorted) order."""
        return sorted(self._terms.items())

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self._variables == other._variables and self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._variables, frozenset(self._terms.items())))

    def _check_same_variables(self, other: Polynomial) -> None:
        if self._variables != other._variables:
            raise ValueError(
                f"variable mismatch: {self._variables!r} vs {other._variables!r}"
            )

    def __neg__(self) -> Polynomial:
        return Polynomial(self._variables, {e: -c for e, c in self._terms.items()})

    def __add__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self._variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_variables(other)
        terms = dict(self._terms)
        for e, c in other._terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return Polynomial(self._variables, terms)

    __radd__ = __add__

    def __sub__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self._variables, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: Polynomial | Scalar) -> Polynomial:
        return (-self) + other

    def __mul__(self, other: Polynomial | Scalar) -> Polynomial:
        if isinstance(other, (int, Fraction)):
            factor = Fraction(other)
            if not factor:
                return Polynomial.zero(self._variables)
            return Polynomial(
                self._variables, {e: c * factor for e, c in self._terms.items()}
            )
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_same_variables(other)
        terms: dict[Exponent, Fraction] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, Fraction(0)) + c1 * c2
        return Polynomial(self._variables, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if exponent < 0:
            raise ValueError("negative powers of a polynomial are undefined")
        result = Polynomial.constant(self._variables, 1)
        for _ in range(exponent):
            result = result * self
        return result

    @property
    def constant_term(self) -> Fraction:
        return self._terms.get((0,) * len(self._variables), Fraction(0))

    def order_at_origin(self) -> int | float:
        """Smallest total degree of a term; infinity for the zero polynomial.

        This is the multiplicity at the origin of the hypersurface the
        polynomial defines.
        """
        if not self._terms:
            return math.inf
        return min(sum(e) for e in self._terms)

    def partial_derivative(self, var: int | str) -> Polynomial:
        """Formal partial derivative with respect to one variable."""
        index = self._variables.index(var) if isinstance(var, str) else var
        if not 0 <= index < len(self._variables):
            raise ValueError(f"variable index {index} out of range")
        terms: dict[Exponent, Fraction] = {}
        for e, c in self._terms.items():
            k = e[index]
            if k == 0:
                continue
            key = e[:index] + (k - 1,) + e[index + 1 :]
            terms[key] = terms.get(key, Fraction(0)) + c * k
        return Polynomial(self._variables, terms)

    def translate(self, point: Sequence[Scalar]) -> Polynomial:
        """The polynomial p(x + point), i.e. coordinates recentered at point."""
        if len(point) != len(self._variables):
            raise ValueError("translation point has the wrong number of coordinates")
        terms = self._terms
        for index, raw in enumerate(point):
            shift = Fraction(raw)
            if not shift:
                continue
            updated: dict[Exponent, Fraction] = {}
            for e, c in terms.items():
                k = e[index]
                for j in range(k + 1):
                    coeff = c * comb(k, j) * shift ** (k - j)
                    key = e[:index] + (j,) + e[index + 1 :]
                    value = updated.get(key, Fraction(0)) + coeff
                    if value:
                        updated[key] = value
                    else:
                        updated.pop(key, None)
            terms = updated
        if terms is self._terms:
            return self
        return Polynomial(self._variables, terms)

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != len(self._variables):
            raise ValueError("evaluation point has the wrong number of coordinates")
        values = [Fraction(v) for v in point]
        total = Fraction(0)
        for e, c in self._terms.items():
            term = c
            for base, k in zip(values, e):
                if k:
                    term *= base**k
            total += term
        return total

    def _compose_parts(self, values: Sequence[TRational]) -> tuple[TPoly, TPoly]:
        """Numerator and denominator of the substitution, not normalized.

        All term numerators are put over the one common denominator
        prod_i den_i^{max power of variable i}, so no gcd reduction happens
        here.  The denominator never vanishes at t = 0 because none of the
        component denominators do.
        """
        if len(values) != len(self._variables):
            raise ValueError("substitution needs one value per variable")
        max_power = [0] * len(self._variables)
        for e in self._terms:
            for i, k in enumerate(e):
                if k > max_power[i]:
                    max_power[i] = k
        num_powers: list[list[TPoly]] = []
        den_powers: list[list[TPoly]] = []
        for value, top in zip(values, max_power):
            nums = [TPoly.one()]
            dens = [TPoly.one()]
            for _ in range(top):
                nums.append(nums[-1] * value.num)
                dens.append(dens[-1] * value.den)
            num_powers.append(nums)
            den_powers.append(dens)
        den = TPoly.one()
        for i, top in enumerate(max_power):
            if top:
                den = den * den_powers[i][top]
        num = TPoly.zero()
        for e, c in self.items():
            term = TPoly.constant(c)
            for i, k in enumerate(e):
                if k:
                    term = term * num_powers[i][k]
                if max_power[i] - k:
                    term = term * den_powers[i][max_power[i] - k]
            num = num + term
        return num, den

    def compose(self, values: Sequence[TRational]) -> TRational:
        """Substitute a rational function of t for every variable.

        The result is again a rational function regular at t = 0, so pullbacks
        of polynomials along arcs never leave exact arithmetic.
        """
        return TRational(*self._compose_parts(values))

    def compose_order(self, values: Sequence[TRational]) -> int | float:
        """Vanishing order in t of the substitution, infinity when it is zero.

        Reads the order off the unreduced numerator, skipping the quotient
        normalization that ``compose`` performs.
        """
        num, _ = self._compose_parts(values)
        return num.order()

    def extend_variables(self, extra: Sequence[str]) -> Polynomial:
        """The same polynomial viewed in a ring with extra trailing variables."""
        extra = tuple(extra)
        pad = (0,) * len(extra)
        return Polynomial(
            self._variables + extra, {e + pad: c for e, c in self._terms.items()}
        )

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        def fmt_term(e: Exponent, c: Fraction) -> str:
            factors = []
            for name, k in zip(self._variables, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            if not factors:
                return str(c)
            body = "*".join(factors)
            if c == 1:
                return body
            if c == -1:
                return f"-{body}"
            return f"{c}*{body}"

        ordered = sorted(self._terms.items(), key=lambda item: (-sum(item[0]), item[0]))
        out = " + ".join(fmt_term(e, c) for e, c in ordered)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Polynomial({self._variables!r}, {dict(self.items())!r})"
