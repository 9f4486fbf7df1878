"""Arcs on affine hypersurfaces, centered at the origin.

An arc is a tuple of rational functions of t, one per ambient coordinate,
each vanishing at t = 0.  Membership on a hypersurface is checked by exact
composition: f pulled back along the arc must be identically zero, not just
zero to high order.

Families of arcs with prescribed contact behaviour are produced from
monomial parametrizations of the hypersurface.  Substituting unit-order
polynomials u_i(t) into a parametrization that satisfies the hypersurface
equation identically yields an arc that lies on the hypersurface for every
choice of coefficients, which is what makes seeded random sampling safe.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Sequence

from .errors import PreconditionError
from .polynomials import Polynomial
from .tseries import TPoly, TRational


class Hypersurface:
    """An affine hypersurface through the origin, singular there if b >= 2."""

    __slots__ = ("f",)

    def __init__(self, f: Polynomial):
        if f.is_zero:
            raise PreconditionError("the defining polynomial must be nonzero")
        if f.constant_term != 0:
            raise PreconditionError("the hypersurface must pass through the origin")
        self.f = f

    @property
    def variables(self) -> tuple[str, ...]:
        return self.f.variables

    @property
    def ambient_dimension(self) -> int:
        return len(self.f.variables)

    @property
    def multiplicity(self) -> int:
        """Multiplicity at the origin: the vanishing order of f there."""
        order = self.f.order_at_origin()
        assert order != math.inf
        return int(order)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Hypersurface):
            return self.f == other.f
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.f)

    def __repr__(self) -> str:
        return f"Hypersurface({self.f})"


class Arc:
    """A tuple of rational functions of t, all vanishing at t = 0."""

    __slots__ = ("components",)

    def __init__(self, components: Sequence[TRational]):
        components = tuple(components)
        if not components:
            raise PreconditionError("an arc needs at least one component")
        for i, comp in enumerate(components):
            if not isinstance(comp, TRational):
                raise PreconditionError(f"component {i} is not a rational function of t")
            if comp.t_order() < 1:
                raise PreconditionError(
                    f"component {i} does not vanish at t = 0; the arc is not centered"
                )
        self.components = components

    def __len__(self) -> int:
        return len(self.components)

    def order(self) -> int:
        """Minimal vanishing order over the components.

        This is the order of contact of the arc with the maximal ideal at the
        origin.  The constant arc has no such order and is rejected.
        """
        orders = [comp.t_order() for comp in self.components]
        finite = [o for o in orders if o != math.inf]
        if not finite:
            raise PreconditionError("the constant arc has no contact order")
        return int(min(finite))

    def ramify(self, n: int) -> Arc:
        """Precompose with t -> t^n; all contact orders get multiplied by n."""
        return Arc(tuple(comp.ramify(n) for comp in self.components))

    def lies_on(self, surface: Hypersurface) -> bool:
        """Exact membership test: f pulled back along the arc is identically 0."""
        if len(self.components) != surface.ambient_dimension:
            raise PreconditionError(
                "arc has a different number of components than the ambient space"
            )
        return surface.f.compose_order(self.components) == math.inf

    def contact_order(self, generators: Sequence[Polynomial]) -> int | float:
        """Minimal vanishing order of the generators pulled back along the arc.

        Returns infinity when every generator pulls back to zero, i.e. the arc
        sits inside the zero locus of the ideal.
        """
        if not generators:
            raise PreconditionError("contact order needs at least one generator")
        best: int | float = math.inf
        for g in generators:
            value = g.compose_order(self.components)
            if value < best:
                best = value
        return best

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Arc):
            return self.components == other.components
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.components)

    def __repr__(self) -> str:
        return "Arc(" + ", ".join(str(c) for c in self.components) + ")"


def monomial_arc(powers: Sequence[int | None]) -> Arc:
    """Arc with components t^k, or the zero function where the power is None."""
    components = []
    for k in powers:
        if k is None:
            components.append(TRational.zero())
        else:
            components.append(TRational.t(k))
    return Arc(components)


class MonomialParametrization:
    """Coordinates given by monomials in auxiliary parameters u_1, ..., u_r.

    ``exponents[i][j]`` is the exponent of parameter i in coordinate j.
    """

    __slots__ = ("exponents",)

    def __init__(self, exponents: Sequence[Sequence[int]]):
        rows = tuple(tuple(row) for row in exponents)
        if not rows:
            raise PreconditionError("a parametrization needs at least one parameter")
        width = len(rows[0])
        if width == 0 or any(len(row) != width for row in rows):
            raise PreconditionError("exponent rows must be nonempty and equally long")
        for row in rows:
            if any(not isinstance(e, int) or e < 0 for e in row):
                raise PreconditionError("parametrization exponents must be >= 0")
        self.exponents = rows

    @property
    def parameter_count(self) -> int:
        return len(self.exponents)

    @property
    def coordinate_count(self) -> int:
        return len(self.exponents[0])

    def coordinate_orders(self, parameter_orders: Sequence[int]) -> tuple[int, ...]:
        """t-orders of the coordinates when parameter i has t-order given."""
        if len(parameter_orders) != self.parameter_count:
            raise PreconditionError("one order per parameter is required")
        return tuple(
            sum(row[j] * o for row, o in zip(self.exponents, parameter_orders))
            for j in range(self.coordinate_count)
        )

    def check_identity(self, surface: Hypersurface) -> None:
        """Verify symbolically that the parametrization satisfies f = 0.

        Each monomial of f becomes a monomial in the parameters; the whole sum
        must cancel identically, otherwise the parametrization is rejected.
        """
        if self.coordinate_count != surface.ambient_dimension:
            raise PreconditionError(
                "parametrization has the wrong number of coordinates"
            )
        collected: dict[tuple[int, ...], Fraction] = {}
        for exp, coeff in surface.f.terms.items():
            key = tuple(
                sum(row[j] * exp[j] for j in range(len(exp))) for row in self.exponents
            )
            value = collected.get(key, Fraction(0)) + coeff
            if value:
                collected[key] = value
            else:
                collected.pop(key, None)
        if collected:
            raise PreconditionError(
                "parametrization does not satisfy the hypersurface equation"
            )

    def arc(self, parameters: Sequence[TPoly]) -> Arc:
        """Substitute concrete series for the parameters."""
        if len(parameters) != self.parameter_count:
            raise PreconditionError("one series per parameter is required")
        values = [TRational(p) for p in parameters]
        components = []
        for j in range(self.coordinate_count):
            comp = TRational.one()
            for value, row in zip(values, self.exponents):
                if row[j]:
                    comp = comp * value ** row[j]
            components.append(comp)
        return Arc(components)


def _random_nonzero_fraction(rng: random.Random) -> Fraction:
    sign = rng.choice((-1, 1))
    return Fraction(sign * rng.randint(1, 9), rng.randint(1, 9))


def sample_binomial_arc(
    surface: Hypersurface,
    exponents: Sequence[Sequence[int]] | MonomialParametrization,
    orders: Sequence[int],
    coeff_seed: int,
) -> Arc:
    """Seeded random arc on the hypersurface with prescribed parameter orders.

    Each parameter becomes a dense polynomial in t whose powers run from its
    prescribed order up to order + 3, with nonzero pseudo-random rational
    coefficients drawn from ``coeff_seed``.  Because the parametrization is
    checked to satisfy the hypersurface equation identically, the resulting
    arc lies on the hypersurface for every seed.
    """
    param = (
        exponents
        if isinstance(exponents, MonomialParametrization)
        else MonomialParametrization(exponents)
    )
    param.check_identity(surface)
    if len(orders) != param.parameter_count:
        raise PreconditionError("one t-order per parameter is required")
    if any(not isinstance(o, int) or o < 1 for o in orders):
        raise PreconditionError("parameter orders must be positive integers")
    rng = random.Random(coeff_seed)
    series = []
    for order in orders:
        coeffs = {order + k: _random_nonzero_fraction(rng) for k in range(4)}
        series.append(TPoly(coeffs))
    return param.arc(series)
