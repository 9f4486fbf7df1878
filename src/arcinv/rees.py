"""Weighted generator lists and their orders at a point and along arcs.

An algebra is presented as a finite list of pairs (g, w): a polynomial
generator in weight w >= 1.  The two quantities computed from a presentation
are

* the order at the center: min over generators of order(g) / w, defined when
  the origin satisfies order(g) >= w for every generator, and
* the order along an arc: min over generators of t_order(g o arc) / w, with
  the value infinity exactly when every generator pulls back to zero.

In characteristic zero the differential saturation of the algebra generated
by the hypersurface equation f in weight b is spanned by all iterated
partial derivatives of f of order < b, each in weight b minus the number of
derivatives taken.  That presentation is what turns multiplicity questions
into order computations along arcs.

Integral closures are never computed.  Two presentations of the same algebra
are compared through the order values they produce, which is the only sense
in which they are used downstream.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .arcs import Arc, Hypersurface
from .errors import NotInSingularLocus, PreconditionError
from .polynomials import Polynomial


class ReesAlgebra:
    """A finite weighted presentation (g_1, w_1), ..., (g_k, w_k)."""

    __slots__ = ("generators",)

    def __init__(self, generators: Sequence[tuple[Polynomial, int]]):
        gens = tuple((g, w) for g, w in generators)
        if not gens:
            raise PreconditionError("a presentation needs at least one generator")
        variables = gens[0][0].variables
        for g, w in gens:
            if g.is_zero:
                raise PreconditionError("zero polynomials cannot be generators")
            if not isinstance(w, int) or w < 1:
                raise PreconditionError(f"weight {w!r} is not a positive integer")
            if g.variables != variables:
                raise PreconditionError("all generators must share the variable list")
        self.generators = gens

    @property
    def variables(self) -> tuple[str, ...]:
        return self.generators[0][0].variables

    def ord_at_center(self) -> Fraction:
        """Order of the presentation at the origin.

        Requires the origin to lie in the singular locus of the presentation:
        every generator must vanish there to order at least its weight.
        """
        best: Fraction | None = None
        for g, w in self.generators:
            order = g.order_at_origin()
            if order < w:
                raise NotInSingularLocus(
                    f"generator {g} has order {order} < weight {w} at the origin"
                )
            value = Fraction(int(order), w)
            if best is None or value < best:
                best = value
        assert best is not None
        return best

    def ord_along_arc(self, arc: Arc) -> Fraction | float:
        """Order of the presentation pulled back along an arc.

        Infinity exactly when every generator pulls back to zero, meaning the
        arc stays inside the closed locus cut out by the presentation.
        """
        if len(arc.components) != len(self.variables):
            raise PreconditionError("arc does not match the ambient variables")
        best: Fraction | float = math.inf
        for g, w in self.generators:
            t_order = g.compose_order(arc.components)
            if t_order == math.inf:
                continue
            value = Fraction(int(t_order), w)
            if value < best:
                best = value
        return best


def _scalar_normal_form(p: Polynomial) -> tuple:
    """A key identifying p up to a nonzero scalar factor."""
    items = p.items()
    lead = items[-1][1]
    return tuple((e, c / lead) for e, c in items)


def diff_saturate(surface: Hypersurface) -> ReesAlgebra:
    """All iterated partials of f of order < b, each in weight b - |alpha|.

    Only meaningful at a singular point, so multiplicity b >= 2 is required.
    Within each weight the generators are deduplicated up to scalar; their
    order is deterministic (derivation multi-indices in graded order).
    """
    b = surface.multiplicity
    if b < 2:
        raise PreconditionError(
            f"differential saturation needs multiplicity >= 2, got {b}"
        )
    f = surface.f
    n = len(f.variables)
    generators: list[tuple[Polynomial, int]] = [(f, b)]
    seen: set[tuple[int, tuple]] = {(b, _scalar_normal_form(f))}
    level: dict[tuple[int, ...], Polynomial] = {(0,) * n: f}
    for depth in range(1, b):
        weight = b - depth
        next_level: dict[tuple[int, ...], Polynomial] = {}
        for alpha in sorted(level):
            parent = level[alpha]
            first_nonzero = next((j for j, a in enumerate(alpha) if a), n - 1)
            for j in range(first_nonzero + 1):
                derived = parent.partial_derivative(j)
                if derived.is_zero:
                    continue
                beta = alpha[:j] + (alpha[j] + 1,) + alpha[j + 1 :]
                next_level[beta] = derived
        for beta in sorted(next_level):
            g = next_level[beta]
            key = (weight, _scalar_normal_form(g))
            if key in seen:
                continue
            seen.add(key)
            generators.append((g, weight))
        level = next_level
    return ReesAlgebra(generators)
