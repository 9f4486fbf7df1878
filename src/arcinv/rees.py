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
from .errors import BudgetExhausted, NotInSingularLocus, PreconditionError
from .polynomials import Polynomial
from .tseries import is_exponent

# Largest differential presentation ``diff_saturate`` builds, as measured by
# ``_presentation_size``.  At the cap, x^8306 in two variables took 0.22 s and
# 77 MB peak RSS, and all monomials of degree 17 to 21 in three variables
# 0.26 s and 71 MB, on a 2-vCPU Xeon VM.  The bundled surfaces take under 10^5.
MAX_PRESENTATION_SIZE = 10**9
# A term of a partial weighs this many bits on top of its coefficient's: the
# dict slot, exponent tuple and integer it is stored in.
_TERM_BITS = 4096


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
            if not is_exponent(w) or w < 1:
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
        orders = [(g, g.order_at_origin(), w) for g, w in self.generators]
        for g, order, w in orders:
            if order < w:
                raise NotInSingularLocus(
                    f"generator {g} has order {order} < weight {w} at the origin"
                )
        return min(Fraction(int(order), w) for _, order, w in orders)

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


def _scalar_normal_form(p: Polynomial) -> frozenset:
    """A key identifying p up to a nonzero scalar factor.

    The primitive integer numerators of p, signed so that the coefficient of
    the largest exponent is positive.
    """
    nums, _ = p.integer_form
    g = math.gcd(*nums.values())
    if nums[max(nums)] < 0:
        g = -g
    return frozenset((e, c // g) for e, c in nums.items())


def _presentation_size(f: Polynomial, b: int) -> int:
    """An upper bound on the size of the partials of f of order < b.

    A term c*x^e gives a term of the partial by alpha only for alpha <= e
    with |alpha| < b: at most prod_i (min(e_i, b - 1) + 1) of them.  Each has
    the coefficient c * prod_i e_i! / (e_i - alpha_i)!, of at most bitlen c +
    min(|e|, b - 1) * bitlen max e bits, and weighs ``_TERM_BITS`` more.
    """
    size = 0
    for e, c in f.integer_form[0].items():
        count = 1
        for k in e:
            count *= min(k, b - 1) + 1
        size += count * (_TERM_BITS + c.bit_length() + min(sum(e), b - 1) * max(e).bit_length())
    return size


def diff_saturate(surface: Hypersurface) -> ReesAlgebra:
    """All iterated partials of f of order < b, each in weight b - |alpha|.

    Only meaningful at a singular point, so multiplicity b >= 2 is required.
    Within each weight the generators are deduplicated up to scalar; their
    order is deterministic (derivation multi-indices in graded order).  A
    presentation whose ``_presentation_size`` is over
    ``MAX_PRESENTATION_SIZE`` raises ``BudgetExhausted`` before any partial.
    """
    b = surface.multiplicity
    if b < 2:
        raise PreconditionError(
            f"differential saturation needs multiplicity >= 2, got {b}"
        )
    f = surface.f
    size = _presentation_size(f, b)
    if size > MAX_PRESENTATION_SIZE:
        raise BudgetExhausted(
            f"the differential presentation has size {size}, over {MAX_PRESENTATION_SIZE}"
        )
    n = len(f.variables)
    generators: list[tuple[Polynomial, int]] = [(f, b)]
    seen: set[tuple[int, frozenset]] = {(b, _scalar_normal_form(f))}
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
