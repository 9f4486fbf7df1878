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

``diff_order`` reads the order of that presentation less f along an arc
from the terms c_e x^e of f, without building it.  Proof that it is the
same order:

* For |alpha| >= 1, d^alpha f = sum over e >= alpha of c_e e!/(e - alpha)!
  x^(e - alpha).  Distinct e stay distinct, so d^alpha f != 0 whenever some
  term has e >= alpha.
* The generators of ``diff_saturate`` less f are exactly these partials for
  1 <= |alpha| < b, in weight b - |alpha|; its deduplication drops only
  nonzero scalar multiples, whose orders are equal.  So the order is the
  least ord(d^alpha f o arc) / (b - |alpha|).
* By the argument of ``Polynomial.compose_order``, ord(d^alpha f o arc) >=
  low_alpha, the least weight (e - alpha) . o over the terms free of zero
  factors, with equality iff their leading sum S_alpha is nonzero; with no
  such term the pullback is 0.

So each low_alpha / (b - |alpha|) is a lower bound.  ``diff_order`` visits
each pair (e, alpha) once, no more than ``_presentation_size`` counts, takes
the alpha in increasing order of their bounds and stops at the first bound
that reaches the least exact value found, since every later alpha lies at
or above its bound.  An alpha with S_alpha = 0 builds that one partial and
takes its exact order from ``compose_order``.

Integral closures are never computed.  Two presentations of the same algebra
are compared through the order values they produce, which is the only sense
in which they are used downstream.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from math import perm, prod
from operator import mul
from typing import Sequence

from .arcs import Arc, Hypersurface
from .errors import BudgetExhausted, NotInSingularLocus, PreconditionError
from .polynomials import _TERM_BITS, Polynomial, _leading_sum, _leads
from .tseries import is_exponent

# Largest differential presentation ``diff_saturate`` builds and ``diff_order``
# reads, as measured by ``_presentation_size``.  At the cap, on a 2-vCPU Xeon
# VM, ``diff_saturate`` took 0.18 s and 77 MB peak RSS on x^8306 in two
# variables and 0.24 s and 71 MB on all monomials of degree 17 to 21 in three;
# ``diff_order`` took 0.10 s and 31 MB on the first along (t, t), 0.12 s and
# 16 MB on the second along (t, t^2, t^3), and ``arcinv qpers`` of x^8306 along
# (0, t) 0.09 s and 17 MB in all.  The bundled surfaces take under 10^5.
MAX_PRESENTATION_SIZE = 10**9


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


def _check_presentation(surface: Hypersurface) -> int:
    """The multiplicity b, once b >= 2 and the presentation is within the cap."""
    b = surface.multiplicity
    if b < 2:
        raise PreconditionError(
            f"differential saturation needs multiplicity >= 2, got {b}"
        )
    size = _presentation_size(surface.f, b)
    if size > MAX_PRESENTATION_SIZE:
        raise BudgetExhausted(
            f"the differential presentation has size {size}, over {MAX_PRESENTATION_SIZE}"
        )
    return b


def diff_saturate(surface: Hypersurface) -> ReesAlgebra:
    """All iterated partials of f of order < b, each in weight b - |alpha|.

    Only meaningful at a singular point, so multiplicity b >= 2 is required.
    Within each weight the generators are deduplicated up to scalar; their
    order is deterministic (derivation multi-indices in graded order).  A
    presentation whose ``_presentation_size`` is over
    ``MAX_PRESENTATION_SIZE`` raises ``BudgetExhausted`` before any partial.
    """
    b = _check_presentation(surface)
    f = surface.f
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


def diff_order(surface: Hypersurface, arc: Arc) -> Fraction | float:
    """``ReesAlgebra(diff_saturate(surface).generators[1:]).ord_along_arc(arc)``.

    Read from the terms of f without building the presentation (module
    docstring), after the same checks in the same order: b >= 2, then the
    presentation's size against ``MAX_PRESENTATION_SIZE``, then the arc's
    length.  A ``Fraction``, or infinity when every partial pulls back to 0.
    """
    b = _check_presentation(surface)
    f = surface.f
    if len(arc.components) != len(f.variables):
        raise PreconditionError("arc does not match the ambient variables")
    leads = _leads(arc.components)
    orders = [0 if lead is None else lead[0] for lead in leads]
    nums = f.integer_form[0]
    # alpha -> [least weight of a term of the partial free of zero factors, the
    # terms e of f that reach it]; a zero value admits only alpha_i = e_i.
    lows: dict[tuple[int, ...], list] = {}
    for e in nums:
        ranges = [
            range(k, k + 1) if lead is None else range(min(k, b - 1) + 1)
            for k, lead in zip(e, leads)
        ]
        e_weight = sum(map(mul, e, orders))
        for alpha in product(*ranges):
            if not 0 < sum(alpha) < b:
                continue
            weight = e_weight - sum(map(mul, alpha, orders))
            entry = lows.get(alpha)
            if entry is None or weight < entry[0]:
                lows[alpha] = [weight, [e]]
            elif weight == entry[0]:
                entry[1].append(e)
    # Orders are kept in units of 1/scale, where every weight b - |alpha| divides scale.
    scale = math.lcm(*{b - sum(alpha) for alpha in lows})
    best: int | float = math.inf
    for bound, alpha in sorted((low * (scale // (b - sum(alpha))), alpha)
                               for alpha, (low, _) in lows.items()):
        if bound >= best:
            break
        lowest = [
            (tuple(k - a for k, a in zip(e, alpha)), nums[e] * prod(map(perm, e, alpha)))
            for e in lows[alpha][1]
        ]
        if _leading_sum(lowest, leads):
            best = bound
            continue
        partial = f
        for j, a in enumerate(alpha):
            for _ in range(a):
                partial = partial.partial_derivative(j)
        best = min(best, partial.compose_order(arc.components) * (scale // (b - sum(alpha))))
    return best if best == math.inf else Fraction(best, scale)
