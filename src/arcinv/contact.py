"""Contact loci from divisorial resolution data, in multi-index form.

The input is numerical data of a common log resolution: for each of N
divisors H_1, ..., H_N, the multiplicity c_i of the maximal ideal at the
center and, for every generator (g, w) of the weighted presentation, the
vector d of multiplicities of g.  An arc whose lift meets the divisors with
intersection multiplicities l = (l_1, ..., l_N) then has

    contact with the maximal ideal   = sum_i l_i * c_i,
    normalized presentation order    = min over generators of
                                       (sum_i l_i * d_i / w) / (sum_i l_i * c_i).

When the coordinate valuation matrix nu_{H_i}(x_j) is available (as it is
for toric-style data), the multi-index l_1 >= l_2 criterion "every
coordinate valuation of l_1 is at least that of l_2" decides containment of
the corresponding maximal divisorial sets, so the irreducible fat components
of a contact locus are exactly the minimal multi-indices under that
domination order.  For data without the matrix the domination test is
unavailable and callers get an explicit error instead of a silent fallback;
in that case multi-index results should be read as candidates only.

All values are exact rationals; infinity appears only through the documented
convention c_i = 0 with a nonzero numerator.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import BudgetExhausted, PreconditionError
from .tseries import is_exponent

MultiIndex = tuple[int, ...]
# Most box points a contact search may scan: about 14 s on a 2-vCPU Xeon VM.
MAX_BOX_POINTS = 10**7
# Most multi-indices one call may sample: 2.1-2.9 s through ``bounds`` on the
# bundled x2y3z6 data, on the same VM.
MAX_SAMPLES = 10**5


def _over_box_limit(search: str) -> BudgetExhausted:
    return BudgetExhausted(f"{search} has over {MAX_BOX_POINTS} points")


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


@dataclass(frozen=True)
class ResolutionData:
    """Divisorial multiplicities of a presentation and of the maximal ideal.

    ``c``         -- multiplicities of the maximal ideal along the divisors.
    ``gens``      -- pairs (d, w): divisorial multiplicities of a generator
                     and its weight.
    ``coord_val`` -- optional matrix of coordinate valuations, one row per
                     ambient coordinate, one column per divisor.  Consistency
                     requires c_i = min over rows of coord_val[row][i].
    """

    c: tuple[int, ...]
    gens: tuple[tuple[tuple[int, ...], int], ...]
    coord_val: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        n = len(self.c)
        if n == 0:
            raise PreconditionError("at least one divisor is required")
        if not all(map(is_exponent, self.c)):
            raise PreconditionError("maximal ideal multiplicities must be integers >= 0")
        if not any(self.c):
            raise PreconditionError("the maximal ideal multiplicity vector is zero")
        if not self.gens:
            raise PreconditionError("at least one generator is required")
        for d, w in self.gens:
            if len(d) != n:
                raise PreconditionError("generator vector length does not match c")
            if not all(map(is_exponent, d)):
                raise PreconditionError("generator multiplicities must be integers >= 0")
            if not is_exponent(w) or w < 1:
                raise PreconditionError(f"weight {w!r} is not a positive integer")
        if not self.contact_support:
            raise PreconditionError("every generator has zero multiplicities")
        if self.coord_val is not None:
            if not self.coord_val:
                raise PreconditionError("the coordinate valuation matrix is empty")
            for row in self.coord_val:
                if len(row) != n:
                    raise PreconditionError("coordinate valuation row length mismatch")
                if not all(map(is_exponent, row)):
                    raise PreconditionError("coordinate valuations must be integers >= 0")
            for i in range(n):
                column_min = min(row[i] for row in self.coord_val)
                if column_min != self.c[i]:
                    raise PreconditionError(
                        f"c[{i}] = {self.c[i]} is not the minimum coordinate "
                        f"valuation {column_min} on divisor {i}"
                    )

    @classmethod
    def of(
        cls,
        c: Sequence[int],
        gens: Sequence[tuple[Sequence[int], int]],
        coord_val: Sequence[Sequence[int]] | None = None,
    ) -> ResolutionData:
        return cls(
            tuple(c),
            tuple((tuple(d), w) for d, w in gens),
            None if coord_val is None else tuple(tuple(row) for row in coord_val),
        )

    @property
    def num_divisors(self) -> int:
        return len(self.c)

    @property
    def contact_support(self) -> tuple[int, ...]:
        """Divisors that appear in at least one generator."""
        return tuple(
            i
            for i in range(len(self.c))
            if any(d[i] for d, _ in self.gens)
        )


def _check_multiindex(data: ResolutionData, l: Sequence[int]) -> MultiIndex:
    l = tuple(l)
    if len(l) != data.num_divisors:
        raise PreconditionError("multi-index length does not match the divisor count")
    if not all(map(is_exponent, l)):
        raise PreconditionError("multi-index entries must be non-negative integers")
    if not any(l):
        raise PreconditionError("the zero multi-index does not define an arc family")
    return l


def rbar_of_multiindex(data: ResolutionData, l: Sequence[int]) -> Fraction | float:
    """Normalized presentation order of arcs with divisorial contact l.

    Infinity when the contact with the maximal ideal is zero but the contact
    with the presentation is not (the arc family does not pass through the
    center); the all-zero contact case is rejected as meaningless.
    """
    l = _check_multiindex(data, l)
    numerator = min(Fraction(_dot(l, d), w) for d, w in data.gens)
    denominator = _dot(l, data.c)
    if denominator == 0:
        if numerator == 0:
            raise PreconditionError(
                "multi-index has zero contact with both the maximal ideal and "
                "the presentation"
            )
        return math.inf
    return numerator / denominator


def _valuation(data: ResolutionData, l: MultiIndex) -> tuple[int, ...]:
    """The coordinate valuations l . row of a multi-index, one per coordinate."""
    return tuple(_dot(l, row) for row in data.coord_val)


def _at_least(v1: Sequence[int], v2: Sequence[int]) -> bool:
    """The containment rule: every entry of v1 is at least that of v2."""
    return all(a >= b for a, b in zip(v1, v2))


def dominates(data: ResolutionData, l1: Sequence[int], l2: Sequence[int]) -> bool:
    """Containment test between the divisorial sets of two multi-indices.

    True when every coordinate valuation of l1 is at least that of l2, which
    for toric-style data is equivalent to containment of the corresponding
    maximal divisorial sets.  Requires the coordinate valuation matrix.
    """
    if data.coord_val is None:
        raise PreconditionError(
            "domination needs the coordinate valuation matrix; none was supplied"
        )
    return _at_least(
        _valuation(data, _check_multiindex(data, l1)),
        _valuation(data, _check_multiindex(data, l2)),
    )


def fat_components(data: ResolutionData, m: int, bound: int) -> list[MultiIndex]:
    """Minimal multi-indices with contact >= m against the maximal ideal.

    These index the irreducible fat components of the contact locus at level
    m for toric-style data.  Every minimal element lies in the slab
    m <= l . c < m + c_i, whose entries are at most m, so any bound >= m gives
    the same answer, and the search scans the box l_i <= m whatever the
    bound; ``bound`` is only checked against m and ``MAX_BOX_POINTS``.  The
    slab is never empty, since ceil(m / c_i) * e_i is in it for every
    c_i > 0.  Equal valuation vectors describe the same divisorial set, so
    each vector keeps one representative: the lexicographically least
    multi-index with it, which is the first one the scan meets, as
    ``itertools.product`` walks the box in lexicographic order.  The output
    is sorted.  A box l_i <= bound over ``MAX_BOX_POINTS`` points raises
    ``BudgetExhausted``.
    """
    if data.coord_val is None:
        raise PreconditionError(
            "fat components need the coordinate valuation matrix; none was supplied"
        )
    if m < 1:
        raise PreconditionError("the contact level m must be a positive integer")
    if bound < m:
        raise PreconditionError("the search bound must be at least m")
    n = data.num_divisors
    for i in range(n):
        if all(row[i] == 0 for row in data.coord_val):
            raise PreconditionError(
                f"divisor {i} has zero valuation on every coordinate"
            )
    if (bound + 1) ** n > MAX_BOX_POINTS:
        raise _over_box_limit(f"the search box {bound + 1}^{n}")

    # A multi-index with l_i >= 1 and contact still >= m after removing one
    # copy of divisor i is dominated by that smaller index, so minimal
    # elements all live in the slab m <= l . c < m + c_i along the support.
    # The zero index has contact 0 < m, so the filter drops it too.  In the
    # slab, l_i >= 1 forces c_i >= 1 and l_i * c_i < m + c_i, so l_i <= m:
    # the box l_i <= m holds every slab point, in the same order.
    by_valuation: dict[tuple[int, ...], MultiIndex] = {}
    for l in itertools.product(range(m + 1), repeat=n):
        contact = _dot(l, data.c)
        if contact < m or any(l[i] and contact - data.c[i] >= m for i in range(n)):
            continue
        by_valuation.setdefault(_valuation(data, l), l)
    return sorted(
        l
        for v, l in by_valuation.items()
        if not any(w != v and _at_least(v, w) for w in by_valuation)
    )


def delta(data: ResolutionData, m: int) -> Fraction | float:
    """Smallest normalized order among the fat components at contact level m."""
    return min(rbar_of_multiindex(data, l) for l in fat_components(data, m, m))


@dataclass(frozen=True)
class DeltaRow:
    m: int
    value: Fraction | float
    ok: bool
    components: tuple[MultiIndex, ...]


@dataclass(frozen=True)
class DeltaCheck:
    order: Fraction | float
    rows: tuple[DeltaRow, ...]
    passed: bool


def delta_limit_check(data: ResolutionData, m_max: int) -> DeltaCheck:
    """Confirm that delta_m converges to the order from above.

    Every row checks ord <= delta_m <= ord * (1 + c_max / m) where c_max is
    the largest maximal ideal multiplicity; the upper envelope comes from
    rounding the contact level up to a multiple of a single divisor.  Each
    row keeps the fat components its delta_m is read from.  Boxes over
    ``MAX_BOX_POINTS`` in all raise ``BudgetExhausted`` before level 1.
    """
    if m_max < 1:
        raise PreconditionError("m_max must be at least 1")
    boxes = ((m + 1) ** data.num_divisors for m in range(1, m_max + 1))
    if any(total > MAX_BOX_POINTS for total in itertools.accumulate(boxes)):
        raise _over_box_limit(f"the delta table for m = 1..{m_max}")
    order = hironaka_order(data)
    c_max = max(data.c)
    rows: list[DeltaRow] = []
    for m in range(1, m_max + 1):
        components = tuple(fat_components(data, m, m))
        value = min(rbar_of_multiindex(data, l) for l in components)
        ok = order <= value <= order * (1 + Fraction(c_max, m))
        rows.append(DeltaRow(m, value, ok, components))
    return DeltaCheck(order, tuple(rows), all(row.ok for row in rows))


def hironaka_order(data: ResolutionData) -> Fraction | float:
    """Order of the presentation at the center, from divisorial data.

    The minimum over supported divisors of (min over generators of d_i / w)
    divided by c_i, where a zero c_i contributes infinity.  The support is
    never empty (``ResolutionData`` checks it), so neither is the minimum.
    """
    return min(
        min(Fraction(d[i], w) for d, w in data.gens) / data.c[i] if data.c[i] else math.inf
        for i in data.contact_support
    )


def values_bounds(data: ResolutionData) -> tuple[Fraction | float, Fraction | float]:
    """Exact bounds for the normalized order over all multi-indices.

    The lower bound is the order at the center and the upper bound is the
    smallest, over generators, of the largest per-divisor ratio; both come
    from the mediant inequality.  For a single generator (a, b) these are the
    min and max over supported divisors of a_i / (b * c_i).  The bounds are
    guaranteed sharp envelopes whenever every generator satisfies d >= w * c
    componentwise, which holds for genuine presentations of ideals inside the
    maximal ideal.
    """
    upper: Fraction | float = math.inf
    for d, w in data.gens:
        ratios = [Fraction(x, w * c) if c else math.inf for x, c in zip(d, data.c) if x]
        upper = min(upper, max(ratios, default=Fraction(0)))
    return hironaka_order(data), upper


def outside_bounds(data: ResolutionData, indices: Sequence[MultiIndex]) -> list[MultiIndex]:
    """The multi-indices whose normalized order lies outside ``values_bounds``."""
    lower, upper = values_bounds(data)
    return [l for l in indices if not lower <= rbar_of_multiindex(data, l) <= upper]


def sample_multiindices(
    data: ResolutionData, count: int, bound: int, seed: int
) -> list[MultiIndex]:
    """Seeded random multi-indices in the box, none zero, deterministic.

    A count over ``MAX_SAMPLES`` raises ``BudgetExhausted`` before any draw.
    """
    if count < 1 or bound < 1:
        raise PreconditionError("need a positive sample count and box bound")
    if count > MAX_SAMPLES:
        raise BudgetExhausted(f"{count} samples is over {MAX_SAMPLES}")
    rng = random.Random(seed)
    samples: list[MultiIndex] = []
    while len(samples) < count:
        l = tuple(rng.randint(0, bound) for _ in range(data.num_divisors))
        if not any(l):
            continue
        if _dot(l, data.c) == 0 and all(
            _dot(l, d) == 0 for d, _ in data.gens
        ):
            continue
        samples.append(l)
    return samples


@dataclass(frozen=True)
class Extrema:
    """Observed extrema of the normalized order over a set of multi-indices."""

    minimum: Fraction | float
    argmin: MultiIndex
    maximum: Fraction | float
    argmax: MultiIndex


def rbar_extrema(data: ResolutionData, indices: Sequence[MultiIndex]) -> Extrema:
    if not indices:
        raise PreconditionError("need at least one multi-index")
    values = [(rbar_of_multiindex(data, l), tuple(l)) for l in indices]
    minimum = min(values, key=lambda pair: (pair[0], pair[1]))
    maximum = max(values, key=lambda pair: (pair[0], [-x for x in pair[1]]))
    return Extrema(minimum[0], minimum[1], maximum[0], maximum[1])
