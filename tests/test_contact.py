"""Contact-locus arithmetic from resolution data.

fat_components prunes its search to a slab near the contact level; the
brute-force oracle below searches the whole box and must always agree.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import arcinv.contact
from arcinv.contact import (
    ResolutionData,
    delta,
    delta_limit_check,
    dominates,
    fat_components,
    hironaka_order,
    rbar_extrema,
    rbar_of_multiindex,
    sample_multiindices,
    values_bounds,
)
from arcinv.errors import BudgetExhausted, PreconditionError

EXAMPLE = ResolutionData.of(
    (2, 3),
    [((3, 3), 1), ((2, 4), 1), ((12, 18), 5)],
    coord_val=((3, 3), (2, 4), (2, 3)),
)

ALMOST_REES = ResolutionData.of(
    (1, 1), [((1, 3), 1)], coord_val=((1, 1), (1, 3), (2, 1))
)

THREE_DIVISORS = ResolutionData.of(
    (1, 1, 1),
    [((2, 3, 4), 2), ((1, 1, 2), 1)],
    coord_val=((1, 2, 3), (2, 1, 4), (3, 3, 1)),
)


def brute_fat_components(data, m, bound):
    """Full-box reference: no slab pruning, same dedup and minimality rule."""
    n = data.num_divisors

    def val(l):
        return tuple(sum(a * b for a, b in zip(l, row)) for row in data.coord_val)

    candidates = [
        l
        for l in itertools.product(range(bound + 1), repeat=n)
        if any(l) and sum(a * b for a, b in zip(l, data.c)) >= m
    ]
    representatives = {}
    for l in sorted(candidates):
        representatives.setdefault(val(l), l)
    out = []
    for v, l in representatives.items():
        strictly_dominating = any(
            v != w and all(a >= b for a, b in zip(v, w))
            for w in representatives
        )
        if not strictly_dominating:
            out.append(l)
    return sorted(out)


def test_validation_rejects_bad_data():
    with pytest.raises(PreconditionError):
        ResolutionData.of((0, 0), [((1, 1), 1)])
    with pytest.raises(PreconditionError):
        ResolutionData.of((2, 3), [((1,), 1)])
    with pytest.raises(PreconditionError):
        ResolutionData.of((2, 3), [((1, 1), 0)])
    with pytest.raises(PreconditionError):
        ResolutionData.of((2, 3), [((-1, 1), 1)])
    with pytest.raises(PreconditionError):
        # column minima of coord_val must reproduce c
        ResolutionData.of((2, 3), [((3, 3), 1)], coord_val=((3, 3), (3, 4), (3, 3)))
    with pytest.raises(PreconditionError, match="coordinate valuation matrix is empty"):
        ResolutionData.of((1,), [((1,), 1)], coord_val=[])


def test_rbar_frozen_grid():
    values = {
        (1, 0): Fraction(1),
        (0, 1): Fraction(1),
        (1, 1): Fraction(6, 5),
        (2, 1): Fraction(8, 7),
        (1, 2): Fraction(9, 8),
        (3, 5): Fraction(8, 7),
    }
    for l, expected in values.items():
        assert rbar_of_multiindex(EXAMPLE, l) == expected


def test_rbar_closed_form_on_a_grid():
    for a in range(0, 9):
        for b in range(0, 9):
            if not 1 <= a + b <= 8:
                continue
            expected = Fraction(
                min(3 * a + 3 * b, 2 * a + 4 * b, Fraction(6, 5) * (2 * a + 3 * b)),
                2 * a + 3 * b,
            )
            assert rbar_of_multiindex(EXAMPLE, (a, b)) == expected


def test_rbar_infinite_off_the_center():
    data = ResolutionData.of((1, 0), [((1, 1), 1)], coord_val=((1, 0), (1, 2)))
    assert rbar_of_multiindex(data, (0, 1)) == math.inf


def test_rbar_rejects_the_zero_index():
    with pytest.raises(PreconditionError):
        rbar_of_multiindex(EXAMPLE, (0, 0))


def test_dominates_frozen_cases():
    assert dominates(EXAMPLE, (1, 1), (1, 0))
    assert dominates(EXAMPLE, (0, 1), (1, 0))
    assert not dominates(EXAMPLE, (1, 0), (0, 1))
    assert dominates(EXAMPLE, (2, 3), (2, 3))


def test_dominates_needs_coordinate_valuations():
    bare = ResolutionData.of((2, 3), [((3, 3), 1)])
    with pytest.raises(PreconditionError):
        dominates(bare, (1, 0), (0, 1))
    with pytest.raises(PreconditionError):
        fat_components(bare, 2, 4)


small_indices = st.tuples(st.integers(0, 6), st.integers(0, 6)).filter(any)


@given(small_indices, small_indices, small_indices)
def test_dominates_is_a_preorder(l1, l2, l3):
    assert dominates(EXAMPLE, l1, l1)
    if dominates(EXAMPLE, l1, l2) and dominates(EXAMPLE, l2, l3):
        assert dominates(EXAMPLE, l1, l3)


@pytest.mark.parametrize(
    "data", [EXAMPLE, ALMOST_REES, THREE_DIVISORS], ids=["example", "almost-rees", "3div"]
)
@pytest.mark.parametrize("m", [1, 2, 3, 5, 8, 11, 13])
def test_fat_components_match_the_brute_force(data, m):
    bound = m + max(data.c)
    assert fat_components(data, m, bound) == brute_fat_components(data, m, bound)


@pytest.mark.parametrize(
    "data", [EXAMPLE, ALMOST_REES], ids=["example", "almost-rees"]
)
@pytest.mark.parametrize("m", [1, 3, 7, 12])
def test_fat_components_are_an_antichain(data, m):
    comps = fat_components(data, m, m + max(data.c))
    for l1 in comps:
        for l2 in comps:
            if l1 != l2:
                assert not dominates(data, l1, l2) or not dominates(data, l2, l1)
                assert not (
                    dominates(data, l1, l2)
                    and tuple(sum(a * b for a, b in zip(l1, r)) for r in data.coord_val)
                    != tuple(sum(a * b for a, b in zip(l2, r)) for r in data.coord_val)
                )


@st.composite
def small_resolutions(draw):
    """1-3 divisors, valuations 0-4 with no zero column, c the column minima."""
    n = draw(st.integers(1, 3))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), min_size=1, max_size=3))
    assume(all(any(column) for column in zip(*rows)))
    c = tuple(map(min, zip(*rows)))
    assume(any(c))
    vectors = st.tuples(*[st.integers(0, 4)] * n).filter(any)
    gens = draw(st.lists(st.tuples(vectors, st.integers(1, 3)), min_size=1, max_size=2))
    return ResolutionData.of(c, gens, coord_val=rows)


@settings(deadline=None)
@given(small_resolutions(), st.integers(1, 10))
def test_fat_components_match_the_brute_force_on_random_data(data, m):
    bound = m + max(data.c)
    assume((bound + 1) ** data.num_divisors <= 3000)
    assert fat_components(data, m, bound) == brute_fat_components(data, m, bound)


def test_fat_components_frozen_odd_levels():
    assert fat_components(EXAMPLE, 11, 11) == [(1, 3), (4, 1)]
    assert fat_components(EXAMPLE, 13, 13) == [(2, 3), (5, 1)]
    assert rbar_of_multiindex(EXAMPLE, (5, 1)) == Fraction(14, 13)


def test_delta_table_frozen():
    expected = [
        Fraction(1), Fraction(1), Fraction(1), Fraction(1),
        Fraction(6, 5), Fraction(1), Fraction(8, 7), Fraction(1),
        Fraction(1), Fraction(1), Fraction(12, 11), Fraction(1),
        Fraction(14, 13),
    ]
    assert [delta(EXAMPLE, m) for m in range(1, 14)] == expected


def test_delta_at_multiples_of_the_multiplicities():
    order = hironaka_order(EXAMPLE)
    for c_i in (2, 3):
        for n in range(1, 11):
            assert delta(EXAMPLE, n * c_i) == order


def test_delta_envelope():
    check = delta_limit_check(EXAMPLE, 30)
    assert check.passed
    assert check.order == 1
    for row in check.rows:
        assert check.order <= row.value <= check.order * (1 + Fraction(3, row.m))
        assert row.components == tuple(fat_components(EXAMPLE, row.m, row.m))


def test_hironaka_order_frozen():
    assert hironaka_order(EXAMPLE) == 1
    assert hironaka_order(ALMOST_REES) == 1
    assert hironaka_order(THREE_DIVISORS) == 1


def test_values_bounds_frozen():
    assert values_bounds(EXAMPLE) == (Fraction(1), Fraction(6, 5))
    assert values_bounds(ALMOST_REES) == (Fraction(1), Fraction(3))
    assert values_bounds(THREE_DIVISORS) == (Fraction(1), Fraction(2))


@pytest.mark.parametrize(
    "data", [EXAMPLE, ALMOST_REES, THREE_DIVISORS], ids=["example", "almost-rees", "3div"]
)
def test_sampled_values_respect_the_bounds(data):
    lower, upper = values_bounds(data)
    for l in sample_multiindices(data, 200, 8, 0):
        assert lower <= rbar_of_multiindex(data, l) <= upper


def test_sampling_is_deterministic():
    a = sample_multiindices(EXAMPLE, 10, 8, 42)
    b = sample_multiindices(EXAMPLE, 10, 8, 42)
    assert a == b
    assert a[:3] == [(1, 0), (4, 3), (3, 2)]


def test_extrema_frozen():
    observed = rbar_extrema(EXAMPLE, sample_multiindices(EXAMPLE, 10, 8, 42))
    assert observed.minimum == 1
    assert observed.maximum == Fraction(20, 17)
    assert observed.argmin == (0, 8)
    assert observed.argmax == (4, 3)


def old_single_generator_bounds(data):
    """The deleted single-generator branch: per-divisor min and max of a_i / (b c_i)."""
    ((a, b),) = data.gens
    ratios = [
        math.inf if data.c[i] == 0 else Fraction(a[i], b * data.c[i])
        for i in data.contact_support
    ]
    return min(ratios), max(ratios)


single_generator_data = st.integers(1, 4).flatmap(
    lambda n: st.builds(
        lambda a, b, c: ResolutionData.of(c, [(a, b)]),
        st.lists(st.integers(0, 6), min_size=n, max_size=n).filter(any),
        st.integers(1, 4),
        st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any),
    )
)


@given(single_generator_data)
def test_single_generator_bounds_are_the_per_divisor_extremes(data):
    assert values_bounds(data) == old_single_generator_bounds(data)


def test_oversized_boxes_are_refused_before_the_scan(monkeypatch):
    monkeypatch.setattr(arcinv.contact, "MAX_BOX_POINTS", 54)
    assert fat_components(EXAMPLE, 5, 6) == fat_components(EXAMPLE, 5, 5)  # 7^2 points
    with pytest.raises(BudgetExhausted):
        fat_components(EXAMPLE, 5, 7)  # 8^2 = 64 points
    # 2^2 + 3^2 + 4^2 + 5^2 = 54 points up to m = 4, and 90 up to m = 5.
    assert delta_limit_check(EXAMPLE, 4).passed
    with pytest.raises(BudgetExhausted):
        delta_limit_check(EXAMPLE, 5)


@pytest.mark.parametrize("data,m", [(EXAMPLE, 13), (THREE_DIVISORS, 6)])
def test_the_search_bound_costs_nothing(monkeypatch, data, m):
    """The scan covers the box l_i <= m at any bound, so a larger one adds no work.

    ``_dot`` is counted, not ``_valuation``: every scanned point takes its
    contact l . c, while only slab points, the same at any bound, are valued.
    """
    calls = []
    dot = arcinv.contact._dot

    def counted(a, b):
        calls.append(a)
        return dot(a, b)

    monkeypatch.setattr(arcinv.contact, "_dot", counted)
    at_m = fat_components(data, m, m)
    scanned = len(calls)
    assert fat_components(data, m, 4 * m) == at_m
    assert len(calls) == 2 * scanned
