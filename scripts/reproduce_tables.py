#!/usr/bin/env python3
"""Recompute every number of the x^2 y^3 - z^6 showcase and print the tables.

Covers: the order at the center by three independent routes, the grid of
normalized orders over contact multi-indices, the delta table with its
envelope, fat components at odd contact levels, and the exact bounds with
seeded samples.  Everything is exact; the script has no randomness beyond
the stated seeds.
"""

import argparse

from arcinv.contact import (
    delta,
    fat_components,
    hironaka_order,
    rbar_of_multiindex,
    sample_multiindices,
    values_bounds,
)
from arcinv.nash import nash_sequence
from arcinv.qpers import q_persistance
from arcinv.rees import diff_saturate
from arcinv.render import format_multiindex, format_rational
from arcinv.verify import (
    sampled_arc,
    x2y3z6_grid_value,
    x2y3z6_resolution,
    x2y3z6_surface,
)


def grid_table(span: int) -> None:
    data = x2y3z6_resolution()
    print(f"normalized orders r_bar(a, b) for 1 <= a + b <= {span}")
    header = "a\\b " + "".join(f"{b:>8}" for b in range(span + 1))
    print(header)
    for a in range(span + 1):
        cells = []
        for b in range(span + 1):
            if not 1 <= a + b <= span:
                cells.append("")
                continue
            value = rbar_of_multiindex(data, (a, b))
            assert value == x2y3z6_grid_value(a, b)
            cells.append(format_rational(value))
        print(f"{a:>3} " + "".join(f"{c:>8}" for c in cells))


def delta_table(m_max: int) -> None:
    data = x2y3z6_resolution()
    order = hironaka_order(data)
    print(f"\ndelta_m for m = 1..{m_max} (order at the center: {format_rational(order)})")
    for m in range(1, m_max + 1):
        value = delta(data, m)
        components = fat_components(data, m, m + max(data.c))
        rendered = ", ".join(format_multiindex(l) for l in components)
        print(f"  m = {m:>2}: delta = {format_rational(value):>6}   components {rendered}")


def odd_levels(levels) -> None:
    data = x2y3z6_resolution()
    print("\nodd contact levels: every component exceeds the order")
    for n in levels:
        components = fat_components(data, n, n)
        values = [rbar_of_multiindex(data, l) for l in components]
        assert all(v > 1 for v in values)
        row = ", ".join(
            f"{format_multiindex(l)} -> {format_rational(v)}"
            for l, v in zip(components, values)
        )
        print(f"  m = {n}: {row}")


def bounds_report(samples: int, seed: int) -> None:
    data = x2y3z6_resolution()
    lower, upper = values_bounds(data)
    drawn = sample_multiindices(data, samples, 8, seed)
    inside = all(lower <= rbar_of_multiindex(data, l) <= upper for l in drawn)
    print(
        f"\nexact bounds [{format_rational(lower)}, {format_rational(upper)}]; "
        f"{samples} samples (seed {seed}) inside: {inside}"
    )


def arc_report() -> None:
    surface = x2y3z6_surface()
    print("\nseeded arcs of divisorial type (a, b): r, nu, r/nu, rho")
    for alpha, beta in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]:
        arc = sampled_arc(alpha, beta, seed=0)
        result = q_persistance(surface, arc)
        rho = nash_sequence(surface, arc).rho
        print(
            f"  type ({alpha}, {beta}): r = {format_rational(result.r)}, "
            f"nu = {result.nu}, r/nu = {format_rational(result.r_bar)}, rho = {rho}"
        )
    generators = diff_saturate(surface).generators
    print(f"(differential presentation: {len(generators)} weighted generators)")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--span", type=int, default=8)
    parser.add_argument("--m-max", type=int, default=13)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    grid_table(args.span)
    delta_table(args.m_max)
    odd_levels((11, 13, 17, 19, 23))
    bounds_report(args.samples, args.seed)
    arc_report()


if __name__ == "__main__":
    main()
