#!/usr/bin/env python3
"""Recompute every number of the x^2 y^3 - z^6 showcase and print the tables.

Covers: the normalized orders over contact multi-indices, the delta table
with its components, fat components at odd contact levels, the exact bounds
with seeded samples, and seeded arcs of divisorial type.  Everything is exact
and seeded; the script takes no options.  Its claims are the checks of
``arcinv verify x2y3z6``, which it runs after the tables: when a check fails
it prints that report and exits with its code, 5.  A closed standard output
ends in exit code 141.
"""

import argparse
import sys

from arcinv.cli import build_parser, run, stdout_closed
from arcinv.contact import (
    delta_limit_check,
    fat_components,
    rbar_extrema,
    rbar_of_multiindex,
    sample_multiindices,
    values_bounds,
)
from arcinv.nash import nash_sequence
from arcinv.qpers import q_persistance
from arcinv.rees import diff_saturate
from arcinv.render import format_multiindex, format_rational
from arcinv.verify import sampled_arc, x2y3z6_resolution, x2y3z6_surface

SPAN = 8
M_MAX = 13
ODD_LEVELS = (11, 13, 17, 19, 23)
SAMPLES = 500
SEED = 0
BOX = 8  # side of the sampling box, the default of ``arcinv bounds``


def grid_table() -> None:
    data = x2y3z6_resolution()
    print(f"normalized orders r_bar(a, b) for 1 <= a + b <= {SPAN}")
    print("a\\b " + "".join(f"{b:>8}" for b in range(SPAN + 1)))
    for a in range(SPAN + 1):
        cells = [
            format_rational(rbar_of_multiindex(data, (a, b))) if 1 <= a + b <= SPAN else ""
            for b in range(SPAN + 1)
        ]
        print(f"{a:>3} " + "".join(f"{c:>8}" for c in cells))


def delta_table() -> None:
    table = delta_limit_check(x2y3z6_resolution(), M_MAX)
    print(f"\ndelta_m for m = 1..{M_MAX} (order at the center: {format_rational(table.order)})")
    for row in table.rows:
        rendered = ", ".join(format_multiindex(l) for l in row.components)
        print(f"  m = {row.m:>2}: delta = {format_rational(row.value):>6}   components {rendered}")


def odd_levels() -> None:
    data = x2y3z6_resolution()
    print("\nodd contact levels: every component exceeds the order")
    for n in ODD_LEVELS:
        row = ", ".join(
            f"{format_multiindex(l)} -> {format_rational(rbar_of_multiindex(data, l))}"
            for l in fat_components(data, n)
        )
        print(f"  m = {n}: {row}")


def bounds_report() -> None:
    data = x2y3z6_resolution()
    lower, upper = values_bounds(data)
    observed = rbar_extrema(data, sample_multiindices(data, SAMPLES, BOX, SEED))
    inside = lower <= observed.minimum and observed.maximum <= upper
    print(
        f"\nexact bounds [{format_rational(lower)}, {format_rational(upper)}]; "
        f"{SAMPLES} samples (seed {SEED}) inside: {inside}"
    )


def arc_report() -> None:
    surface = x2y3z6_surface()
    print("\nseeded arcs of divisorial type (a, b): r, nu, r/nu, rho")
    for alpha, beta in [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2)]:
        arc = sampled_arc(alpha, beta, seed=SEED)
        result = q_persistance(surface, arc)
        rho = nash_sequence(surface, arc).rho
        print(
            f"  type ({alpha}, {beta}): r = {format_rational(result.r)}, "
            f"nu = {result.nu}, r/nu = {format_rational(result.r_bar)}, rho = {rho}"
        )
    generators = diff_saturate(surface).generators
    print(f"(differential presentation: {len(generators)} weighted generators)")


def main() -> int:
    argparse.ArgumentParser(description=__doc__).parse_args()
    grid_table()
    delta_table()
    odd_levels()
    bounds_report()
    arc_report()
    report, code = run(build_parser().parse_args(["verify", "x2y3z6"]))
    if code:
        print("\n" + report)
    return code


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = stdout_closed()
    sys.exit(code)
