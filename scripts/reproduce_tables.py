#!/usr/bin/env python3
"""Recompute every number of the x^2 y^3 - z^6 showcase and print the tables.

Covers: the order at the center by three independent routes, the grid of
normalized orders over contact multi-indices, the delta table with its
envelope, fat components at odd contact levels, and the exact bounds with
seeded samples.  Everything is exact; the script has no randomness beyond
the stated seeds.  A refused input ends as in the ``arcinv`` command line:
exit code 4 for an exhausted budget or search box, 3 for a violated
precondition, and 141 when the reader of standard output closes it.  A
recomputed number that breaks its claim (the grid against the closed form,
or an order at an odd level that is not above 1) ends in exit code 5.
"""

import argparse
import sys

from arcinv.cli import EXIT_INCONCLUSIVE, EXIT_PRECONDITION, EXIT_VERIFY_FAILED, stdout_closed
from arcinv.contact import (
    MAX_SAMPLES,
    DeltaCheck,
    delta_limit_check,
    fat_components,
    outside_bounds,
    rbar_of_multiindex,
    sample_multiindices,
    values_bounds,
)
from arcinv.errors import BudgetExhausted, PreconditionError
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


class Mismatch(Exception):
    """A recomputed number breaks the claim it is printed for."""


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
            if value != (want := x2y3z6_grid_value(a, b)):
                raise Mismatch(f"r_bar({a}, {b}) = {format_rational(value)}, "
                               f"closed form {format_rational(want)}")
            cells.append(format_rational(value))
        print(f"{a:>3} " + "".join(f"{c:>8}" for c in cells))


def delta_table(table: DeltaCheck) -> None:
    m_max = len(table.rows)
    print(f"\ndelta_m for m = 1..{m_max} (order at the center: {format_rational(table.order)})")
    for row in table.rows:
        rendered = ", ".join(format_multiindex(l) for l in row.components)
        print(f"  m = {row.m:>2}: delta = {format_rational(row.value):>6}   components {rendered}")


def odd_levels(levels) -> None:
    data = x2y3z6_resolution()
    print("\nodd contact levels: every component exceeds the order")
    for n in levels:
        components = fat_components(data, n, n)
        values = [rbar_of_multiindex(data, l) for l in components]
        if not all(v > 1 for v in values):
            raise Mismatch(f"m = {n}: a component has normalized order <= 1")
        row = ", ".join(
            f"{format_multiindex(l)} -> {format_rational(v)}"
            for l, v in zip(components, values)
        )
        print(f"  m = {n}: {row}")


def bounds_report(samples: int, seed: int) -> None:
    data = x2y3z6_resolution()
    lower, upper = values_bounds(data)
    drawn = sample_multiindices(data, samples, 8, seed)
    inside = not outside_bounds(data, drawn)
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--span", type=int, default=8)
    parser.add_argument("--m-max", type=int, default=13)
    parser.add_argument("--samples", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    try:
        if args.span < 1:
            raise PreconditionError(f"the grid span must be at least 1, not {args.span}")
        if (args.span + 1) ** 2 > MAX_SAMPLES:
            raise BudgetExhausted(f"the grid of span {args.span} has over {MAX_SAMPLES} cells")
        deltas = delta_limit_check(x2y3z6_resolution(), args.m_max)
        grid_table(args.span)
        delta_table(deltas)
        odd_levels((11, 13, 17, 19, 23))
        bounds_report(args.samples, args.seed)
        arc_report()
    except BudgetExhausted as exc:
        print(f"inconclusive: {exc}")
        return EXIT_INCONCLUSIVE
    except PreconditionError as exc:
        print(f"precondition violated: {exc}")
        return EXIT_PRECONDITION
    except Mismatch as exc:
        print(f"verification failed: {exc}")
        return EXIT_VERIFY_FAILED
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = stdout_closed()
    sys.exit(code)
