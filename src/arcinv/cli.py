"""Command line interface.

Five subcommands cover the library surface:

* ``qpers``  -- the rational persistance invariant of an arc on a surface,
* ``nash``   -- the multiplicity sequence from the directed blow-up engine,
* ``contact``-- fat components and delta values from resolution data,
* ``bounds`` -- exact bounds on the normalized order plus sampled extrema,
* ``verify`` -- the built-in verification suites.

Each command computes one result, a dict of exact values, and only the
chosen format is rendered from it: ``--format text`` (the default) as report
lines, ``--format machine`` as a JSON report which is byte-identical across
runs for identical inputs and seeds.  Input documents are JSON (see
``documents``); every rational in the output is rendered exactly as "p/q"
(machine reports keep a unit denominator), never as a float.

Exit codes: 0 success, 2 unreadable or malformed input, 3 violated
precondition, 4 inconclusive within the step budget, 5 failed verification,
141 the reader of standard output closed it (as a shell reports SIGPIPE).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Iterator
from dataclasses import asdict
from fractions import Fraction
from pathlib import Path

from .arcs import Arc, Hypersurface
from .contact import (
    delta_limit_check,
    fat_components,
    outside_bounds,
    rbar_extrema,
    rbar_of_multiindex,
    sample_multiindices,
    values_bounds,
)
from .documents import load_arc, load_hypersurface, load_resolution
from .errors import BudgetExhausted, DocumentError, PreconditionError
from .nash import default_budget, nash_sequence
from .qpers import check_limit_identity, q_persistance
from .render import format_multiindex, format_rational

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 4
EXIT_VERIFY_FAILED = 5
EXIT_BROKEN_PIPE = 141

# Largest step budget of ``nash`` (--budget, or 8*b*nu by default): the
# report lists every step, so the budget bounds the output.  With --trace,
# (t^6n, t^6n, t^5n) on x2y3z6 at --budget 50000 prints 50,000 records at
# n = 10^6 (not reached) and 49,998 at n = 8,333 (reached).  Each takes
# 1.3-2.7 s at 113 MB peak RSS with --format machine, and 0.7-1.1 s at 39 MB
# as text, on a 2-vCPU Xeon VM with Python 3.11.
MAX_NASH_STEPS = 50_000


def _load_pair(job: argparse.Namespace) -> tuple[Hypersurface, Arc]:
    return load_hypersurface(job.surface), load_arc(job.arc)


# Each command returns (result, text lines, exit code).  The result is one
# dict of exact values; the lines come from a generator over it, so they are
# rendered only when ``--format text`` asks for them.
Outcome = tuple[dict, Iterator[str], int]


def _cmd_qpers(job: argparse.Namespace) -> Outcome:
    if job.budget is not None and job.n_max is None:
        raise DocumentError("qpers --budget bounds the rows of --n-max; give both")
    surface, arc = _load_pair(job)
    q = q_persistance(surface, arc)
    result = {"command": "qpers", "multiplicity": surface.multiplicity, "nu": q.nu,
              "r": q.r, "r_bar": q.r_bar, "floor_r": q.floor_r}
    code = EXIT_OK
    if job.n_max is not None:
        table = check_limit_identity(surface, arc, job.n_max, job.budget)
        result["ramification_table"] = [asdict(row) for row in table.rows]
        result["ramification_passed"] = table.passed
        code = (EXIT_INCONCLUSIVE if not table.conclusive
                else EXIT_OK if table.passed else EXIT_VERIFY_FAILED)

    def text() -> Iterator[str]:
        yield f"surface: {surface.f} (multiplicity {surface.multiplicity} at the origin)"
        yield f"arc contact order nu: {q.nu}"
        yield f"rational persistance r: {format_rational(q.r)}"
        yield f"normalized order r/nu: {format_rational(q.r_bar)}"
        if q.floor_r is not None:
            yield f"predicted persistance floor(r): {q.floor_r}"
        else:
            yield "the arc stays in the maximal multiplicity locus (r infinite)"
        if job.n_max is not None:
            yield f"ramification table up to n = {job.n_max}:"
            for row in result["ramification_table"]:
                ok = row["ok"]
                status = "ok" if ok else ("inconclusive" if ok is None else "MISMATCH")
                yield (f"  n = {row['n']}: rho = {row['rho']}, "
                       f"floor(n*r) = {row['expected']} [{status}]")

    return result, text(), code


def _cmd_nash(job: argparse.Namespace) -> Outcome:
    surface, arc = _load_pair(job)
    budget = job.budget if job.budget is not None else default_budget(surface, arc)
    if budget > MAX_NASH_STEPS:
        raise BudgetExhausted(f"a step budget of {budget} is over {MAX_NASH_STEPS}")
    report = nash_sequence(surface, arc, max_steps=budget)
    result = {"command": "nash", "sequence": report.sequence, "rho": report.rho,
              "status": report.status, "budget": report.budget}
    if job.trace:
        result["trace"] = [
            {"step": record.step, "chart": record.chart, "center": record.center,
             "multiplicity": record.multiplicity}
            for record in report.trace
        ]

    def text() -> Iterator[str]:
        yield f"surface: {surface.f} (multiplicity {surface.multiplicity} at the origin)"
        yield "multiplicity sequence: " + " ".join(map(str, result["sequence"]))
        if report.infinite:
            yield "persistance: infinite (arc trapped in the maximal multiplicity locus)"
        elif report.rho is not None:
            yield f"persistance rho: {report.rho}"
        else:
            yield f"persistance not reached within {report.budget} steps"
        for record in result.get("trace", ()):
            center = ", ".join(map(format_rational, record["center"]))
            yield (f"  step {record['step']}: chart {record['chart']}, "
                   f"center ({center}), multiplicity {record['multiplicity']}")

    code = EXIT_OK if report.infinite or report.rho is not None else EXIT_INCONCLUSIVE
    return result, text(), code


def _cmd_contact(job: argparse.Namespace) -> Outcome:
    data = load_resolution(job.resolution)
    if job.m is None and job.m_max is None:
        raise DocumentError("contact needs --m (one level) or --m-max (a table)")
    if job.bound is not None and job.m is None:
        raise DocumentError("contact --bound is checked against --m and echoed; give both")
    result: dict = {"command": "contact"}
    code = EXIT_OK
    if job.m is not None:
        bound = job.bound if job.bound is not None else job.m
        if bound < job.m:
            raise PreconditionError("the search bound must be at least m")
        components = [
            {"l": l, "r_bar": rbar_of_multiindex(data, l)}
            for l in fat_components(data, job.m)
        ]
        result.update(m=job.m, bound=bound, components=components,
                      delta=min(c["r_bar"] for c in components))
    if job.m_max is not None:
        table = delta_limit_check(data, job.m_max)
        result["delta_table"] = [
            {"m": row.m, "delta": row.value, "ok": row.ok} for row in table.rows
        ]
        result["envelope_passed"] = table.passed
        code = EXIT_OK if table.passed else EXIT_VERIFY_FAILED

    def text() -> Iterator[str]:
        if job.m is not None:
            yield f"contact level m = {job.m}, search bound {result['bound']}"
            components = result["components"]
            yield "fat components: " + ", ".join(format_multiindex(c["l"]) for c in components)
            for c in components:
                yield f"  {format_multiindex(c['l'])}: r_bar = {format_rational(c['r_bar'])}"
            yield f"delta_{job.m} = {format_rational(result['delta'])}"
        if job.m_max is not None:
            yield f"delta table m = 1..{job.m_max} (order {format_rational(table.order)}):"
            for row in result["delta_table"]:
                flag = "ok" if row["ok"] else "OUTSIDE ENVELOPE"
                yield f"  delta_{row['m']} = {format_rational(row['delta'])} [{flag}]"
            yield f"envelope check passed: {result['envelope_passed']}"

    return result, text(), code


def _cmd_bounds(job: argparse.Namespace) -> Outcome:
    data = load_resolution(job.resolution)
    lower, upper = values_bounds(data)
    samples, seed, bound = job.samples, job.seed, job.bound
    drawn = sample_multiindices(data, samples, bound, seed)
    observed = rbar_extrema(data, drawn)
    inside = not outside_bounds(data, drawn)
    result = {
        "command": "bounds", "lower": lower, "upper": upper,
        "samples": samples, "seed": seed, "bound": bound, "all_inside": inside,
        "sampled_min": observed.minimum, "argmin": observed.argmin,
        "min_attained": observed.minimum == lower,
        "sampled_max": observed.maximum, "argmax": observed.argmax,
        "max_attained": observed.maximum == upper,
    }

    def text() -> Iterator[str]:
        yield f"exact bounds: [{format_rational(lower)}, {format_rational(upper)}]"
        yield f"sampled {samples} multi-indices (seed {seed}, box bound {bound})"
        yield f"all samples inside the bounds: {inside}"
        for end in ("min", "max"):
            attained = "attained" if result[f"{end}_attained"] else "not attained on this sample"
            yield (f"sampled {end}imum: {format_rational(result['sampled_' + end])} at "
                   f"{format_multiindex(result['arg' + end])} [{attained}]")

    return result, text(), EXIT_OK if inside else EXIT_VERIFY_FAILED


def _cmd_verify(job: argparse.Namespace) -> Outcome:
    from .verify import run_suite  # only this command loads the bundled suites

    try:
        checks = [asdict(check) for check in run_suite(job.suite)]
    except KeyError as exc:
        raise DocumentError(str(exc.args[0])) from exc
    passed = sum(check["passed"] for check in checks)
    result = {"command": "verify", "suite": job.suite, "checks": checks,
              "passed": passed == len(checks)}

    def text() -> Iterator[str]:
        for check in checks:
            yield f"{'PASS' if check['passed'] else 'FAIL'}  {check['ident']}: {check['label']}"
            if job.trace or not check["passed"]:
                yield from (f"      {detail}" for detail in check["details"])
        yield f"{passed}/{len(checks)} checks passed in suite '{job.suite}'"

    return result, text(), EXIT_OK if result["passed"] else EXIT_VERIFY_FAILED


def _machine(value):
    """The JSON form of a result value, dicts and lists converted in place.

    Every Fraction or infinity becomes "p/q" (denominator kept) or "infinity",
    and every tuple a list.
    """
    if isinstance(value, (Fraction, float)):
        return format_rational(value, keep_unit_den=True)
    if isinstance(value, tuple):
        return [_machine(item) for item in value]
    if isinstance(value, dict):
        for key, item in value.items():
            value[key] = _machine(item)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            value[i] = _machine(item)
    return value


_COMMANDS = {
    "qpers": _cmd_qpers,
    "nash": _cmd_nash,
    "contact": _cmd_contact,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
}


def run(job: argparse.Namespace) -> tuple[str, int]:
    """Execute a job and return (report text, exit code)."""
    try:
        result, lines, code = _COMMANDS[job.command](job)
    except DocumentError as exc:
        return f"input error: {exc}", EXIT_PARSE
    except BudgetExhausted as exc:
        return f"inconclusive: {exc}", EXIT_INCONCLUSIVE
    except PreconditionError as exc:
        return f"precondition violated: {exc}", EXIT_PRECONDITION
    if job.fmt == "machine":
        return json.dumps(_machine(result), indent=2, sort_keys=True), code
    return "\n".join(lines), code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcinv",
        description="Exact arc-space invariants of hypersurface singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "machine"), default="text", dest="fmt")

    p = sub.add_parser("qpers", help="rational persistance of an arc")
    p.add_argument("--surface", required=True, type=Path)
    p.add_argument("--arc", required=True, type=Path)
    p.add_argument("--n-max", type=int, help="also verify ramifications up to n")
    p.add_argument("--budget", type=int)
    add_format(p)

    p = sub.add_parser("nash", help="multiplicity sequence by directed blow-ups")
    p.add_argument("--surface", required=True, type=Path)
    p.add_argument("--arc", required=True, type=Path)
    p.add_argument("--budget", type=int)
    p.add_argument("--trace", action="store_true")
    add_format(p)

    p = sub.add_parser("contact", help="fat components from resolution data")
    p.add_argument("--resolution", required=True, type=Path)
    p.add_argument("--m", type=int, help="contact level")
    p.add_argument("--m-max", type=int, help="delta table up to this level")
    p.add_argument("--bound", type=int, help="at least --m; only checked and echoed")
    add_format(p)

    p = sub.add_parser("bounds", help="bounds on the normalized order")
    p.add_argument("--resolution", required=True, type=Path)
    p.add_argument("--samples", type=int, default=500,
                   help="multi-indices to sample (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default %(default)s)")
    p.add_argument("--bound", type=int, default=8,
                   help="side of the sampling box (default %(default)s)")
    add_format(p)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("suite", nargs="?", default="all")
    p.add_argument("--trace", action="store_true")
    add_format(p)

    return parser


def jobspec_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The job ``run`` takes, the parsed arguments themselves; ``bench/workloads.py`` calls it."""
    return args


def stdout_closed() -> int:
    """Point stdout at devnull, so no later flush fails; the code for a closed pipe."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_BROKEN_PIPE


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    report, code = run(args)
    try:
        print(report, flush=True)
    except BrokenPipeError:
        return stdout_closed()
    return code


if __name__ == "__main__":
    sys.exit(main())
