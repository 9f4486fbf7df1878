"""Command line interface.

Five subcommands cover the library surface:

* ``qpers``  -- the rational persistance invariant of an arc on a surface,
* ``nash``   -- the multiplicity sequence from the directed blow-up engine,
* ``contact``-- fat components and delta values from resolution data,
* ``bounds`` -- exact bounds on the normalized order plus sampled extrema,
* ``verify`` -- the built-in verification suites.

Input documents are JSON (see ``documents``); every rational in the output
is rendered exactly as "p/q", never as a float.  ``--format machine`` emits
a JSON report which is byte-identical across runs for identical inputs and
seeds.

Exit codes: 0 success, 2 unreadable or malformed input, 3 violated
precondition, 4 inconclusive within the step budget, 5 failed verification.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from .arcs import Arc, Hypersurface
from .contact import (
    ResolutionData,
    delta_limit_check,
    fat_components,
    rbar_extrema,
    rbar_of_multiindex,
    sample_multiindices,
    values_bounds,
)
from .documents import load_arc, load_hypersurface, load_resolution
from .errors import BudgetExhausted, DocumentError, PreconditionError
from .nash import nash_sequence
from .qpers import check_limit_identity, q_persistance
from .render import format_multiindex, format_rational
from .verify import run_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_INCONCLUSIVE = 4
EXIT_VERIFY_FAILED = 5


@dataclass
class JobSpec:
    """Everything one invocation needs, decoupled from argv for testing."""

    command: str
    surface: Path | None = None
    arc: Path | None = None
    resolution: Path | None = None
    m: int | None = None
    m_max: int | None = None
    n_max: int | None = None
    budget: int | None = None
    bound: int | None = None
    seed: int | None = None
    samples: int | None = None
    trace: bool = False
    fmt: str = "text"
    suite: str = "all"


def _machine_rational(value) -> str:
    return format_rational(value, keep_unit_den=True)


def _load_pair(job: JobSpec) -> tuple[Hypersurface, Arc]:
    if job.surface is None or job.arc is None:
        raise DocumentError("this command needs --surface and --arc")
    return load_hypersurface(job.surface), load_arc(job.arc)


def _load_resolution(job: JobSpec) -> ResolutionData:
    if job.resolution is None:
        raise DocumentError("this command needs --resolution")
    return load_resolution(job.resolution)


def _cmd_qpers(job: JobSpec) -> tuple[list[str], dict, int]:
    surface, arc = _load_pair(job)
    result = q_persistance(surface, arc)
    lines = [
        f"surface: {surface.f} (multiplicity {surface.multiplicity} at the origin)",
        f"arc contact order nu: {result.nu}",
        f"rational persistance r: {format_rational(result.r)}",
        f"normalized order r/nu: {format_rational(result.r_bar)}",
    ]
    payload = {
        "command": "qpers",
        "multiplicity": surface.multiplicity,
        "nu": result.nu,
        "r": _machine_rational(result.r),
        "r_bar": _machine_rational(result.r_bar),
        "floor_r": result.floor_r,
    }
    if result.floor_r is not None:
        lines.append(f"predicted persistance floor(r): {result.floor_r}")
    else:
        lines.append("the arc stays in the maximal multiplicity locus (r infinite)")
    if job.n_max is not None:
        table = check_limit_identity(surface, arc, job.n_max, job.budget)
        rows = []
        lines.append(f"ramification table up to n = {job.n_max}:")
        for row in table.rows:
            status = "ok" if row.ok else ("inconclusive" if row.ok is None else "MISMATCH")
            lines.append(
                f"  n = {row.n}: rho = {row.rho}, floor(n*r) = {row.expected} [{status}]"
            )
            rows.append(
                {"n": row.n, "rho": row.rho, "expected": row.expected, "ok": row.ok}
            )
        payload["ramification_table"] = rows
        payload["ramification_passed"] = table.passed
        if not table.conclusive:
            return lines, payload, EXIT_INCONCLUSIVE
        if not table.passed:
            return lines, payload, EXIT_VERIFY_FAILED
    return lines, payload, EXIT_OK


def _cmd_nash(job: JobSpec) -> tuple[list[str], dict, int]:
    surface, arc = _load_pair(job)
    report = nash_sequence(surface, arc, max_steps=job.budget)
    lines = [
        f"surface: {surface.f} (multiplicity {surface.multiplicity} at the origin)",
        "multiplicity sequence: " + " ".join(str(m) for m in report.sequence),
    ]
    if report.infinite:
        lines.append("persistance: infinite (arc trapped in the maximal multiplicity locus)")
    elif report.rho is not None:
        lines.append(f"persistance rho: {report.rho}")
    else:
        lines.append(f"persistance not reached within {report.budget} steps")
    if job.trace:
        for record in report.trace:
            center = ", ".join(format_rational(x) for x in record.center)
            lines.append(
                f"  step {record.step}: chart {record.chart}, center ({center}), "
                f"multiplicity {record.multiplicity}"
            )
    payload = {
        "command": "nash",
        "sequence": list(report.sequence),
        "rho": report.rho,
        "status": report.status,
        "budget": report.budget,
    }
    if job.trace:
        payload["trace"] = [
            {
                "step": record.step,
                "chart": record.chart,
                "center": [_machine_rational(x) for x in record.center],
                "multiplicity": record.multiplicity,
            }
            for record in report.trace
        ]
    code = EXIT_OK if report.infinite or report.rho is not None else EXIT_INCONCLUSIVE
    return lines, payload, code


def _cmd_contact(job: JobSpec) -> tuple[list[str], dict, int]:
    data = _load_resolution(job)
    if job.m is None and job.m_max is None:
        raise DocumentError("contact needs --m (one level) or --m-max (a table)")
    lines: list[str] = []
    payload: dict = {"command": "contact"}
    if job.m is not None:
        bound = job.bound if job.bound is not None else job.m
        components = fat_components(data, job.m, bound)
        values = [rbar_of_multiindex(data, l) for l in components]
        lines.append(f"contact level m = {job.m}, search bound {bound}")
        lines.append(
            "fat components: " + ", ".join(format_multiindex(l) for l in components)
        )
        for l, v in zip(components, values):
            lines.append(f"  {format_multiindex(l)}: r_bar = {format_rational(v)}")
        level_delta = min(values)
        lines.append(f"delta_{job.m} = {format_rational(level_delta)}")
        payload["delta"] = _machine_rational(level_delta)
        payload["m"] = job.m
        payload["bound"] = bound
        payload["components"] = [
            {"l": list(l), "r_bar": _machine_rational(v)}
            for l, v in zip(components, values)
        ]
    if job.m_max is not None:
        table = delta_limit_check(data, job.m_max)
        lines.append(
            f"delta table m = 1..{job.m_max} "
            f"(order {format_rational(table.order)}):"
        )
        for row in table.rows:
            flag = "ok" if row.ok else "OUTSIDE ENVELOPE"
            lines.append(f"  delta_{row.m} = {format_rational(row.value)} [{flag}]")
        lines.append(f"envelope check passed: {table.passed}")
        payload["delta_table"] = [
            {"m": row.m, "delta": _machine_rational(row.value), "ok": row.ok}
            for row in table.rows
        ]
        payload["envelope_passed"] = table.passed
        if not table.passed:
            return lines, payload, EXIT_VERIFY_FAILED
    return lines, payload, EXIT_OK


def _cmd_bounds(job: JobSpec) -> tuple[list[str], dict, int]:
    data = _load_resolution(job)
    lower, upper = values_bounds(data)
    samples = job.samples if job.samples is not None else 500
    seed = job.seed if job.seed is not None else 0
    bound = job.bound if job.bound is not None else 8
    drawn = sample_multiindices(data, samples, bound, seed)
    observed = rbar_extrema(data, drawn)
    inside = all(
        lower <= rbar_of_multiindex(data, l) <= upper for l in drawn
    )
    min_attained = observed.minimum == lower
    max_attained = observed.maximum == upper
    lines = [
        f"exact bounds: [{format_rational(lower)}, {format_rational(upper)}]",
        f"sampled {samples} multi-indices (seed {seed}, box bound {bound})",
        f"all samples inside the bounds: {inside}",
        f"sampled minimum: {format_rational(observed.minimum)} at "
        f"{format_multiindex(observed.argmin)}"
        + (" [attained]" if min_attained else " [not attained on this sample]"),
        f"sampled maximum: {format_rational(observed.maximum)} at "
        f"{format_multiindex(observed.argmax)}"
        + (" [attained]" if max_attained else " [not attained on this sample]"),
    ]
    payload = {
        "command": "bounds",
        "lower": _machine_rational(lower),
        "upper": _machine_rational(upper),
        "samples": samples,
        "seed": seed,
        "bound": bound,
        "all_inside": inside,
        "sampled_min": _machine_rational(observed.minimum),
        "argmin": list(observed.argmin),
        "min_attained": min_attained,
        "sampled_max": _machine_rational(observed.maximum),
        "argmax": list(observed.argmax),
        "max_attained": max_attained,
    }
    return lines, payload, EXIT_OK if inside else EXIT_VERIFY_FAILED


def _cmd_verify(job: JobSpec) -> tuple[list[str], dict, int]:
    try:
        results = run_suite(
            job.suite,
            n_max=job.n_max,
            m_max=job.m_max,
            seed=job.seed,
            bound=job.bound,
            samples=job.samples,
            budget=job.budget,
        )
    except KeyError as exc:
        raise DocumentError(str(exc.args[0])) from exc
    lines = []
    rows = []
    for result in results:
        lines.append(f"{'PASS' if result.passed else 'FAIL'}  {result.ident}: {result.label}")
        if job.trace or not result.passed:
            lines.extend(f"      {detail}" for detail in result.details)
        rows.append(
            {
                "ident": result.ident,
                "label": result.label,
                "passed": result.passed,
                "details": list(result.details),
            }
        )
    failed = sum(1 for result in results if not result.passed)
    lines.append(
        f"{len(results) - failed}/{len(results)} checks passed in suite '{job.suite}'"
    )
    payload = {
        "command": "verify",
        "suite": job.suite,
        "checks": rows,
        "passed": failed == 0,
    }
    return lines, payload, EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


_COMMANDS = {
    "qpers": _cmd_qpers,
    "nash": _cmd_nash,
    "contact": _cmd_contact,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
}


def run(job: JobSpec) -> tuple[str, int]:
    """Execute a job and return (report text, exit code)."""
    try:
        lines, payload, code = _COMMANDS[job.command](job)
    except DocumentError as exc:
        return f"input error: {exc}", EXIT_PARSE
    except BudgetExhausted as exc:
        return f"inconclusive: {exc}", EXIT_INCONCLUSIVE
    except PreconditionError as exc:
        return f"precondition violated: {exc}", EXIT_PRECONDITION
    if job.fmt == "machine":
        return json.dumps(payload, indent=2, sort_keys=True), code
    return "\n".join(lines), code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcinv",
        description="Exact arc-space invariants of hypersurface singularities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("text", "machine"), default="text")

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
    p.add_argument("--bound", type=int, help="side of the --m search box (>= m)")
    add_format(p)

    p = sub.add_parser("bounds", help="bounds on the normalized order")
    p.add_argument("--resolution", required=True, type=Path)
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--bound", type=int)
    add_format(p)

    p = sub.add_parser("verify", help="run a built-in verification suite")
    p.add_argument("suite", nargs="?", default="all")
    p.add_argument("--n-max", type=int)
    p.add_argument("--m-max", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--budget", type=int)
    p.add_argument("--trace", action="store_true")
    add_format(p)

    return parser


def jobspec_from_args(args: argparse.Namespace) -> JobSpec:
    return JobSpec(
        command=args.command,
        surface=getattr(args, "surface", None),
        arc=getattr(args, "arc", None),
        resolution=getattr(args, "resolution", None),
        m=getattr(args, "m", None),
        m_max=getattr(args, "m_max", None),
        n_max=getattr(args, "n_max", None),
        budget=getattr(args, "budget", None),
        bound=getattr(args, "bound", None),
        seed=getattr(args, "seed", None),
        samples=getattr(args, "samples", None),
        trace=getattr(args, "trace", False),
        fmt=getattr(args, "format", "text"),
        suite=getattr(args, "suite", "all"),
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    report, code = run(jobspec_from_args(args))
    print(report)
    return code


if __name__ == "__main__":
    sys.exit(main())
