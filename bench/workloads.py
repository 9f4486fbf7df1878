"""The four benchmark workloads, one per scale axis of the engine.

Each workload turns a seed into a fixed list of jobs (its *pool*) during
set-up.  A run executes the pool in whole passes, so every pass does the same
mix of work and a partial pass never skews the rates.  The seed only draws
coefficients, data and levels inside fixed strata; the shape of the pool is
the same for every seed, which keeps the cost of a pass steady across seeds.

Every job returns a canonical answer string made of exact values, and checks
that answer against a route that does not go through the code path it
measures: closed-form orders of monomial derivatives for the blow-up
workloads, and a direct evaluation of the divisorial data for contact loci.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence


class JobFailed(Exception):
    """A job returned an answer that its independent check rejects."""


@dataclass
class Job:
    """One unit of work: ``run(pass_index)`` computes and verifies one answer."""

    key: str
    run: Callable[[int], str]


@dataclass
class Workload:
    name: str
    why: str
    build: Callable[..., list[Job]]


# --- closed forms -----------------------------------------------------------

Monomial = tuple[int, ...]


def closed_form_r(monomials: Sequence[Monomial], orders: Sequence[float]) -> Fraction:
    """Rational persistance of an arc on a sum of monomials with disjoint supports.

    The differential presentation of f in weight b consists of the partials
    d^alpha f with 1 <= |alpha| < b in weight b - |alpha| (f itself pulls back
    to zero on the arc).  With disjoint supports every such partial is a
    constant times one monomial, whose order along an arc is the dot product
    of its exponents with the component orders, so r is a finite minimum.
    """
    b = min(sum(e) for e in monomials)
    best: Fraction | None = None
    for e in monomials:
        for alpha in itertools.product(*(range(k + 1) for k in e)):
            depth = sum(alpha)
            if not 0 < depth < b:
                continue
            rest = [k - a for k, a in zip(e, alpha)]
            if any(k and o == math.inf for k, o in zip(rest, orders)):
                continue
            value = Fraction(sum(k * int(o) for k, o in zip(rest, orders) if k), b - depth)
            if best is None or value < best:
                best = value
    if best is None:
        raise ValueError("the arc lies in the maximal multiplicity locus")
    return best


def _surface(arcinv, names: Sequence[str], monomials: Sequence[Monomial]):
    """f = m_0 - m_1 - ... in the given variable names."""
    terms = {e: (1 if i == 0 else -1) for i, e in enumerate(monomials)}
    return arcinv.Hypersurface(arcinv.Polynomial(names, terms))


def _check_blowup(report, b: int, r: Fraction) -> None:
    rho = math.floor(r)
    if report.infinite or report.rho != rho:
        raise JobFailed(f"rho = {report.rho}, expected floor(r) = {rho}")
    if report.sequence[:-1] != (b,) * rho or report.sequence[-1] >= b:
        raise JobFailed(f"sequence {report.sequence} does not drop at step {rho}")


def _sequence_answer(report, variables: Sequence[str]) -> str:
    """The multiplicity sequence and every blow-up chart and center, exactly.

    Charts are given by coordinate index (``s`` for the cylinder variable) so
    that renaming variables leaves the answer unchanged.
    """
    steps = ";".join(
        f"{variables.index(r.chart) if r.chart in variables else 's'}:"
        + ",".join(str(x) for x in r.center)
        for r in report.trace
    )
    return ",".join(str(m) for m in report.sequence) + "|" + steps


# --- sampled-arcs -----------------------------------------------------------

# Surfaces x^a y^b - z^c with multiplicity min(a + b, c) from 2 to 6.
SAMPLED_SHAPES = [
    (1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 1, 4), (1, 3, 4),
    (2, 2, 4), (2, 3, 6), (3, 3, 6), (2, 4, 6),
]
# Orders of the two parameters u(t), v(t) of the monomial parametrization.
SAMPLED_TYPES = [(1, 1), (1, 2), (2, 1)]


def _binomial_parametrization(a: int, b: int, c: int):
    """(u, v) -> (u^p, v^s, u^q v^r) with a p = c q and b s = c r, minimal."""
    g1, g2 = math.gcd(a, c), math.gcd(b, c)
    return [(c // g1, 0, a // g1), (0, c // g2, b // g2)]


def build_sampled_arcs(arcinv, seed: int, work_dir: Path, size: int = 2) -> list[Job]:
    """``size`` coefficient draws of every shape and contact type."""
    rng = random.Random(f"sampled-arcs/{seed}")
    templates = []
    for a, b, c in SAMPLED_SHAPES:
        monomials = [(a, b, 0), (0, 0, c)]
        surface = _surface(arcinv, ("x", "y", "z"), monomials)
        param = _binomial_parametrization(a, b, c)
        templates.append(((a, b, c), monomials, surface, param))
    jobs: list[Job] = []
    for variant in range(size):
        for shape, monomials, surface, param in templates:
            for orders in SAMPLED_TYPES:
                arc = arcinv.sample_binomial_arc(
                    surface, param, orders, rng.randrange(2**31)
                )
                component_orders = [
                    sum(row[j] * o for row, o in zip(param, orders)) for j in range(3)
                ]
                r = closed_form_r(monomials, component_orders)
                nu = min(component_orders)
                jobs.append(
                    Job(
                        f"{shape}/{orders}/{variant}",
                        _sampled_job(arcinv, monomials, arc, r, nu, len(jobs)),
                    )
                )
    return jobs


def _sampled_job(arcinv, monomials, arc, r: Fraction, nu: int, index: int):
    b = min(sum(e) for e in monomials)

    def run(pass_index: int) -> str:
        # A fresh name for one variable on every execution: the polynomial and
        # the answers are the same up to renaming, but the differential
        # presentation is not served from a cache filled by an earlier pass.
        surface = _surface(arcinv, ("x", "y", f"z{pass_index}_{index}"), monomials)
        result = arcinv.q_persistance(surface, arc)
        report = arcinv.nash_sequence(surface, arc)
        if result.r != r or result.floor_r != math.floor(r):
            raise JobFailed(f"r = {result.r}, closed form {r}")
        if result.nu != nu:
            raise JobFailed(f"nu = {result.nu}, expected {nu}")
        _check_blowup(report, b, r)
        answer = _sequence_answer(report, surface.variables)
        return f"r={result.r};r_bar={result.r_bar};seq={answer}"

    return run


# --- ramified-limit ---------------------------------------------------------

# (label, variable names, monomials of f, arc component powers)
RAMIFIED_CORPUS = [
    ("cusp t^3,t^2", ("x", "y"), [(2, 0), (0, 3)], (3, 2)),
    ("node t,0", ("x", "y"), [(1, 1)], (1, None)),
    ("x2y3-z6 t^3,t^2,t^2", ("x", "y", "z"), [(2, 3, 0), (0, 0, 6)], (3, 2, 2)),
    ("x2y3-z6 t^6,t^6,t^5", ("x", "y", "z"), [(2, 3, 0), (0, 0, 6)], (6, 6, 5)),
]
# The seed draws one ramification index from each stratum.  Strata are
# narrow because the cost of a job grows like n^2.4: wide strata would let
# the seed, not the program, move the latency percentiles.
RAMIFIED_STRATA = [(5 * k + 5, 5 * k + 6) for k in range(10)]


def build_ramified_limit(arcinv, seed: int, work_dir: Path, size: int = 10) -> list[Job]:
    """Each corpus arc under t -> t^n for one n from each of ``size`` strata."""
    rng = random.Random(f"ramified-limit/{seed}")
    strata = RAMIFIED_STRATA[:size]
    jobs: list[Job] = []
    for low, high in strata:
        for label, names, monomials, powers in RAMIFIED_CORPUS:
            surface = _surface(arcinv, names, monomials)
            arc = arcinv.monomial_arc(powers)
            orders = [math.inf if p is None else p for p in powers]
            r = closed_form_r(monomials, orders)
            n = rng.randint(low, high)
            jobs.append(Job(f"{label}/n={n}", _ramified_job(arcinv, surface, arc, r, n)))
    return jobs


def _ramified_job(arcinv, surface, arc, r: Fraction, n: int):
    expected = math.floor(n * r)

    def run(pass_index: int) -> str:
        rho = arcinv.persistance(surface, arc.ramify(n))
        if rho != expected:
            raise JobFailed(f"rho = {rho}, expected floor(n r) = {expected}")
        return f"rho={rho}"

    return run


# --- tiebreak-growth --------------------------------------------------------

X2Y3Z6 = [(2, 3, 0), (0, 0, 6)]
X2Y3Z6_PARAMETRIZATION = [(3, 0, 1), (0, 2, 1)]
# Contact types (alpha, beta) with their share of a pass.  Types (1, 2) and
# (1, 3) take 27-206 s per arc under this tie-break and stay out.
TIEBREAK_MIX = [((1, 0), 20), ((0, 1), 3), ((1, 1), 1)]


def build_tiebreak_growth(arcinv, seed: int, work_dir: Path, size: int = 1) -> list[Job]:
    """``size`` groups, each with the mix above, of freshly sampled arcs."""
    rng = random.Random(f"tiebreak-growth/{seed}")
    surface = _surface(arcinv, ("x", "y", "z"), X2Y3Z6)
    jobs: list[Job] = []
    for group in range(size):
        for (alpha, beta), count in TIEBREAK_MIX:
            orders = (alpha + beta, alpha + 2 * beta)
            component_orders = [
                sum(row[j] * o for row, o in zip(X2Y3Z6_PARAMETRIZATION, orders))
                for j in range(3)
            ]
            r = closed_form_r(X2Y3Z6, component_orders)
            for k in range(count):
                arc = arcinv.sample_binomial_arc(
                    surface, X2Y3Z6_PARAMETRIZATION, orders, rng.randrange(2**31)
                )
                jobs.append(
                    Job(f"({alpha},{beta})/{group}/{k}", _tiebreak_job(arcinv, surface, arc, r))
                )
    return jobs


def _tiebreak_job(arcinv, surface, arc, r: Fraction):
    def run(pass_index: int) -> str:
        report = arcinv.nash_sequence(surface, arc, tie_break="lowest_index")
        _check_blowup(report, 5, r)
        return f"seq={_sequence_answer(report, surface.variables)}"

    return run


# --- contact-loci -----------------------------------------------------------

# Box side B = m + max(c) per divisor count: the scan covers (B + 1)^N points,
# so fixing B per slot, not m, keeps the cost of a slot independent of c.
CONTACT_BOXES = {2: (160, 200, 240), 3: (26, 30, 34), 4: (11, 13, 15)}
COORDINATES = 3
GENERATORS = 3


def _resolution(rng: random.Random, n_div: int) -> dict:
    """Toric-style data: coordinate valuations, c their column minima, and
    monomial generators whose multiplicities follow from the valuations."""
    rows = [[rng.randint(2, 5) for _ in range(n_div)] for _ in range(COORDINATES)]
    c = [min(row[i] for row in rows) for i in range(n_div)]
    gens = []
    for _ in range(GENERATORS):
        exponent = [rng.randint(0, 3) for _ in range(COORDINATES)]
        if not any(exponent):
            exponent[rng.randrange(COORDINATES)] = 1
        d = [sum(k * row[i] for k, row in zip(exponent, rows)) for i in range(n_div)]
        gens.append((d, rng.randint(1, 3)))
    return {"c": c, "gens": gens, "coord_val": rows}


def _order(raw: dict) -> Fraction:
    """Order at the center: min_i (min_g d_i / w) / c_i, all c_i > 0 here."""
    return min(
        min(Fraction(d[i], w) for d, w in raw["gens"]) / c_i
        for i, c_i in enumerate(raw["c"])
    )


def _rbar(raw: dict, l: Sequence[int]) -> Fraction:
    contact = sum(a * b for a, b in zip(l, raw["c"]))
    return min(Fraction(sum(a * b for a, b in zip(l, d)), w) for d, w in raw["gens"]) / contact


def build_contact_loci(arcinv, seed: int, work_dir: Path, size: int = 6) -> list[Job]:
    """``size`` data sets per divisor count and box, written as documents."""
    cli, documents = arcinv.cli, arcinv.documents
    rng = random.Random(f"contact-loci/{seed}")
    parser = cli.build_parser()
    jobs: list[Job] = []
    for variant in range(size):
        for n_div, boxes in CONTACT_BOXES.items():
            for box in boxes:
                raw = _resolution(rng, n_div)
                m = box - max(raw["c"])
                data = arcinv.ResolutionData.of(raw["c"], raw["gens"], raw["coord_val"])
                path = work_dir / f"resolution-{len(jobs)}.json"
                documents.save_document(path, documents.resolution_to_doc(data))
                argv = [
                    "contact", "--resolution", str(path), "--m", str(m),
                    "--bound", str(box), "--format", "machine",
                ]
                spec = cli.jobspec_from_args(parser.parse_args(argv))
                jobs.append(
                    Job(f"N={n_div}/B={box}/{variant}", _contact_job(cli, spec, raw, m))
                )
    return jobs


def _contact_job(cli, spec, raw: dict, m: int):
    order = _order(raw)
    upper = order * (1 + Fraction(max(raw["c"]), m))

    def run(pass_index: int) -> str:
        text, code = cli.run(spec)
        if code != 0:
            raise JobFailed(f"exit code {code}: {text[:200]}")
        payload = json.loads(text)
        components = payload["components"]
        if not components:
            raise JobFailed("no fat components")
        values = []
        for entry in components:
            l = entry["l"]
            if sum(a * b for a, b in zip(l, raw["c"])) < m:
                raise JobFailed(f"component {l} has contact below {m}")
            value = _rbar(raw, l)
            if Fraction(entry["r_bar"]) != value:
                raise JobFailed(f"component {l}: r_bar {entry['r_bar']}, expected {value}")
            values.append(value)
        delta = Fraction(payload["delta"])
        if delta != min(values) or not order <= delta <= upper:
            raise JobFailed(f"delta_{m} = {delta} outside [{order}, {upper}]")
        return text

    return run


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "sampled-arcs",
            "everyday library path: q_persistance plus nash_sequence on seeded "
            "surfaces x^a y^b - z^c, each job missing the diff_saturate cache",
            build_sampled_arcs,
        ),
        Workload(
            "ramified-limit",
            "ramification-index axis: long chains of cheap blow-ups with tiny "
            "operands, t -> t^n for n up to 51 on corpus arcs",
            build_ramified_limit,
        ),
        Workload(
            "tiebreak-growth",
            "coefficient-height axis: lowest_index tie-break grows few but huge "
            "transforms, where the per-step compose_order dominates",
            build_tiebreak_growth,
        ),
        Workload(
            "contact-loci",
            "divisor-count axis: in-process contact CLI on 2-4 divisor data; the "
            "only workload through contact, documents, render and cli",
            build_contact_loci,
        ),
    ]
}
