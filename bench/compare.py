"""Compare two sets of benchmark results; report only, always exits 0.

    python3 bench/compare.py BASE NEW

Each side is a directory of per-run result files as ``bench/run.py`` writes
them (``bench/results/``), or a JSON file with a ``runs`` list of such
records (``bench/BENCH_0.json``).  For every workload and metric it prints
the median and quartiles of both sides and the change of the medians, and
flags a move in the worse direction by more than the metric's bound from
``BENCHMARK.json``.  Answer digests are compared seed by seed.  This is a
report for a reader, not a gate.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(source: str) -> list[dict]:
    path = Path(source)
    if path.is_dir():
        runs = []
        for f in sorted(path.glob("*.trace[01].json")):
            try:
                runs.append(json.loads(f.read_text()))
            except (OSError, json.JSONDecodeError) as exc:
                print(f"skipping {f}: {exc}")
        return runs
    return json.loads(path.read_text())["runs"]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def group(runs: list[dict]) -> dict:
    """(workload, metric) -> values, plus (workload, seed) -> digests."""
    values: dict[tuple[str, str], list[float]] = {}
    digests: dict[tuple[str, int], set[str]] = {}
    for run in runs:
        workload = run["meta"]["workload"]
        for name, value in run["metrics"].items():
            values.setdefault((workload, name), []).append(value)
        digests.setdefault((workload, run["meta"]["seed"]), set()).add(run["digest"])
    return {"values": values, "digests": digests}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = (group(load_runs(side)) for side in argv)

    flagged = 0
    workloads = sorted({w for w, _ in base["values"]} | {w for w, _ in new["values"]})
    for workload in workloads:
        print(f"\n== {workload}")
        print(f"{'metric':44s} {'base q1/med/q3':>30s} {'new q1/med/q3':>30s} {'change':>8s}")
        names = sorted(
            {n for w, n in base["values"] if w == workload}
            | {n for w, n in new["values"] if w == workload}
        )
        one_sided = []
        for name in names:
            a = base["values"].get((workload, name))
            b = new["values"].get((workload, name))
            if not a or not b:
                one_sided.append(name)
                continue
            qa, qb = quartiles(a), quartiles(b)
            change = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            flag = ""
            meta = declared.get(name)
            if meta and "bound" in meta:
                worse = change if meta["better"] == "lower" else -change
                if worse > meta["bound"]:
                    flag = f"  WORSE than bound {meta['bound']:g}"
                    flagged += 1
            print(
                f"{name:44s} {'/'.join(f'{x:.4g}' for x in qa):>30s} "
                f"{'/'.join(f'{x:.4g}' for x in qb):>30s} {change:+8.1%}{flag}"
            )
        if one_sided:
            print(f"({len(one_sided)} metrics present on one side only)")
    print("\n== answer digests")
    mismatched = 0
    for key in sorted(set(base["digests"]) & set(new["digests"])):
        if base["digests"][key] != new["digests"][key]:
            mismatched += 1
            print(f"DIFFERS  {key[0]} seed {key[1]}")
    shared = len(set(base["digests"]) & set(new["digests"]))
    print(f"{shared - mismatched}/{shared} shared (workload, seed) digests agree")
    print(f"{flagged} metric(s) past their bound; report only")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
