"""Smoke test of the benchmark itself: every workload, tiny, untraced and traced.

    python3 bench/smoke.py

Runs each workload once with ``--trace 0`` and once with ``--trace 1`` at a
small pool size, each in its own process, and checks that every metric
named in ``BENCHMARK.json`` is emitted, that no job failed, and that the
traced and untraced runs give the same answer digest, so tracing never
changes answers.  Exits 1 on the first problem found, else 0.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
TINY = {"sampled-arcs": 1, "ramified-limit": 2, "tiebreak-growth": 1, "contact-loci": 1}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
        "--size", str(TINY[workload]),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    check(proc.returncode == 0, f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (HERE / "results" / f"{workload}.seed{SEED}.trace{trace}.json").read_text()
    )
    return line, record


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    try:
        check({w["name"] for w in spec["workloads"]} == set(TINY), "workload list drifted")
        for workload in TINY:
            digests = {}
            for trace in (0, 1):
                line, record = run(workload, trace)
                missing = expected[trace] - set(line["metrics"])
                check(not missing, f"{workload} trace {trace}: missing {sorted(missing)}")
                check(
                    line["failed"] == 0 and record["fail_frac"] == 0,
                    f"{workload} trace {trace}: failures {record['failures']}",
                )
                digests[trace] = record["digest"]
            check(digests[0] == digests[1], f"{workload}: tracing changed the answers")
            print(f"ok  {workload}  digest {digests[0][:16]}")
    except AssertionError as exc:
        print(f"FAIL  {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
