"""Benchmark of the arcinv engine: exact-answer workloads, one per scale axis.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``arcinv`` is imported from ``src/``.
The load is a closed loop in one process with one caller: each job starts
when the previous one has been verified.  Set-up (importing ``arcinv`` and
building the seeded job pool, documents included) is repeated ``SETUPS``
times and its median reported.  The pool then runs in whole passes until
another pass would overrun ``--seconds``; at least one pass always runs.

Times are normalized to a reference host speed.  On a shared virtual
machine the speed of the CPU drifts by up to 1.8x over tens of seconds, and
that drift, not the program, would dominate run-to-run spread.  A fixed
pure-Python calibration loop that never calls ``arcinv`` measures the speed
before and after every job and, inside long jobs, every ``SAMPLE_CPU_S`` of
CPU time; wall time is integrated with weight ``CAL_REF_S`` over the
calibration time, and time spent calibrating is left out.  A normalized
second is thus the time a job would take on a host that runs the
calibration loop in ``CAL_REF_S``.  Raw wall-clock figures are kept in the
result file.

``--trace 0`` reports the end-to-end metrics.  Each job's latency is the
median of its executions across passes, so one burst of host load does not
move it and the sample count of the percentiles is the pool size however
many passes ran; throughput is the pool size over the sum of those latencies.
``--trace 1`` alternates an untraced pass with a traced one and reports the
per-layer metrics of the traced passes (per pass; medians over passes) and
the tracing overhead.  Full results go to ``bench/results/``; the last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

A job fails if it raises, gives an answer its independent check rejects,
gives an answer other than the one it gave in the first pass (the answer
digest), or runs past ``JOB_CAP_S`` of wall time; the cap also ends the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(HERE))

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, JobFailed  # noqa: E402

SETUPS = 5
JOB_CAP_S = 30.0
TAIL_MIN_BEYOND = 10
CAL_REF_S = 0.00075
SAMPLE_CPU_S = 0.05


class JobTimeout(BaseException):
    """Raised from the interval timer; not an Exception, so nothing swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def calibration_s() -> float:
    """Wall time of a fixed loop of exact rational arithmetic, about 1 ms."""
    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 150):
        acc += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    return time.perf_counter() - start


class HostSpeed:
    """Speed-normalized timing of jobs.

    ``begin``/``end`` bracket a job; ``end`` returns its raw wall time and
    its normalized time.  ``clock`` is wall time minus the time spent in the
    calibration loop, which the tracer uses too, so no span or job is
    charged for calibrating.
    """

    def __init__(self) -> None:
        self.paused = 0.0
        self.last_cal = calibration_s()
        self._active = False
        signal.signal(signal.SIGPROF, self._sample)

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def begin(self) -> None:
        self._start = self._t = self.clock()
        self._cal = self.last_cal
        self._norm = 0.0
        self._active = True
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def _advance(self, now: float, cal: float) -> None:
        self._norm += (now - self._t) * 2 * CAL_REF_S / (self._cal + cal)
        self._t, self._cal = now, cal

    def _sample(self, signum, frame) -> None:
        if not self._active:
            return
        self._active = False  # no nested samples while calibrating
        now = self.clock()
        start = time.perf_counter()
        cal = calibration_s()
        self.paused += time.perf_counter() - start
        self._advance(now, cal)
        self._active = True

    def end(self) -> tuple[float, float]:
        """Raw and normalized seconds since ``begin``."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self._active = False
        now = self.clock()
        self.last_cal = calibration_s()
        self._advance(now, self.last_cal)
        return now - self._start, self._norm


@dataclass
class PassResult:
    raw: list[float] = field(default_factory=list)
    norm: list[float] = field(default_factory=list)
    answers: list[str | None] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    capped: bool = False


def import_arcinv():
    """Import ``arcinv`` afresh from ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "arcinv" or n.startswith("arcinv.")]:
        del sys.modules[name]
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import arcinv
    import arcinv.cli  # noqa: F401  (loads every submodule, as the CLI does)

    return arcinv


def run_pass(jobs, pass_index: int, reference, speed: HostSpeed, tracer=None) -> PassResult:
    result = PassResult()
    start = time.perf_counter()
    for job_index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = pass_index * len(jobs) + job_index
        answer = None
        signal.setitimer(signal.ITIMER_REAL, JOB_CAP_S)
        speed.begin()
        try:
            answer = job.run(pass_index)
        except JobTimeout:
            result.failures.append(f"{job.key}: over the {JOB_CAP_S:g} s job cap")
            result.capped = True
        except JobFailed as exc:
            result.failures.append(f"{job.key}: wrong answer: {exc}")
        except Exception as exc:  # a job that raises is a failed job, not a crash
            result.failures.append(f"{job.key}: {type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            raw, norm = speed.end()
        result.raw.append(raw)
        result.norm.append(norm)
        if answer is not None and reference is not None:
            if reference[job_index] is not None and answer != reference[job_index]:
                result.failures.append(f"{job.key}: answer differs from the first pass")
        result.answers.append(answer)
        if result.capped:
            break
    result.elapsed = time.perf_counter() - start
    return result


def digest(jobs, answers: list[str | None]) -> str:
    h = hashlib.sha256()
    for job, answer in zip(jobs, answers):
        h.update(f"{job.key}\t{answer}\n".encode())
    return h.hexdigest()


def per_job_ms(passes: list[PassResult], field_name: str) -> list[float]:
    """Per job of the pool, the median of its executions across passes, in ms."""
    samples: list[list[float]] = []
    for p in passes:
        for j, t in enumerate(getattr(p, field_name)):
            if j == len(samples):
                samples.append([])
            samples[j].append(t * 1000)
    return [statistics.median(s) for s in samples]


def tail(times_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns the value and its percentile; with ten samples or fewer there is
    no such percentile and the maximum is reported as percentile 100.
    """
    n = len(times_ms)
    if n <= TAIL_MIN_BEYOND:
        return max(times_ms), 100.0
    return sorted(times_ms)[n - TAIL_MIN_BEYOND - 1], 100.0 * (n - TAIL_MIN_BEYOND) / n


def run_metadata(args) -> dict:
    commit = "unknown"
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            commit = ref
        elif (git / ref[5:]).exists():
            commit = (git / ref[5:]).read_text().strip()
        else:
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    commit = line.split()[0]
    except OSError:
        pass
    cpu = platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "setups": SETUPS,
        "job_cap_s": JOB_CAP_S,
        "cal_ref_s": CAL_REF_S,
    }


def measure(args, arcinv, jobs, speed: HostSpeed) -> dict:
    """Run whole passes until the next one would overrun ``--seconds``."""
    plain: list[PassResult] = []
    reference = None
    start = time.perf_counter()
    if not args.trace:
        while True:
            p = run_pass(jobs, len(plain), reference, speed)
            plain.append(p)
            reference = reference or p.answers
            elapsed = time.perf_counter() - start
            if p.capped or elapsed * (len(plain) + 1) / len(plain) > args.seconds:
                return {"plain": plain, "traced": []}

    cache_info = getattr(arcinv.rees.diff_saturate, "cache_info", None)
    tracer = Tracer(speed.clock)
    traced: list[PassResult] = []
    layers: list[dict[str, float]] = []
    while True:
        p = run_pass(jobs, len(plain) + len(traced), reference, speed)
        plain.append(p)
        reference = reference or p.answers
        if p.capped:
            break
        hits = cache_info().hits if cache_info else 0
        tracer.install()
        try:
            p = run_pass(jobs, len(plain) + len(traced), reference, speed, tracer)
        finally:
            tracer.uninstall()
        traced.append(p)
        hits = (cache_info().hits if cache_info else 0) - hits
        factor = sum(p.norm) / sum(p.raw)
        layer = layer_metrics(tracer, hits)
        layers.append({k: v * factor if k.endswith("self_s") else v for k, v in layer.items()})
        elapsed = time.perf_counter() - start
        if p.capped or elapsed * (len(traced) + 1) / len(traced) > args.seconds:
            break
    names = layers[0] if layers else {}
    out = {name: statistics.median(layer[name] for layer in layers) for name in names}
    if traced:
        out["trace.overhead_frac"] = statistics.median(
            sum(p.norm) for p in traced
        ) / statistics.median(sum(p.norm) for p in plain) - 1
    return {"plain": plain, "traced": traced, "layers": out, "tracer": tracer}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, help="pool size factor (default: the workload's)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)

    RESULTS.mkdir(exist_ok=True)
    work_dir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    speed = HostSpeed()
    try:
        setup_raw, setup_norm = [], []
        for _ in range(SETUPS):
            speed.begin()
            arcinv = import_arcinv()
            size = {} if args.size is None else {"size": args.size}
            jobs = workload.build(arcinv, args.seed, work_dir, **size)
            raw, norm = speed.end()
            setup_raw.append(raw)
            setup_norm.append(norm)
        outcome = measure(args, arcinv, jobs, speed)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    passes: list[PassResult] = outcome["plain"] + outcome["traced"]
    attempted = sum(len(p.raw) for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = min(attempted, len(failures))
    plain = outcome["plain"]
    job_ms = per_job_ms(plain, "norm")
    tail_ms, tail_pct = tail(job_ms)
    verified = (attempted - failed) / attempted
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        metrics = outcome["layers"]
    else:
        metrics = {
            "jobs_per_s": verified * len(job_ms) * 1000 / sum(job_ms),
            "job_p50_ms": statistics.median(job_ms),
            "job_tail_ms": tail_ms,
            "verified_frac": verified,
            "setup_s": statistics.median(setup_norm),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    record = {
        "meta": run_metadata(args),
        "pool_jobs": len(jobs),
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": failures[:20],
        "digest": digest(jobs, passes[0].answers),
        "tail_percentile": tail_pct,
        "tail_samples": len(job_ms),
        "job_ms": dict(zip((job.key for job in jobs), job_ms)),
        "raw": {
            "jobs_per_s": verified * sum(len(p.raw) for p in plain) / sum(sum(p.raw) for p in plain),
            "job_p50_ms": statistics.median(per_job_ms(plain, "raw")),
            "setup_s": statistics.median(setup_raw),
            "pass_s": [p.elapsed for p in passes],
            "speed": sum(sum(p.norm) for p in passes) / sum(sum(p.raw) for p in passes),
        },
        "metrics": metrics,
    }
    tag = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    if args.trace:
        record["spans"] = outcome["tracer"].by_name()
        outcome["tracer"].write_spans(RESULTS / f"{tag}.spans.json")
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True))

    print(
        f"{args.workload} seed {args.seed}: {attempted} jobs in {len(passes)} passes, "
        f"{failed} failed, digest {record['digest'][:16]}, "
        f"tail at p{tail_pct:.1f} of {len(job_ms)} jobs"
    )
    for reason in failures[:5]:
        print(f"  FAIL {reason}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
