"""End-to-end and per-layer benchmark of gravortex over its CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py                 # every workload once, seed 0, untraced
    python3 bench/run.py --self-check    # reduced inputs, checks every metric name

Each run measures one workload in its own worker process, a closed loop
with one client: the next job starts when the previous one has finished
and been checked.  Before it, the same set-up runs in further fresh
processes; ``setup_s`` is the median over all of them.  Workers use one
BLAS thread, so runs are repeatable on a shared machine and known-fault
operations fail the same way every time.  The last line of standard
output is the JSON result; per-operation records and spans go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, BENCH)

import spec  # noqa: E402
from workloads import FAULTS  # noqa: E402

SETUP_PROBES = 4  # extra fresh processes timed from start to READY
DEADLINE_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(
        {
            "PYTHONPATH": os.path.join(ROOT, "src"),
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONHASHSEED": "0",
            "OPENBLAS_NUM_THREADS": "1",
            "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }
    )
    return env


def _start_worker(args: list[str], deadline: float):
    """Run a worker to its end; return (seconds to READY, stdout lines after it)."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), *args, "--out", OUT]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = None
        lines = []
        for line in proc.stdout:
            if ready is None and line.strip() == "READY":
                ready = time.perf_counter() - start
            elif ready is not None:
                lines.append(line)
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready is None:
        raise WorkerFailed(f"worker {' '.join(args)} exited with {code}")
    return ready, lines


def measure(workload: str, seed: int, seconds: float, trace: int, reduced=False, probes=SETUP_PROBES) -> dict:
    os.makedirs(OUT, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if reduced:
        common.append("--reduced")
    setups = [_start_worker([*common, "--setup-only"], deadline)[0] for _ in range(probes)]
    ready, lines = _start_worker([*common, "--trace", str(trace)], deadline)
    setups.append(ready)
    results = [line[len("RESULT ") :] for line in lines if line.startswith("RESULT ")]
    if not results:
        raise WorkerFailed(f"worker for {workload} printed no result")
    result = json.loads(results[-1])
    result["setups"] = setups
    return result


def metrics_of(result: dict, trace: int) -> dict:
    if trace:
        values = result["layers"]
    else:
        walls = result["walls"]
        values = {
            "setup_s": statistics.median(result["setups"]),
            "pass_s": statistics.median(walls),
            "goodput_ops_s": statistics.median(p / w for p, w in zip(result["passed"], walls)),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    return {name: {"value": value, "unit": spec.UNITS[name]} for name, value in values.items()}


def report(workload: str, seed: int, trace: int, result: dict) -> dict:
    """Print the human-readable lines for one run and return its JSON result."""
    metrics = metrics_of(result, trace)
    problems = result["problems"]
    correct = not problems
    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    print(
        f"workload {workload} seed {seed} trace {trace}: {len(result['walls'])} passes "
        f"(closed loop, 1 client), setup samples {len(result['setups'])}"
    )
    for name, m in metrics.items():
        print(f"  {name:<42} {m['value']:.6g} {m['unit']}")
    print(f"  operations attempted {result['attempted']}, failed {result['failed']}")
    for fault, count in sorted(result["fault_counts"].items()):
        print(f"  known fault {fault}: {count} failed -- {FAULTS.get(fault, 'NOT A KNOWN FAULT')}")
    for rec in problems:
        print(f"  PROBLEM {json.dumps(rec, default=str)[:400]}", file=sys.stderr)
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def self_check() -> int:
    """Each workload once on reduced inputs, traced and untraced; every metric present."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    ok = committed == spec.benchmark_json()
    if not ok:
        print("BENCHMARK.json differs from bench/spec.py; run python3 bench/spec.py")
    want = {0: {m["name"] for m in committed["end_to_end"]}, 1: {m["name"] for m in committed["per_layer"]}}
    for workload in (w["name"] for w in committed["workloads"]):
        for trace in (0, 1):
            result = measure(workload, 0, 0.0, trace, reduced=True, probes=1)
            line = report(workload, 0, trace, result)
            got = set(line["metrics"])
            if got != want[trace] or not line["correct"]:
                ok = False
                print(f"SELF-CHECK {workload} trace {trace}: missing {sorted(want[trace] - got)}, "
                      f"extra {sorted(got - want[trace])}, correct {line['correct']}")
    print("self-check " + ("ok" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gravortex", "__init__.py")):
        print(f"error: no gravortex sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        if args.self_check:
            return self_check()
        if args.workload:
            line = report(args.workload, args.seed, args.trace, measure(args.workload, args.seed, args.seconds, args.trace))
        else:
            line = {
                w["name"]: report(w["name"], args.seed, args.trace, measure(w["name"], args.seed, args.seconds, args.trace))
                for w in spec.WORKLOADS
            }
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
