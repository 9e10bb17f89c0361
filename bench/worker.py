"""One benchmark process: set-up, then closed-loop passes over one workload.

Started by ``run.py``; prints ``READY`` when set-up (package import, input
generation and a warm-up pass over the reduced workload) is done, and
``RESULT <json>`` at the end.  With ``--setup-only`` it stops after READY.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library loaded into this process."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(gravortex) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "conventions_hash": gravortex.reporting.conventions_hash(),
    }


def run_pass(jobs, cli, tracer=None) -> tuple[float, list[dict]]:
    """One closed-loop pass: each job starts after the previous one is checked."""
    wall, records = 0.0, []
    for job in jobs:
        if tracer is not None:
            tracer.request += 1
        dt, raw = job.run(cli)
        wall += dt
        records.extend(job.outcomes(dt, raw))
    return wall, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reduced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", required=True, help="directory for records and spans")
    args = parser.parse_args(argv)
    # one CPU for the whole run: unpinned, six continuation passes took
    # 3.0-4.3 s against 2.5-3.1 s pinned
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    import gravortex
    from gravortex import cli

    src = os.path.join(ROOT, "src", "gravortex")
    if os.path.dirname(os.path.abspath(gravortex.__file__)) != src:
        print(f"error: gravortex imported from {gravortex.__file__}, not {src}", file=sys.stderr)
        return 2

    build = workloads.WORKLOADS[args.workload]
    scratch = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out)
    try:
        jobs = build(np.random.default_rng(args.seed), os.path.join(scratch, "run"), args.reduced)
        warm = build(np.random.default_rng(args.seed), os.path.join(scratch, "warm"), True)
        run_pass(warm, cli)
        print("READY", flush=True)
        if args.setup_only:
            return 0

        tracer = tracing.Tracer() if args.trace else None
        walls, traced_flags, passed, attempted, failed = [], [], [], 0, 0
        faults: dict[str, int] = {}
        problems: list[dict] = []
        start = time.perf_counter()
        while True:
            records = None  # the previous pass's records are not held during this one
            traced = bool(args.trace) and len(walls) % 2 == 1
            if traced:
                last_pass_spans = len(tracer.spans)
                tracer.install()
            try:
                wall, records = run_pass(jobs, cli, tracer if traced else None)
            finally:
                if traced:
                    tracer.remove()
            walls.append(wall)
            traced_flags.append(traced)
            attempted += len(records)
            failed += sum(r["failed"] for r in records)
            passed.append(sum(not r["failed"] for r in records))
            for r in records:
                if r["failed"]:
                    faults[str(r["fault"])] = faults.get(str(r["fault"]), 0) + 1
                if (r["failed"] and r["fault"] is None) or r["errors"]:
                    problems.append(r)
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or len(walls) >= 2):
                break

        result = {
            "walls": walls,
            "traced": traced_flags,
            "passed": passed,
            "attempted": attempted,
            "failed": failed,
            "fault_counts": faults,
            "problems": problems[:20],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "env": environment(gravortex),
        }
        if args.trace:
            n_traced = sum(traced_flags)
            result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counts, n_traced)
            untraced = [w for w, t in zip(walls, traced_flags) if not t]
            traced_walls = [w for w, t in zip(walls, traced_flags) if t]
            result["layers"]["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
            tag = f"{args.workload}-seed{args.seed}"
            with open(os.path.join(args.out, f"spans-{tag}.jsonl"), "w") as fh:
                for span in tracer.spans[last_pass_spans:]:
                    fh.write(json.dumps(span) + "\n")
        tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        with open(os.path.join(args.out, f"records-{tag}.json"), "w") as fh:
            json.dump({"env": result["env"], "last_pass": records}, fh)
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
