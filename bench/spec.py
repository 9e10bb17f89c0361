"""The benchmark's definition: workloads, metrics and regression bounds.

``BENCHMARK.json`` at the repository root is generated from this module;
regenerate it after editing with

    python3 bench/spec.py
"""

from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 25

WORKLOADS = [
    {
        "name": "continuation",
        "why": "solver layer at the acceptance resolutions n=129/257: Jacobian assembly, "
        "per-iteration SVD/LU, line search and EB secant; grids are cheap",
    },
    {
        "name": "landscape",
        "why": "exact-rational obstruction verdicts and report writing with no grid or "
        "linear algebra; a solver or grid change must leave it flat",
    },
    {
        "name": "highres",
        "why": "geometry layer and O(n^3) dense algebra at n=513..4097: per-job build_grid, "
        "lap_fs, hamiltonian_potential and peak memory",
    },
]

# Pass times of the same jobs in one process pinned to one CPU vary by 7-20%
# from pass to pass on the shared 2-CPU machine the bounds were set on, and
# medians of ten passes drift by about as much over minutes; tighter time
# bounds would flag that drift as a regression.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "goodput_ops_s", "unit": "ops/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]

# (name, unit, better); every one is reported by a traced run of any workload,
# reading 0 where the workload does not reach that layer.
PER_LAYER = [
    ("cli.parse_config.s", "s", "lower"),
    ("cli.solve-vortex.p50_s", "s", "lower"),
    ("cli.solve-gravitating.p50_s", "s", "lower"),
    ("cli.eb-solve.p50_s", "s", "lower"),
    ("cli.futaki.p50_s", "s", "lower"),
    ("cli.quiver-check.p50_s", "s", "lower"),
    ("cli.stability.p50_s", "s", "lower"),
    ("cli.sweep.p50_s", "s", "lower"),
    ("geometry.build_grid.s", "s", "lower"),
    ("geometry.build_grid.calls", "count", "lower"),
    ("geometry.hamiltonian_potential.s", "s", "lower"),
    ("geometry.integrate.s", "s", "lower"),
    ("geometry.integrate.calls", "count", "lower"),
    ("geometry.write_profile_csv.s", "s", "lower"),
    ("bundles.higgs_profile.s", "s", "lower"),
    ("bundles.higgs_profile.calls", "count", "lower"),
    ("vortex.solve_vortex.s", "s", "lower"),
    ("vortex.newton_iters", "count", "lower"),
    ("vortex.s_per_newton_iter", "s", "lower"),
    ("vortex.nonabelian_residual.s", "s", "lower"),
    ("gravitating.solve_gravitating.s", "s", "lower"),
    ("gravitating.newton_iters", "count", "lower"),
    ("gravitating.continuation_steps", "count", "lower"),
    ("gravitating.s_per_newton_iter", "s", "lower"),
    ("gravitating.einstein_bogomolnyi_solve.s", "s", "lower"),
    ("gravitating.eb_alpha_evals", "count", "lower"),
    ("gravitating.gravitating_residual.s", "s", "lower"),
    ("obstructions.stability_check.s", "s", "lower"),
    ("obstructions.configs_per_s", "1/s", "higher"),
    ("obstructions.futaki_quadrature.s", "s", "lower"),
    ("quiver.quiver_vortex_residual.s", "s", "lower"),
    ("reporting.atomic_write_text.s", "s", "lower"),
    ("reporting.bytes_written", "bytes", "lower"),
    ("reporting.files_written", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

UNITS = {m["name"]: m["unit"] for m in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


if __name__ == "__main__":
    (ROOT / "BENCHMARK.json").write_text(render())
    print(f"wrote {ROOT / 'BENCHMARK.json'}")
