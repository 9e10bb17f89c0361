"""Spans and counts around the package's public functions, from outside it.

Installing the tracer replaces each traced function on its defining module
and on every ``gravortex`` module that re-imported it with ``from ...
import`` (for example ``gravortex.cli.solve_gravitating`` beside
``gravortex.gravitating.solve_gravitating``).  Removing it restores the
originals, so untraced passes run the unmodified program.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time


def _solve_vortex_counts(counts, result):
    counts["vortex.newton_iters"] += result[1].iterations


def _solve_gravitating_counts(counts, result):
    report = result[1]
    counts["gravitating.newton_iters"] += sum(step.iterations for step in report.steps)
    counts["gravitating.continuation_steps"] += len(report.steps)


def _eb_counts(counts, result):
    counts["gravitating.eb_alpha_evals"] += len(result.secant_history)


def _write_counts(counts, args):
    counts["reporting.bytes_written"] += len(args[1].encode("utf-8"))
    counts["reporting.files_written"] += 1


# (module, function, span name); the span of cli.execute is named after the
# command it runs.
TRACED = [
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "execute", None),
    ("geometry", "build_grid", "geometry.build_grid"),
    ("geometry", "hamiltonian_potential", "geometry.hamiltonian_potential"),
    ("geometry", "integrate", "geometry.integrate"),
    ("geometry", "write_profile_csv", "geometry.write_profile_csv"),
    ("bundles", "higgs_profile", "bundles.higgs_profile"),
    ("vortex", "solve_vortex", "vortex.solve_vortex"),
    ("vortex", "nonabelian_residual", "vortex.nonabelian_residual"),
    ("gravitating", "solve_gravitating", "gravitating.solve_gravitating"),
    ("gravitating", "einstein_bogomolnyi_solve", "gravitating.einstein_bogomolnyi_solve"),
    ("gravitating", "gravitating_residual", "gravitating.gravitating_residual"),
    ("obstructions", "stability_check", "obstructions.stability_check"),
    ("obstructions", "futaki_quadrature", "obstructions.futaki_quadrature"),
    ("quiver", "quiver_vortex_residual", "quiver.quiver_vortex_residual"),
    ("reporting", "atomic_write_text", "reporting.atomic_write_text"),
]

RESULT_COUNTS = {
    "vortex.solve_vortex": _solve_vortex_counts,
    "gravitating.solve_gravitating": _solve_gravitating_counts,
    "gravitating.einstein_bogomolnyi_solve": _eb_counts,
}
ARG_COUNTS = {"reporting.atomic_write_text": _write_counts}


class Tracer:
    """In-memory spans (name, start, end, parent, request) and counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counts = {
            key: 0.0
            for key in (
                "vortex.newton_iters",
                "gravitating.newton_iters",
                "gravitating.continuation_steps",
                "gravitating.eb_alpha_evals",
                "reporting.bytes_written",
                "reporting.files_written",
            )
        }

    def _wrap(self, fn, name):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name or f"cli.{args[0].command}"
            parent = tracer._stack[-1] if tracer._stack else None
            index = len(tracer.spans)
            span = [span_name, time.perf_counter(), None, parent, tracer.request]
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if span_name in RESULT_COUNTS:
                RESULT_COUNTS[span_name](tracer.counts, result)
            if span_name in ARG_COUNTS:
                ARG_COUNTS[span_name](tracer.counts, args)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "gravortex"]
        for mod_name, fn_name, span_name in TRACED:
            original = getattr(importlib.import_module(f"gravortex.{mod_name}"), fn_name)
            wrapper = self._wrap(original, span_name)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time covered by its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list], counts: dict[str, float], passes: int) -> dict[str, float]:
    """Per-layer metrics per pass from the spans and counts of traced passes."""
    own = self_times(spans)
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    inclusive: dict[str, list[float]] = {}
    for (name, start, end, _, _), t in zip(spans, own):
        self_s[name] = self_s.get(name, 0.0) + t
        calls[name] = calls.get(name, 0) + 1
        inclusive.setdefault(name, []).append(end - start)

    def per_pass(name):
        return self_s.get(name, 0.0) / passes

    def p50(name):
        values = inclusive.get(name)
        return statistics.median(values) if values else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    out = {"cli.parse_config.s": per_pass("cli.parse_config")}
    for command in (
        "solve-vortex",
        "solve-gravitating",
        "eb-solve",
        "futaki",
        "quiver-check",
        "stability",
        "sweep",
    ):
        out[f"cli.{command}.p50_s"] = p50(f"cli.{command}")
    for name in (
        "geometry.build_grid",
        "geometry.hamiltonian_potential",
        "geometry.integrate",
        "geometry.write_profile_csv",
        "bundles.higgs_profile",
        "vortex.solve_vortex",
        "vortex.nonabelian_residual",
        "gravitating.solve_gravitating",
        "gravitating.einstein_bogomolnyi_solve",
        "gravitating.gravitating_residual",
        "obstructions.stability_check",
        "obstructions.futaki_quadrature",
        "quiver.quiver_vortex_residual",
        "reporting.atomic_write_text",
    ):
        out[f"{name}.s"] = per_pass(name)
    for name in ("geometry.build_grid", "geometry.integrate", "bundles.higgs_profile"):
        out[f"{name}.calls"] = calls.get(name, 0) / passes
    for key, value in counts.items():
        out[key] = value / passes
    out["vortex.s_per_newton_iter"] = ratio(
        self_s.get("vortex.solve_vortex", 0.0), counts["vortex.newton_iters"]
    )
    out["gravitating.s_per_newton_iter"] = ratio(
        self_s.get("gravitating.solve_gravitating", 0.0), counts["gravitating.newton_iters"]
    )
    out["obstructions.configs_per_s"] = ratio(
        calls.get("obstructions.stability_check", 0),
        sum(inclusive.get("obstructions.stability_check", [])),
    )
    return out
