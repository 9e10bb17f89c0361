"""Command-line entry point: JSON configs in, reports and CSV profiles out.

Exit codes: 0 converged/decided, 1 usage errors, 2 infeasible/obstructed
(with the obstruction named), 3 non-convergence, 4 I/O failures.  Reports
are written atomically and embed the conventions hash, so every number is
traceable to the sign conventions that produced it.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import reporting
from .bundles import TAU_NOT_POSITIVE, HiggsConfig, coupling_errors
from .errors import (
    ConfigurationError,
    GravortexError,
    InfeasibleError,
    ObstructionError,
    WrongRankError,
)
from .geometry import build_grid, check_resolution, round_metric, write_profile_csv
from .gravitating import (
    ContinuationSchedule,
    c_from_integral_identity,
    c_predictions,
    einstein_bogomolnyi_solve,
    gravitating_residual,
    solve_gravitating,
)
from .obstructions import futaki_closed_form, futaki_exact, futaki_quadrature
from .obstructions import obstruction_predicates, stability_check
from .quiver import (
    Arrow,
    Quiver,
    QuiverBundleSpec,
    arrow_profile,
    quiver_vortex_residual,
    trace_identity_check,
    value_name,
)
from .vortex import NewtonOptions, solve_vortex

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_OBSTRUCTED = 2
EXIT_NOT_CONVERGED = 3
EXIT_IO = 4

_ABELIAN_COMMANDS = ("solve-vortex", "solve-gravitating", "eb-solve")

OUTPUT_DIR_ENV = "GRAVORTEX_OUT"

_TOP_KEYS = {"command", "problem", "numerics", "output", "sweep"}
_PROBLEM_KEYS = {"degrees", "exponents", "tau", "alpha", "quiver"}
_NUMERICS_KEYS = {"n", "tolerance", "max_iter", "schedule"}
_OUTPUT_KEYS = {"directory", "formats"}
_FLAT_SUGAR = _PROBLEM_KEYS | _NUMERICS_KEYS


class ConfigValidationError(GravortexError):
    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass
class Numerics:
    """Grid size, Newton options and continuation schedule; the defaults of every config."""

    n: int = 129
    newton: NewtonOptions = field(default_factory=NewtonOptions)
    schedule: ContinuationSchedule | None = None  # None: the one step alpha = 0

    def to_json_dict(self) -> dict:
        """n, tolerance and max_iter; the schedule only when given."""
        newton = self.newton
        out = {"n": self.n, "tolerance": newton.tolerance, "max_iter": newton.max_iter}
        if self.schedule is not None:
            out["schedule"] = self.schedule.alphas
        return out


@dataclass
class OutputSpec:
    directory: str = "."
    formats: tuple[str, ...] = ("json", "csv")


@dataclass
class RunConfig:
    """A run configuration and what its command runs on, as :func:`parse_config` builds them.

    ``problem`` and ``sweep`` are the config as given, echoed in the report;
    the command runs on what parse_config built from them once: ``higgs``
    (every command but ``quiver-check`` and ``sweep``), ``sweep_points`` or
    ``quiver_spec``.  :func:`execute` refuses a RunConfig that parse_config
    did not build.
    """

    command: str
    problem: dict = field(default_factory=dict)
    numerics: Numerics = field(default_factory=Numerics)
    output: OutputSpec = field(default_factory=OutputSpec)
    sweep: dict | None = None
    higgs: HiggsConfig | None = field(default=None, init=False, repr=False, compare=False)
    # (swept values, HiggsConfig) per sweep point
    sweep_points: list[tuple[tuple, HiggsConfig]] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    quiver_spec: QuiverBundleSpec | None = field(
        default=None, init=False, repr=False, compare=False
    )
    built: bool = field(default=False, init=False, repr=False, compare=False)
    override_obstruction: bool = False

    def to_json_dict(self) -> dict:
        out = {
            "command": self.command,
            "problem": dict(self.problem),
            "numerics": self.numerics.to_json_dict(),
            "output": {"directory": self.output.directory, "formats": self.output.formats},
        }
        if self.sweep is not None:
            out["sweep"] = self.sweep
        return out


def _collect(errors: list[str], build, *args, **kwargs):
    """build(*args, **kwargs), or None after appending the message of the config error it raised."""
    try:
        return build(*args, **kwargs)
    except (ConfigurationError, WrongRankError) as exc:
        errors.append(str(exc))
        return None


# where each QuiverBundleSpec value sits in the config
_QUIVER_PATHS = {
    "ranks": "problem.quiver.ranks.{}",
    "degrees": "problem.quiver.degrees.{}",
    "section_exponents": "problem.quiver exponent of arrow {!r}",
    "rho": "problem.quiver.rho",
    "sigma": "problem.quiver.sigma.{}",
    "tau": "problem.quiver.tau.{}",
    "section_scales": "problem.quiver scale of arrow {!r}",
}


def _quiver_spec(q, errors: list[str]) -> QuiverBundleSpec | None:
    """problem.quiver as a QuiverBundleSpec; None after appending its config error.

    ``ranks`` defaults to 1 at every vertex, ``rho`` to 1 and an arrow's
    ``scale`` to 1; an arrow without ``exponent`` carries the zero section.
    QuiverBundleSpec checks every value; its message names the value by
    its path in the config.
    """
    where = "problem.quiver"
    try:
        if not isinstance(q, dict):
            raise ConfigurationError(f"{where} must be an object, got {q!r}")
        arrows, vertices = q["arrows"], q["vertices"]
        if not isinstance(vertices, list):
            raise ConfigurationError(f"{where}.vertices must be a list, got {vertices!r}")
        quiver = Quiver(
            vertices=tuple(vertices),
            arrows=tuple(Arrow(name=a["id"], tail=a["tail"], head=a["head"]) for a in arrows),
        )
        spec = QuiverBundleSpec(
            quiver=quiver,
            ranks=q.get("ranks", dict.fromkeys(quiver.vertices, 1)),
            degrees=q["degrees"],
            section_exponents={a["id"]: a.get("exponent") for a in arrows},
            rho=q.get("rho", 1.0),
            sigma=q["sigma"],
            tau=q["tau"],
            section_scales={a["id"]: a.get("scale", 1.0) for a in arrows},
        )
        spec.require_rank_one("quiver-check")  # quiver_vortex_residual is rank-1 only
        return spec
    except ConfigurationError as exc:
        message = str(exc)
        if exc.field is not None:
            attr, key = exc.field
            message = _QUIVER_PATHS[attr].format(key) + message.removeprefix(value_name(attr, key))
        errors.append(message)
    except KeyError as exc:
        errors.append(f"missing required key in {where}: {exc.args[0]!r}")
    except (TypeError, AttributeError) as exc:
        errors.append(f"{where} is malformed: {exc}")
    return None


def _validate_problem(
    problem: dict, errors: list[str], supplied_later: frozenset = frozenset()
) -> HiggsConfig | None:
    """Append problem's config errors to ``errors``; return its HiggsConfig, if built.

    HiggsConfig checks every value.  When it cannot be built, the errors are
    :func:`~gravortex.bundles.coupling_errors` of tau (1 if absent) and
    alpha, then, when both are numbers, HiggsConfig's own: a tau that is not
    positive is replaced by 1, so that it hides no other error.
    """
    for key in ("degrees", "exponents", "tau"):
        if key not in problem and key not in supplied_later:
            errors.append(f"missing required key: problem.{key}")
    # tau goes in as given, so that an integer tau is echoed as one
    tau, alpha = problem.get("tau", 1.0), problem.get("alpha", 0.0)
    pair = "degrees" in problem and "exponents" in problem
    if pair:
        try:
            return HiggsConfig(problem["degrees"], problem["exponents"], tau, alpha)
        except (ConfigurationError, TypeError, ValueError):
            pass
    couplings = coupling_errors(tau, alpha)
    errors.extend(couplings)
    if pair and set(couplings) <= {TAU_NOT_POSITIVE}:
        tau = 1.0 if couplings else tau
        try:
            return HiggsConfig(problem["degrees"], problem["exponents"], tau, alpha)
        except (ConfigurationError, TypeError, ValueError) as exc:
            errors.append(str(exc))
    return None


def _sweep_points(problem: dict, over: dict, errors: list[str]) -> list[tuple[tuple, HiggsConfig]]:
    """(swept values, HiggsConfig) per point of the product of ``over``'s value lists.

    The fixed problem is checked once.  Each point is one HiggsConfig of the
    fixed values and its swept ones; a point that fails is checked again
    with the fixed problem, for the messages, so that every bad swept value
    fails the parse with the other config errors, each message once.
    """
    _validate_problem(problem, errors, supplied_later=frozenset(over))
    fixed = {
        k: tuple(problem[k]) if type(problem[k]) is list else problem[k]
        for k in ("degrees", "exponents", "tau", "alpha")
        if k in problem and k not in over
    }
    keys = sorted(over)
    points = []
    for combo in itertools.product(*(over[k] for k in keys)):
        swept = dict(zip(keys, combo))
        try:
            point = HiggsConfig(**fixed, **swept)
        except (ConfigurationError, TypeError, ValueError):
            point, point_errors = None, []
            _validate_problem({**problem, **swept}, point_errors)
            errors.extend(e for e in point_errors if e not in errors)
        points.append((combo, point))
    return points


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Flat problem/numerics keys at the top level are accepted as sugar for
    the nested groups.  All validation errors are collected and reported
    together, not just the first.
    """
    try:
        raw = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer literal too long to convert
        raise ConfigValidationError([f"invalid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigValidationError(["configuration must be a JSON object"])

    errors: list[str] = []
    errors.extend(f"unknown key: {k!r}" for k in sorted({*raw} - _TOP_KEYS - _FLAT_SUGAR))

    command = raw.get("command")
    if command is None:
        errors.append("missing required key: command")
    elif command not in COMMANDS:
        errors.append(f"unknown command: {command!r} (expected one of {', '.join(COMMANDS)})")

    problem = dict(raw.get("problem", {}))
    numerics_raw = dict(raw.get("numerics", {}))
    for key in _PROBLEM_KEYS & set(raw):
        problem.setdefault(key, raw[key])
    for key in _NUMERICS_KEYS & set(raw):
        numerics_raw.setdefault(key, raw[key])

    errors.extend(f"unknown numerics key: {k!r}" for k in sorted({*numerics_raw} - _NUMERICS_KEYS))

    n = numerics_raw.get("n", Numerics.n)
    _collect(errors, check_resolution, n)
    newton_keys = {k: numerics_raw[k] for k in ("tolerance", "max_iter") if k in numerics_raw}
    newton = _collect(errors, NewtonOptions, **newton_keys)
    schedule = None
    if numerics_raw.get("schedule") is not None:
        schedule = _collect(errors, ContinuationSchedule, alphas=numerics_raw["schedule"])

    output_raw = dict(raw.get("output", {}))
    errors.extend(f"unknown output key: {k!r}" for k in sorted({*output_raw} - _OUTPUT_KEYS))
    formats = output_raw.get("formats", list(OutputSpec.formats))
    if not isinstance(formats, list):  # a string is not the list of its characters
        errors.append(f"output.formats must be a list, got {formats!r}")
        formats = []
    for fmt in formats:
        if fmt not in ("json", "csv"):
            errors.append(f"unknown output format: {fmt!r}")
    if not isinstance(output_raw.get("directory", ""), str):
        errors.append(f"output.directory must be a string, got {output_raw['directory']!r}")

    higgs = quiver_spec = None
    sweep_points: list[tuple[tuple, HiggsConfig]] = []
    over = {}
    if command == "sweep":
        sweep = raw.get("sweep")
        over = sweep.get("over") if isinstance(sweep, dict) else None
        if not isinstance(over, dict) or not all(isinstance(v, list) for v in over.values()):
            errors.append("sweep requires a 'sweep' object with an 'over' map of value lists")
            over = {}
    errors.extend(f"unknown problem key: {k!r}" for k in sorted({*problem, *over} - _PROBLEM_KEYS))
    if command == "quiver-check":
        errors.extend(
            f"problem.{k} is not read by quiver-check, which reads only problem.quiver"
            for k in sorted(_PROBLEM_KEYS & {*problem} - {"quiver"})
        )
    elif command in COMMANDS:
        errors.extend(
            f"{where}.quiver is read only by quiver-check, not by {command}"
            for where, keys in (("problem", problem), ("sweep.over", over))
            if "quiver" in keys
        )
    if command == "sweep":
        # the sweep runs on the HiggsConfig of each point
        sweep_points = _sweep_points(problem, over, errors)
    elif command == "quiver-check":
        if "quiver" in problem:
            quiver_spec = _quiver_spec(problem["quiver"], errors)
        else:
            errors.append("missing required key: problem.quiver")
    elif command in COMMANDS:
        higgs = _validate_problem(problem, errors)
        if higgs is not None and command == "futaki":
            _collect(errors, futaki_exact, higgs)  # refuses a vanishing Higgs component
        elif higgs is not None and command in _ABELIAN_COMMANDS:
            _collect(errors, higgs.require_abelian, command)

    if errors:
        raise ConfigValidationError(errors)

    default_dir = os.environ.get(OUTPUT_DIR_ENV, OutputSpec.directory)
    config = RunConfig(
        command=command,
        problem=problem,
        numerics=Numerics(n=n, newton=newton, schedule=schedule),
        output=OutputSpec(
            directory=output_raw.get("directory", default_dir), formats=tuple(formats)
        ),
        sweep=raw.get("sweep"),
    )
    config.higgs, config.sweep_points, config.quiver_spec = higgs, sweep_points, quiver_spec
    config.built = True
    return config


def _want(config: RunConfig, fmt: str) -> bool:
    return fmt in config.output.formats


def _write_profiles(report: dict, outdir: str, grid, stem: str, **columns) -> None:
    """Write each column as the CSV outdir/stem.format(name) and list it in the outputs."""
    for name, values in columns.items():
        path = os.path.join(outdir, stem.format(name))
        write_profile_csv(path, grid.nodes, values, header=f"s,{name}")
        report["outputs"].append(path)


def _exit_code(report: dict, converged: bool) -> int:
    """EXIT_OK, or EXIT_NOT_CONVERGED with the report's status set to not_converged."""
    if converged:
        return EXIT_OK
    report["status"] = "not_converged"
    return EXIT_NOT_CONVERGED


def _run_solve_vortex(config: RunConfig, report: dict, outdir: str) -> int:
    grid = build_grid(config.numerics.n)
    pot, solve_report = solve_vortex(
        grid, round_metric(grid), config.higgs, config.numerics.newton
    )
    report["solver"] = solve_report.to_json_dict()
    if _want(config, "csv"):
        _write_profiles(report, outdir, grid, "vortex_{}.csv", v=pot.v)
    return _exit_code(report, solve_report.converged)


def _run_solve_gravitating(config: RunConfig, report: dict, outdir: str) -> int:
    higgs, numerics = config.higgs, config.numerics
    grid = build_grid(numerics.n)
    schedule = numerics.schedule or ContinuationSchedule(alphas=(0.0,))
    state, cont = solve_gravitating(
        higgs,
        schedule,
        grid,
        override_obstruction=config.override_obstruction,
        newton=numerics.newton,
    )
    report["continuation"] = cont.to_json_dict()
    report["solver"] = cont.final_solve_report().to_json_dict()
    # with no converged step the state is the start guess, not a solution:
    # it gets no checks and no profiles
    solved = any(step.converged for step in cont.steps)
    report["checks"] = None
    if solved:
        r1, r2, c_est = gravitating_residual(grid, state, higgs)
        report["checks"] = {
            "c_est": c_est,
            "c_identity": c_from_integral_identity(grid, state, higgs),
            "c_predictions": c_predictions(higgs, state.alpha),
            "residual_sup": max(float(np.abs(r1).max()), float(np.abs(r2).max())),
        }
    if _want(config, "csv"):
        for k, step in enumerate(cont.steps):
            if step.converged:
                stem = f"gravitating_{{}}_step{k:02d}.csv"
                _write_profiles(report, outdir, grid, stem, u=step.u, v=step.v)
        if solved:
            u, v = state.metric.u, state.bundle.v
            _write_profiles(report, outdir, grid, "gravitating_{}.csv", u=u, v=v)
    return _exit_code(report, cont.converged)


def _run_eb_solve(config: RunConfig, report: dict, outdir: str) -> int:
    grid = build_grid(config.numerics.n)
    result = einstein_bogomolnyi_solve(
        config.higgs,
        grid,
        newton=config.numerics.newton,
        override_obstruction=config.override_obstruction,
    )
    report["einstein_bogomolnyi"] = result.to_json_dict()
    # an unconverged solve's state is not an EB solution: no profiles
    if result.converged and _want(config, "csv"):
        u, v = result.state.metric.u, result.state.bundle.v
        _write_profiles(report, outdir, grid, "eb_{}.csv", u=u, v=v)
    return _exit_code(report, result.converged)


def _run_futaki(config: RunConfig, report: dict, outdir: str) -> int:
    higgs = config.higgs
    # quadrature accuracy budget wants at least the reference resolution
    grid = build_grid(max(config.numerics.n, 257))
    zeros = np.zeros(grid.n)
    report["futaki"] = {
        "quadrature": futaki_quadrature(grid, higgs, zeros, [zeros] * higgs.rank),
        "closed_form": futaki_closed_form(higgs),
        "resolution": grid.n,
    }
    return EXIT_OK


def _run_stability(config: RunConfig, report: dict, outdir: str) -> int:
    verdict = stability_check(config.higgs)
    report["stability"] = verdict.to_json_dict()
    if verdict.obstructed:
        report["status"] = "obstructed"
        report["reasons"] = list(verdict.reasons)
        return EXIT_OBSTRUCTED
    return EXIT_OK


def _run_quiver_check(config: RunConfig, report: dict, outdir: str) -> int:
    spec = config.quiver_spec
    grid = build_grid(config.numerics.n)
    potentials = {v: np.zeros(grid.n) for v in spec.quiver.vertices}
    res = quiver_vortex_residual(spec, potentials, None, grid)
    phi = {}
    herm = {}
    mid = grid.n // 2
    for a in spec.quiver.arrows:
        phi[a.name] = np.array([[math.sqrt(arrow_profile(grid, spec, a)[mid])]])
    for v in spec.quiver.vertices:
        herm[v] = np.eye(1)
    identity = trace_identity_check(spec.quiver, phi, herm, spec.sigma, spec.tau)
    report["quiver"] = {
        "c_est": res.c_est,
        "vertex_residual_sup": {
            v: float(np.abs(r).max()) for v, r in res.vertex_residuals.items()
        },
        "metric_residual_sup": float(np.abs(res.metric_residual).max()),
        "trace_identity_defect_at_midpoint": identity.defect,
    }
    return EXIT_OK


def _run_sweep(config: RunConfig, report: dict, outdir: str) -> int:
    keys = sorted(config.sweep["over"])
    rows = []
    for combo, higgs in config.sweep_points:
        # the predicates alone: a row quotes no reason
        verdict = obstruction_predicates(higgs)
        rows.append(
            dict(
                zip(keys, combo),
                obstructed=verdict.obstructed,
                abelian_window=verdict.abelian_window,
                nonabelian_window=verdict.nonabelian_window,
                balanced=verdict.balanced,
                z_stable=verdict.z_stable,
                futaki_value=verdict.futaki_value,
            )
        )
    report["sweep"] = {"rows": rows, "parameters": keys}
    if _want(config, "csv") and rows:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])  # the header; every row has its keys, in its order
        for row in rows:
            writer.writerow(["%.17g" % v if isinstance(v, float) else str(v) for v in row.values()])
        path = os.path.join(outdir, "sweep_summary.csv")
        reporting.atomic_write_text(path, buf.getvalue())
        report["outputs"].append(path)
    return EXIT_OK


_RUNNERS = {
    "solve-vortex": _run_solve_vortex,
    "solve-gravitating": _run_solve_gravitating,
    "eb-solve": _run_eb_solve,
    "futaki": _run_futaki,
    "stability": _run_stability,
    "quiver-check": _run_quiver_check,
    "sweep": _run_sweep,
}
COMMANDS = tuple(_RUNNERS)


def execute(config: RunConfig) -> tuple[dict, int]:
    """Dispatch a validated configuration and write its report atomically."""
    start = time.perf_counter()
    outdir = config.output.directory
    report = {
        "command": config.command,
        "config": config.to_json_dict(),
        "version": reporting.__version__,
        "conventions_hash": reporting.conventions_hash(),
        "status": "ok",
        "reasons": [],
        "outputs": [],
    }
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:
        report["status"] = "error"
        report["reasons"] = [f"cannot create output directory: {exc}"]
        report["wall_time_seconds"] = time.perf_counter() - start
        return report, EXIT_IO

    try:
        if not config.built:
            raise ConfigurationError(
                f"{config.command}: this RunConfig was not built by parse_config; "
                "build the config with parse_config"
            )
        code = _RUNNERS[config.command](config, report, outdir)
    except ObstructionError as exc:
        report["status"] = "obstructed"
        report["reasons"] = list(exc.reasons)
        code = EXIT_OBSTRUCTED
    except InfeasibleError as exc:
        report["status"] = "infeasible"
        report["reasons"] = [str(exc)]
        code = EXIT_OBSTRUCTED
    except GravortexError as exc:
        report["status"] = "error"
        report["reasons"] = [str(exc)]
        code = EXIT_USAGE

    report["wall_time_seconds"] = time.perf_counter() - start
    if _want(config, "json"):
        path = os.path.join(outdir, "report.json")
        report["outputs"].append(path)  # the file lists itself
        try:
            reporting.atomic_write_json(path, report)
        except OSError as exc:
            report["outputs"].pop()
            print(f"error: cannot write report: {exc}", file=sys.stderr)
            return report, EXIT_IO
    return report, code


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gravortex",
        description="Vortex, coupled-metric, and obstruction computations on the sphere.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON run configuration")
    parser.add_argument("--out", help="output directory (overrides config and env)")
    parser.add_argument(
        "--override-obstruction",
        action="store_true",
        help="run the coupled solver even when an obstruction fires",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, which is not an obstruction
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        with open(args.config) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_IO

    try:
        config = parse_config(text)
    except ConfigValidationError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return EXIT_USAGE

    if args.out:
        config.output.directory = args.out
    config.override_obstruction = args.override_obstruction

    report, code = execute(config)
    print(json.dumps({"status": report["status"], "reasons": report["reasons"]}))
    return code


if __name__ == "__main__":
    sys.exit(main())
