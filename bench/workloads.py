"""The three workloads: jobs made from a seed, and the check of every operation.

A job is one CLI run through ``gravortex.cli.parse_config`` and
``gravortex.cli.execute`` (or, for the rank-2 residual, which the CLI does
not expose, one direct call).  A job yields one operation record, except a
``sweep`` job, which yields one per configuration verdict.  The seed
chooses the job order (except in ``highres``) and every input whose value
does not change the amount of work; inputs of the known-fault operations do
not depend on it.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction

import numpy as np

import reference as ref

FAULTS = {
    "abelian-futaki-gate": (
        "abelian two-zero monomials with 2l != N pass the obstruction gate although "
        "their Futaki character 2 pi alpha (2N - tau)(2l - N) is nonzero "
        "(obstructions.py:283, gravitating.py:358)"
    ),
    "highres-stall": (
        "solves at n >= 513 stop on the round-off floor or on the sigma-ratio "
        "degeneracy misfire (gravitating.py:220, gravitating.py:331, vortex.py:157)"
    ),
}

EXIT_OK = 0
EXIT_OBSTRUCTED = 2


def _csv_profile(path: str) -> tuple[np.ndarray, np.ndarray]:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return data[:, 0], data[:, 1]


class Grids:
    """Reference nodes and Clenshaw--Curtis weights per resolution, built at set-up."""

    def __init__(self, sizes):
        self.nodes = {n: ref.chebyshev_nodes(n) for n in sizes}
        self.weights = {n: ref.clenshaw_curtis_weights(n) for n in sizes}


class Job:
    """One closed-loop request; ``run`` is timed, ``outcomes`` checks its result."""

    command = ""
    fault: str | None = None

    def __init__(self, inputs: dict, expected_exit: int):
        self.inputs = inputs
        self.expected_exit = expected_exit

    def record(self, wall, code, errors=(), **extra) -> dict:
        rec = {
            "command": self.command,
            "inputs": self.inputs,
            "wall_s": wall,
            "exit_code": code,
            "expected_exit": self.expected_exit,
            "converged": None,
            "newton_iters": None,
            "residual": None,
            "fault": self.fault,
        }
        rec.update(extra)
        rec["failed"] = code != self.expected_exit or rec.get("obstructed") != rec.get(
            "expected_obstructed"
        )
        rec["errors"] = [] if rec["failed"] else list(errors)
        return rec


class CliJob(Job):
    def __init__(self, config: dict, outdir: str, expected_exit: int, grids: Grids, fault=None):
        super().__init__(config, expected_exit)
        self.command = config["command"]
        self.fault = fault
        self.outdir = outdir
        self.grids = grids
        full = dict(config, output={"directory": outdir})
        self.text = json.dumps(full)

    def run(self, cli):
        start = time.perf_counter()
        report, code = cli.execute(cli.parse_config(self.text))
        return time.perf_counter() - start, (report, code)

    def outcomes(self, wall, raw) -> list[dict]:
        report, code = raw
        return CHECKS[self.command](self, wall, report, code)


def _problem(job):
    p = job.inputs["problem"]
    return p["degrees"], p["exponents"], float(p["tau"])


def _check_solve_vortex(job, wall, report, code):
    solver = report.get("solver", {})
    errors = []
    if code == EXIT_OK:
        (degree,), (ell,), tau = _problem(job)
        n = job.inputs["numerics"]["n"]
        s, v = _csv_profile(os.path.join(job.outdir, "vortex_v.csv"))
        if not np.array_equal(s, job.grids.nodes[n]):
            errors.append("CSV nodes differ from the Gauss-Lobatto nodes")
        mass = ref.integrate_fs(job.grids.weights[n], np.exp(2 * v) * ref.monomial_profile(s, degree, ell))
        want = ref.vortex_higgs_mass(degree, tau)
        if abs(mass - want) > 1e-8 * want:
            errors.append(f"integral |phi|^2_H = {mass!r}, want 2 pi (tau - 2N) = {want!r}")
        if 2 * ell == degree and np.max(np.abs(v - v[::-1])) > 1e-9:
            errors.append("symmetric configuration gave an uneven profile")
    return [
        job.record(
            wall,
            code,
            errors,
            converged=solver.get("converged"),
            newton_iters=solver.get("iterations"),
            residual=solver.get("residual_sup"),
        )
    ]


def _check_solve_gravitating(job, wall, report, code):
    solver = report.get("solver", {})
    errors = []
    if code == EXIT_OK:
        (degree,), _, tau = _problem(job)
        n = job.inputs["numerics"]["n"]
        alpha = job.inputs["numerics"]["schedule"][-1]
        want = ref.coupled_constant(alpha, tau, degree)
        c_est = report["checks"]["c_est"]
        if abs(c_est - want) > 1e-6:
            errors.append(f"c_est {c_est!r}, want 4 - 2 alpha tau N = {want!r}")
        s, u = _csv_profile(os.path.join(job.outdir, "gravitating_u.csv"))
        vol = ref.integrate_fs(job.grids.weights[n], np.exp(2 * u))
        if abs(vol - ref.TWO_PI) > 1e-9:
            errors.append(f"volume {vol!r}, want 2 pi")
    return [
        job.record(
            wall,
            code,
            errors,
            converged=solver.get("converged"),
            newton_iters=solver.get("iterations"),
            residual=solver.get("residual_sup"),
        )
    ]


def _check_eb_solve(job, wall, report, code):
    eb = report.get("einstein_bogomolnyi", {})
    errors = []
    if code == EXIT_OK and abs(eb["alpha_tau_N"] - 2.0) > 1e-6:
        errors.append(f"alpha* tau N = {eb['alpha_tau_N']!r}, want 2")
    return [
        job.record(
            wall,
            code,
            errors,
            converged=eb.get("converged"),
            residual=eb.get("c_value"),
            alpha_evals=len(eb.get("secant_history", [])),
        )
    ]


def _check_futaki(job, wall, report, code):
    (n1, n2), (l1, l2), _ = _problem(job)
    p = job.inputs["problem"]
    want = ref.futaki_rank2(n1, n2, l1, l2, Fraction(p["tau"]), p["alpha"])
    errors = []
    if code == EXIT_OK:
        quad = report["futaki"]["quadrature"]
        if abs(quad - want) > 1e-8 * max(1.0, abs(want)):
            errors.append(f"quadrature {quad!r}, closed form {want!r}")
        if abs(report["futaki"]["closed_form"] - want) > 1e-12 * max(1.0, abs(want)):
            errors.append(f"reported closed form {report['futaki']['closed_form']!r}, want {want!r}")
    return [job.record(wall, code, errors, residual=report.get("futaki", {}).get("quadrature"))]


def _check_quiver(job, wall, report, code):
    errors = []
    quiver = job.inputs["problem"]["quiver"]
    want = ref.quiver_constant(quiver)
    out = report.get("quiver", {})
    if code == EXIT_OK:
        if abs(out["c_est"] - want) > 1e-9 * max(1.0, abs(want)):
            errors.append(f"c_est {out['c_est']!r}, Beta-integral closed form {want!r}")
        scale = max(abs(t) for t in quiver["tau"].values()) ** 2 + 1.0
        if out["trace_identity_defect_at_midpoint"] > 1e-12 * scale:
            errors.append(f"trace identity defect {out['trace_identity_defect_at_midpoint']!r}")
    return [job.record(wall, code, errors, residual=out.get("c_est"))]


def _expected_obstructed(problem: dict, tau: float) -> bool:
    degrees, exponents = problem["degrees"], problem["exponents"]
    if len(degrees) == 1:
        return ref.abelian_obstructed(degrees[0], exponents[0], Fraction(tau), problem["alpha"])
    return ref.rank2_obstructed(*degrees, *exponents, Fraction(tau))


def _gate_fault(problem: dict, tau: float) -> str | None:
    """The known fault an abelian verdict hits: window holds, two zeros, 2l != N."""
    degrees, exponents = problem["degrees"], problem["exponents"]
    if len(degrees) != 1 or problem["alpha"] == 0:
        return None
    degree, ell = degrees[0], exponents[0]
    if tau > 2 * degree and 0 < ell < degree and 2 * ell != degree:
        return "abelian-futaki-gate"
    return None


def _verdict_records(job, wall, code, rows):
    """One record per configuration verdict of a stability or sweep job."""
    p = job.inputs["problem"]
    out = []
    for row in rows:
        errors = []
        if len(p["degrees"]) == 2:
            futaki = ref.futaki_rank2(*p["degrees"], *p["exponents"], Fraction(row["tau"]), p["alpha"])
            if abs(row["futaki_value"] - futaki) > 1e-12 * max(1.0, abs(futaki)):
                errors.append(f"Futaki value {row['futaki_value']!r}, want {futaki!r}")
        rec = job.record(
            wall,
            code,
            errors,
            obstructed=row["obstructed"],
            expected_obstructed=_expected_obstructed(p, row["tau"]),
            tau=row["tau"],
        )
        rec["inputs"] = p  # shared by the rows of a sweep; tau is the row's own
        rec["fault"] = _gate_fault(p, row["tau"])
        out.append(rec)
    return out


def _check_stability(job, wall, report, code):
    verdict = report.get("stability", {})
    row = {
        "tau": job.inputs["problem"]["tau"],
        "obstructed": verdict.get("obstructed"),
        "futaki_value": verdict.get("futaki_value"),
    }
    return _verdict_records(job, wall, code, [row])


def _check_sweep(job, wall, report, code):
    rows = report.get("sweep", {}).get("rows", [])
    if len(rows) != len(job.inputs["sweep"]["over"]["tau"]):
        return [job.record(wall, code, ["sweep returned the wrong number of rows"])]
    return _verdict_records(job, wall, code, rows)


CHECKS = {
    "solve-vortex": _check_solve_vortex,
    "solve-gravitating": _check_solve_gravitating,
    "eb-solve": _check_eb_solve,
    "futaki": _check_futaki,
    "quiver-check": _check_quiver,
    "stability": _check_stability,
    "sweep": _check_sweep,
}


class NonabelianJob(Job):
    """Direct ``nonabelian_residual`` call on a freshly built grid."""

    command = "nonabelian_residual"

    def __init__(self, n, degrees, exponents, tau, v1, v2, off, grids: Grids):
        inputs = {
            "n": n,
            "degrees": list(degrees),
            "exponents": list(exponents),
            "tau": tau,
            "v1": v1.as_dict(),
            "v2": v2.as_dict(),
            "offdiag_cofactor": off,
        }
        super().__init__(inputs, EXIT_OK)
        self.n, self.degrees, self.exponents, self.tau = n, tuple(degrees), tuple(exponents), tau
        self.v1, self.v2 = v1, v2
        s = grids.nodes[n]
        self.s, self.weights = s, grids.weights[n]
        self.v1_values, self.v2_values = v1.value(s), v2.value(s)
        self.off_values = None if off is None else off[0] * (1.0 + off[1] * s)

    def run(self, cli):
        import gravortex

        start = time.perf_counter()
        grid = gravortex.build_grid(self.n)
        config = gravortex.HiggsConfig(degrees=self.degrees, exponents=self.exponents, tau=self.tau)
        cofactor = np.zeros(self.n) if self.off_values is None else self.off_values
        metric = gravortex.NonabelianMetric(self.v1_values, self.v2_values, cofactor)
        result = gravortex.nonabelian_residual(grid, None, metric, config)
        return time.perf_counter() - start, (grid.nodes, result)

    def outcomes(self, wall, raw):
        nodes, res = raw
        s, errors = self.s, []
        if not np.array_equal(nodes, s):
            errors.append("grid nodes differ from the Gauss-Lobatto nodes")
        chern = ref.TWO_PI * sum(self.degrees)
        if abs(res.trace.chern_total - chern) > 1e-8 * chern:
            errors.append(f"Chern total {res.trace.chern_total!r}, want {chern!r}")
        if self.off_values is None:
            r11, r22, r12 = ref.rank2_diagonal_residual(
                s, self.degrees, self.exponents, self.tau, self.v1, self.v2
            )
            dev = max(
                float(np.max(np.abs(res.r11 - r11))),
                float(np.max(np.abs(res.r22 - r22))),
                float(np.max(np.abs(np.abs(res.offdiag) - r12))),
            )
            if dev > 1e-8:
                errors.append(f"zero cofactor deviates from the diagonal residual by {dev:.3e}")
            off_mod = np.zeros_like(s)
        else:
            weight = abs(self.exponents[0] - self.exponents[1])
            off_mod = self.off_values * (1.0 - s * s) ** (weight / 2.0)
        rhs = ref.rank2_trace_rhs(
            self.weights, s, self.degrees, self.exponents, self.tau,
            self.v1_values, self.v2_values, off_mod,
        )
        lhs = ref.integrate_fs(self.weights, res.r11 + res.r22)
        if abs(res.trace.lhs - rhs) > 1e-8 or abs(lhs - res.trace.lhs) > 1e-9:
            errors.append(f"trace identity: lhs {res.trace.lhs!r} / {lhs!r}, rhs {rhs!r}")
        return [self.record(wall, EXIT_OK, errors, residual=res.trace.defect)]


# ---------------------------------------------------------------------------
# workload construction


def _shuffled(jobs, rng):
    return [jobs[i] for i in rng.permutation(len(jobs))]


def continuation(rng, outroot, reduced=False):
    lo, hi = (65, 65) if reduced else (129, 257)
    grids = Grids({lo, hi})
    sym = {"degrees": [2], "exponents": [1], "tau": 5}
    big = {"degrees": [4], "exponents": [2], "tau": 9}
    to_eb = [0.04 * k for k in range(6)]  # five steps to alpha tau N = 2
    big_eb = [k / 90 for k in range(6)]
    specs = [
        ({"command": "solve-vortex", "problem": sym, "numerics": {"n": lo}}, EXIT_OK, None),
        ({"command": "solve-vortex", "problem": sym, "numerics": {"n": hi}}, EXIT_OK, None),
        ({"command": "solve-gravitating", "problem": sym, "numerics": {"n": lo, "schedule": to_eb}}, EXIT_OK, None),
        ({"command": "solve-gravitating", "problem": sym, "numerics": {"n": hi, "schedule": to_eb}}, EXIT_OK, None),
        ({"command": "solve-gravitating", "problem": big, "numerics": {"n": lo, "schedule": big_eb}}, EXIT_OK, None),
        ({"command": "eb-solve", "problem": sym, "numerics": {"n": lo}}, EXIT_OK, None),
        ({"command": "eb-solve", "problem": sym, "numerics": {"n": hi}}, EXIT_OK, None),
        (
            {
                "command": "solve-gravitating",
                "problem": {"degrees": [3], "exponents": [1], "tau": 7},
                "numerics": {"n": lo, "schedule": [0, 0.05]},
            },
            EXIT_OBSTRUCTED,
            "abelian-futaki-gate",
        ),
    ]
    jobs = [
        CliJob(cfg, os.path.join(outroot, f"job{i:02d}"), code, grids, fault)
        for i, (cfg, code, fault) in enumerate(specs)
    ]
    return _shuffled(jobs, rng)


def landscape(rng, outroot, reduced=False):
    max_degree, tau_halves, single_halves = (2, 8, 3) if reduced else (4, 96, 23)
    alpha = round(float(rng.uniform(0.5, 2.0)), 3)
    grids = Grids(set())
    pairs = [((n,), (l,), 1.0) for n in range(1, max_degree + 1) for l in range(n + 1)]
    pairs += [
        ((n1, n2), (l1, l2), alpha)
        for n1 in range(1, max_degree + 1)
        for n2 in range(n1, max_degree + 1)
        for l1 in range(n1 + 1)
        for l2 in range(n2 + 1)
    ]
    jobs = []
    for degrees, exponents, a in pairs:
        problem = {"degrees": list(degrees), "exponents": list(exponents), "alpha": a}
        # abelian and small rank-2 pairs take half-integer tau <= 12 as single
        # stability jobs; all other verdicts of a pair come from one sweep, so
        # that file writes stay a minor share of the pass
        singles = range(1, single_halves + 1, 2) if len(degrees) == 1 or max(degrees) <= 2 else ()
        taus = [k / 2 for k in range(1, tau_halves + 1) if k not in singles]
        sweep = {"command": "sweep", "problem": problem, "sweep": {"over": {"tau": [taus[i] for i in rng.permutation(len(taus))]}}}
        jobs.append(CliJob(sweep, os.path.join(outroot, f"job{len(jobs):04d}"), EXIT_OK, grids))
        for k in singles:
            cfg = {"command": "stability", "problem": dict(problem, tau=k / 2)}
            code = EXIT_OBSTRUCTED if _expected_obstructed(problem, k / 2) else EXIT_OK
            jobs.append(CliJob(cfg, os.path.join(outroot, f"job{len(jobs):04d}"), code, grids))
    return _shuffled(jobs, rng)


def highres(rng, outroot, reduced=False):
    futaki_n = (129, 129, 129) if reduced else (1025, 2049, 4097)
    big = 129 if reduced else 4097
    mid = 129 if reduced else 1025
    solve_n = (129, 129) if reduced else (513, 1025)
    grids = Grids({big, mid, *solve_n})
    specs = []
    for n in futaki_n:
        n1 = int(rng.integers(1, 5))
        n2 = int(rng.integers(n1, 5))
        problem = {
            "degrees": [n1, n2],
            "exponents": [int(rng.integers(0, n1 + 1)), int(rng.integers(0, n2 + 1))],
            "tau": int(rng.integers(1, 25)) / 2,
            "alpha": round(float(rng.uniform(0.1, 2.0)), 3),
        }
        specs.append(({"command": "futaki", "problem": problem, "numerics": {"n": n}}, EXIT_OK, None))
    degree = int(rng.integers(1, 5))
    quiver = {
        "vertices": ["a", "b"],
        "arrows": [
            {
                "id": "x",
                "tail": "a",
                "head": "b",
                "exponent": int(rng.integers(0, degree + 1)),
                "scale": round(float(rng.uniform(0.5, 1.5)), 3),
            }
        ],
        "degrees": {"a": 0, "b": degree},
        "sigma": {"a": round(float(rng.uniform(0.5, 2.0)), 3), "b": round(float(rng.uniform(0.5, 2.0)), 3)},
        "tau": {"a": round(float(rng.uniform(0.0, 3.0)), 3), "b": round(float(rng.uniform(0.0, 3.0)), 3)},
        "rho": round(float(rng.uniform(0.05, 0.5)), 3),
    }
    specs.append(({"command": "quiver-check", "problem": {"quiver": quiver}, "numerics": {"n": big}}, EXIT_OK, None))
    sym = {"degrees": [2], "exponents": [1], "tau": 5}
    for n in solve_n:
        specs.append(({"command": "solve-vortex", "problem": sym, "numerics": {"n": n}}, EXIT_OK, "highres-stall"))
        specs.append(
            (
                {"command": "solve-gravitating", "problem": sym, "numerics": {"n": n, "schedule": [0, 0.05, 0.1]}},
                EXIT_OK,
                "highres-stall",
            )
        )
    jobs = [
        CliJob(cfg, os.path.join(outroot, f"job{i:02d}"), code, grids, fault)
        for i, (cfg, code, fault) in enumerate(specs)
    ]

    def profile():
        return ref.TrigProfile(
            round(float(rng.uniform(-0.15, 0.15)), 4),
            round(float(rng.uniform(-0.15, 0.15)), 4),
            round(float(rng.uniform(0.5, 3.0)), 4),
        )

    for n, with_off in ((big, True), (mid, False)):
        degree = int(rng.integers(1, 4))
        exponents = (int(rng.integers(0, degree + 1)), int(rng.integers(0, degree + 1)))
        tau = round(2 * degree + float(rng.uniform(0.5, 4.0)), 3)
        off = (round(float(rng.uniform(0.05, 0.25)), 4), round(float(rng.uniform(-0.3, 0.3)), 4)) if with_off else None
        jobs.append(NonabelianJob(n, (degree, degree), exponents, tau, profile(), profile(), off, grids))
    # fixed order: which large arrays are still alive when the next grid is
    # built sets the peak resident set
    return jobs


WORKLOADS = {"continuation": continuation, "landscape": landscape, "highres": highres}
