#!/usr/bin/env python3
"""lsdlab benchmark: four workloads run through the real CLI, one command at a time.

Run from the repository root:

    python3 perfbench/run.py --workload solve-ma3 --seed 1 --seconds 20 --trace 0

Workloads (inputs are generated here, from ``--seed``):

* ``solve-ma3``: ``solve`` on the 3-tap moving average at the README contour.
  All work is in the solver; the control for simulate work.
* ``simulate-ma3``: ``simulate`` of the same model, wigner, gaussian, 5 x 1000.
  Eigensolve and patch synthesis dominate; the control for solver work.
* ``verify-bilinear``: ``density`` of the bilinear model, ``solve`` on that
  ``density.csv``, ``simulate`` of the additive ensemble, then ``compare``
  under ``--threshold-k 0.08`` (acceptance criterion 10 as a CLI pipeline).
* ``solve-vertical``: ``perfbench/vertical.py``, a library-user script that
  solves along vertical chains (the solver's warm start) and checks the
  semicircle oracle and the product-form reduction.

Each run is a closed loop with one client: the workload's commands run one
after another, each as a fresh process, until ``--seconds`` have passed.

``--trace 0`` times every command with nothing traced and prints the
end-to-end metrics: ``wall_s`` (median time of one pass of the workload),
``setup_s`` (median time of a fresh interpreter doing ``import lsdlab.cli``)
and ``peak_rss_mb`` (largest resident set of any child). Both times are
scaled by a reference program timed next to each pass (see ``REFERENCE``);
the raw times and each command's own time are printed above the result with
their median, maximum and sample count.

``--trace 1`` alternates untraced passes with traced ones. A traced pass runs
each command in its own process through ``trace_child.py``, which calls
``lsdlab.cli.main`` in-process with the public functions of each layer
wrapped. It prints the per-layer metrics, medians over traced passes, and
``trace.overhead_s``, the traced pass time minus the untraced one.

Every output is checked (row counts, residuals, a monotone CDF, byte-identical
reruns, the criterion gates); a nonzero exit or a failed check counts the
command as failed. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The full record,
spans included, goes to ``perfbench/results/``.
"""

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
PYTHON = sys.executable

WORKLOADS = ("solve-ma3", "simulate-ma3", "verify-bilinear", "solve-vertical")
# Seeds of the acceptance criteria the workloads mirror (7 and 9, 10, 5).
DEFAULT_SEEDS = {
    "solve-ma3": 20240501,
    "simulate-ma3": 20240501,
    "verify-bilinear": 999,
    "solve-vertical": 5150,
}

MA3_MODEL = "0 0 1.0\n1 0 1.0\n0 1 1.0\n"
BILINEAR_MODEL = "0 0 1 0 1.0\n"
CONTOUR = "im=0.05,re=-9:9:121"
CONTOUR_POINTS = 121
GRID = 128
MATRIX_ORDER = 1000
REPLICATES = 5
STEP_PROFILES = 10  # as many as acceptance criterion 5, which also averages out the draw
SIMULATE_OUTPUTS = ("eigenvalues.csv", "esd.csv", "curve.csv", "manifest.json")

RESIDUAL_GATE = 1e-10
KOLMOGOROV_GATE = 0.08
ORACLE_GATE = 1e-8
PRODUCT_GAP_GATE = 1e-7

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 120.0

# Host speed on a shared VM drifts by tens of percent within minutes: on a
# 2-vCPU VM the median solve-ma3 pass of a 25 s run ranged over 1.22-1.76 s
# across ten runs, and import time moved with it. So a fixed reference
# program that runs no lsdlab code (interpreter start, numpy import, a
# small-matvec fixed-point loop, one eigensolve: the kinds of work set-up,
# solver and simulate do) is timed next to every pass and set-up sample, and
# end-to-end times are reported as measured * REFERENCE_NOMINAL_S / reference,
# i.e. in seconds on a host where the reference takes REFERENCE_NOMINAL_S.
REFERENCE = """
import numpy as np
b = np.linspace(0.0, 1.0, 128 * 128).reshape(128, 128)
g = np.full(128, 0.5)
for _ in range(8000):
    g = 1.0 / (1.0 + b @ g / 128.0)
m = np.linspace(-1.0, 1.0, 700 * 700).reshape(700, 700)
np.linalg.eigvalsh(m + m.T)
"""
REFERENCE_NOMINAL_S = 0.3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CHECKS = ("check.max_residual", "check.kolmogorov", "check.levy", "check.oracle_err", "check.product_gap")
TIMED_SPANS = (
    "cli.main",
    "io.read",
    "io.write",
    "spectral.density",
    "spectral.covariance",
    "solver.solve_curve",
    "solver.product_form",
    "simulate.ensemble",
    "simulate.patch",
    "simulate.assemble",
    "simulate.eigvalsh",
    "stieltjes.invert",
    "stieltjes.empirical_curve",
    "stieltjes.table",
    "stieltjes.levy",
    "stieltjes.kolmogorov",
)
CLI_COMMANDS = ("density", "solve", "simulate", "compare")
COUNTERS = (
    "io.bytes_written",
    "io.files_written",
    "solver.points",
    "solver.column_iterations",
    "solver.stages",
    "solver.kernel_flops_computed",
    "solver.kernel_bytes_computed",
    "solver.product_form_iterations",
    "simulate.eig_flops_computed",
    "simulate.matrix_order",
    "simulate.replicates",
)


def per_layer_units():
    units = {f"{key}_s": "s" for key in TIMED_SPANS}
    units.update({f"cli.{cmd}_s": "s" for cmd in CLI_COMMANDS})
    units.update({"cli.import_s": "s", "cli.self_s": "s", "simulate.ensemble_self_s": "s"})
    units.update({key: "count" for key in COUNTERS})
    units.update(
        {
            "io.bytes_written": "B",
            "solver.kernel_flops_computed": "flop",
            "solver.kernel_bytes_computed": "B",
            "simulate.eig_flops_computed": "flop",
            "solver.us_per_column_iteration": "us",
        }
    )
    units.update({key: "1" for key in CHECKS})
    units.update({"trace.overhead_s": "s", "trace.spans": "count"})
    return units


class CheckFailed(Exception):
    pass


@dataclass
class Outcome:
    code: int
    output: str
    wall_s: float
    rss_mb: float


@dataclass
class Step:
    """One command of a workload: ``python -m lsdlab ARGS`` or the script."""

    name: str
    args: list
    check: Callable[[Outcome], dict]
    script: bool = False

    def command(self):
        if self.script:
            return [PYTHON, str(BENCH / "vertical.py"), *self.args]
        return [PYTHON, "-m", "lsdlab", *self.args]

    def traced_command(self, spans_path):
        mode = "script" if self.script else "cli"
        return [PYTHON, str(BENCH / "trace_child.py"), str(spans_path), mode, *self.args]


# ---------------------------------------------------------------------------
# Output checks. Each returns the check values it measured or raises
# CheckFailed.
# ---------------------------------------------------------------------------


def _rows(path):
    return [line.split(",") for line in path.read_text().splitlines()[1:]]


def check_density(out_dir):
    lines = (out_dir / "density.csv").read_text().splitlines()
    if lines[0] != str(GRID) or len(lines) != GRID + 1:
        raise CheckFailed(f"density.csv: expected a {GRID}-row grid")
    return {}


def check_solve(out_dir):
    curve = _rows(out_dir / "curve.csv")
    if len(curve) != CONTOUR_POINTS:
        raise CheckFailed(f"curve.csv: {len(curve)} rows, expected {CONTOUR_POINTS}")
    residuals = [float(row[5]) for row in curve]
    if not all(math.isfinite(r) and r <= RESIDUAL_GATE for r in residuals):
        raise CheckFailed(f"curve.csv: residual above {RESIDUAL_GATE}: {max(residuals)}")
    cdf = [float(row[2]) for row in _rows(out_dir / "distribution.csv")]
    if any(b < a for a, b in zip(cdf, cdf[1:])):
        raise CheckFailed("distribution.csv: CDF decreases")
    return {"check.max_residual": max(residuals)}


class SimulateCheck:
    """All eigenvalues present, and every rerun byte-identical to the first."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.reference = None

    def __call__(self, outcome):
        rows = _rows(self.out_dir / "eigenvalues.csv")
        if len(rows) != REPLICATES * MATRIX_ORDER:
            raise CheckFailed(f"eigenvalues.csv: {len(rows)} rows, expected {REPLICATES * MATRIX_ORDER}")
        if not all(math.isfinite(float(row[1])) for row in rows):
            raise CheckFailed("eigenvalues.csv: non-finite eigenvalue")
        digests = {
            name: hashlib.sha256((self.out_dir / name).read_bytes()).hexdigest() for name in SIMULATE_OUTPUTS
        }
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            changed = sorted(k for k in digests if digests[k] != self.reference[k])
            raise CheckFailed(f"rerun at the same seed changed {changed}")
        return {}


def check_compare(outcome):
    values = dict(line.split("=", 1) for line in outcome.output.splitlines() if "=" in line)
    try:
        levy, kolmogorov = float(values["levy"]), float(values["kolmogorov"])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"compare printed no distances: {exc}") from exc
    return {"check.levy": levy, "check.kolmogorov": kolmogorov}


def check_vertical(result_path):
    doc = json.loads(result_path.read_text())
    if not doc["oracle_err"] <= ORACLE_GATE:
        raise CheckFailed(f"oracle error {doc['oracle_err']} above {ORACLE_GATE}")
    if not doc["product_gap"] <= PRODUCT_GAP_GATE:
        raise CheckFailed(f"product-form gap {doc['product_gap']} above {PRODUCT_GAP_GATE}")
    return {"check.oracle_err": doc["oracle_err"], "check.product_gap": doc["product_gap"]}


# ---------------------------------------------------------------------------
# Workloads: write the inputs, return the commands.
# ---------------------------------------------------------------------------


def ensemble_config(path, model, seed, symmetrization):
    path.write_text(
        f"n = {MATRIX_ORDER}\nreplicates = {REPLICATES}\nseed = {seed}\nmodel = {model}\n"
        f"symmetrization = {symmetrization}\ninnovation = gaussian\n"
    )


def build_workload(name, work, seed):
    work.mkdir(parents=True)
    if name == "solve-ma3":
        (work / "ma3.txt").write_text(MA3_MODEL)
        out = work / "solve"
        args = ["solve", str(work / "ma3.txt"), "--grid", str(GRID), "--contour", CONTOUR, "--out-dir", str(out)]
        return [Step("solve", args, lambda o: check_solve(out))]
    if name == "simulate-ma3":
        (work / "ma3.txt").write_text(MA3_MODEL)
        ensemble_config(work / "ensemble.txt", "ma3.txt", seed, "wigner")
        out = work / "simulate"
        return [Step("simulate", ["simulate", str(work / "ensemble.txt"), "--out-dir", str(out)], SimulateCheck(out))]
    if name == "verify-bilinear":
        (work / "bilinear.txt").write_text(BILINEAR_MODEL)
        ensemble_config(work / "ensemble.txt", "bilinear.txt", seed, "additive")
        dens, solve, sim = work / "density", work / "solve", work / "simulate"
        return [
            Step(
                "density",
                ["density", str(work / "bilinear.txt"), "--grid", str(GRID), "--symmetrize",
                 "--volterra-radius", "4", "--out-dir", str(dens)],
                lambda o: check_density(dens),
            ),
            Step(
                "solve",
                ["solve", str(dens / "density.csv"), "--contour", CONTOUR, "--out-dir", str(solve)],
                lambda o: check_solve(solve),
            ),
            Step("simulate", ["simulate", str(work / "ensemble.txt"), "--out-dir", str(sim)], SimulateCheck(sim)),
            Step(
                "compare",
                ["compare", str(solve / "distribution.csv"), str(sim / "esd.csv"),
                 "--threshold-k", str(KOLMOGOROV_GATE)],
                check_compare,
            ),
        ]
    if name == "solve-vertical":
        rng = random.Random(seed)
        levels = [[rng.uniform(0.0, 2.0) for _ in range(rng.randint(1, 8))] for _ in range(STEP_PROFILES)]
        (work / "levels.json").write_text(json.dumps({"levels": levels}))
        result = work / "vertical.json"
        return [
            Step("script", [str(work / "levels.json"), str(result)], lambda o: check_vertical(result), script=True)
        ]
    raise ValueError(name)


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


# A user's default is BLAS threads = nproc. On a shared 2-vCPU VM that runs
# the solver's 128 x 128 matvecs on two OpenBLAS threads: in an interleaved
# A/B of eight CLI solves each, two threads took 1.43-1.94 s and one thread
# 1.48-1.76 s. A fresh process's first eigvalsh can also stall for about a
# second at two threads. So every child runs single-threaded.
THREAD_SPLIT = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "LSD_LAB_THREADS": "1"}
THREAD_SPLIT_REASON = (
    "one BLAS thread and one replicate worker: at BLAS threads = nproc the solver's small "
    "matvecs ran on two OpenBLAS threads and solve wall times were unsteady on a shared 2-vCPU VM"
)


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_SPLIT)
    env.pop("LSDLAB_KERNELS", None)
    return env


def spawn(cmd, env, log_path):
    """Run one child to completion; return its exit code, output, wall time and peak RSS."""
    with open(log_path, "w+") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        return Outcome(proc.returncode, log.read(), wall, usage.ru_maxrss / 1024.0)


ENV_PROBE = """
import importlib.util, json, os, platform, numpy as np
blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({
    "python": platform.python_version(),
    "numpy": np.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}",
    "numba_importable": importlib.util.find_spec("numba") is not None,
}))
"""


def environment(env, work):
    out = spawn([PYTHON, "-c", ENV_PROBE], env, work / "env.log")
    info = json.loads(out.output.strip().splitlines()[-1]) if out.code == 0 else {"probe_failed": out.output}
    info["nproc"] = len(os.sched_getaffinity(0))
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "LSD_LAB_THREADS", "PYTHONPATH"):
        info[key] = env[key]
    info["LSDLAB_KERNELS"] = "unset"
    info["thread_split"] = THREAD_SPLIT_REASON
    return info


# ---------------------------------------------------------------------------
# Passes and statistics.
# ---------------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    checks: dict = field(default_factory=dict)

    def record(self, step, outcome):
        """Count one command; run its output check if it exited 0."""
        self.attempted += 1
        try:
            if outcome.code != 0:
                raise CheckFailed(f"exit code {outcome.code}")
            self.checks.update(step.check(outcome))
        except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
            self.failed += 1
            print(f"FAILED {step.name}: {exc}\n{outcome.output[-2000:]}", file=sys.stderr)


def untraced_pass(steps, env, work, tally):
    outcomes = {}
    for step in steps:
        outcome = spawn(step.command(), env, work / f"{step.name}.log")
        tally.record(step, outcome)
        outcomes[step.name] = outcome
    return outcomes


def traced_pass(steps, env, work, tally):
    children, wall = [], 0.0
    for step in steps:
        spans_path = work / f"{step.name}.spans.json"
        spans_path.unlink(missing_ok=True)
        outcome = spawn(step.traced_command(spans_path), env, work / f"{step.name}.traced.log")
        wall += outcome.wall_s
        tally.record(step, outcome)
        if spans_path.exists():
            children.append((step, json.loads(spans_path.read_text())))
    return wall, children


def layer_metrics(children):
    """Per-layer times and counters of one traced pass."""
    out = {key: 0.0 for key in per_layer_units()}
    for step, doc in children:
        spans = doc["spans"]
        for index, (key, start, end, parent) in enumerate(spans):
            ancestor = parent
            while ancestor is not None and spans[ancestor][0] != key:
                ancestor = spans[ancestor][3]
            if ancestor is None and key in TIMED_SPANS:
                out[f"{key}_s"] += end - start  # outermost span of its key
            if key in ("cli.main", "simulate.ensemble"):
                covered = sum(s[2] - s[1] for s in spans if s[3] == index)
                out["cli.self_s" if key == "cli.main" else "simulate.ensemble_self_s"] += end - start - covered
            if key == "cli.main":
                out[f"cli.{step.name}_s"] += end - start
        for key, value in doc["counters"].items():
            out[key] += value
        for key, value in doc["peaks"].items():
            out[key] = max(out[key], value)
        out["trace.spans"] += len(spans)
    iterations = out["solver.column_iterations"]
    out["solver.us_per_column_iteration"] = 1e6 * out["solver.solve_curve_s"] / iterations if iterations else 0.0
    return out


def timed_run(steps, env, work, seconds):
    tally = Tally()
    reference, setup, walls, per_step, rss = [], [], [], {}, []

    def sample_setup():
        # reference first, then set-up, then the pass: each scaled by its own reference
        for code, out in ((REFERENCE, reference), ("import lsdlab.cli", setup)):
            outcome = spawn([PYTHON, "-c", code], env, work / "setup.log")
            if outcome.code != 0:
                raise RuntimeError(f"set-up child failed:\n{outcome.output}")
            out.append(outcome.wall_s)

    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        sample_setup()
        outcomes = untraced_pass(steps, env, work, tally)
        walls.append(sum(o.wall_s for o in outcomes.values()))
        for name, o in outcomes.items():
            per_step.setdefault(f"{name}_s", []).append(o.wall_s)
            rss.append(o.rss_mb)
    while len(setup) < SETUP_SAMPLES:
        sample_setup()
    scale = [REFERENCE_NOMINAL_S / r for r in reference]
    scaled = {
        "wall_s": [w * k for w, k in zip(walls, scale)],
        "setup_s": [t * k for t, k in zip(setup, scale)],
    }
    metrics = {
        "wall_s": statistics.median(scaled["wall_s"]),
        "setup_s": statistics.median(scaled["setup_s"]),
        "peak_rss_mb": max(rss),
    }
    raw = {"reference_s": reference, "wall_s": walls, "setup_s": setup, **per_step}
    print(f"{'measured':<14} {'median':>10} {'max':>10} {'n':>4}  unit")
    for name, values in raw.items():
        print(f"{name:<14} {statistics.median(values):>10.4f} {max(values):>10.4f} {len(values):>4}  s")
    print(f"scaled to a {REFERENCE_NOMINAL_S} s reference:")
    for name, values in scaled.items():
        print(f"{name:<14} {statistics.median(values):>10.4f} {max(values):>10.4f} {len(values):>4}  s")
    print(f"{'peak_rss_mb':<14} {metrics['peak_rss_mb']:>10.1f} {'':>10} {len(rss):>4}  MB")
    print(f"failed_frac    {tally.failed / tally.attempted:.4f} ({tally.failed}/{tally.attempted})")
    for key, value in sorted(tally.checks.items()):
        print(f"{key:<20} {value:.6g}")
    record = {"samples": {**raw, "rss_mb": rss}, "scaled": scaled, "checks": tally.checks}
    return tally, {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, record


def traced_run(steps, env, work, seconds):
    tally = Tally()
    untraced, traced, passes = [], [], []
    deadline = time.perf_counter() + seconds
    k = 0
    while not traced or time.perf_counter() < deadline:
        for traced_side in ((False, True) if k % 2 == 0 else (True, False)):
            if traced_side:
                wall, children = traced_pass(steps, env, work, tally)
                traced.append(wall)
                passes.append(children)
            else:
                untraced.append(sum(o.wall_s for o in untraced_pass(steps, env, work, tally).values()))
        k += 1
    per_pass = [layer_metrics(children) for children in passes]
    units = per_layer_units()
    metrics = {}
    for key in units:
        values = [m[key] for m in per_pass]
        if key in COUNTERS and len(set(values)) > 1:
            tally.failed += 1
            print(f"FAILED counter {key} differs between passes: {values}", file=sys.stderr)
        metrics[key] = statistics.median(values)
    metrics["cli.import_s"] = statistics.median(d["import_s"] for children in passes for _, d in children)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    metrics.update(tally.checks)
    missing = sorted({m for children in passes for _, d in children for m in d["missing"]})
    if missing:
        print(f"wrap targets not found (their spans are dropped): {missing}")
    for key in units:
        print(f"{key:<34} {metrics[key]:>16.6g}  {units[key]}")
    print(f"traced passes {len(traced)}, untraced passes {len(untraced)}")
    spans = [
        {"run": f"pass{i}", "step": step.name, "spans": doc["spans"]}
        for i, children in enumerate(passes)
        for step, doc in children
    ]
    record = {"samples": {"traced_s": traced, "untraced_s": untraced}, "missing": missing, "spans": spans}
    return tally, {k: {"value": metrics[k], "unit": units[k]} for k in units}, record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's acceptance seed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lsdlab" / "__init__.py").is_file():
        print(f"error: no lsdlab sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    work = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        steps = build_workload(args.workload, work, seed)
        env = child_env()
        info = environment(env, work)
        print(json.dumps({"workload": args.workload, "seed": seed, "environment": info}, sort_keys=True))
        warm = spawn([PYTHON, "-c", "import lsdlab.cli"], env, work / "warm.log")  # writes bytecode caches
        if warm.code != 0:
            print(f"error: import lsdlab.cli failed:\n{warm.output}", file=sys.stderr)
            return 1
        run = traced_run if args.trace else timed_run
        tally, metrics, record = run(steps, env, work, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    record.update({"workload": args.workload, "seed": seed, "environment": info, "metrics": metrics})
    (results / f"{args.workload}-seed{seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
