"""Command-line front end.

Subcommands: ``density`` builds a density grid from a model file, ``solve``
runs the self-consistent solver along a contour, ``simulate`` runs a seeded
matrix ensemble, ``compare`` computes distribution/curve distances.

Exit codes: 0 ok, 1 threshold exceeded, 2 bad input, 3 not a density,
4 solver did not converge or failed a postcondition, 5 simulation failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import io
from .errors import InvalidInput, LsdlabError, NoConvergence, NoConvergenceEig, NotADensity
from .simulate import ensemble_esd, field_variance
from .solver import DEFAULT_CONFIG, solve_curve, solve_product_form
from .spectral import (
    covariance_from_volterra,
    density_from_covariance,
    density_from_filter,
    profile_from_density,
    symmetrize_density,
)
from .stieltjes import (
    StieltjesCurve,
    invert_to_distribution,
    kolmogorov_distance,
    levy_distance,
    sup_curve_gap,
)

EXIT_OK = 0
EXIT_THRESHOLD = 1
EXIT_INPUT = 2
EXIT_DENSITY = 3
EXIT_SOLVER = 4
EXIT_SIMULATION = 5


def parse_contour_spec(spec):
    """Parse ``im=eps,re=a:b:count`` into a horizontal contour array."""
    try:
        parts = dict(item.split("=", 1) for item in spec.split(","))
        eps = float(parts.pop("im"))
        re_spec = parts.pop("re")
    except (KeyError, ValueError) as exc:
        raise InvalidInput(f"bad contour spec {spec!r}: {exc}") from exc
    if parts:
        raise InvalidInput(f"bad contour spec {spec!r}: unknown keys {sorted(parts)}")
    if not 0 < eps < np.inf:
        raise InvalidInput(f"contour height must be positive and finite, got {eps}")
    return parse_range_spec(re_spec) + 1j * eps


def parse_range_spec(spec):
    try:
        a, b, count = spec.split(":")
        lo, hi = float(a), float(b)
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError("bounds must be finite")
        return np.linspace(lo, hi, int(count))
    except ValueError as exc:
        raise InvalidInput(f"bad range spec {spec!r}: {exc}") from exc


def _threads():
    raw = os.environ.get("LSD_LAB_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise InvalidInput(f"LSD_LAB_THREADS must be an integer, got {raw!r}")


# Grid flag defaults for model files; a density CSV fixes its own grid.
GRID = 128
VOLTERRA_RADIUS = 8


def _grid_from_model(path, n, radius, symmetrize):
    """Density grid of a model file on an n-point grid (radius: Volterra covariance)."""
    kind, model = io.read_model_file(path)
    if kind == "filter":
        grid = density_from_filter(model, n)
    else:
        table = covariance_from_volterra(model, radius)
        grid = density_from_covariance(table, n)
    if symmetrize:
        grid = symmetrize_density(grid)
    return grid, kind


def _load_density(args):
    """Resolve the solve input: a density CSV (where a grid flag is an error), or a
    model file under the grid flags. Returns the grid and the Volterra radius applied."""
    path = Path(args.input)
    if not path.exists():
        raise InvalidInput(f"no such file: {path}")
    if io._first_line(path).isdigit():
        for name in ("grid", "volterra_radius", "symmetrize"):
            if getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                raise InvalidInput(f"{flag} applies to model files only; {path} is a density CSV")
        return io.read_density_csv(path), None
    n = GRID if args.grid is None else args.grid
    radius = VOLTERRA_RADIUS if args.volterra_radius is None else args.volterra_radius
    return _grid_from_model(path, n, radius, args.symmetrize)[0], radius


def cmd_density(args):
    grid, kind = _grid_from_model(args.model, args.grid, args.volterra_radius, args.symmetrize)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    density_path = out_dir / "density.csv"
    io.write_density_csv(density_path, grid)
    io.write_manifest(
        out_dir / "manifest.json",
        "density",
        {
            "model": str(args.model),
            "model_kind": kind,
            "grid": args.grid,
            "symmetrize": bool(args.symmetrize),
            "volterra_radius": args.volterra_radius,
            "mass": grid.mass,
            "symmetric": grid.is_symmetric(),
        },
        inputs=[args.model],
        outputs=[density_path],
    )
    print(f"wrote {density_path} (N={grid.n}, mass={grid.mass:.6g})")
    return EXIT_OK


def cmd_solve(args):
    contour = parse_contour_spec(args.contour)
    xs = parse_range_spec(args.xs) if args.xs else None
    grid, radius = _load_density(args)
    cfg = io.solver_config_from_file(args.solver_config) if args.solver_config else DEFAULT_CONFIG
    if args.product_form:
        profile = profile_from_density(grid)
        sols = [solve_product_form(profile, z, cfg) for z in contour]
        curve = StieltjesCurve(
            contour, [s.S for s in sols], [s.iterations for s in sols], [s.residual for s in sols]
        )
    else:
        curve = solve_curve(grid, contour, cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    curve_path = out_dir / "curve.csv"
    io.write_curve_csv(curve_path, curve)
    outputs = [curve_path]
    extra = {}
    eps = float(contour[0].imag)
    lo, hi = float(contour.real.min()), float(contour.real.max())
    if xs is None and len(contour) >= 2 and hi - lo > 10 * eps:
        xs = np.linspace(lo + 5 * eps, hi - 5 * eps, 801)
    if xs is not None:  # else the contour is too narrow to invert; emit the curve only
        table = invert_to_distribution(curve, xs)
        table_path = out_dir / "distribution.csv"
        io.write_table_csv(table_path, table)
        outputs.append(table_path)
        if table.uncaptured > 1e-3:
            print(f"note: {table.uncaptured:.4g} probability mass outside the grid window")
        extra["uncaptured_mass"] = table.uncaptured
    io.write_manifest(
        out_dir / "manifest.json",
        "solve",
        {
            "input": str(args.input),
            "grid": grid.n,
            "contour": args.contour,
            "symmetrize": bool(args.symmetrize),
            "product_form": bool(args.product_form),
            "volterra_radius": radius,
            "mass": grid.mass,
            "symmetric": grid.is_symmetric(),
            "max_residual": float(curve.residuals.max()),
            "max_iterations_used": int(curve.iterations.max()),
        },
        inputs=[args.input] + ([args.solver_config] if args.solver_config else []),
        outputs=outputs,
        extra=extra,
    )
    print(f"wrote {curve_path} ({len(curve)} points, max residual {curve.residuals.max():.3e})")
    return EXIT_OK


def cmd_simulate(args):
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.replicates is not None:
        overrides["replicates"] = args.replicates
    cfg, model_path = io.ensemble_config_from_file(args.config, overrides)
    contour = parse_contour_spec(args.contour) if args.contour else None
    result = ensemble_esd(cfg, contour=contour, threads=_threads())
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    eig_path = out_dir / "eigenvalues.csv"
    esd_path = out_dir / "esd.csv"
    curve_path = out_dir / "curve.csv"
    log_path = out_dir / "runlog.jsonl"
    io.write_eigenvalues_csv(eig_path, result.replicate_eigenvalues)
    io.write_table_csv(esd_path, result.table)
    io.write_curve_csv(curve_path, result.curve)
    log_path.unlink(missing_ok=True)
    io.append_runlog(log_path, result.records)
    io.write_manifest(
        out_dir / "manifest.json",
        "simulate",
        {
            "config": str(args.config),
            "model": str(model_path),
            "n": cfg.n,
            "replicates": cfg.replicates,
            "seed": cfg.seed,
            "symmetrization": cfg.symmetrization,
            "innovation": cfg.innovation,
            "field_variance": field_variance(cfg.model),
        },
        inputs=[args.config, model_path],
        outputs=[eig_path, esd_path, curve_path],
        extra={"outside_hypotheses": result.outside_hypotheses},
    )
    print(
        f"wrote {eig_path} ({cfg.replicates} x {cfg.n} eigenvalues, "
        f"outside_hypotheses={str(result.outside_hypotheses).lower()})"
    )
    return EXIT_OK


def _sniff_kind(path):
    kind = {io.TABLE_HEADER: "table", io.CURVE_HEADER: "curve"}.get(io._first_line(path))
    if kind is None:
        raise InvalidInput(f"{path}: neither a table nor a curve CSV")
    return kind


def cmd_compare(args):
    kind_a = _sniff_kind(args.a) if args.kind == "auto" else args.kind
    kind_b = _sniff_kind(args.b) if args.kind == "auto" else args.kind
    if kind_a != kind_b:
        raise InvalidInput(f"cannot compare a {kind_a} with a {kind_b}")
    failed = False
    if kind_a == "table":
        ta, tb = io.read_table_csv(args.a), io.read_table_csv(args.b)
        lev = levy_distance(ta, tb)
        kol = kolmogorov_distance(ta, tb)
        print(f"levy={lev:.17g}")
        print(f"kolmogorov={kol:.17g}")
        if args.threshold_levy is not None and lev > args.threshold_levy:
            failed = True
        if args.threshold_k is not None and kol > args.threshold_k:
            failed = True
    else:
        ca, cb = io.read_curve_csv(args.a), io.read_curve_csv(args.b)
        gap = sup_curve_gap(ca, cb)
        print(f"sup_curve_gap={gap:.17g}")
        if args.threshold_gap is not None and gap > args.threshold_gap:
            failed = True
    return EXIT_THRESHOLD if failed else EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lsdlab",
        description=(
            "Limiting spectral distributions of symmetric random matrices "
            "with stationary correlated entries"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_density = sub.add_parser("density", help="build a density grid from a model file")
    p_density.add_argument("model", help="coefficient table (u v a | u1 u2 v1 v2 b)")
    p_density.add_argument("--grid", type=int, default=GRID, metavar="N")
    p_density.add_argument("--symmetrize", action="store_true")
    p_density.add_argument("--volterra-radius", type=int, default=VOLTERRA_RADIUS, metavar="R")
    p_density.add_argument("--out-dir", default=".")
    p_density.set_defaults(func=cmd_density)

    p_solve = sub.add_parser("solve", help="solve S(z) on a contour")
    p_solve.add_argument("input", help="density CSV or model file")
    p_solve.add_argument("--contour", required=True, metavar="im=EPS,re=A:B:COUNT")
    # grid flags apply to model files only; None marks a flag not given
    p_solve.add_argument("--grid", type=int, metavar="N", help=f"default {GRID}")
    p_solve.add_argument("--symmetrize", action="store_true", default=None)
    p_solve.add_argument("--product-form", action="store_true")
    p_solve.add_argument("--volterra-radius", type=int, metavar="R", help=f"default {VOLTERRA_RADIUS}")
    p_solve.add_argument("--solver-config", default=None, metavar="FILE")
    p_solve.add_argument("--xs", default=None, metavar="A:B:COUNT")
    p_solve.add_argument("--out-dir", default=".")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="run a seeded matrix ensemble")
    p_sim.add_argument("config", help="key=value ensemble config")
    p_sim.add_argument("--contour", default=None, metavar="im=EPS,re=A:B:COUNT")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--replicates", type=int, default=None)
    p_sim.add_argument("--out-dir", default=".")
    p_sim.set_defaults(func=cmd_simulate)

    p_cmp = sub.add_parser("compare", help="distances between tables or curves")
    p_cmp.add_argument("a")
    p_cmp.add_argument("b")
    p_cmp.add_argument("--kind", choices=("auto", "table", "curve"), default="auto")
    p_cmp.add_argument("--threshold-k", type=float, default=None)
    p_cmp.add_argument("--threshold-levy", type=float, default=None)
    p_cmp.add_argument("--threshold-gap", type=float, default=None)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except NotADensity as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DENSITY
    except NoConvergence as exc:
        print(
            f"error: no convergence (stage={exc.stage}, height={exc.height}, "
            f"residual={exc.residual}): {exc}",
            file=sys.stderr,
        )
        return EXIT_SOLVER
    except NoConvergenceEig as exc:
        print(f"error: simulation failed: {exc}", file=sys.stderr)
        return EXIT_SIMULATION
    except (InvalidInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LsdlabError as exc:
        # any other library error is a failed postcondition: solver trouble
        # in solve, simulation trouble in simulate
        print(f"error: {exc}", file=sys.stderr)
        return {"solve": EXIT_SOLVER, "simulate": EXIT_SIMULATION}.get(args.command, EXIT_INPUT)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
