"""Library-user script of the ``solve-vertical`` workload.

Solves S(z) with ``lsdlab.solve_curve`` along vertical chains (three real
parts, twenty heights each), on constant semicircle grids whose exact
transform is known, and on step-profile densities whose rank-one reduction
``lsdlab.solve_product_form`` gives a second answer at the same points.

Run: PYTHONPATH=src python3 perfbench/vertical.py INPUT.json OUTPUT.json

INPUT.json holds ``{"levels": [[...], ...]}``, the step levels of each
profile. OUTPUT.json receives the largest oracle error, the largest gap
between the scalar and the full solve, and the work counts of both solvers.
Every lsdlab name is looked up on the package at call time, so a caller
that replaces a public function sees each call.
"""

import json
import sys

import numpy as np

import lsdlab as L

SIGMA2 = (0.25, 1.0, 4.0)
SEMICIRCLE_GRID = 256
PROFILE_GRID = 128
REAL_PARTS = (-1.5, 0.0, 0.7)
HEIGHTS = np.geomspace(0.05, 10.0, 20)


def vertical_contour():
    return (np.array(REAL_PARTS)[:, None] + 1j * HEIGHTS[None, :]).ravel()


def run(levels):
    contour = vertical_contour()
    oracle_err = 0.0
    product_gap = 0.0
    column_iterations = 0
    scalar_iterations = 0
    for sigma2 in SIGMA2:
        grid = L.DensityGrid(SEMICIRCLE_GRID, np.full((SEMICIRCLE_GRID,) * 2, sigma2))
        curve = L.solve_curve(grid, contour)
        exact = np.array([L.semicircle_transform(sigma2, z) for z in curve.z])
        oracle_err = max(oracle_err, float(np.abs(curve.S - exact).max()))
        column_iterations += int(curve.iterations.sum())
    for steps in levels:
        t = L.profile_from_steps(steps, PROFILE_GRID)
        curve = L.solve_curve(L.density_from_profile(t), contour)
        column_iterations += int(curve.iterations.sum())
        for z, s_full in zip(curve.z, curve.S):
            scalar = L.solve_product_form(t, z)
            product_gap = max(product_gap, abs(scalar.S - s_full))
            scalar_iterations += scalar.iterations
    return {
        "oracle_err": oracle_err,
        "product_gap": product_gap,
        "points": len(contour) * (len(SIGMA2) + len(levels)),
        "column_iterations": column_iterations,
        "product_form_iterations": scalar_iterations,
    }


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: vertical.py INPUT.json OUTPUT.json", file=sys.stderr)
        return 2
    with open(args[0]) as fh:
        levels = json.load(fh)["levels"]
    result = run(levels)
    with open(args[1], "w") as fh:
        json.dump(result, fh, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
