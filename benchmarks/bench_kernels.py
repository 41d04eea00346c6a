#!/usr/bin/env python3
"""Benchmark the numba kernels against the pure-numpy fallback.

Times the two patch-synthesis hot paths on representative workloads:
  * moving-average patch synthesis at matrix scale
  * bilinear patch synthesis at matrix scale

Run: python benchmarks/bench_kernels.py [--repeat 5]
"""

import argparse
import time

from lsdlab import _kernels as K
from lsdlab import FilterCoefficients, VolterraCoefficients
from lsdlab.simulate import generate_linear_patch, generate_volterra_patch


def best_of(fn, repeat):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def bench_patches(repeat):
    rows = []
    filt = FilterCoefficients.from_entries(
        {(u, v): 0.6 ** (abs(u) + abs(v)) for u in range(-2, 3) for v in range(-2, 3)}
    )
    volt = VolterraCoefficients(
        {((0, 0), (1, 0)): 1.0, ((1, 1), (0, 2)): -0.5, ((2, 0), (0, 1)): 0.25}
    )

    def run_linear(kernel):
        saved = K.linear_patch
        K.linear_patch = kernel
        try:
            generate_linear_patch(filt, 1000, seed=1)
        finally:
            K.linear_patch = saved

    def run_volterra(kernel):
        saved = K.volterra_patch
        K.volterra_patch = kernel
        try:
            generate_volterra_patch(volt, 1000, seed=1)
        finally:
            K.volterra_patch = saved

    rows.append(("linear patch n=1000, 5x5 taps", "numpy", best_of(lambda: run_linear(K.linear_patch_numpy), repeat)))
    if K.HAVE_NUMBA:
        run_linear(K.linear_patch_numba)
        rows.append(("linear patch n=1000, 5x5 taps", "numba", best_of(lambda: run_linear(K.linear_patch_numba), repeat)))
    rows.append(("bilinear patch n=1000, 3 entries", "numpy", best_of(lambda: run_volterra(K.volterra_patch_numpy), repeat)))
    if K.HAVE_NUMBA:
        run_volterra(K.volterra_patch_numba)
        rows.append(("bilinear patch n=1000, 3 entries", "numba", best_of(lambda: run_volterra(K.volterra_patch_numba), repeat)))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repeat", type=int, default=5, help="best-of repetitions")
    args = parser.parse_args()
    print(f"active backend: {K.BACKEND} (numba available: {K.HAVE_NUMBA})")
    rows = bench_patches(args.repeat)
    width = max(len(r[0]) for r in rows)
    print(f"\n{'workload':<{width}}  backend  best time")
    print("-" * (width + 22))
    baselines = {}
    for name, backend, seconds in rows:
        baselines.setdefault(name, seconds)
        speedup = baselines[name] / seconds
        note = f"  ({speedup:.1f}x vs numpy)" if backend == "numba" else ""
        print(f"{name:<{width}}  {backend:<7}  {seconds * 1e3:8.1f} ms{note}")


if __name__ == "__main__":
    main()
