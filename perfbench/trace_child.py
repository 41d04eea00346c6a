"""Traced child of the benchmark: one lsdlab command in-process, with spans.

Run: PYTHONPATH=src python3 perfbench/trace_child.py SPANS.json cli ARGS...
     PYTHONPATH=src python3 perfbench/trace_child.py SPANS.json script ARGS...

``cli`` calls ``lsdlab.cli.main(ARGS)``, the path the ``lsdlab`` command
takes; ``script`` calls ``vertical.main(ARGS)``. Before the call, the public
functions each layer exposes are replaced, in the namespaces their callers
look them up in, by wrappers that record a span (key, start, end, parent) and
work counters read from the returned objects. No lsdlab source changes. A
target that no longer exists is skipped and listed under ``missing``, so the
layer's numbers drop out instead of the run failing. Spans stay in memory and
are written to SPANS.json when the command returns.
"""

import functools
import importlib
import json
import os
import sys
import time


def _points(tracer, args, kwargs, curve):
    n = args[0].n
    iterations = int(curve.iterations.sum())
    tracer.count("solver.points", len(curve))
    tracer.count("solver.column_iterations", iterations)
    # the fixed-point kernel does two real N x N matvecs per column-iteration
    tracer.count("solver.kernel_flops_computed", 4 * n * n * iterations)
    tracer.count("solver.kernel_bytes_computed", 16 * n * n * iterations)


def _stages(tracer, args, kwargs, profile):
    tracer.count("solver.stages", profile.stages)


def _scalar(tracer, args, kwargs, solution):
    tracer.count("solver.product_form_iterations", solution.iterations)


def _eig(tracer, args, kwargs, spec):
    tracer.count("simulate.eig_flops_computed", 4 * spec.n**3 // 3)
    tracer.peak("simulate.matrix_order", spec.n)


def _ensemble(tracer, args, kwargs, result):
    tracer.count("simulate.replicates", len(result.replicate_eigenvalues))


def _written(tracer, args, kwargs, _):
    tracer.count("io.files_written", 1)
    tracer.count("io.bytes_written", os.path.getsize(args[0]))


# (module, attribute, span key, counter hook). Each function is wrapped where
# its caller looks it up: the CLI's own namespace, the simulate module for
# the replicate loop, the package for library scripts.
TARGETS = [
    ("lsdlab.cli", "main", "cli.main", None),
    ("lsdlab.io", "read_model_file", "io.read", None),
    ("lsdlab.io", "read_density_csv", "io.read", None),
    ("lsdlab.io", "read_table_csv", "io.read", None),
    ("lsdlab.io", "read_curve_csv", "io.read", None),
    ("lsdlab.io", "read_keyvalue", "io.read", None),
    ("lsdlab.io", "ensemble_config_from_file", "io.read", None),
    ("lsdlab.io", "solver_config_from_file", "io.read", None),
    ("lsdlab.io", "write_density_csv", "io.write", _written),
    ("lsdlab.io", "write_curve_csv", "io.write", _written),
    ("lsdlab.io", "write_table_csv", "io.write", _written),
    ("lsdlab.io", "write_eigenvalues_csv", "io.write", _written),
    ("lsdlab.io", "write_manifest", "io.write", _written),
    ("lsdlab.io", "append_runlog", "io.write", None),
    ("lsdlab.cli", "density_from_filter", "spectral.density", None),
    ("lsdlab.cli", "density_from_covariance", "spectral.density", None),
    ("lsdlab.cli", "symmetrize_density", "spectral.density", None),
    ("lsdlab.cli", "profile_from_density", "spectral.density", None),
    ("lsdlab", "profile_from_steps", "spectral.density", None),
    ("lsdlab", "density_from_profile", "spectral.density", None),
    ("lsdlab.cli", "covariance_from_volterra", "spectral.covariance", None),
    ("lsdlab.simulate", "covariance_from_volterra", "spectral.covariance", None),
    ("lsdlab.simulate", "covariance_from_filter", "spectral.covariance", None),
    ("lsdlab.cli", "solve_curve", "solver.solve_curve", _points),
    ("lsdlab", "solve_curve", "solver.solve_curve", _points),
    ("lsdlab.solver", "solve_profile", "solver.solve_profile", _stages),
    ("lsdlab.cli", "solve_product_form", "solver.product_form", _scalar),
    ("lsdlab", "solve_product_form", "solver.product_form", _scalar),
    ("lsdlab.cli", "ensemble_esd", "simulate.ensemble", _ensemble),
    ("lsdlab.simulate", "generate_linear_patch", "simulate.patch", None),
    ("lsdlab.simulate", "generate_volterra_patch", "simulate.patch", None),
    ("lsdlab.simulate", "assemble_matrix", "simulate.assemble", None),
    ("lsdlab.simulate", "spectrum", "simulate.eigvalsh", _eig),
    ("lsdlab.simulate", "empirical_curve", "stieltjes.empirical_curve", None),
    ("lsdlab.simulate", "table_from_samples", "stieltjes.table", None),
    ("lsdlab.cli", "invert_to_distribution", "stieltjes.invert", None),
    ("lsdlab.cli", "levy_distance", "stieltjes.levy", None),
    ("lsdlab.cli", "kolmogorov_distance", "stieltjes.kolmogorov", None),
]


class Tracer:
    """Spans and counters of one traced command, kept in memory."""

    def __init__(self):
        self.spans = []  # [key, start, end, parent index or None]
        self.counters = {}
        self.peaks = {}
        self.missing = []
        self._stack = []

    def count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def peak(self, key, value):
        self.peaks[key] = max(self.peaks.get(key, 0), int(value))

    def wrap(self, key, fn, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [key, 0.0, 0.0, self._stack[-1] if self._stack else None]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, args, kwargs, out)
            return out

        return traced

    def install(self, targets=TARGETS):
        for module_name, attr, key, hook in targets:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(key, fn, hook))


def main(argv):
    if len(argv) < 2 or argv[1] not in ("cli", "script"):
        print("usage: trace_child.py SPANS.json cli|script ARGS...", file=sys.stderr)
        return 2
    out_path, mode, args = argv[0], argv[1], argv[2:]
    start = time.perf_counter()
    import lsdlab.cli

    import_s = time.perf_counter() - start
    if mode == "script":
        import vertical

        entry = vertical.main
    tracer = Tracer()
    tracer.install()
    if mode == "cli":
        entry = lsdlab.cli.main  # the wrapped entry point
    code = entry(args)
    with open(out_path, "w") as fh:
        json.dump(
            {
                "exit": code,
                "import_s": import_s,
                "spans": tracer.spans,
                "counters": tracer.counters,
                "peaks": tracer.peaks,
                "missing": tracer.missing,
            },
            fh,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
