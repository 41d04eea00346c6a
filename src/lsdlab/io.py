"""File formats: model tables, CSV serialization, key=value configs, manifests.

All floats are written with 17 significant digits so CSV output round-trips
float64 exactly and repeated runs are byte-identical.
"""

from __future__ import annotations

import json
import math
import platform
from pathlib import Path

import numpy as np

from .errors import InvalidInput
from .solver import DEFAULT_CONFIG, SolverConfig
from .simulate import EnsembleConfig
from .spectral import DensityGrid, FilterCoefficients, VolterraCoefficients
from .stieltjes import DistributionTable, StieltjesCurve

try:  # the interpreter's own SHA-256; hashlib would load OpenSSL for a few digests
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:  # a build without the built-in hashes
        from hashlib import sha256

__all__ = [
    "fmt",
    "read_model_file",
    "write_density_csv",
    "read_density_csv",
    "write_curve_csv",
    "read_curve_csv",
    "write_table_csv",
    "read_table_csv",
    "write_eigenvalues_csv",
    "read_keyvalue",
    "solver_config_from_file",
    "ensemble_config_from_file",
    "write_manifest",
    "append_runlog",
    "sha256_file",
]


def fmt(x):
    return f"{float(x):.17g}"


def _write_text(path, text):
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _first_line(path):
    with open(path) as fh:
        return fh.readline().strip()


def _data_lines(path):
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield lineno, line


def read_model_file(path):
    """Parse a coefficient table: ``u v a`` rows (filter) or ``u1 u2 v1 v2 b``
    rows (bilinear). Lines starting with '#' are comments. Returns
    (kind, model) with kind in {"filter", "volterra"}."""
    entries = {}
    ncols = None
    for lineno, line in _data_lines(path):
        tokens = line.split()
        if ncols is None:
            ncols = len(tokens)
            if ncols not in (3, 5):
                raise InvalidInput(f"{path}:{lineno}: expected 3 or 5 columns, got {ncols}")
        elif len(tokens) != ncols:
            raise InvalidInput(f"{path}:{lineno}: inconsistent column count")
        try:
            idx = [int(tok) for tok in tokens[:-1]]
            val = float(tokens[-1])
        except ValueError as exc:
            raise InvalidInput(f"{path}:{lineno}: {exc}") from exc
        key = tuple(idx) if ncols == 3 else (tuple(idx[:2]), tuple(idx[2:]))
        if key in entries:
            raise InvalidInput(f"{path}:{lineno}: duplicate entry {key}")
        entries[key] = val
    if ncols is None:
        raise InvalidInput(f"{path}: no coefficient rows found")
    if ncols == 3:
        return "filter", FilterCoefficients.from_entries(entries)
    return "volterra", VolterraCoefficients(entries)


def write_density_csv(path, grid):
    """Grid size on the first line, then N comma-separated rows of N values."""
    _write_rows(path, str(grid.n), grid.values.T)


def read_density_csv(path):
    size = _first_line(path)
    if not size.isdecimal():
        raise InvalidInput(f"{path}: first line must be the grid size")
    n = int(size)
    values, linenos = _read_rows(path, size, n)
    if len(values) > n:
        raise InvalidInput(f"{path}:{linenos[n]}: more than {n} rows after the header")
    if len(values) < n:
        raise InvalidInput(f"{path}: expected {n} rows after the header")
    return DensityGrid(n, values)


CURVE_HEADER = "re_z,im_z,re_S,im_S,iterations,residual"


def write_curve_csv(path, curve):
    columns = (curve.z.real, curve.z.imag, curve.S.real, curve.S.imag, curve.iterations, curve.residuals)
    _write_rows(path, CURVE_HEADER, columns)


def _write_rows(path, header, columns):
    """A header line, then one comma-separated row per index of the equal-length
    columns: integer columns as ``str(int)``, float columns as ``fmt`` writes them,
    each row in one ``%`` format."""
    columns = [np.asarray(col) for col in columns]
    row = ",".join("%d" if col.dtype.kind in "iu" else "%.17g" for col in columns)
    rows = map(row.__mod__, zip(*[col.tolist() for col in columns]))
    _write_text(path, "\n".join([header, *rows]) + "\n")


def _read_rows(path, header, ncols):
    """Float rows of a headed CSV and their line numbers; blank lines are
    skipped, non-finite values rejected."""
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0].strip() != header:
        raise InvalidInput(f"{path}: missing header '{header}'")
    rows, linenos = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        toks = line.split(",")
        if len(toks) != ncols:
            raise InvalidInput(f"{path}:{lineno}: expected {ncols} columns")
        try:
            row = [float(t) for t in toks]
        except ValueError as exc:
            raise InvalidInput(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise InvalidInput(f"{path}:{lineno}: non-finite value")
        rows.append(row)
        linenos.append(lineno)
    return np.array(rows), linenos


def read_curve_csv(path):
    arr, _ = _read_rows(path, CURVE_HEADER, 6)
    if not arr.size:
        raise InvalidInput(f"{path}: no curve rows")
    return StieltjesCurve(
        z=arr[:, 0] + 1j * arr[:, 1],
        S=arr[:, 2] + 1j * arr[:, 3],
        iterations=arr[:, 4].astype(np.int64),
        residuals=arr[:, 5],
    )


TABLE_HEADER = "x,density,cdf"


def write_table_csv(path, table):
    _write_rows(path, TABLE_HEADER, (table.xs, table.density, table.cdf))


def read_table_csv(path):
    arr, _ = _read_rows(path, TABLE_HEADER, 3)
    if len(arr) < 2:
        raise InvalidInput(f"{path}: need at least two table rows")
    return DistributionTable(arr[:, 0], arr[:, 1], arr[:, 2])


def write_eigenvalues_csv(path, replicate_eigenvalues):
    sizes = [len(eigs) for eigs in replicate_eigenvalues]
    replicate = np.repeat(np.arange(len(sizes)), sizes)
    _write_rows(path, "replicate,eigenvalue", (replicate, np.concatenate(replicate_eigenvalues)))


def read_keyvalue(path):
    """Parse ``key = value`` lines; '#' starts a comment."""
    out = {}
    for lineno, line in _data_lines(path):
        if "=" not in line:
            raise InvalidInput(f"{path}:{lineno}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip()
        if key in out:
            raise InvalidInput(f"{path}:{lineno}: duplicate key {key!r}")
        out[key] = value.strip()
    return out


def _typed_keys(path, kind, types):
    """The keys of a key=value file, each converted by its type in ``types``;
    a key not in ``types`` is an unknown ``kind`` key."""
    out = {}
    for key, value in read_keyvalue(path).items():
        if key not in types:
            raise InvalidInput(f"{path}: unknown {kind} key {key!r}")
        try:
            out[key] = types[key](value)
        except ValueError as exc:
            raise InvalidInput(f"{path}: bad value for {key}: {exc}") from exc
    return out


def solver_config_from_file(path):
    """SolverConfig from key=value text: its field names, typed like their defaults."""
    types = {name: type(getattr(DEFAULT_CONFIG, name)) for name in SolverConfig._fields}
    return SolverConfig(**_typed_keys(path, "solver", types))


def ensemble_config_from_file(path):
    """Build an EnsembleConfig from key=value text.

    Keys: n, replicates (default 1), seed, model (path, relative to the
    config file), symmetrization, innovation. Returns (config, model_path).
    """
    types = {"n": int, "replicates": int, "seed": int, "model": str, "symmetrization": str, "innovation": str}
    keys = _typed_keys(path, "ensemble", types)
    for key in ("n", "seed", "model"):
        if key not in keys:
            raise InvalidInput(f"{path}: missing required key {key!r}")
    model_path = Path(path).parent / keys["model"]
    _, keys["model"] = read_model_file(model_path)
    return EnsembleConfig(**{"replicates": 1, **keys}), model_path


def sha256_file(path):
    return sha256(Path(path).read_bytes()).hexdigest()


def write_manifest(path, command, config, inputs, outputs, extra=None):
    """Run manifest: resolved config, input/output digests, versions.

    Content is deterministic (no timestamps) so reruns of a deterministic
    command produce identical manifests.
    """
    from . import __version__

    doc = {
        "command": command,
        "config": config,
        "inputs": {Path(p).name: sha256_file(p) for p in inputs},
        "outputs": {Path(p).name: sha256_file(p) for p in outputs},
        "versions": {
            "lsdlab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
    }
    if extra:
        doc.update(extra)
    _write_text(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def append_runlog(path, records):
    with open(path, "a", newline="\n") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
