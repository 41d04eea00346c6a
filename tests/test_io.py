import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from lsdlab import (
    DensityGrid,
    FilterCoefficients,
    InvalidInput,
    SolverConfig,
    density_from_filter,
    solve_curve,
)
from lsdlab import io
from lsdlab.stieltjes import table_from_samples


def test_model_file_filter_round_trip(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("# two-tap filter\n0 0 1.0\n1 0 0.5\n\n-1 2 -0.25\n")
    kind, model = io.read_model_file(path)
    assert kind == "filter"
    assert model.m == 2
    m = model.m
    assert model.coeffs[0 + m, 0 + m] == 1.0
    assert model.coeffs[1 + m, 0 + m] == 0.5
    assert model.coeffs[-1 + m, 2 + m] == -0.25


def test_model_file_volterra(tmp_path):
    path = tmp_path / "v.txt"
    path.write_text("# bilinear\n0 0 1 0 1.0\n1 1 0 2 -0.5\n")
    kind, model = io.read_model_file(path)
    assert kind == "volterra"
    assert model.entries[((0, 0), (1, 0))] == 1.0
    assert model.entries[((1, 1), (0, 2))] == -0.5


def test_model_file_rejects_bad_columns(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 0 1.0 4\n")
    with pytest.raises(InvalidInput):
        io.read_model_file(path)


def test_model_file_rejects_mixed_kinds(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("0 0 1.0\n0 0 1 0 1.0\n")
    with pytest.raises(InvalidInput):
        io.read_model_file(path)


def test_model_file_rejects_noninteger_index(tmp_path):
    path = tmp_path / "frac.txt"
    path.write_text("0.5 0 1.0\n")
    with pytest.raises(InvalidInput):
        io.read_model_file(path)


def test_density_csv_round_trip(tmp_path):
    grid = density_from_filter(FilterCoefficients.from_entries({(0, 0): 1.0, (1, 1): -0.3}), 16)
    path = tmp_path / "density.csv"
    io.write_density_csv(path, grid)
    lines = path.read_text().splitlines()
    assert lines[0] == "16"
    assert len(lines) == 17
    back = io.read_density_csv(path)
    assert back.n == 16
    assert np.array_equal(back.values, grid.values)
    assert back.mass == grid.mass


def test_density_csv_rejects_rows_beyond_its_size(tmp_path):
    path = tmp_path / "density.csv"
    path.write_text("2\n1,1\n1,1\n\n5,5\n")
    with pytest.raises(InvalidInput, match="density.csv:5: more than 2 rows"):
        io.read_density_csv(path)
    path.write_text("2\n1,1\n1,1\n\n")  # trailing blank lines are fine
    assert io.read_density_csv(path).n == 2


def test_curve_csv_round_trip(tmp_path):
    grid = DensityGrid(8, np.ones((8, 8)))
    curve = solve_curve(grid, np.array([1j, 0.5 + 2j]))
    path = tmp_path / "curve.csv"
    io.write_curve_csv(path, curve)
    assert path.read_text().splitlines()[0] == "re_z,im_z,re_S,im_S,iterations,residual"
    back = io.read_curve_csv(path)
    assert np.array_equal(back.z, curve.z)
    assert np.array_equal(back.S, curve.S)
    assert np.array_equal(back.iterations, curve.iterations)


def test_table_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    table = table_from_samples(rng.normal(size=500), np.linspace(-4, 4, 201))
    path = tmp_path / "table.csv"
    io.write_table_csv(path, table)
    back = io.read_table_csv(path)
    assert np.array_equal(back.xs, table.xs)
    assert np.array_equal(back.density, table.density)
    assert np.array_equal(back.cdf, table.cdf)
    assert back.uncaptured == pytest.approx(table.uncaptured, abs=1e-12)


@pytest.mark.parametrize(
    "reader, text, lineno",
    [
        (io.read_curve_csv, "re_z,im_z,re_S,im_S,iterations,residual\n0,1,0,0.5,3,0\n1,1,nan,0.5,3,0\n", 3),
        (io.read_table_csv, "x,density,cdf\n0,1,nan\n1,1,1\n", 2),
        (io.read_table_csv, "x,density,cdf\n0,1,0\n\n1,inf,1\n", 4),
        (io.read_density_csv, "2\n1,1\n1,nan\n", 3),
    ],
    ids=["nan-curve", "nan-cdf", "inf-density", "nan-density-csv"],
)
def test_csv_readers_reject_non_finite_values(tmp_path, reader, text, lineno):
    path = tmp_path / "data.csv"
    path.write_text(text)
    with pytest.raises(InvalidInput, match=f"data.csv:{lineno}: non-finite"):
        reader(path)


@pytest.mark.parametrize(
    "reader, text, message",
    [
        (io.read_model_file, "0 0 1 0 1\n0 0 1 0 2\n", "data.txt:2: duplicate entry"),
        (io.read_model_file, "0 0 1\n1 0 1\n0 0 2\n", r"data.txt:3: duplicate entry \(0, 0\)"),
        (io.read_model_file, "# no rows\n", "no coefficient rows"),
        (io.read_density_csv, "two\n1,1\n1,1\n", "first line must be the grid size"),
        (io.read_density_csv, "2\n1,1\n", "expected 2 rows after the header"),
        (io.read_curve_csv, "x,density,cdf\n0,1,0\n", "missing header"),
        (io.read_table_csv, "x,density,cdf\n0,1,0\n1,1\n", "data.txt:3: expected 3 columns"),
        (io.read_curve_csv, "re_z,im_z,re_S,im_S,iterations,residual\n", "no curve rows"),
        (io.read_table_csv, "x,density,cdf\n0,1,0\n", "need at least two table rows"),
        (io.read_keyvalue, "tolerance\n", "data.txt:1: expected key=value"),
        (io.read_keyvalue, "n = 1\nn = 2\n", "data.txt:2: duplicate key 'n'"),
        (io.solver_config_from_file, "max_iterations = many\n", "bad value for max_iterations"),
    ],
    ids=[
        "model-duplicate",
        "model-filter-duplicate",
        "model-empty",
        "density-size",
        "density-short",
        "curve-header",
        "table-columns",
        "curve-empty",
        "table-one-row",
        "keyvalue-no-equals",
        "keyvalue-duplicate",
        "solver-bad-value",
    ],
)
def test_readers_reject_malformed_files(tmp_path, reader, text, message):
    path = tmp_path / "data.txt"
    path.write_text(text)
    with pytest.raises(InvalidInput, match=message):
        reader(path)


def test_table_uncaptured_is_the_mass_below_one(tmp_path):
    path = tmp_path / "table.csv"
    path.write_text("x,density,cdf\n0,0.5,0\n1,0.5,0.5\n")
    assert io.read_table_csv(path).uncaptured == 0.5


def test_eigenvalue_csv_format(tmp_path):
    path = tmp_path / "eigs.csv"
    io.write_eigenvalues_csv(path, [np.array([1.0, 2.0]), np.array([-0.5])])
    lines = path.read_text().splitlines()
    assert lines[0] == "replicate,eigenvalue"
    assert lines[1] == "0,1"
    assert lines[3] == "1,-0.5"


def test_float_format_round_trips_float64():
    values = [1 / 3, np.pi, 1e-17, 123456.789012345678, 2.0**-52]
    for v in values:
        assert float(io.fmt(v)) == v


def test_csv_float_columns_are_written_as_fmt_writes_them(tmp_path):
    values = np.array([1 / 3, -0.0, 1e-300, 5e-324, 1e300, 2.0**53 + 2, 0.1, -7.0])
    path = tmp_path / "eigs.csv"
    io.write_eigenvalues_csv(path, [values])
    assert [line.split(",")[1] for line in path.read_text().splitlines()[1:]] == [io.fmt(v) for v in values]


def test_keyvalue_parsing(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# solver settings\ntolerance = 1e-9\nmax_iterations=500\n")
    assert io.read_keyvalue(path) == {"tolerance": "1e-9", "max_iterations": "500"}


def test_solver_config_from_file(tmp_path):
    path = tmp_path / "solver.txt"
    path.write_text("tolerance=1e-8\nmax_iterations=500\n")
    cfg = io.solver_config_from_file(path)
    assert cfg == SolverConfig(tolerance=1e-8, max_iterations=500)


def test_readme_lists_the_solver_config_fields_and_defaults():
    # the table under "Solver configs" in README: | `key` | `default` | meaning |
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("Solver configs use the same format.")[1].split("\n\n")[1]
    rows = [[cell.strip().strip("`") for cell in line.split("|")[1:3]] for line in table.splitlines()[2:]]
    # the names in SolverConfig._fields, each with its default in __init__
    fields = [inspect.signature(SolverConfig).parameters[name] for name in SolverConfig._fields]
    assert [key for key, _ in rows] == [f.name for f in fields]
    assert all(type(f.default)(default) == f.default for f, (_, default) in zip(fields, rows))


def test_solver_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "solver.txt"
    path.write_text("tolerancee=1e-8\n")
    with pytest.raises(InvalidInput):
        io.solver_config_from_file(path)


def test_ensemble_config_from_file(tmp_path):
    model = tmp_path / "model.txt"
    model.write_text("0 0 1.0\n")
    cfg_path = tmp_path / "ensemble.txt"
    cfg_path.write_text(
        "n = 64\nreplicates = 3\nseed = 12345\nmodel = model.txt\n"
        "symmetrization = additive\ninnovation = rademacher\n"
    )
    cfg, model_path = io.ensemble_config_from_file(cfg_path)
    assert cfg.n == 64
    assert cfg.replicates == 3
    assert cfg.seed == 12345
    assert cfg.symmetrization == "additive"
    assert cfg.innovation == "rademacher"
    assert model_path == model


@pytest.mark.parametrize(
    "text, message",
    [
        ("n = 64\nmodel = model.txt\n", "missing required key 'seed'"),
        ("n = 64\nseed = 1\nmodel = model.txt\nsymmetrisation = additive\n", "unknown ensemble key 'symmetrisation'"),
        ("n = ten\nseed = 1\nmodel = model.txt\n", r"bad value for n: invalid literal for int\(\)"),
    ],
    ids=["missing-key", "unknown-key", "non-integer-n"],
)
def test_ensemble_config_from_file_rejects_bad_keys_and_values(tmp_path, text, message):
    (tmp_path / "model.txt").write_text("0 0 1.0\n")
    cfg_path = tmp_path / "ensemble.txt"
    cfg_path.write_text(text)
    with pytest.raises(InvalidInput, match=message):
        io.ensemble_config_from_file(cfg_path)


def test_manifest_digests_and_determinism(tmp_path):
    src = tmp_path / "in.txt"
    src.write_text("0 0 1.0\n")
    out = tmp_path / "out.csv"
    out.write_text("x,density,cdf\n0,1,0\n1,1,1\n")
    m1 = tmp_path / "manifest1.json"
    m2 = tmp_path / "manifest2.json"
    io.write_manifest(m1, "density", {"grid": 8}, [src], [out], extra={"flag": True})
    io.write_manifest(m2, "density", {"grid": 8}, [src], [out], extra={"flag": True})
    assert m1.read_bytes() == m2.read_bytes()
    doc = json.loads(m1.read_text())
    assert doc["command"] == "density"
    assert doc["inputs"]["in.txt"] == io.sha256_file(src)
    assert doc["outputs"]["out.csv"] == io.sha256_file(out)
    assert doc["flag"] is True
    assert "lsdlab" in doc["versions"]


def test_runlog_appends_json_lines(tmp_path):
    path = tmp_path / "runlog.jsonl"
    io.append_runlog(path, [{"replicate": 0, "n": 4}, {"replicate": 1, "n": 4}])
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1]) == {"replicate": 1, "n": 4}
