import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lsdlab
from lsdlab import DensityGrid, io
from lsdlab.cli import _threads, build_parser, main, parse_contour_spec
from lsdlab.errors import InvalidInput, LsdlabError


def write_model(tmp_path, text, name="model.txt"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_thread_cap_from_environment(monkeypatch):
    monkeypatch.delenv("LSD_LAB_THREADS", raising=False)
    assert _threads() == 1
    monkeypatch.setenv("LSD_LAB_THREADS", "4")
    assert _threads() == 4
    monkeypatch.setenv("LSD_LAB_THREADS", "0")
    assert _threads() == 1
    monkeypatch.setenv("LSD_LAB_THREADS", "many")
    with pytest.raises(InvalidInput):
        _threads()


def test_no_arguments_exits_2_and_help_exits_0(capsys):
    assert main([]) == 2
    assert main(["--help"]) == 0
    assert "usage: lsdlab" in capsys.readouterr().out


def run_python(args, cwd):
    """Run a fresh interpreter that imports this checkout's lsdlab."""
    src = str(Path(lsdlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True)


def test_module_entry_point_propagates_the_exit_code(tmp_path):
    assert run_python(["-m", "lsdlab"], tmp_path).returncode == 2
    assert run_python(["-m", "lsdlab", "--help"], tmp_path).returncode == 0


def test_module_entry_point_writes_what_main_writes(tmp_path, monkeypatch):
    write_model(tmp_path, "0 0 1.0\n1 0 1.0\n0 1 1.0\n")
    args = ["solve", "model.txt", "--grid", "16", "--contour", "im=0.05,re=-3:3:11", "--out-dir"]
    proc = run_python(["-m", "lsdlab", *args, "entry"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(tmp_path)
    assert main([*args, "inproc"]) == 0
    for name in ("curve.csv", "distribution.csv", "manifest.json"):
        assert (tmp_path / "entry" / name).read_bytes() == (tmp_path / "inproc" / name).read_bytes()


def test_only_the_entry_point_freezes_the_collector(tmp_path):
    # entry() freezes the collector before main(); importing lsdlab or calling
    # main() must leave the collection of the caller's objects alone
    write_model(tmp_path, "0 0 1.0\n")
    code = (
        "import gc, lsdlab; a = gc.get_freeze_count()\n"
        "import lsdlab.cli; b = gc.get_freeze_count()\n"
        "lsdlab.cli.main(['density', 'model.txt', '--grid', '8', '--out-dir', 'out'])\n"
        "print(a, b, gc.get_freeze_count())\n"
    )
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["0", "0", "0"]
    assert (tmp_path / "out" / "density.csv").exists()


def test_importing_the_cli_loads_no_openssl(tmp_path):
    # hashlib loads OpenSSL (_hashlib); only io.sha256_file needs it
    code = (
        "import sys, numpy; before = '_hashlib' in sys.modules\n"
        "import lsdlab.cli; print(before, '_hashlib' in sys.modules)\n"
    )
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before


def test_solve_takes_its_manifest_digests_without_openssl(tmp_path):
    # hashlib loads OpenSSL (_hashlib); sha256_file uses the interpreter's own SHA-256
    write_model(tmp_path, "0 0 1.0\n")
    code = (
        "import sys; from lsdlab.cli import main\n"
        "code = main(['solve', 'model.txt', '--grid', '16', '--contour', 'im=0.05,re=-3:3:11', '--out-dir', 'out'])\n"
        "print(code, '_hashlib' in sys.modules)\n"
    )
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]
    assert json.loads((tmp_path / "out" / "manifest.json").read_text())["outputs"]


def test_importing_lsdlab_processes_no_dataclass(tmp_path):
    # the value types define their methods in source: importing runs no code generation
    code = (
        "import dataclasses; made = []; process = dataclasses._process_class\n"
        "dataclasses._process_class = lambda cls, *a, **k: made.append(cls.__module__) or process(cls, *a, **k)\n"
        "import lsdlab.cli; print([m for m in made if m.startswith('lsdlab')])\n"
    )
    proc = run_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "[]"


def test_sha256_file_is_the_digest_of_the_bytes(tmp_path):
    import hashlib

    path = tmp_path / "data.bin"
    path.write_bytes(bytes(range(256)) * 3)
    assert io.sha256_file(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_readme_synopsis_lists_the_flags_of_each_subcommand():
    # the sh block under "## CLI" in README, one "lsdlab COMMAND ..." line per subcommand
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI")[1].split("```sh")[1].split("```")[0].replace("\\\n", " ")
    documented = {line.split()[1]: set(re.findall(r"--[a-z-]+", line)) for line in block.strip().splitlines()}
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    defined = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert documented == defined


def test_contour_spec_parsing():
    zs = parse_contour_spec("im=0.05,re=-3:3:121")
    assert zs.size == 121
    assert zs[0] == pytest.approx(-3 + 0.05j)
    assert zs[-1] == pytest.approx(3 + 0.05j)
    with pytest.raises(InvalidInput):
        parse_contour_spec("re=-3:3:5")
    with pytest.raises(InvalidInput):
        parse_contour_spec("im=0.05,re=-3:3:5,extra=1")
    with pytest.raises(InvalidInput, match="no points"):
        parse_contour_spec("im=0.05,re=-3:3:0")


class TestDensityCommand:
    def test_delta_filter_constant_grid(self, tmp_path):
        model = write_model(tmp_path, "0 0 1.0\n")
        out = tmp_path / "out"
        assert main(["density", str(model), "--grid", "64", "--out-dir", str(out)]) == 0
        grid = io.read_density_csv(out / "density.csv")
        assert grid.n == 64
        assert np.allclose(grid.values, 1.0, atol=1e-12)
        manifest = json.loads((out / "manifest.json").read_text())
        assert "density.csv" in manifest["outputs"]

    def test_two_tap_matches_formula(self, tmp_path):
        model = write_model(tmp_path, "0 0 1.0\n1 0 1.0\n")
        out = tmp_path / "out"
        assert main(["density", str(model), "--grid", "64", "--out-dir", str(out)]) == 0
        grid = io.read_density_csv(out / "density.csv")
        x = (np.arange(64) + 0.5) / 64
        expected = 2.0 + 2.0 * np.cos(2 * np.pi * x)
        assert np.abs(grid.values - expected[:, None]).max() < 1e-12

    def test_symmetrize_flag(self, tmp_path):
        model = write_model(tmp_path, "0 0 1.0\n1 0 1.0\n")
        out = tmp_path / "out"
        code = main(
            ["density", str(model), "--grid", "64", "--symmetrize", "--out-dir", str(out)]
        )
        assert code == 0
        grid = io.read_density_csv(out / "density.csv")
        x = (np.arange(64) + 0.5) / 64
        cos = 2.0 * np.cos(2 * np.pi * x)
        expected = 4.0 + cos[:, None] + cos[None, :]
        assert np.abs(grid.values - expected).max() < 1e-12

    def test_parse_error_exits_2(self, tmp_path):
        model = write_model(tmp_path, "0 0\n")
        assert main(["density", str(model), "--out-dir", str(tmp_path / "o")]) == 2

    def test_invalid_covariance_exits_3(self, tmp_path):
        # chained bilinear entries give gamma = (3, 2, 1) along one axis;
        # truncating the inversion at radius 1 dips negative
        model = write_model(tmp_path, "0 0 1 0 1\n1 0 2 0 1\n2 0 3 0 1\n")
        code = main(
            [
                "density",
                str(model),
                "--grid",
                "32",
                "--volterra-radius",
                "1",
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == 3

    def test_bilinear_covariance_defaults_to_its_whole_reach(self, tmp_path):
        # support radius 10: the covariance reaches lag 20, and radius 8 drops its far terms
        model = write_model(tmp_path, "0 0 1 0 1.0\n9 0 10 0 1.0\n")

        def density(*radius):
            out = tmp_path / f"o{radius}"
            flag = ["--volterra-radius", *radius] if radius else []
            assert main(["density", str(model), "--grid", "64", *flag, "--out-dir", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            return (out / "density.csv").read_bytes(), manifest["config"]["volterra_radius"]

        default, whole, truncated = density(), density("20"), density("8")
        assert default == whole and whole[1] == 20
        assert truncated[0] != whole[0] and truncated[1] == 8
        out = tmp_path / "solve"
        assert main(["solve", str(model), "--grid", "16", "--contour", "im=1,re=0:0:1", "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["volterra_radius"] == 20

    def test_filter_model_manifest_records_no_radius(self, tmp_path):
        model = write_model(tmp_path, "0 0 1.0\n1 0 1.0\n")
        out = tmp_path / "o"
        assert main(["density", str(model), "--grid", "16", "--out-dir", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["volterra_radius"] is None
        args = ["--grid", "16", "--contour", "im=1,re=0:0:1", "--out-dir", str(out)]
        assert main(["solve", str(model), *args]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["volterra_radius"] is None

    @pytest.mark.parametrize("command", ["density", "solve"])
    def test_volterra_radius_on_a_filter_model_exits_2(self, tmp_path, capsys, command):
        model = write_model(tmp_path, "0 0 1.0\n")
        out = tmp_path / "o"
        args = ["--volterra-radius", "4", "--grid", "16", "--out-dir", str(out)]
        contour = ["--contour", "im=1,re=0:0:1"] if command == "solve" else []
        assert main([command, str(model), *args, *contour]) == 2
        assert "--volterra-radius applies to bilinear models only" in capsys.readouterr().err
        assert not out.exists()


class TestSolveCommand:
    def test_constant_density_single_point(self, tmp_path):
        grid_path = tmp_path / "density.csv"
        io.write_density_csv(grid_path, DensityGrid(16, np.ones((16, 16))))
        out = tmp_path / "out"
        code = main(
            ["solve", str(grid_path), "--contour", "im=1,re=0:0:1", "--out-dir", str(out)]
        )
        assert code == 0
        curve = io.read_curve_csv(out / "curve.csv")
        assert curve.z[0] == 1j
        assert abs(curve.S[0] - 1j * (np.sqrt(5) - 1) / 2) < 1e-8
        assert not (out / "distribution.csv").exists()  # contour too narrow to invert

    def test_zero_density_free_resolvent_rows(self, tmp_path):
        grid_path = tmp_path / "density.csv"
        io.write_density_csv(grid_path, DensityGrid(8, np.zeros((8, 8))))
        out = tmp_path / "out"
        code = main(
            ["solve", str(grid_path), "--contour", "im=0.5,re=-2:2:9", "--out-dir", str(out)]
        )
        assert code == 0
        curve = io.read_curve_csv(out / "curve.csv")
        assert np.array_equal(curve.S, -1.0 / curve.z)

    def test_product_form_matches_full(self, tmp_path):
        grid_path = tmp_path / "density.csv"
        io.write_density_csv(grid_path, DensityGrid(32, np.ones((32, 32))))
        full_dir, prod_dir = tmp_path / "full", tmp_path / "prod"
        contour = "im=0.4,re=-3:3:11"
        assert main(["solve", str(grid_path), "--contour", contour, "--out-dir", str(full_dir)]) == 0
        code = main(
            [
                "solve",
                str(grid_path),
                "--contour",
                contour,
                "--product-form",
                "--out-dir",
                str(prod_dir),
            ]
        )
        assert code == 0
        full = io.read_curve_csv(full_dir / "curve.csv")
        prod = io.read_curve_csv(prod_dir / "curve.csv")
        assert np.abs(full.S - prod.S).max() <= 1e-7

    @pytest.mark.parametrize(
        "xs, window",
        [([], (-4.75, 4.75)), (["--xs=-4:4:161"], (-4.0, 4.0))],
        ids=["default-xs", "negative-xs"],
    )
    def test_model_file_input_with_inversion(self, tmp_path, xs, window):
        model = write_model(tmp_path, "0 0 1.0\n")
        out = tmp_path / "out"
        code = main(
            [
                "solve",
                str(model),
                "--grid",
                "32",
                "--contour",
                "im=0.05,re=-5:5:81",
                *xs,
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        table = io.read_table_csv(out / "distribution.csv")
        assert (table.xs[0], table.xs[-1]) == pytest.approx(window)
        assert table.cdf[-1] > 0.95
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"curve.csv", "distribution.csv"}

    def test_missing_input_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.txt"
        assert main(["solve", str(missing), "--contour", "im=1,re=0:0:1", "--out-dir", str(tmp_path / "o")]) == 2
        assert f"no such file: {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["safe_height_multiplier", "damping", "continuation_factor"])
    def test_solver_config_naming_a_removed_key_exits_2(self, tmp_path, capsys, key):
        model = write_model(tmp_path, "0 0 1.0\n")
        solver_cfg = tmp_path / "solver.txt"
        solver_cfg.write_text(f"{key} = 0\n")
        args = ["--grid", "16", "--contour", "im=1,re=0:0:1", "--solver-config", str(solver_cfg)]
        assert main(["solve", str(model), *args, "--out-dir", str(tmp_path / "o")]) == 2
        assert f"unknown solver key '{key}'" in capsys.readouterr().err

    def test_non_decimal_first_line_is_not_a_density_csv(self, tmp_path, capsys):
        # "\u00b2".isdigit() holds, but read_density_csv needs a decimal size
        path = write_model(tmp_path, "\u00b2\n1,1\n1,1\n", name="density.csv")
        args = ["--grid", "16", "--contour", "im=1,re=0:0:1", "--out-dir", str(tmp_path / "o")]
        assert main(["solve", str(path), *args]) == 2
        err = capsys.readouterr().err
        assert "expected 3 or 5 columns" in err
        assert "is a density CSV" not in err

    def test_no_convergence_exits_4(self, tmp_path):
        model = write_model(tmp_path, "0 0 1.0\n1 0 1.0\n")
        solver_cfg = tmp_path / "solver.txt"
        solver_cfg.write_text("tolerance=1e-14\nmax_iterations=2\n")
        code = main(
            [
                "solve",
                str(model),
                "--grid",
                "16",
                "--contour",
                "im=0.05,re=0:0:1",
                "--solver-config",
                str(solver_cfg),
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == 4


    def test_product_form_no_convergence_names_the_point(self, tmp_path, capsys):
        # a separable filter: its density is t(x) t(y) with t = 4 cos^2(pi x), not a constant
        model = write_model(tmp_path, "0 0 1.0\n1 0 1.0\n0 1 1.0\n1 1 1.0\n")
        solver_cfg = tmp_path / "solver.txt"
        solver_cfg.write_text("tolerance=1e-14\nmax_iterations=2\n")
        code = main(
            [
                "solve",
                str(model),
                "--grid",
                "16",
                "--contour",
                "im=0.05,re=0.5:0.5:1",
                "--product-form",
                "--solver-config",
                str(solver_cfg),
                "--out-dir",
                str(tmp_path / "o"),
            ]
        )
        assert code == 4
        assert "contour point z = 0.5+0.05j" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0 0 nan", "0 0 inf", "1 0 -inf"])
    def test_non_finite_model_exits_2(self, tmp_path, capsys, row):
        model = write_model(tmp_path, f"0 1 1.0\n{row}\n")
        args = ["--grid", "16", "--out-dir", str(tmp_path / "o")]
        contour = ["--contour", "im=0.05,re=-1:1:3"]
        assert main(["solve", str(model), *contour, *args]) == 2
        assert main(["density", str(model), *args]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_bilinear_coefficient_exits_2(self, tmp_path, capsys, recwarn):
        model = write_model(tmp_path, "0 0 1 0 nan\n")
        args = ["--grid", "16", "--out-dir", str(tmp_path / "o")]
        assert main(["solve", str(model), "--contour", "im=0.05,re=-1:1:3", *args]) == 2
        assert main(["density", str(model), *args]) == 2
        err = capsys.readouterr().err
        assert err.count("bilinear coefficient b[(0, 0),(1, 0)] is non-finite") == 2
        assert "gamma" not in err
        assert not recwarn.list

    def test_three_tap_readme_contour_calls_no_lapack(self, tmp_path, monkeypatch):
        def lapack(*args):
            raise AssertionError("np.linalg.solve called on the 3-tap model")

        monkeypatch.setattr(np.linalg, "solve", lapack)
        model = write_model(tmp_path, "0 0 1.0\n1 0 1.0\n0 1 1.0\n")
        out = tmp_path / "out"
        assert main(["solve", str(model), "--contour", "im=0.05,re=-9:9:121", "--out-dir", str(out)]) == 0
        assert io.read_curve_csv(out / "curve.csv").iterations.sum() == 495

    @pytest.mark.parametrize("height", ["1e-170", "1e-200", "1e-300", "5e-324"])
    def test_heights_whose_square_underflows_exit_0(self, tmp_path, height):
        model = write_model(tmp_path, "0 0 1.0\n1 0 1.0\n0 1 1.0\n")

        def solve(im, out):
            args = ["solve", str(model), "--grid", "32", "--contour", f"im={im},re=-1:1:3", "--out-dir"]
            assert main([*args, str(tmp_path / out)]) == 0
            return io.read_curve_csv(tmp_path / out / "curve.csv")

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = solve(height, "tiny")
        near = solve("1e-150", "near")  # its square is still normal
        assert np.array_equal(curve.iterations, near.iterations)
        assert np.abs(curve.S - near.S).max() <= 1e-12

    def test_solver_postcondition_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise LsdlabError("solver postcondition failed: Im g > 0")

        monkeypatch.setattr("lsdlab.cli.solve_curve", broken)
        model = write_model(tmp_path, "0 0 1.0\n")
        code = main(
            ["solve", str(model), "--grid", "16", "--contour", "im=1,re=0:0:1", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 4
        assert "solver postcondition failed: Im g > 0" in capsys.readouterr().err

    def test_non_finite_density_csv_exits_2(self, tmp_path, capsys):
        grid_path = tmp_path / "density.csv"
        grid_path.write_text("2\n1,nan\n1,1\n")
        code = main(
            ["solve", str(grid_path), "--contour", "im=0.05,re=-1:1:3", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--grid", "16"], ["--volterra-radius", "4"], ["--symmetrize"]])
    def test_grid_flag_on_density_csv_exits_2(self, tmp_path, capsys, flag):
        grid_path = tmp_path / "density.csv"
        io.write_density_csv(grid_path, DensityGrid(16, np.ones((16, 16))))
        out = tmp_path / "o"
        code = main(["solve", str(grid_path), "--contour", "im=1,re=0:0:1", *flag, "--out-dir", str(out)])
        assert code == 2
        assert f"{flag[0]} applies to model files only" in capsys.readouterr().err
        assert not out.exists()

    def test_density_csv_manifest_records_its_own_grid(self, tmp_path):
        grid_path = tmp_path / "density.csv"
        io.write_density_csv(grid_path, DensityGrid(16, np.ones((16, 16))))
        out = tmp_path / "o"
        assert main(["solve", str(grid_path), "--contour", "im=1,re=0:0:1", "--out-dir", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert config["grid"] == 16
        assert config["volterra_radius"] is None
        assert config["symmetrize"] is False


def run_forbidding_work(tmp_path, monkeypatch, command, spec):
    """Run ``command`` on a one-tap model with ``spec``, failing if it solves or simulates."""

    def forbidden(*args, **kwargs):
        raise AssertionError("solved or simulated a bad spec")

    monkeypatch.setattr("lsdlab.cli.solve_curve", forbidden)
    monkeypatch.setattr("lsdlab.cli.ensemble_esd", forbidden)
    write_model(tmp_path, "0 0 1.0\n")
    cfg = tmp_path / "ensemble.txt"
    cfg.write_text("n = 8\nseed = 1\nmodel = model.txt\n")
    source = str(tmp_path / "model.txt") if command == "solve" else str(cfg)
    out = tmp_path / "o"
    return main([command, source, *spec, "--out-dir", str(out)]), out


NON_FINITE_SPECS = [
    ("solve", ["--contour", "im=0.05,re=-1:1:3", "--xs", "nan:1:5"]),
    ("solve", ["--contour", "im=0.05,re=-1:1:3", "--xs", "0:inf:5"]),
    ("solve", ["--contour", "im=nan,re=-1:1:3"]),
    ("solve", ["--contour", "im=inf,re=-1:1:3"]),
    ("solve", ["--contour", "im=0.05,re=nan:1:3"]),
    ("simulate", ["--contour", "im=nan,re=-1:1:3"]),
    ("simulate", ["--contour", "im=0.05,re=-1:-inf:3"]),
]


@pytest.mark.parametrize(
    "command, spec",
    NON_FINITE_SPECS,
    ids=["xs-nan", "xs-inf", "im-nan", "im-inf", "re-nan", "simulate-im-nan", "simulate-re-inf"],
)
def test_non_finite_spec_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command, spec):
    code, out = run_forbidding_work(tmp_path, monkeypatch, command, spec)
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "spec, flags",
    [
        ("-1e308:1e308:3", ["--contour", "im=0.05,re=-1e308:1e308:3"]),
        ("-1e308:1e308:3", ["--contour", "im=0.05,re=-1:1:3", "--xs=-1e308:1e308:3"]),
    ],
    ids=["contour", "xs"],
)
def test_a_range_whose_width_overflows_exits_2_naming_the_spec(tmp_path, capsys, monkeypatch, spec, flags):
    # both bounds are finite, but hi - lo is not; warnings are errors under pytest
    code, out = run_forbidding_work(tmp_path, monkeypatch, "solve", flags)
    assert code == 2
    assert f"bad range spec {spec!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, spec",
    [
        ("solve", ["--contour", "im=0.05,re=-9:9:121", "--xs", "0:1:1"]),
        ("solve", ["--contour", "im=0.05,re=-9:9:121", "--xs", "1:0:5"]),
        ("solve", ["--contour", "im=0.05,re=-1:1:0"]),
        ("solve", ["--contour", "im=0.05,re=-1:1:21", "--xs=-5:5:11"]),
        ("simulate", ["--contour", "im=0.05,re=-1:1:0"]),
        ("solve", ["--contour", "im=0.05,re=-1:1:3,im=3"]),
        ("simulate", ["--contour", "re=-1:1:3,im=0.05,re=0:1:3"]),
    ],
    ids=[
        "xs-one-point",
        "xs-decreasing",
        "empty-contour",
        "xs-beyond-contour",
        "simulate-empty-contour",
        "repeated-key",
        "simulate-repeated-key",
    ],
)
def test_bad_grid_or_empty_contour_exits_2_before_any_work(tmp_path, monkeypatch, command, spec):
    code, out = run_forbidding_work(tmp_path, monkeypatch, command, spec)
    assert code == 2
    assert not (out / "curve.csv").exists()
    assert not (out / "eigenvalues.csv").exists()


class TestSimulateCommand:
    def write_ensemble(self, tmp_path, n=24, replicates=2, symmetrization="wigner"):
        write_model(tmp_path, "0 0 1.0\n1 0 1.0\n")
        cfg = tmp_path / "ensemble.txt"
        cfg.write_text(
            f"n = {n}\nreplicates = {replicates}\nseed = 90210\nmodel = model.txt\n"
            f"symmetrization = {symmetrization}\n"
        )
        return cfg

    def test_outputs_written_and_tagged(self, tmp_path):
        cfg = self.write_ensemble(tmp_path, symmetrization="additive")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out-dir", str(out)]) == 0
        for name in ("eigenvalues.csv", "esd.csv", "curve.csv", "runlog.jsonl", "manifest.json"):
            assert (out / name).exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outside_hypotheses"] is False  # additive path needs no symmetry
        assert not {"wall_time_s", "patch_s", "assemble_s", "eigensolve_s"} & set(manifest)
        records = [json.loads(line) for line in (out / "runlog.jsonl").read_text().splitlines()]
        assert len(records) == 2
        phases = ("patch_s", "assemble_s", "eigensolve_s")
        for rec in records:
            assert {"replicate", "seed", "n", "wall_time_s", "lambda_min", "lambda_max", *phases} <= set(rec)
            assert min(rec[k] for k in phases) >= 0.0
            # each phase is a difference of the same clock readings as the wall time
            assert sum(rec[k] for k in phases) <= rec["wall_time_s"] * (1 + 1e-12)

    def test_mirrored_asymmetric_model_tagged_outside(self, tmp_path):
        cfg = self.write_ensemble(tmp_path, symmetrization="wigner")
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outside_hypotheses"] is True

    def test_byte_identical_reruns(self, tmp_path):
        cfg = self.write_ensemble(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["simulate", str(cfg), "--out-dir", str(out2)]) == 0
        for name in ("eigenvalues.csv", "esd.csv", "curve.csv", "manifest.json"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self.write_ensemble(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", str(cfg), "--out-dir", str(out1)]) == 0
        assert main(["simulate", str(cfg), "--seed", "1", "--out-dir", str(out2)]) == 0
        assert (out1 / "eigenvalues.csv").read_bytes() != (out2 / "eigenvalues.csv").read_bytes()

    def test_seed_and_replicates_flags_replace_the_config(self, tmp_path):
        cfg = self.write_ensemble(tmp_path, replicates=2)
        out = tmp_path / "out"
        assert main(["simulate", str(cfg), "--seed", "1", "--replicates", "3", "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == 1 and manifest["config"]["replicates"] == 3
        assert len((out / "runlog.jsonl").read_text().splitlines()) == 3
        assert main(["simulate", str(cfg), "--replicates", "0", "--out-dir", str(out)]) == 2

    def test_eigensolver_failure_exits_5_naming_the_replicate(self, tmp_path, capsys, monkeypatch):
        def failing(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        cfg = self.write_ensemble(tmp_path)
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path / "out")]) == 5
        assert "replicate 0: eigensolver failed: Eigenvalues did not converge" in capsys.readouterr().err

    def test_input_too_large_to_allocate_exits_2(self, tmp_path, capsys, monkeypatch):
        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100000, 100000)")

        monkeypatch.setattr("lsdlab.cli.ensemble_esd", too_large)
        cfg = self.write_ensemble(tmp_path)
        assert main(["simulate", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        assert "error: out of memory: Unable to allocate 74.5 GiB" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.txt"), "--out-dir", str(tmp_path)]) == 2


class TestCompareCommand:
    def make_tables(self, tmp_path):
        rng = np.random.default_rng(8)
        from lsdlab.stieltjes import table_from_samples

        xs = np.linspace(-4, 4, 201)
        t1 = table_from_samples(rng.normal(size=400), xs)
        t2 = table_from_samples(rng.normal(size=400) + 0.3, xs)
        p1, p2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        io.write_table_csv(p1, t1)
        io.write_table_csv(p2, t2)
        return p1, p2

    def test_table_against_itself(self, tmp_path, capsys):
        p1, _ = self.make_tables(tmp_path)
        assert main(["compare", str(p1), str(p1)]) == 0
        printed = capsys.readouterr().out
        assert "levy=0" in printed
        assert "kolmogorov=0" in printed

    def test_zero_threshold_on_unequal_tables(self, tmp_path):
        p1, p2 = self.make_tables(tmp_path)
        assert main(["compare", str(p1), str(p2), "--threshold-k", "0.0"]) == 1
        assert main(["compare", str(p1), str(p2), "--threshold-k", "1.0"]) == 0

    def test_levy_threshold(self, tmp_path):
        p1, p2 = self.make_tables(tmp_path)
        assert main(["compare", str(p1), str(p2), "--threshold-levy", "0.0"]) == 1
        assert main(["compare", str(p1), str(p2), "--threshold-levy", "1.0"]) == 0

    def test_gap_threshold(self, tmp_path):
        from lsdlab import solve_curve

        paths = [tmp_path / "c1.csv", tmp_path / "c2.csv"]
        for path, sigma2 in zip(paths, (1.0, 2.0)):
            io.write_curve_csv(path, solve_curve(DensityGrid(8, np.full((8, 8), sigma2)), np.array([1j, 2j])))
        assert main(["compare", *map(str, paths), "--threshold-gap", "0.0"]) == 1
        assert main(["compare", *map(str, paths), "--threshold-gap", "1.0"]) == 0

    def test_solve_and_simulate_curves_on_a_descending_contour(self, tmp_path, capsys):
        # both commands keep the contour's order, so their curves compare point by point
        model = write_model(tmp_path, "0 0 1.0\n1 0 1.0\n0 1 1.0\n")
        ensemble = tmp_path / "ensemble.txt"
        ensemble.write_text("n = 24\nreplicates = 1\nseed = 7\nmodel = model.txt\n")
        spec = "im=0.05,re=9:-9:61"
        solve, sim = tmp_path / "solve", tmp_path / "simulate"
        assert main(["solve", str(model), "--grid", "32", "--contour", spec, "--out-dir", str(solve)]) == 0
        assert main(["simulate", str(ensemble), "--contour", spec, "--out-dir", str(sim)]) == 0
        curve = io.read_curve_csv(solve / "curve.csv")
        assert np.array_equal(curve.z, parse_contour_spec(spec))
        assert main(["compare", str(solve / "curve.csv"), str(sim / "curve.csv")]) == 0
        assert "sup_curve_gap=" in capsys.readouterr().out

    def test_curve_comparison(self, tmp_path, capsys):
        grid = DensityGrid(8, np.ones((8, 8)))
        from lsdlab import solve_curve

        curve = solve_curve(grid, np.array([1j, 2j]))
        p1 = tmp_path / "c1.csv"
        io.write_curve_csv(p1, curve)
        assert main(["compare", str(p1), str(p1), "--threshold-gap", "1e-12"]) == 0
        assert "sup_curve_gap=0" in capsys.readouterr().out

    def test_mixed_kinds_exit_2(self, tmp_path):
        p1, _ = self.make_tables(tmp_path)
        grid = DensityGrid(8, np.ones((8, 8)))
        from lsdlab import solve_curve

        curve = solve_curve(grid, np.array([1j]))
        pc = tmp_path / "c.csv"
        io.write_curve_csv(pc, curve)
        assert main(["compare", str(p1), str(pc)]) == 2

    def test_header_alone_decides_the_kind(self, tmp_path, capsys):
        p1, _ = self.make_tables(tmp_path)
        assert main(["compare", str(p1), str(p1), "--kind", "table"]) == 2
        assert "unrecognized arguments: --kind" in capsys.readouterr().err

    def test_garbage_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("what,is,this\n")
        assert main(["compare", str(bad), str(bad)]) == 2
        bad.write_text("x,density,cdf\n0,1,0\n1,one,1\n")
        assert main(["compare", str(bad), str(bad)]) == 2

    @pytest.mark.parametrize(
        "name, text, lineno",
        [
            ("curve.csv", "re_z,im_z,re_S,im_S,iterations,residual\n0,1,nan,0.5,3,0\n", 2),
            ("table.csv", "x,density,cdf\n0,1,0\n1,1,nan\n", 3),
            ("table.csv", "x,density,cdf\n0,1,0\n1,inf,1\n", 3),
        ],
        ids=["nan-curve", "nan-cdf", "inf-density"],
    )
    def test_non_finite_values_exit_2(self, tmp_path, capsys, name, text, lineno):
        path = tmp_path / name
        path.write_text(text)
        args = ["--threshold-gap", "1e-3"] if name == "curve.csv" else ["--threshold-k", "1.0"]
        assert main(["compare", str(path), str(path), *args]) == 2
        assert f"{name}:{lineno}: non-finite" in capsys.readouterr().err
