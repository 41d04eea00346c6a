import json

import numpy as np
import pytest

from lsdlab import DensityGrid, io
from lsdlab.cli import _threads, main, parse_contour_spec
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


def test_contour_spec_parsing():
    zs = parse_contour_spec("im=0.05,re=-3:3:121")
    assert zs.size == 121
    assert zs[0] == pytest.approx(-3 + 0.05j)
    assert zs[-1] == pytest.approx(3 + 0.05j)
    with pytest.raises(InvalidInput):
        parse_contour_spec("re=-3:3:5")
    with pytest.raises(InvalidInput):
        parse_contour_spec("im=0.05,re=-3:3:5,extra=1")


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

    def test_model_file_input_with_inversion(self, tmp_path):
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
                "--out-dir",
                str(out),
            ]
        )
        assert code == 0
        table = io.read_table_csv(out / "distribution.csv")
        assert table.cdf[-1] > 0.95
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["outputs"]) == {"curve.csv", "distribution.csv"}

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
        model = write_model(tmp_path, "0 0 1.0\n")
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
    def forbidden(*args, **kwargs):
        raise AssertionError("solved or simulated a non-finite spec")

    monkeypatch.setattr("lsdlab.cli.solve_curve", forbidden)
    monkeypatch.setattr("lsdlab.cli.ensemble_esd", forbidden)
    write_model(tmp_path, "0 0 1.0\n")
    cfg = tmp_path / "ensemble.txt"
    cfg.write_text("n = 8\nseed = 1\nmodel = model.txt\n")
    source = str(tmp_path / "model.txt") if command == "solve" else str(cfg)
    out = tmp_path / "o"
    assert main([command, source, *spec, "--out-dir", str(out)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


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
        log_lines = (out / "runlog.jsonl").read_text().splitlines()
        assert len(log_lines) == 2
        assert {"replicate", "seed", "n", "wall_time_s", "lambda_min", "lambda_max"} <= set(
            json.loads(log_lines[0])
        )

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
