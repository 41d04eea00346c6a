import json

import numpy as np
import pytest

from lsdlab import DensityGrid, io
from lsdlab.cli import _threads, main, parse_contour_spec
from lsdlab.errors import InvalidInput


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

    def test_non_finite_density_csv_exits_2(self, tmp_path, capsys):
        grid_path = tmp_path / "density.csv"
        grid_path.write_text("2\n1,nan\n1,1\n")
        code = main(
            ["solve", str(grid_path), "--contour", "im=0.05,re=-1:1:3", "--out-dir", str(tmp_path / "o")]
        )
        assert code == 2
        assert "non-finite" in capsys.readouterr().err


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
