import solver_search
from solver_search import PINNED, draw, main, search, solve_draw, summary


def totals(mode, draws, lines):
    return summary(search(mode, 7, draws, out=lines.append))


def test_a_slice_of_the_search_solves_every_point_and_repeats_its_counts():
    lines = []
    assert totals("absolute", 10, lines) == PINNED["absolute", 7, 10, False]
    assert totals("hard", 4, lines) == PINNED["hard", 7, 4, False]
    # a draw depends on its seed and index alone, so a shorter run repeats the first lines
    again = []
    assert totals("absolute", 1, again) == {"symmetric": (0, 831)}
    assert again == lines[:1]


def test_the_script_exits_1_where_a_pinned_run_moves(monkeypatch, capsys):
    # --plain solves each point with solve_profile, which never takes Newton steps
    argv = ["--mode", "hard", "--seed", "7", "--draws", "4", "--plain"]
    assert main(argv) == 0
    spike, sparse = PINNED["hard", 7, 4, True].values()
    monkeypatch.setitem(solver_search.PINNED, ("hard", 7, 4, True), {"spike": spike, "sparse": (0, sparse[1] + 1)})
    assert main(argv) == 1
    assert "totals differ from PINNED" in capsys.readouterr().err


def test_points_whose_direct_stage_fails_converge_on_the_ladder():
    # sparse 0/1 densities of hard mode at seed 7: at draw 7's point 39 (N = 23, rank 23,
    # z = 1.33e-6 i) a Newton point runs off to a residual of 6e5; at draw 13's point 6
    # (N = 27, z = 0.0178 i) the plain map's Anderson(1) falls into a period-3 cycle
    for index, k, plain in ((7, 39, False), (13, 6, True)):
        _, b, zs = draw("hard", 7, index)
        iterations, failed = solve_draw(b, zs[k : k + 1], plain)
        assert failed == []
        assert iterations > 10_000  # the direct stage's whole budget, then the ladder's stages


def test_draws_cover_every_kind_with_their_ranges():
    kinds = []
    for index in range(10):
        kind, b, zs = draw("absolute", 11, index)
        kinds.append(kind)
        assert 16 <= b.n <= 128 and 1e-2 <= b.mass <= 1e4
        assert len(zs) == 41 and len(set(zs.imag)) == 1 and 1e-10 <= zs[0].imag <= 1
        assert abs(zs.real).max() <= 3 * b.mass**0.5
    assert kinds == ["symmetric", "asymmetric", "band", "low-rank", "ar"] * 2
    spike, b, zs = draw("hard", 11, 0)
    assert spike == "spike" and b.n == 100 and b.mass == 1.0 and (zs.real == 0).all()
    sparse, b, zs = draw("hard", 11, 2)
    assert sparse == "sparse" and set(b.values.ravel()) <= {0.0, 1.0} and (b.values == b.values.T).all()
    assert zs.imag.max() == 0.1 and zs.imag.min() == 1e-6
