"""Property tests of the solver and inversion on random densities and contour points."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from lsdlab import (
    DEFAULT_CONFIG,
    DensityGrid,
    density_from_profile,
    invert_to_distribution,
    profile_from_steps,
    solve_curve,
    solve_product_form,
    solve_profile,
)

TOL = DEFAULT_CONFIG.tolerance
PROPERTY = settings(max_examples=30, deadline=None)
VALUES = st.floats(0.0, 4.0)
# The tolerance is absolute and |g| <= 1/Im z, so a tiny mass, whose heights
# scale with its square root, would ask for a residual below rounding.
MIN_MASS = 1e-2


def contour(draw, scale):
    """Points on a small grid of real parts and heights, so that columns sharing
    Re z and rows sharing Im z both occur. Heights lie on both sides of
    ``scale``, the square root of the contraction mass."""
    res = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3, unique=True))
    ims = draw(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=3, unique=True))
    return [complex(x * scale, y * scale) for x in res for y in ims]


def density(draw):
    """A random density and the square root of its mass (1 for a zero density).

    Half the draws are block densities: a k x k level matrix repeated over
    runs of equal rows and columns, which the solver takes one unknown per run.
    """
    if draw(st.booleans()):
        k = draw(st.integers(1, 6))
        levels = draw(arrays(np.float64, (k, k), elements=VALUES))
        rows = np.repeat(np.arange(k), draw(st.lists(st.integers(1, 4), min_size=k, max_size=k)))
        b = DensityGrid(len(rows), levels[np.ix_(rows, rows)])
    else:
        n = draw(st.integers(1, 24))
        b = DensityGrid(n, draw(arrays(np.float64, (n, n), elements=VALUES)))
    assume(b.mass == 0.0 or b.mass >= MIN_MASS)
    return b, np.sqrt(b.mass) if b.mass > 0 else 1.0


@st.composite
def density_problems(draw):
    b, scale = density(draw)
    return b, contour(draw, scale)


@st.composite
def horizontal_problems(draw):
    """A density, a horizontal contour wide enough to invert, and the grid xs
    it covers with the 5 eps margin inversion needs."""
    b, scale = density(draw)
    eps = draw(st.floats(0.05, 3.0)) * scale
    half = 5 * eps + draw(st.floats(0.1, 3.0)) * scale
    zs = np.linspace(-half, half, draw(st.integers(2, 41))) + 1j * eps
    xs = np.linspace(5 * eps - half, half - 5 * eps, draw(st.integers(2, 81)))
    return b, zs, xs


@st.composite
def profile_problems(draw):
    levels = draw(st.lists(st.floats(0.0, 2.0), min_size=1, max_size=8))
    t = profile_from_steps(levels, draw(st.integers(1, 24)))
    m2 = float(np.mean(t.values**2))
    assume(m2 == 0.0 or m2 >= MIN_MASS)
    return t, contour(draw, np.sqrt(m2) if m2 > 0 else 1.0)


@PROPERTY
@given(density_problems())
def test_curve_is_herglotz(problem):
    b, zs = problem
    curve = solve_curve(b, zs)
    assert (curve.S.imag > 0).all()
    assert (np.abs(curve.S) <= (1.0 + 1e-12) / curve.z.imag).all()
    assert (curve.residuals <= TOL).all()


@PROPERTY
@given(density_problems())
def test_block_solve_matches_single_point_solves(problem):
    b, zs = problem
    curve = solve_curve(b, zs)
    for z, s in zip(curve.z, curve.S):
        assert abs(s - solve_profile(b, z).S) <= 10 * TOL


@PROPERTY
@given(profile_problems())
def test_product_form_matches_full_solve(problem):
    t, zs = problem
    curve = solve_curve(density_from_profile(t), zs)
    for z, s in zip(curve.z, curve.S):
        assert abs(solve_product_form(t, z).S - s) <= 1e-7


@PROPERTY
@given(horizontal_problems())
def test_inverted_cdf_is_monotone(problem):
    b, zs, xs = problem
    table = invert_to_distribution(solve_curve(b, zs), xs)
    assert (np.diff(table.cdf) >= 0).all()
    assert table.uncaptured == 1.0 - table.cdf[-1]
